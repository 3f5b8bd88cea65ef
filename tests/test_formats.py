"""Hypothesis round-trips of the file formats over small fields with
explicit moduli: point sets through JSON, generator matrices through the
json and text formats.  Codes are drawn through the int32 `log` table, so
`elem_str` and `parse_elem` see int32 codes as well as Python integers.
Label keys of a points file that are not decimal row indices exit 1."""

import json
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strongblock import cli
from strongblock import field as field_mod
from strongblock.codes import GeneratorMatrix, export_code, import_code
from strongblock.field import Field
from strongblock.geometry import PointSet, ProjectiveSpace


def primitive_moduli(p, m):
    """Every monic primitive polynomial of degree m over GF(p)."""
    candidates = (tuple(packed // p ** i % p for i in range(m)) + (1,)
                  for packed in range(p ** m))
    return [mod for mod in candidates
            if mod[0] and field_mod._is_primitive(mod, p)]


MODULI = [(p, m, mod)
          for p, m in [(2, 1), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3),
                       (5, 2), (7, 1), (7, 2), (13, 1)]
          for mod in primitive_moduli(p, m)]


@st.composite
def fields(draw):
    p, m, mod = draw(st.sampled_from(MODULI))
    return Field.build(p, m, mod)


def int32_codes(draw, f, rows, cols):
    """A (rows, cols) int32 code array: random packed digits through log."""
    packed = np.array(draw(st.lists(st.integers(0, f.order - 1),
                                    min_size=rows * cols,
                                    max_size=rows * cols)),
                      dtype=np.int64).reshape(rows, cols)
    return np.where(packed == 0, 0, f.log[packed] + 1)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_pointset_json_roundtrip(data):
    f = data.draw(fields())
    n = data.draw(st.integers(1, 3))
    rows = int32_codes(data.draw, f, data.draw(st.integers(0, 6)), n + 1)
    assert rows.dtype == np.int32
    ps = PointSet(ProjectiveSpace(f, n), [tuple(r) for r in rows if r.any()])
    for pt in ps.points:
        if data.draw(st.booleans()):
            ps.labels[pt] = data.draw(st.integers(0, 10 ** 6))
    back = PointSet.from_json(json.loads(json.dumps(ps.to_json())))
    assert back.space.field.meta() == f.meta() and back.space.n == n
    assert back.points == ps.points
    assert back.labels == ps.labels


@settings(max_examples=60, deadline=None)
@given(st.data(), st.sampled_from(["json", "text"]))
def test_code_export_import_roundtrip(tmp_path_factory, data, format):
    f = data.draw(fields())
    k, n = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 8))
    entries = int32_codes(data.draw, f, k, n)
    G = GeneratorMatrix(field=f, k=k, n=n, entries=entries)
    path = tmp_path_factory.getbasetemp() / ("code." + format)
    export_code(G, path)
    back = import_code(path)
    assert back == G
    assert back.field.meta() == f.meta()
    assert back.entries.dtype == np.int64


@pytest.mark.parametrize("key", ["\u00b2", "1\u00b2"])
def test_superscript_label_key_exits_1(tmp_path, capsys, key):
    # str.isdigit() holds for a superscript two, which int() refuses
    golden = pathlib.Path(__file__).parent / "data" / "golden"
    doc = json.loads((golden / "points_q2_k3.json").read_text())
    doc["labels"] = {key: 0}
    path = tmp_path / "labels.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["verify", "--input", str(path)]) == 1
    assert capsys.readouterr().err == (
        "error: %s: points JSON: label key %r is not a point index\n"
        % (path, key))
