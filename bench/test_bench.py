"""Tests of the benchmark itself: its metric catalogue, its correctness gate,
its tracer and its R-independence oracle.  None of them runs a workload."""

import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import child  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def spec():
    return json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def test_metric_names_and_units(spec):
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.fullmatch(m["unit"]), m


def test_catalogue_matches_code(spec):
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert ({m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
            == layers.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    empty = layers.Tracer().dump()
    process = {"import_s": 0.5, "report_bytes": 10, "cpu_s": 1.0,
               "overhead_frac": 0.1}
    assert set(layers.layer_metrics(empty, process)) == set(layers.PER_LAYER)


VERIFY_PREP = {"input": ".bench_work/verify-q4-input.json", "size": 255}
VERIFY_DOC = {"command": "verify", "input": VERIFY_PREP["input"],
              "mode": "strong", "size": 255, "status": "strong",
              "hyperplanes_checked": 266305}


def _bytes(doc):
    return json.dumps(doc, indent=2, sort_keys=True).encode()


def test_untouched_report_passes():
    report = _bytes(VERIFY_DOC)
    assert run.check_report("verify-q4", 0, report, None, VERIFY_PREP) == []
    assert run.check_report("verify-q4", 0, report, report, VERIFY_PREP) == []


@pytest.mark.parametrize("field, value", [
    ("status", "not-strong"),
    ("hyperplanes_checked", 266304),
    ("size", 254),
])
def test_tampered_report_fails(field, value):
    tampered = _bytes(dict(VERIFY_DOC, **{field: value}))
    assert run.check_report("verify-q4", 0, tampered, None, VERIFY_PREP)


def test_report_differing_from_reference_fails():
    reference = _bytes(VERIFY_DOC)
    other = reference.replace(b'"mode"', b' "mode"')
    assert json.loads(other) == VERIFY_DOC
    assert run.check_report("verify-q4", 0, other, reference, VERIFY_PREP)


def test_exit_code_and_garbage_fail():
    report = _bytes(VERIFY_DOC)
    assert run.check_report("verify-q4", 2, report, None, VERIFY_PREP)
    assert run.check_report("verify-q4", 0, b"{", None, VERIFY_PREP)
    assert run.check_report("verify-q4", 0, b"{}", None, VERIFY_PREP)


def test_plane_scan_witness_must_equal_alphas():
    doc = {"blocking": {"status": "not-blocking", "lines_scanned": 16781313,
                        "witness": [1, 2, 18]},
           "exhaustive": {"status": "found", "alphas": [1, 2, 18]}}
    assert run.check_report("plane-scan-q2", 0, _bytes(doc), None, None) == []
    doc["exhaustive"]["alphas"] = [1, 2, 19]
    assert run.check_report("plane-scan-q2", 0, _bytes(doc), None, None)


def test_pipeline_trials_are_checked():
    prep = {"program_seed": 1006, "trials": 12, "alphas": ["g^1", "g^2", "g^3"]}
    doc = {"seed": 1006,
           "search": {"status": "found", "trials": 12, "alphas": prep["alphas"]},
           "union": {"size": 120},
           "strong": {"status": "strong", "hyperplanes_checked": 20440},
           "code": {"parameters": [120, 4], "minimal": "minimal"}}
    assert run.check_report("pipeline-q3", 0, _bytes(doc), None, prep) == []
    doc["search"]["trials"] = 13
    assert run.check_report("pipeline-q3", 0, _bytes(doc), None, prep)


def test_oracle_agrees_with_search():
    from strongblock.partition import build_rgroup
    from strongblock.search import is_r_independent

    rg24 = build_rgroup(2, 4)
    rng = random.Random(3)
    seen = set()
    for _ in range(60):
        cosets = rng.sample(range(rg24.stride), 3)
        verdict = is_r_independent([rg24.coset_rep(c) for c in cosets], rg24)
        relation = child.has_r_relation(rg24, cosets)
        assert relation == (verdict.status == "dependent")
        seen.add(relation)
    assert seen == {True, False}


TRACED_SCRIPT = """
import json, sys
import strongblock, strongblock.cli
from strongblock import partition, search, strong
sys.path.insert(0, sys.argv[1])
from layers import Tracer
tracer = Tracer()
tracer.install()
for name in ("r_tuple_matrix", "subgeometry_points", "build_rgroup"):
    wrapper = getattr(partition, name)
    assert hasattr(wrapper, "__wrapped__")
    for mod in (search, strong, strongblock):
        assert getattr(mod, name, wrapper) is wrapper
Field = strongblock.field.Field
assert hasattr(Field.add_vec, "__wrapped__")
assert not any(hasattr(getattr(Field, n), "__wrapped__") for n in ("add", "mul", "sub"))
rg = strongblock.build_rgroup(2, 4)
res = search.find_independent_tuple(rg, 3, "random", seed=1)
print(json.dumps({"trials": res.trials, "dump": tracer.dump()}))
"""


def test_tracer_patches_names_imported_elsewhere():
    env = dict(os.environ, PYTHONPATH=str(BENCH.parent / "src"))
    out = subprocess.run([sys.executable, "-c", TRACED_SCRIPT, str(BENCH)],
                         env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    doc = json.loads(out.stdout)
    calls, counters = doc["dump"]["calls"], doc["dump"]["counters"]
    assert calls["partition.build_rgroup"] == 1
    assert calls["search.is_r_independent"] == doc["trials"]
    assert calls["partition.r_tuple_matrix"] == doc["trials"]
    assert counters["search.trials"] == doc["trials"]
    assert counters["search.found"] == 1
