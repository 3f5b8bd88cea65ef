"""Command line interface tests: exit codes, report shape, determinism."""

import json
import os
import pathlib
import shutil
import subprocess
import sys
import weakref

import pytest

import strongblock
from strongblock import cli, partition, strong
from strongblock.field import Field

GOLDEN = pathlib.Path(__file__).parent / "data" / "golden"


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, argv):
    code, out = run(capsys, argv)
    return code, json.loads(out)


def test_no_command_is_usage_error(capsys):
    assert cli.main([]) == 1
    capsys.readouterr()


def test_unknown_choice_is_usage_error(capsys):
    assert cli.main(["search", "--q", "2", "--strategy", "greedy"]) == 1
    capsys.readouterr()


def test_pipeline_small_case(capsys):
    code, doc = run_json(capsys, ["pipeline", "--q", "2", "--k", "3",
                                  "--seed", "1"])
    assert code == 0
    assert doc["schema"] == 1
    assert doc["search"]["status"] == "found"
    assert doc["union"]["size"] == 14 == doc["union"]["expected_size"]
    assert doc["strong"]["status"] == "strong"
    assert doc["code"]["minimal"] == "minimal"
    assert doc["code"]["parameters"] == [14, 3]
    assert doc["field"]["p"] == 2 and doc["field"]["m"] == 6


def test_pipeline_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        assert cli.main(["pipeline", "--q", "2", "--k", "3", "--seed", "5",
                         "--out", str(path)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_pipeline_saves_points(tmp_path, capsys):
    pts = tmp_path / "pts.json"
    code, doc = run_json(capsys, ["pipeline", "--q", "2", "--k", "3",
                                  "--points-out", str(pts)])
    assert code == 0
    from strongblock.geometry import PointSet
    assert len(PointSet.load(pts)) == 14


def test_partition_report(capsys):
    code, doc = run_json(capsys, ["partition", "--q", "2", "--k", "4"])
    assert code == 0
    assert doc["cosets"] == 39
    assert doc["coset_sizes"] == [15]
    assert doc["union_size"] == 585 == doc["space_points"]
    assert doc["is_partition"]


def test_search_report(capsys):
    code, doc = run_json(capsys, ["search", "--q", "2", "--k", "4",
                                  "--strategy", "random", "--seed", "1"])
    assert code == 0
    assert doc["status"] == "found"
    assert len(doc["alphas"]) == 3
    assert doc["certification"] == "exhaustive-bset-incidence"


@pytest.mark.parametrize("max_iters", ["0", "-5"])
def test_max_iters_below_1_is_usage_error(capsys, max_iters):
    # no trial at all is a usage error, not a search out of trials (exit 3)
    assert cli.main(["pipeline", "--q", "2", "--max-iters", max_iters]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: max_iters must be at least 1, not %s\n" % max_iters


def test_search_budget_exceeded(capsys):
    # the exhaustive quadruple scan marks the 6.9e10 planes of PG(3,4096)
    assert cli.main(["search", "--q", "2", "--k", "4", "--m", "4",
                     "--strategy", "exhaustive"]) == 3
    capsys.readouterr()


def test_search_prefix_over_budget_exits_3_at_once(tmp_path):
    # a random sextuple trial would enumerate the 1.3e8 R-points of
    # PG(4,4096), past SCAN_BUDGET; the first trial refuses instead of
    # guessing a verdict
    out = run_subprocess(["search", "--q", "2", "--k", "4", "--m", "6"],
                         tmp_path, timeout=60)
    assert out.returncode == 3
    assert out.stdout == ""
    assert out.stderr == ("budget exceeded: (r+1)^5 exceeds enumeration "
                          "budget\n")


def test_search_pigeonhole_is_immediate(tmp_path):
    # stride 3: any five nonzero entries put two in one coset of R*, so no
    # hyperplane of PG(4,64) is marked
    out = run_subprocess(["search", "--q", "2", "--k", "3", "--m", "5",
                          "--strategy", "exhaustive"], tmp_path, timeout=60)
    assert out.returncode == 2
    doc = json.loads(out.stdout)
    assert (doc["status"], doc["certification"], doc["trials"]) == (
        "not-found", "pigeonhole", 17043521)


def test_search_past_int64_indices_exits_1(tmp_path):
    # PG(4999,64) has 2^63 or more points, past the int64 canonical
    # indices: refused with a message before 64^5000 is formed
    out = run_subprocess(["search", "--q", "2", "--k", "3", "--m", "5000",
                          "--strategy", "exhaustive"], tmp_path, timeout=60)
    assert out.returncode == 1
    assert out.stdout == ""
    assert "2^63" in out.stderr and "Traceback" not in out.stderr


def test_search_exhaustive_q3(capsys):
    # PG(2,3^12) has 2.8e11 lines; the coset quotient needs 531,440 lookups
    code, doc = run_json(capsys, ["search", "--q", "3", "--k", "4",
                                  "--strategy", "exhaustive"])
    assert code == 0
    assert doc["status"] == "found"
    assert doc["alphas"] == ["g^0", "g^1", "g^5"]
    assert doc["trials"] == 1062889  # index of (1, g^1, g^5) plus one
    assert doc["certification"] == "coset-quotient"


def test_search_exhaustive_q4(capsys):
    # the certificate enumerates the 5,357 R-points of PG(1,2^24), not the
    # 2.87e7 of PG(2,2^24), so the found triple is certified
    code, doc = run_json(capsys, ["search", "--q", "4", "--k", "4",
                                  "--strategy", "exhaustive"])
    assert code == 0
    assert doc["status"] == "found"
    assert doc["alphas"] == ["g^0", "g^1", "g^2"]
    assert doc["trials"] == 33554436  # index of (1, g^1, g^2) plus one
    assert doc["certification"] == "coset-quotient"


def test_verify_and_code_roundtrip(tmp_path, capsys):
    pts = tmp_path / "pts.json"
    assert cli.main(["pipeline", "--q", "2", "--k", "3",
                     "--points-out", str(pts), "--out",
                     str(tmp_path / "report.json")]) == 0
    code, doc = run_json(capsys, ["verify", "--input", str(pts)])
    assert code == 0 and doc["status"] == "strong"
    code, doc = run_json(capsys, ["verify", "--input", str(pts),
                                  "--mode", "blocking"])
    assert code == 0 and doc["status"] == "blocking"
    exported = tmp_path / "code.json"
    code, doc = run_json(capsys, ["export-code", "--input", str(pts),
                                  "--output", str(exported)])
    assert code == 0 and doc["parameters"] == [14, 3]
    code, doc = run_json(capsys, ["check-minimal", "--input", str(exported)])
    assert code == 0
    assert doc["status"] == "minimal"
    assert doc["classes"] == 21


def test_verify_rejects_weak_set(tmp_path, capsys):
    from strongblock.geometry import PointSet, ProjectiveSpace
    space = ProjectiveSpace(Field.build(2, 3), 3)
    line = space.line_through((1, 0, 0, 0), (0, 1, 0, 0))
    pts = tmp_path / "line.json"
    PointSet(space, line).save(pts)
    code, doc = run_json(capsys, ["verify", "--input", str(pts)])
    assert code == 2
    assert doc["status"] == "not-strong"
    assert "witness" in doc
    pair = tmp_path / "pair.json"
    PointSet(space, line[:2]).save(pair)
    code, doc = run_json(capsys, ["verify", "--input", str(pair),
                                  "--mode", "blocking"])
    assert code == 2
    assert doc["status"] == "not-blocking"
    assert doc["hyperplanes_checked"] == 129


def test_verify_missing_file(tmp_path, capsys):
    assert cli.main(["verify", "--input", str(tmp_path / "nope.json")]) == 1
    capsys.readouterr()


def test_bounds_all_certified(capsys):
    code, doc = run_json(capsys, ["bounds", "--q-range", "7:101"])
    assert code == 0
    qs = [row["q"] for row in doc["rows"]]
    assert 9 not in qs
    assert qs[0] == 7 and qs[-1] == 101
    assert all(row["certified"] for row in doc["rows"])


def test_bounds_include_excluded(capsys):
    code, doc = run_json(capsys, ["bounds", "--q-range", "7:11",
                                  "--include-excluded"])
    assert code == 2
    bad = [row for row in doc["rows"] if not row["certified"]]
    assert [row["q"] for row in bad] == [9]
    assert bad[0]["inconclusive_e"] == [1]


def test_bounds_text_format(capsys):
    code, out = run(capsys, ["bounds", "--q-range", "7:13", "--format",
                             "text"])
    assert code == 0
    assert "q=7" in out and "certified" in out


def test_bounds_reversed_range_is_usage_error(capsys):
    # an empty range would report no rows, all of them certified
    assert cli.main(["bounds", "--q-range", "11:7"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ")


def run_subprocess(argv, cwd, timeout=120):
    src = os.path.dirname(os.path.dirname(strongblock.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    # a malformed input once hung here, so a hang fails the test instead
    return subprocess.run([sys.executable, "-m", "strongblock.cli", *argv],
                          cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=timeout)


def test_malformed_inputs_exit_1_with_message(tmp_path):
    doc = json.loads((GOLDEN / "pair_pg3_8.json").read_text())
    del doc["points"]
    (tmp_path / "nopoints.json").write_text(json.dumps(doc))
    (tmp_path / "noentries.json").write_text(json.dumps(
        {"field": doc["field"], "k": 2, "n": 2}))
    (tmp_path / "short.txt").write_text("2 3\n")
    pair = json.loads((GOLDEN / "pair_pg3_8.json").read_text())
    # the pair as a 4-row code: rows 2 and 3 are zero, so the rank is 2
    (tmp_path / "rank2.json").write_text(json.dumps(
        {"field": pair["field"], "k": 4, "n": 2,
         "entries": [[pt[i] for pt in pair["points"]] for i in range(4)]}))
    (tmp_path / "array.json").write_text("[1, 2]")
    pair["labels"] = {"2": "past the last point"}
    (tmp_path / "label.json").write_text(json.dumps(pair))
    pair["n"] = "3"
    (tmp_path / "strn.json").write_text(json.dumps(pair))
    code = json.loads((GOLDEN / "code_pair_pg3_8.json").read_text())
    code["field"]["m"] = "3"
    (tmp_path / "strcode.json").write_text(json.dumps(code))
    # these two hung: a huge n or k was used before any check on it
    pair["n"] = 10 ** 9
    (tmp_path / "hugen.json").write_text(json.dumps(pair))
    (tmp_path / "hugek.txt").write_text("2 3 1 1 0 1 1000000000 2\n")
    # PG(40, 8) has more than 2^63 points
    pair["n"], pair["points"] = 40, [["0"] * 40 + ["g^0"]]
    del pair["labels"]
    (tmp_path / "pg40.json").write_text(json.dumps(pair))
    # an element or a header token that does not parse, and a space of
    # dimension 0
    (tmp_path / "xhead.txt").write_text("2 3 1 1 0 1 x 2\n")
    pair = json.loads((GOLDEN / "pair_pg3_8.json").read_text())
    pair["points"][0][0] = "g^x"
    (tmp_path / "gx.json").write_text(json.dumps(pair))
    pair["points"][0][0] = "h"
    (tmp_path / "h.json").write_text(json.dumps(pair))
    pair["n"], pair["points"] = 0, [["g^0"]]
    (tmp_path / "n0.json").write_text(json.dumps(pair))
    pair["n"] = -1
    (tmp_path / "nminus1.json").write_text(json.dumps(pair))
    code = json.loads((GOLDEN / "code_pair_pg3_8.json").read_text())
    code["entries"][0][0] = "g^x"
    (tmp_path / "gxcode.json").write_text(json.dumps(code))
    code["k"], code["entries"] = 1, code["entries"][1:]
    (tmp_path / "k1.json").write_text(json.dumps(code))
    # a modulus that Field.build refuses, x^3 + x = x (x + 1)^2 over GF(2)
    pair["n"], pair["points"] = 3, [["g^0", "0", "0", "0"]]
    pair["field"]["modulus"] = [0, 1, 0, 1]
    (tmp_path / "reducible.json").write_text(json.dumps(pair))
    code["field"]["modulus"] = [0, 1, 0, 1]
    (tmp_path / "reduciblecode.json").write_text(json.dumps(code))
    for argv in (["verify", "--input", "nopoints.json"],
                 ["check-minimal", "--input", "noentries.json"],
                 ["check-minimal", "--input", "short.txt"],
                 ["check-minimal", "--input", "rank2.json"],
                 ["verify", "--input", "array.json"],
                 ["check-minimal", "--input", "array.json"],
                 ["verify", "--input", "label.json"],
                 ["verify", "--input", "strn.json"],
                 ["check-minimal", "--input", "strcode.json"],
                 ["verify", "--input", "hugen.json"],
                 ["check-minimal", "--input", "hugek.txt"],
                 ["verify", "--input", "pg40.json"],
                 ["check-minimal", "--input", "xhead.txt"],
                 ["verify", "--input", "gx.json"],
                 ["verify", "--input", "h.json"],
                 ["verify", "--input", "n0.json"],
                 ["verify", "--input", "nminus1.json"],
                 ["check-minimal", "--input", "gxcode.json"],
                 ["check-minimal", "--input", "k1.json"],
                 ["verify", "--input", "reducible.json"],
                 ["check-minimal", "--input", "reduciblecode.json"],
                 # m below 2, and m past the 3 cosets that a random
                 # search at q = 2, k = 3 can draw distinct
                 ["search", "--q", "2", "--k", "3", "--m", "0"],
                 ["search", "--q", "2", "--k", "3", "--m", "4"]):
        out = run_subprocess(argv, tmp_path)
        assert out.returncode == 1, argv
        assert out.stderr.startswith("error: "), out.stderr
        assert "Traceback" not in out.stderr
        # a file that does not parse is named once; rank2.json parses, and
        # its fault is the rank of the code
        if "--input" in argv and argv[-1] != "rank2.json":
            assert out.stderr.count(argv[-1]) == 1, out.stderr
        if argv[-1] in ("n0.json", "nminus1.json"):
            assert "projective dimension must be at least 1" in out.stderr


def test_huge_field_and_ragged_code_rows_exit_1(tmp_path):
    pair = json.loads((GOLDEN / "pair_pg3_8.json").read_text())
    pair["field"] = {"p": 3, "m": 10 ** 8, "modulus": [1, 1]}
    (tmp_path / "hugem.json").write_text(json.dumps(pair))
    code = json.loads((GOLDEN / "code_pair_pg3_8.json").read_text())
    code["entries"][1].append("0")
    (tmp_path / "ragged.json").write_text(json.dumps(code))
    for argv, message in (
            (["verify", "--input", "hugem.json"], "GF(3^100000000) exceeds"),
            (["check-minimal", "--input", "ragged.json"],
             "ragged.json: every code row needs n = 2 entries")):
        out = run_subprocess(argv, tmp_path, timeout=30)
        assert out.returncode == 1, argv
        assert out.stderr.startswith("error: ") and message in out.stderr


def test_cli_runs_do_not_import_numpy_ma():
    # a bare np.unique imports numpy.ma (about 18 ms) on its first call
    script = ("import sys\n"
              "from strongblock.cli import main\n"
              "code = main(sys.argv[1:])\n"
              "print('numpy.ma' in sys.modules, file=sys.stderr)\n")
    src = os.path.dirname(os.path.dirname(strongblock.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    for argv in (["verify", "--input", "points_q2_k3.json", "--mode",
                  "strong"],
                 ["pipeline", "--q", "2", "--k", "4"]):
        out = subprocess.run([sys.executable, "-c", script, *argv],
                             cwd=GOLDEN, env=env, capture_output=True,
                             text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        assert out.stderr.splitlines()[-1] == "False", argv


# Reports produced by the commands below, with the input files of
# tests/data/golden in the working directory; they pin stdout byte for byte.
GOLDEN_COMMANDS = [
    ("pipeline_q2_k3", ["pipeline", "--q", "2", "--k", "3", "--seed", "1"], 0),
    ("pipeline_q2_k4_seed_1",
     ["pipeline", "--q", "2", "--k", "4", "--seed", "1"], 0),
    ("search_q2_k3_exhaustive",
     ["search", "--q", "2", "--k", "3", "--strategy", "exhaustive"], 0),
    ("search_q2_k3_m3_exhaustive",
     ["search", "--q", "2", "--k", "3", "--m", "3", "--strategy",
      "exhaustive"], 2),
    ("verify_strong_points_q2_k3",
     ["verify", "--input", "points_q2_k3.json", "--mode", "strong"], 0),
    ("verify_blocking_points_q2_k3",
     ["verify", "--input", "points_q2_k3.json", "--mode", "blocking"], 0),
    ("verify_strong_pair_pg3_8",
     ["verify", "--input", "pair_pg3_8.json", "--mode", "strong"], 2),
    ("verify_blocking_pair_pg3_8",
     ["verify", "--input", "pair_pg3_8.json", "--mode", "blocking"], 2),
    # code_q2_k3.json is `export-code` of points_q2_k3.json; code_pair_pg3_8
    # is the pair of pair_pg3_8.json on the line it spans (its two nonzero
    # coordinates), a [2,2]_8 code whose weight-1 class sits inside another
    ("check_minimal_code_q2_k3",
     ["check-minimal", "--input", "code_q2_k3.json"], 0),
    ("check_minimal_code_pair_pg3_8",
     ["check-minimal", "--input", "code_pair_pg3_8.json"], 2),
    # a [6,3]_8 code with a zero column, an unnormalized column and a
    # scaled copy of the first column
    ("check_minimal_code_zero_column_pg2_8",
     ["check-minimal", "--input", "code_zero_column_pg2_8.json"], 2),
    ("bounds_q7_101", ["bounds", "--q-range", "7:101"], 0),
    ("bounds_qm3_30_include_excluded",
     ["bounds", "--q-range=-3:30", "--include-excluded"], 2),
    ("partition_q2_k4", ["partition", "--q", "2", "--k", "4"], 0),
    # more entries than the 3 cosets of R*: decided by pigeonhole
    ("search_q2_k3_m4_exhaustive",
     ["search", "--q", "2", "--k", "3", "--m", "4", "--strategy",
      "exhaustive"], 2),
    # a random search out of trials proves nothing: exit 3, no report
    ("pipeline_q2_k4_max_iters_1_seed_3",
     ["pipeline", "--q", "2", "--k", "4", "--max-iters", "1", "--seed", "3"],
     3),
    ("search_q2_k4_m5_max_iters_3",
     ["search", "--q", "2", "--k", "4", "--m", "5", "--max-iters", "3"], 3),
    # the strong scan's two paths: collinear_pg3_8.json (28 points) is
    # decided by section counts and secant lines and first fails at plane
    # 19, whose 3 points are collinear; points_q2_k4.json is `pipeline --q 2
    # --points-out` (45 points of PG(3,8), strong) and dense_pg3_4.json 60
    # of the 85 points of PG(3,4), both past the secant-line rule, and
    # points_pg4_2.json is 16 points of PG(4,2)
    ("verify_strong_points_q2_k4",
     ["verify", "--input", "points_q2_k4.json", "--mode", "strong"], 0),
    ("verify_strong_collinear_pg3_8",
     ["verify", "--input", "collinear_pg3_8.json", "--mode", "strong"], 2),
    ("verify_strong_dense_pg3_4",
     ["verify", "--input", "dense_pg3_4.json", "--mode", "strong"], 2),
    ("verify_strong_points_pg4_2",
     ["verify", "--input", "points_pg4_2.json", "--mode", "strong"], 2),
]


@pytest.mark.parametrize("name,argv,code", GOLDEN_COMMANDS,
                         ids=[c[0] for c in GOLDEN_COMMANDS])
def test_golden_reports(name, argv, code, tmp_path, monkeypatch, capsys):
    for data in GOLDEN.glob("*.json"):
        shutil.copy(data, tmp_path)
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == code
    assert capsys.readouterr().out.encode() == (GOLDEN / (name + ".out")).read_bytes()


def test_pipeline_frees_the_big_field_before_the_scans(monkeypatch, capsys):
    # GF(q^(k(k-1))) serves the construction only: once the union is built
    # its tables are unreachable, and refcounting alone frees them
    fields = []
    build = partition.build_rgroup
    verify = strong.verify_strong_blocking

    def kept_build(*args):
        rg = build(*args)
        fields.append(weakref.ref(rg.field))
        return rg

    def checked_verify(S):
        assert [ref() for ref in fields] == [None]
        return verify(S)

    monkeypatch.setattr(partition, "build_rgroup", kept_build)
    monkeypatch.setattr(strong, "verify_strong_blocking", checked_verify)
    code, out = run(capsys, ["pipeline", "--q", "2", "--k", "4", "--seed", "1"])
    assert code == 0
    assert out.encode() == (GOLDEN / "pipeline_q2_k4_seed_1.out").read_bytes()


def test_each_command_builds_each_field_once(tmp_path, monkeypatch, capsys):
    # Field.build caches nothing, and needs no cache while no command builds
    # one field (p, m and modulus) twice
    for data in GOLDEN.glob("*.json"):
        shutil.copy(data, tmp_path)
    monkeypatch.chdir(tmp_path)
    built = []
    init = Field.__init__

    def counted_init(self, p, m, modulus, *tables):
        built.append((p, m, tuple(modulus)))
        init(self, p, m, modulus, *tables)

    monkeypatch.setattr(Field, "__init__", counted_init)
    q3 = ("pipeline_q3_seed_1006", ["pipeline", "--q", "3", "--seed", "1006"],
          0)
    for name, argv, code in GOLDEN_COMMANDS + [q3]:
        built.clear()
        assert cli.main(argv) == code, name
        assert len(built) == len(set(built)), (name, built)
    # GF(3^12), where R* lives, and GF(3^3), the coordinate field
    assert sorted((p, m) for p, m, _ in built) == [(3, 3), (3, 12)]
    capsys.readouterr()
