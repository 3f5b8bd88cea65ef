"""The strongblock benchmark: exhaustive-verification workloads, run as a
closed loop with one client.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Each operation runs in a fresh child process (`child.py`) while this process
waits, so at most one process is busy.  `--trace 0` measures the end-to-end
metrics: a fresh-process set-up time (median of SETUP_RUNS), then operations
until `--seconds` have passed (at least one), each timed from spawn to exit
and accounted with `os.wait4`, so its peak RSS is its own and not the largest
of all children so far.  `--trace 1` runs one untraced and one traced
operation and reports the per-layer metrics of `layers.py`.  Every report is
checked against the workload's expected verdict and counts, and all reports
of one invocation, traced or not, must be byte-identical.

The last stdout line is one JSON object: correct, attempted, failed, metrics.
The line before it records the environment and the inputs.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, NamedTuple

from layers import PER_LAYER, layer_metrics

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
CHILD = str(BENCH / "child.py")

SETUP_RUNS = 7
DEADLINE_S = 170  # the whole invocation must end within 180 s

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Expected outputs.  pipeline-q3 and verify-q4 inputs come from the seed;
# their expected search result and point set come from `child.prep`.
PLANE_SCAN_LINES = 16_781_313  # points of PG(2, 4096)
PIPELINE_PLANES = 20_440       # points of PG(3, 27)
VERIFY_PLANES = 266_305        # points of PG(3, 64)


def _check_pipeline(doc, prep):
    search, code = doc["search"], doc["code"]
    return [
        ("seed", doc["seed"], prep["program_seed"]),
        ("search.status", search["status"], "found"),
        ("search.trials", search["trials"], prep["trials"]),
        ("search.alphas", search["alphas"], prep["alphas"]),
        ("union.size", doc["union"]["size"], 120),
        ("strong.status", doc["strong"]["status"], "strong"),
        ("strong.hyperplanes_checked", doc["strong"]["hyperplanes_checked"],
         PIPELINE_PLANES),
        ("code.parameters", code["parameters"], [120, 4]),
        ("code.minimal", code["minimal"], "minimal"),
    ]


def _check_plane_scan(doc, prep):
    blocking, exhaustive = doc["blocking"], doc["exhaustive"]
    return [
        ("blocking.status", blocking["status"], "not-blocking"),
        ("blocking.lines_scanned", blocking["lines_scanned"], PLANE_SCAN_LINES),
        ("exhaustive.status", exhaustive["status"], "found"),
        ("blocking.witness", blocking["witness"], exhaustive["alphas"]),
    ]


def _check_verify(doc, prep):
    return [
        ("input", doc["input"], prep["input"]),
        ("size", doc["size"], prep["size"]),
        ("status", doc["status"], "strong"),
        ("hyperplanes_checked", doc["hyperplanes_checked"], VERIFY_PLANES),
    ]


class Workload(NamedTuple):
    prep: bool       # inputs come from a `child.py prep` process
    op_argv: Callable    # prep -> CLI arguments of one operation
    setup_argv: Callable  # prep -> arguments of the set-up child
    checks: Callable     # (report doc, prep) -> [(field, got, expected)]


def _no_args(prep):
    return []


WORKLOADS = {
    "pipeline-q3": Workload(
        True,
        lambda prep: ["pipeline", "--q", "3", "--k", "4",
                      "--seed", str(prep["program_seed"])],
        _no_args, _check_pipeline),
    "plane-scan-q2": Workload(False, _no_args, _no_args, _check_plane_scan),
    "verify-q4": Workload(
        True,
        lambda prep: ["verify", "--mode", "strong", "--input", prep["input"]],
        lambda prep: [prep["input"]], _check_verify),
}


def check_report(workload, rc, report, reference, prep):
    """Problems with one operation's exit code and report bytes; [] if none.

    `reference` is the first report of the invocation (None for the first).
    """
    if rc != 0:
        return ["exit code %d" % rc]
    try:
        doc = json.loads(report)
        checks = WORKLOADS[workload].checks(doc, prep)
    except (ValueError, KeyError, TypeError) as exc:
        return ["unreadable report: %r" % (exc,)]
    problems = ["%s is %r, expected %r" % (name, got, want)
                for name, got, want in checks if got != want]
    if reference is not None and report != reference:
        problems.append("report bytes differ from the first report")
    return problems


# ---------------------------------------------------------------------------
# child processes


class ChildTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise ChildTimeout()


def child_env():
    """The parent environment, pinned: the checkout's src first, no field
    table cache (set-up would time an .npz load), single-threaded BLAS."""
    env = dict(os.environ)
    env.pop("STRONGBLOCK_CACHE_DIR", None)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


class Runner:
    """Spawns children one at a time and reaps each with `os.wait4`."""

    def __init__(self, deadline):
        self.deadline = deadline
        self.env = child_env()
        self.count = 0

    def spawn(self, argv):
        """Run `child.py argv` to completion.

        Returns (exit code, wall seconds, rusage, stdout bytes).
        """
        self.count += 1
        out = WORK / ("child-%d.out" % self.count)
        actions = [(os.POSIX_SPAWN_OPEN, 1, str(out),
                    os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)]
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise ChildTimeout()
        signal.setitimer(signal.ITIMER_REAL, timeout)
        t0 = time.perf_counter()
        pid = os.posix_spawn(sys.executable, [sys.executable, CHILD, *argv],
                             self.env, file_actions=actions)
        try:
            _, status, usage = os.wait4(pid, 0)
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            raise
        finally:
            wall = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0)
        return os.waitstatus_to_exitcode(status), wall, usage, out.read_bytes()

    def json_child(self, argv):
        rc, _, _, out = self.spawn(argv)
        if rc != 0:
            raise RuntimeError("child %r exited with %d" % (argv, rc))
        return json.loads(out)


# ---------------------------------------------------------------------------
# measurement


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def _cpu(usage):
    return usage.ru_utime + usage.ru_stime


def measure(runner, workload, prep, seconds):
    """End-to-end samples: set-up walls, then operations for `seconds`."""
    wl = WORKLOADS[workload]
    samples = {"setup_s": [], "wall_s": [], "peak_rss_mb": [], "cpu_s": []}
    for _ in range(SETUP_RUNS):
        rc, wall, _, _ = runner.spawn(["setup", workload, *wl.setup_argv(prep)])
        if rc != 0:
            raise RuntimeError("set-up of %s exited with %d" % (workload, rc))
        samples["setup_s"].append(wall)
    failures = []
    reference = None
    start = time.perf_counter()
    while True:
        rc, wall, usage, report = runner.spawn(["op", workload, *wl.op_argv(prep)])
        problems = check_report(workload, rc, report, reference, prep)
        reference = reference or report
        failures.append(problems)
        samples["wall_s"].append(wall)
        samples["peak_rss_mb"].append(usage.ru_maxrss / 1024)
        samples["cpu_s"].append(_cpu(usage))
        elapsed = time.perf_counter() - start
        if elapsed >= seconds or time.monotonic() + wall > runner.deadline:
            break
    return samples, failures, reference


def measure_traced(runner, workload, prep):
    """One untraced and one traced operation; per-layer metrics of the latter."""
    argv = [workload, *WORKLOADS[workload].op_argv(prep)]
    rc, wall, usage, report = runner.spawn(["op", *argv])
    failures = [check_report(workload, rc, report, None, prep)]
    trace_file = WORK / "trace.json"
    rc_t, wall_t, _, report_t = runner.spawn(
        ["op", "--trace", str(trace_file), *argv])
    failures.append(check_report(workload, rc_t, report_t, report, prep))
    traced = json.loads(trace_file.read_text())
    metrics = layer_metrics(traced["trace"], {
        "import_s": traced["import_s"],
        "report_bytes": len(report),
        "cpu_s": _cpu(usage),
        "overhead_frac": wall_t / wall - 1,
    })
    return metrics, failures, report


def environment(versions, workload, seed, prep, report):
    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30).stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src.update(str(path.relative_to(SRC)).encode() + b"\0")
        src.update(path.read_bytes())
    env = dict(versions, nproc=os.cpu_count(), commit=commit,
               src_sha256=src.hexdigest(), workload=workload, seed=seed,
               prep=prep, report_sha256=hashlib.sha256(report).hexdigest())
    if prep and "input" in prep:
        env["input_sha256"] = hashlib.sha256(
            Path(prep["input"]).read_bytes()).hexdigest()
    return env


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    if not (SRC / "strongblock" / "__init__.py").is_file():
        print("error: no strongblock package under %s" % SRC, file=sys.stderr)
        return 2
    os.chdir(ROOT)
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    signal.signal(signal.SIGALRM, _on_alarm)
    runner = Runner(time.monotonic() + DEADLINE_S)

    # the probe also compiles the package's bytecode before anything is timed
    versions = runner.json_child(["versions"])
    prep = None
    if WORKLOADS[args.workload].prep:
        prep = runner.json_child(
            ["prep", args.workload, str(args.seed), str(WORK.relative_to(ROOT))])

    if args.trace:
        metrics, failures, report = measure_traced(runner, args.workload, prep)
        units = {name: unit for name, (unit, _) in PER_LAYER.items()}
        for name, unit in units.items():
            print("%-38s %14.6g %s" % (name, metrics[name], unit))
    else:
        samples, failures, report = measure(runner, args.workload, prep,
                                            args.seconds)
        metrics = {}
        units = dict(END_TO_END, cpu_s="s")
        for name, values in samples.items():
            q1, med, q3 = quartiles(values)
            print("%-12s median %10.4f  q1 %10.4f  q3 %10.4f  n=%d  %s"
                  % (name, med, q1, q3, len(values), units[name]))
            if name in END_TO_END:
                metrics[name] = med
        failed_share = sum(1 for f in failures if f) / len(failures)
        print("%-12s %10.4f  of n=%d operations  share"
              % ("failed_ops", failed_share, len(failures)))

    for i, problems in enumerate(failures):
        for problem in problems:
            print("operation %d failed: %s" % (i + 1, problem), file=sys.stderr)
    print(json.dumps({"env": environment(versions, args.workload, args.seed,
                                         prep, report)}, sort_keys=True))
    failed = sum(1 for f in failures if f)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(failures),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
