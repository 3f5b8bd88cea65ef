"""One benchmark process: an operation, a set-up, an input generator, or the
version probe.  `run.py` starts each in a fresh interpreter with PYTHONPATH
pointing at the checkout's `src`, so every figure is of a cold process.

    child.py versions
    child.py prep <workload> <seed> <workdir>
    child.py setup <workload> [<input>]
    child.py op [--trace <file>] <workload> [<cli args> ...]

An operation's report goes to stdout; a traced operation also writes its
aggregated spans to the trace file.
"""

from __future__ import annotations

import json
import os
import random
import sys
import time
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parent.parent / "src"

# the pipeline-q3 search must make this many trials (see `pipeline_seed`)
PIPELINE_TRIALS = 12


def _import_strongblock():
    """Import the checkout's package; refuse any other copy."""
    t0 = time.perf_counter()
    import strongblock
    import strongblock.cli  # noqa: F401  (the tracer patches every module)
    import_s = time.perf_counter() - t0
    origin = Path(strongblock.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        sys.exit("strongblock imported from %s, not from %s" % (origin, SRC))
    return strongblock, import_s


# ---------------------------------------------------------------------------
# an R-independence oracle that shares no code with strongblock.search


def _poly_add(x, y, p, m):
    """Digit-wise sum mod p of base-p packed polynomial arrays."""
    if p == 2:
        return x ^ y
    out = np.zeros_like(x)
    w = 1
    for _ in range(m):
        out += ((x // w + y // w) % p) * w
        w *= p
    return out


def has_r_relation(rg, exps):
    """Whether g^e1, g^e2, g^e3 satisfy a nontrivial relation over R.

    R is R* plus zero.  R* is a group that contains -1, so a relation with
    rho_1 != 0 scales to rho_1 = 1, and then holds exactly when
    (g^e1 + rho_2 g^e2) / g^e3 lies in R for one of the r+1 values of rho_2.
    With rho_1 = 0 it needs g^(e2-e3) in R*.  This is r+1 field additions,
    where `search.is_r_independent` enumerates all (r+1)^2 R-points.
    """
    f, stride = rg.field, rg.stride
    e1, e2, e3 = (int(e) for e in exps)
    if (e2 - e3) % stride == 0:
        return True
    rho2 = np.arange(rg.r, dtype=np.int64) * stride
    x = _poly_add(np.full(rg.r, f.exp[e1]), f.exp[(e2 + rho2) % f.group_order],
                  f.p, f.m)
    x = np.append(x, f.exp[e1])  # rho_2 = 0
    if np.any(x == 0):
        return True
    return bool(np.any((f.log[x] - e3) % stride == 0))


def first_independent(rg, rng, max_draws=10 ** 4):
    """Coset triples drawn as `find_independent_tuple` draws them; returns
    (draws, cosets) for the first triple with no R-relation."""
    for draw in range(1, max_draws + 1):
        cosets = rng.sample(range(rg.stride), 3)
        if not has_r_relation(rg, cosets):
            return draw, cosets
    raise RuntimeError("no R-independent triple in %d draws" % max_draws)


def pipeline_seed(rg, seed):
    """The first program seed in [1000*seed, 1000*seed + 1000) whose random
    search takes exactly PIPELINE_TRIALS trials.

    The trial count is the only input property that changes the pipeline's
    cost, and it is geometric (2 to 40 trials over seeds 1-14), so a free
    seed would make wall time a draw of it rather than of the code.
    """
    for program_seed in range(1000 * seed, 1000 * seed + 1000):
        trials, cosets = first_independent(rg, random.Random(program_seed))
        if trials == PIPELINE_TRIALS:
            return program_seed, cosets
    raise RuntimeError("no seed with %d trials near %d" % (PIPELINE_TRIALS, seed))


def prep(workload, seed, workdir):
    sb, _ = _import_strongblock()
    if workload == "pipeline-q3":
        rg = sb.build_rgroup(3, 4)
        program_seed, cosets = pipeline_seed(rg, seed)
        return {"program_seed": program_seed, "trials": PIPELINE_TRIALS,
                "alphas": ["g^%d" % c for c in cosets]}
    if workload == "verify-q4":
        rg = sb.build_rgroup(4, 4)
        draws, cosets = first_independent(rg, random.Random(seed))
        ps = sb.union_subgeometries(rg, [rg.coset_rep(c) for c in cosets])
        path = os.path.join(workdir, "verify-q4-input.json")
        ps.save(path)
        return {"input": path, "cosets": cosets, "draws": draws,
                "size": len(ps)}
    raise ValueError("workload %r needs no input" % workload)


# ---------------------------------------------------------------------------
# set-up and operations


def setup(workload, extra):
    sb, _ = _import_strongblock()
    if workload == "pipeline-q3":
        sb.build_rgroup(3, 4)
    elif workload == "plane-scan-q2":
        sb.build_bset(sb.build_rgroup(2, 4))
    elif workload == "verify-q4":
        sb.PointSet.load(extra[0])
    else:
        raise ValueError("unknown workload %r" % workload)


def plane_scan(sb):
    """Criterion-08 pair: both exhaustive dual-marking scans of B(4,2)."""
    rg = sb.build_rgroup(2, 4)
    bset = sb.build_bset(rg)
    verdict = sb.blocking_status(bset)
    res = sb.find_independent_tuple(rg, 3, "exhaustive")
    report = {
        "blocking": {"status": verdict.status, "method": verdict.method,
                     "lines_scanned": verdict.lines_scanned,
                     "witness": list(verdict.witness or [])},
        "exhaustive": {"status": res.status, "trials": res.trials,
                       "certification": res.certification,
                       "alphas": list(res.alphas or [])},
    }
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


def op(workload, extra, trace_path):
    sb, import_s = _import_strongblock()
    tracer = None
    if trace_path:
        from layers import Tracer

        tracer = Tracer()
        tracer.install()
    if workload == "plane-scan-q2":
        rc = plane_scan(sb)
    else:
        rc = sb.cli.main(extra)
    sys.stdout.flush()
    if tracer is not None:
        with open(trace_path, "w") as fh:
            json.dump({"trace": tracer.dump(), "import_s": import_s}, fh)
    return rc


def main(argv):
    kind, rest = argv[0], argv[1:]
    if kind == "versions":
        sb, _ = _import_strongblock()
        import sympy

        print(json.dumps({"python": sys.version.split()[0],
                          "numpy": np.__version__,
                          "sympy": sympy.__version__,
                          "strongblock": sb.__version__}))
        return 0
    if kind == "prep":
        print(json.dumps(prep(rest[0], int(rest[1]), rest[2])))
        return 0
    if kind == "setup":
        setup(rest[0], rest[1:])
        return 0
    if kind == "op":
        trace_path = None
        if rest[0] == "--trace":
            trace_path, rest = rest[1], rest[2:]
        return op(rest[0], rest[1:], trace_path)
    raise ValueError("unknown child kind %r" % kind)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
