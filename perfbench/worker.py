"""One process of a library workload (``certify`` or ``screen``).

Usage: ``python3 perfbench/worker.py WORKLOAD SEED SECONDS SPANS_FILE|- [--probe]``
with ``src`` on ``PYTHONPATH``.  Set-up is timed from the top of this script
(before ``import qrange``) to the first timed op.  The loop then runs whole
passes over the seeded pool until SECONDS have passed, so every run sees the
same input mix.  Every interval is also given in reference time
(refclock.py).  With a spans file, the first half of the time runs untraced
and the second half traced, and the spans are written to the file.  The
result is one JSON line on stdout.
"""

import time

from refclock import reference_s, scale

REF0 = reference_s()
T0 = time.perf_counter()

import json  # noqa: E402
import math  # noqa: E402
import sys  # noqa: E402

modules_before = len(sys.modules)
import qrange  # noqa: E402,F401

IMPORT_S = time.perf_counter() - T0
MODULES_LOADED = len(sys.modules) - modules_before

from qrange import convexity  # noqa: E402

import gen  # noqa: E402
from spans import Tracer  # noqa: E402

POOL = {"certify": 280, "screen": 1000}
SCREEN_LOG10_SCALE = 3.0  # per-function factors in [1e-3, 1e3]; see README
PROBE_LOG10_SCALE = 8.0
WARMUP = 20
CHUNK = 40


def certify_op(p):
    cert = convexity.check_convexity(p)
    return cert, True, convexity.verify_certificate(p, cert)


def screen_op(p):
    result = convexity.cross_check(p)
    cert = result.certificate
    verification = convexity.verify_certificate(p, cert) if cert.verdict == gen.NONCONVEX else None
    return cert, result.agree, verification


def attempt(op, case):
    """Run one op; returns (seconds, certificate or None, failure reason or None)."""
    start = time.perf_counter()
    try:
        cert, agree, verification = op(case.problem)
    except Exception as exc:  # a raising op is a failed op, counted and reported
        return time.perf_counter() - start, None, f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    if not agree:
        return elapsed, cert, "checkers disagree"
    if cert.verdict != case.verdict:
        return elapsed, cert, f"verdict {cert.verdict}, constructed {case.verdict}"
    if verification is not None and not verification["valid"]:
        return elapsed, cert, "certificate fails verify_certificate"
    return elapsed, cert, None


def run_passes(pool, op, budget, tracer, first_op_id):
    """Whole passes over the pool until ``budget`` seconds have passed.

    The reference loop is timed between chunks of CHUNK ops, and each chunk's
    times are scaled by it.  Returns per-input op times and the loop time,
    both in reference seconds, the loop time in raw seconds, the failures,
    each input's decision step and verdict, and the op count.
    """
    times = [[] for _ in pool]
    failures = []
    steps = [None] * len(pool)
    op_id = first_op_id
    loop_s = raw_loop_s = 0.0
    ref = reference_s()
    while raw_loop_s < budget:
        for chunk in range(0, len(pool), CHUNK):
            chunk_times = []
            start = time.perf_counter()
            for i in range(chunk, min(chunk + CHUNK, len(pool))):
                case = pool[i]
                if tracer is None:
                    elapsed, cert, failure = attempt(op, case)
                else:
                    with tracer.op(op_id):
                        elapsed, cert, failure = attempt(op, case)
                op_id += 1
                chunk_times.append((i, elapsed))
                if failure is not None:
                    failures.append(f"case {i} ({case.family}, n={case.problem.n}): {failure}")
                if cert is not None:
                    steps[i] = (cert.path[-1]["step"], cert.verdict == gen.NONCONVEX)
            chunk_s = time.perf_counter() - start
            after = reference_s()
            factor = scale(ref, after)
            ref = after
            for i, elapsed in chunk_times:
                times[i].append(elapsed * factor)
            loop_s += chunk_s * factor
            raw_loop_s += chunk_s
    return times, failures, steps, loop_s, raw_loop_s, op_id - first_op_id


def probe(seed):
    """Failures of the screen op at per-function scales in [1e-8, 1e8] (ROADMAP item 3)."""
    cases = gen.screen_pool(seed, 1000, PROBE_LOG10_SCALE)
    return sum(attempt(screen_op, case)[2] is not None for case in cases), len(cases)


def main(argv):
    workload, seed, seconds, spans_path = argv[0], int(argv[1]), float(argv[2]), argv[3]
    if workload == "certify":
        pool, op = gen.certify_pool(seed, POOL["certify"]), certify_op
    else:
        pool, op = gen.screen_pool(seed, POOL["screen"], SCREEN_LOG10_SCALE), screen_op
    for case in pool[:WARMUP]:
        attempt(op, case)
    raw_setup_s = time.perf_counter() - T0
    setup_s = raw_setup_s * scale(REF0, reference_s())

    traced = spans_path != "-"
    out = {"setup_s": setup_s, "raw_setup_s": raw_setup_s, "import_ms": IMPORT_S * 1e3,
           "modules_loaded": MODULES_LOADED, "scipy_loaded": "scipy" in sys.modules, "pool": len(pool),
           "n": [c.problem.n for c in pool], "family": [c.family for c in pool],
           "log10_scale": [[math.log10(s) for s in c.scale] for c in pool]}
    if traced and "--probe" in argv:
        out["probe_failed"], out["probe_attempted"] = probe(seed)
    budget = seconds / 2 if traced else seconds
    times, failures, steps, loop_s, raw_loop_s, ops = run_passes(pool, op, budget, None, 0)
    out.update(loop_s=loop_s, raw_loop_s=raw_loop_s, ops=ops)
    if traced:
        tracer = Tracer()
        tracer.install()
        _, t_failures, _, t_loop_s, _, t_ops = run_passes(pool, op, budget, tracer, ops)
        tracer.dump(spans_path)
        out.update(traced_loop_s=t_loop_s, traced_ops=t_ops)
        failures += t_failures
    out.update(times=times, failures=failures, steps=steps)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
