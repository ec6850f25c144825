"""The qrange benchmark: four workloads, end-to-end metrics, a traced per-layer run.

Run from the root of a qrange checkout::

    python3 perfbench/run.py --workload certify --seed 1 --seconds 25 --trace 0

``--workload all`` runs ``certify``, ``screen``, ``cli`` and ``sample`` in turn.
Every workload is a closed loop with one caller.  Each op's output is checked
(see README.md); failed ops count in ``failed`` and in ``error_rate``.  The
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of BENCHMARK.json with
``--trace 0``, its per-layer metrics with ``--trace 1``.  Lines before it
are the same numbers for people, plus the error rate, the tail percentile
and the input mix.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from refclock import reference_s, scale
from spans import summarize

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("certify", "screen", "cli", "sample")
# Library runs are split over fresh worker processes, so `import qrange` and
# set-up are timed once per worker and the median is reported.
WORKERS = 3
CLI_SETUPS = 5
CLI_COMMANDS = ("check", "fb-check", "cross-check", "witness", "separate", "reproduce")
# The instances whose sampled hole verdict acceptance test c9 pins at the CLI defaults.
SAMPLE_INSTANCES = ("saddle_pair_dependent", "tilted_saddle_mutual", "rank_deficient_4d", "bowl_vs_sheet_3d")
SAMPLE_COUNT = 100_000  # `qrange sample` default
TOL_RESIDUAL = 1e-7  # qrange's default witness tolerance
NONCONVEX = "NONCONVEX"
STEPS = range(4)


class BenchError(Exception):
    """The benchmark itself could not run (not a failed op)."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def run_child(args: list[str], timeout: float) -> subprocess.CompletedProcess:
    try:
        return subprocess.run(args, env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
        raise BenchError(f"{' '.join(args[:4])} timed out after {timeout} s") from exc


def input_latency(times: list[float]) -> float:
    """An input's latency from its repeats in the run: the 10th percentile when
    there are at least ten, so the tail shows the slowest inputs rather than
    moments when other tenants slowed the machine more than the reference
    loop; else the median."""
    if len(times) >= 10:
        return statistics.quantiles(times, n=10, method="inclusive")[0]
    return statistics.median(times)


def shares(values) -> dict:
    values = list(values)
    return {str(k): values.count(k) / len(values) for k in sorted(set(values))} if values else {}


# ---------------------------------------------------------------------------
# library workloads: certify, screen


def run_library(workload: str, seed: int, seconds: float, trace: bool, out: Path) -> dict:
    results = []
    for k in range(WORKERS):
        spans = str(out / f"spans-{k}.jsonl") if trace else "-"
        args = [sys.executable, str(HERE / "worker.py"), workload, str(seed), repr(seconds / WORKERS), spans]
        if trace and workload == "screen" and k == 0:
            args.append("--probe")
        proc = run_child(args, timeout=seconds + 120)
        if proc.returncode != 0:
            raise BenchError(f"{workload} worker exited {proc.returncode}: {proc.stderr[-2000:]}")
        results.append(json.loads(proc.stdout.splitlines()[-1]))

    first = results[0]
    per_case = [input_latency([x for r in results for x in r["times"][i]]) * 1e3 for i in range(first["pool"])]
    decided = [s for s in first["steps"] if s is not None]
    res = {
        "attempted": sum(r["ops"] + r.get("traced_ops", 0) for r in results),
        "failures": [f for r in results for f in r["failures"]],
        "setups": [r["setup_s"] for r in results],
        "raw_setups": [r["raw_setup_s"] for r in results],
        "throughput": sum(r["ops"] for r in results) / sum(r["loop_s"] for r in results),
        "raw_throughput": sum(r["ops"] for r in results) / sum(r["raw_loop_s"] for r in results),
        "latencies_ms": per_case,
        "latency_samples": "inputs",
        "inputs": {
            "pool": first["pool"],
            "family": shares(first["family"]),
            "n": shares(first["n"]),
            "log10_scale_abs_ge": {
                str(e): sum(abs(x) >= e for pair in first["log10_scale"] for x in pair) / (2 * first["pool"])
                for e in (1, 2)
            },
            "decided_at_step": shares(step for step, _ in decided),
            "nonconvex": sum(nc for _, nc in decided) / len(decided) if decided else 0.0,
        },
    }
    if trace:
        traced_rate = sum(r["traced_ops"] for r in results) / sum(r["traced_loop_s"] for r in results)
        res["span_files"] = [str(out / f"spans-{k}.jsonl") for k in range(WORKERS)]
        res["facts"] = {
            "cli.import_qrange_ms": statistics.median(r["import_ms"] for r in results),
            "cli.modules_loaded": first["modules_loaded"],
            "cli.scipy_loaded": int(first["scipy_loaded"]),
            "trace.overhead_ratio": res["throughput"] / traced_rate,
            "convexity.cross_check.wide_scale_failed_share": (
                first["probe_failed"] / first["probe_attempted"] if "probe_attempted" in first else 0.0
            ),
        }
        res["facts"].update(step_facts(res["inputs"]))
    return res


def step_facts(inputs: dict) -> dict:
    facts = {f"convexity.decided_at_step{k}.share": inputs["decided_at_step"].get(str(k), 0.0) for k in STEPS}
    facts["convexity.nonconvex.share"] = inputs["nonconvex"]
    return facts


# ---------------------------------------------------------------------------
# subprocess workloads: cli, sample


def quad(q: dict, x: list[float]) -> float:
    """``x'Ax + 2a'x + a0``, the problem-file convention."""
    A, a, n = q["A"], q["a"], len(x)
    quadratic = sum(x[i] * A[i][j] * x[j] for i in range(n) for j in range(n))
    return quadratic + 2 * sum(a[i] * x[i] for i in range(n)) + q["a0"]


def witness_ok(doc: dict, result: dict) -> bool:
    """Re-check a NONCONVEX witness from the problem file alone: both points hit
    one function's level and the other function's values straddle its level."""
    levels = (result["f_level"], result["g_level"])
    at_u, at_v = ((quad(doc["f"], x), quad(doc["g"], x)) for x in (result["witness"]["u"], result["witness"]["v"]))
    for hit, other in ((0, 1), (1, 0)):
        tol = TOL_RESIDUAL * max(1.0, abs(levels[hit]))
        hits = abs(at_u[hit] - levels[hit]) <= tol and abs(at_v[hit] - levels[hit]) <= tol
        if hits and (at_u[other] - levels[other]) * (at_v[other] - levels[other]) < 0:
            return True
    return False


def cli_setup(workload: str, seed: int, out: Path):
    """Curated expectations (from a fresh `import qrange`) and the op schedule."""
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    proc = run_child([sys.executable, str(HERE / "cli_entry.py"), "expect"], timeout=120)
    if proc.returncode != 0:
        raise BenchError(f"expectations helper exited {proc.returncode}: {proc.stderr[-2000:]}")
    expected = json.loads(proc.stdout)
    docs = {name: json.loads((ROOT / "instances" / f"{name}.json").read_text()) for name in expected}
    rng = random.Random(seed)
    if workload == "sample":
        names = list(SAMPLE_INSTANCES)
        rng.shuffle(names)

        def schedule(k: int):
            name = names[k % len(names)]
            return ["sample", "--input", f"instances/{name}.json", "--output", str(out / f"{name}.csv")], name, None

        return expected, docs, schedule
    names = sorted(expected)
    rng.shuffle(names)
    pairs = [(name, lc) for name in names for lc in expected[name]["level_checks"]]

    def schedule(k: int):
        command, j = CLI_COMMANDS[k % len(CLI_COMMANDS)], k // len(CLI_COMMANDS)
        if command == "reproduce":
            return ["reproduce"], None, None
        if command == "separate":
            name, lc = pairs[j % len(pairs)]
            argv = ["separate", "--input", f"instances/{name}.json", f"--alpha={lc[0]!r}", f"--beta={lc[1]!r}"]
            return argv, name, lc
        name = names[j % len(names)]
        return [command, "--input", f"instances/{name}.json"], name, None

    return expected, docs, schedule


def cli_gate(argv, name, lc, proc, expected, docs, facts) -> str | None:
    """Failure reason for one command, or None when its output is right."""
    if proc.returncode != 0:
        return f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"
    command = argv[0]
    if command == "reproduce":
        lines = proc.stdout.strip().splitlines()
        return None if lines and lines[-1].startswith("ALL PASS") else "reproduce did not print ALL PASS"
    try:
        result = json.loads(proc.stdout)["result"]
        want = expected[name]["verdict"]
        if command == "check":
            facts.setdefault("steps", []).append((result["path"][-1]["step"], result["verdict"] == NONCONVEX))
            ok = result["verdict"] == want and (want != NONCONVEX or witness_ok(docs[name], result))
        elif command == "fb-check":
            ok = result["verdict"] == want
        elif command == "cross-check":
            ok = result["agree"] and result["separation_verdict"] == want == result["flores_bazan_verdict"]
        elif command == "witness":
            ok = result["verdict"] == want and (
                want != NONCONVEX or (result["verification"]["valid"] and witness_ok(docs[name], result))
            )
        elif command == "separate":
            ok = [result["g_separates_f"], result["f_separates_g"]] == lc[2:]
        else:  # sample
            files = [Path(f) for f in result["files"]]
            if len(files) != 3 or not all(f.is_file() for f in files):
                return f"expected three CSV files, got {result['files']}"
            rows = files[0].read_bytes().count(b"\n") - 1
            if rows != SAMPLE_COUNT:
                return f"cloud has {rows} rows, expected {SAMPLE_COUNT}"
            facts.setdefault("bytes", []).append(sum(f.stat().st_size for f in files))
            ok = result["holes"]["suspected_nonconvex"] == (want == NONCONVEX)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"malformed output: {exc!r}"
    return None if ok else f"wrong result for {name}: {json.dumps(result)[:300]}"


def run_cli(workload: str, seed: int, seconds: float, trace: bool, out: Path) -> dict:
    setups, raw_setups = [], []
    for _ in range(CLI_SETUPS):
        ref = reference_s()
        start = time.perf_counter()
        expected, docs, schedule = cli_setup(workload, seed, out)
        raw_setups.append(time.perf_counter() - start)
        setups.append(raw_setups[-1] * scale(ref, reference_s()))
    plain = [sys.executable, "-m", "qrange"]
    latencies, raw_latencies, traced_latencies, failures, facts, span_files = [], [], [], [], {}, []
    ref = reference_s()
    start = time.perf_counter()
    k = 0
    while time.perf_counter() - start < seconds:
        argv, name, lc = schedule(k)
        variants = [(plain, latencies)]
        if trace:
            spans = str(out / f"spans-{k}.jsonl")
            span_files.append(spans)
            variants.append(([sys.executable, str(HERE / "cli_entry.py"), "trace", spans], traced_latencies))
        for prefix, sink in variants:
            t = time.perf_counter()
            proc = run_child(prefix + argv, timeout=120)
            raw_ms = (time.perf_counter() - t) * 1e3
            after = reference_s()
            sink.append(raw_ms * scale(ref, after))
            ref = after
            if sink is latencies:
                raw_latencies.append(raw_ms)
            failure = cli_gate(argv, name, lc, proc, expected, docs, facts)
            if failure is not None:
                failures.append(f"qrange {' '.join(argv)}: {failure}")
        k += 1
    decided = facts.get("steps", [])
    by_input: dict[tuple, list[float]] = {}
    for i, latency in enumerate(latencies):
        by_input.setdefault(tuple(schedule(i)[0]), []).append(latency)
    res = {
        "attempted": len(latencies) + len(traced_latencies),
        "failures": failures,
        "setups": setups,
        "raw_setups": raw_setups,
        # ops per second of op time; the loop has one caller and no think time
        "throughput": 1e3 * len(latencies) / sum(latencies),
        "raw_throughput": 1e3 * len(latencies) / sum(raw_latencies),
        "latencies_ms": [input_latency(times) for times in by_input.values()],
        "latency_samples": "command lines",
        "raw_latencies_ms": raw_latencies,
        "by_command": {  # unscaled, for comparison with wall-clock figures
            command: statistics.median(x for i, x in enumerate(raw_latencies) if schedule(i)[0][0] == command)
            for command in {schedule(i)[0][0] for i in range(len(latencies))}
        },
        "inputs": {
            "commands": shares(schedule(i)[0][0] for i in range(k)),
            "instances": shares(schedule(i)[1] for i in range(k) if schedule(i)[1]),
            "n": shares(len(docs[schedule(i)[1]]["f"]["a"]) for i in range(k) if schedule(i)[1]),
            "decided_at_step": shares(step for step, _ in decided),
            "nonconvex": sum(nc for _, nc in decided) / len(decided) if decided else 0.0,
        },
    }
    if trace:
        loaded = [json.loads(Path(p + ".facts.json").read_text()) for p in span_files]
        res["span_files"] = span_files
        res["facts"] = {
            "cli.import_qrange_ms": statistics.median(f["import_ms"] for f in loaded),
            "cli.modules_loaded": loaded[0]["modules_loaded"],
            "cli.scipy_loaded": int(loaded[0]["scipy_loaded"]),
            "trace.overhead_ratio": statistics.mean(traced_latencies) / statistics.mean(latencies),
            "range_oracle.emit_plot_data.bytes": statistics.mean(facts["bytes"]) if "bytes" in facts else 0.0,
            **step_facts(res["inputs"]),
        }
    return res


# ---------------------------------------------------------------------------
# metrics


def end_to_end(res: dict) -> dict:
    lat = sorted(res["latencies_ms"])
    # The highest rank with ten samples beyond it; the maximum if there are too few.
    tail = len(lat) - 11 if len(lat) > 10 else len(lat) - 1
    res["tail"] = {"percentile": 100.0 * (tail + 1) / len(lat), "samples": len(lat), "beyond": len(lat) - tail - 1}
    return {
        "setup_s": statistics.median(res["setups"]),
        "throughput_per_s": res["throughput"],
        "latency_p50_ms": statistics.median(lat),
        "latency_tail_ms": lat[tail],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
    }


SPAN_STATS = {
    "calls_per_op": lambda s, ops: s["calls"] / ops,
    "self_ms_per_op": lambda s, ops: s["self_ns"] / 1e6 / ops,
    "ms": lambda s, ops: s["total_ns"] / 1e6 / s["calls"] if s["calls"] else 0.0,
    "distinct_ratio": lambda s, ops: s["distinct"] / s["calls"] if s["calls"] else 0.0,
}
NO_CALLS = {"calls": 0, "total_ns": 0, "self_ns": 0, "distinct": 0}


def per_layer(names: list[str], res: dict) -> dict:
    """``<layer>.<function>.<stat>`` from the spans, or from facts measured outside
    them; a fact a workload does not measure reads 0."""
    ops, stats = summarize(res["span_files"])
    values = {}
    for name in names:
        span, _, stat = name.rpartition(".")
        if name in res["facts"] or stat not in SPAN_STATS:
            values[name] = float(res["facts"].get(name, 0.0))
        else:
            values[name] = SPAN_STATS[stat](stats.get(span, NO_CALLS), ops)
    return values


def run_workload(spec: dict, workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    out = OUT / workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    runner = run_library if workload in ("certify", "screen") else run_cli
    res = runner(workload, seed, seconds, trace, out)
    if trace:
        metrics = per_layer([m["name"] for m in spec["per_layer"]], res)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        metrics = end_to_end(res)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    return res, {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}


def report(workload: str, res: dict, metrics: dict) -> None:
    failed, attempted = len(res["failures"]), res["attempted"]
    print(f"== {workload}: closed loop, one caller; {attempted} ops, {failed} failed")
    for name, m in metrics.items():
        print(f"  {name:<58} {m['value']:>14.6g} {m['unit']}")
    if "tail" in res:
        t = res["tail"]
        print(f"  {'latency_tail_ms is at percentile':<58} {t['percentile']:>14.4g} "
              f"of {t['samples']} samples ({res['latency_samples']}), {t['beyond']} beyond")
    print(f"  {'error_rate':<58} {failed / attempted:>14.6g} ratio ({failed}/{attempted})")
    if "raw_throughput" in res and "tail" in res:
        print(f"  unscaled: setup_s {statistics.median(res['raw_setups']):.6g} s, "
              f"throughput_per_s {res['raw_throughput']:.6g} 1/s (times above are reference-scaled, see README)")
    if "by_command" in res:
        print(f"  unscaled latency_p50_ms by command {json.dumps(res['by_command'], sort_keys=True)}")
    print(f"  inputs {json.dumps(res['inputs'], sort_keys=True)}")
    for failure in res["failures"][:10]:
        print(f"  FAILED {failure}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [p for p in ("src/qrange/__init__.py", "instances", "BENCHMARK.json") if not (ROOT / p).exists()]
    if missing:
        print(f"error: run from the root of a qrange checkout; missing {missing}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        res, metrics = run_workload(spec, args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report(args.workload, res, metrics)
    failed = len(res["failures"])
    result = {"correct": failed == 0, "attempted": res["attempted"], "failed": failed, "metrics": metrics}
    (OUT / args.workload / "result.json").write_text(json.dumps({"result": result, "details": res}, indent=1))
    print(json.dumps(result))
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process, so peak RSS of children is per workload."""
    attempted = failed = 0
    metrics = {}
    for workload in WORKLOADS:
        argv = ["--workload", workload, "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run([sys.executable, __file__, *argv], cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(lines[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{workload}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
