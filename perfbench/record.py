"""Record a baseline: the environment, the command, and every run's results.

Run from the repository root::

    python3 perfbench/record.py --seeds 1,2,3 --seconds 25

It runs ``perfbench/run.py`` on every workload with ``--trace 0`` and
``--trace 1`` for each seed, one run at a time, and writes
``perfbench/baseline.json`` (or ``--output``).  The summary holds the median
over seeds of every metric; times marked ``unscaled`` are raw wall time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("certify", "screen", "cli", "sample")


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
    }


def commit() -> str | None:
    proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1,2,3")
    parser.add_argument("--seconds", default="25")
    parser.add_argument("--output", default="perfbench/baseline.json")
    args = parser.parse_args()
    runs = []
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            for seed in args.seeds.split(","):
                argv = ["--workload", workload, "--seed", seed, "--seconds", args.seconds, "--trace", trace]
                proc = subprocess.run([sys.executable, "perfbench/run.py", *argv], capture_output=True, text=True)
                if proc.returncode != 0:
                    print(proc.stderr, file=sys.stderr)
                    return proc.returncode
                result = json.loads(proc.stdout.splitlines()[-1])
                details = json.loads(Path(f".perfbench_out/{workload}/result.json").read_text())["details"]
                run = {"workload": workload, "seed": int(seed), "trace": int(trace), **result, "inputs": details["inputs"]}
                if trace == "0":
                    run["tail"] = details["tail"]
                    run["unscaled"] = {
                        "setup_s": statistics.median(details["raw_setups"]),
                        "throughput_per_s": details["raw_throughput"],
                    }
                    if "raw_latencies_ms" in details:
                        run["unscaled"]["latency_p50_ms"] = statistics.median(details["raw_latencies_ms"])
                        run["unscaled"]["latency_p50_ms_by_command"] = details["by_command"]
                runs.append(run)
                print(workload, trace, seed, result["attempted"], result["failed"], flush=True)

    summary = {}
    for workload in WORKLOADS:
        mine = [r for r in runs if r["workload"] == workload]
        metrics = {name for r in mine for name in r["metrics"]}
        summary[workload] = {
            "attempted": sum(r["attempted"] for r in mine),
            "failed": sum(r["failed"] for r in mine),
            "median": {
                name: statistics.median(r["metrics"][name]["value"] for r in mine if name in r["metrics"])
                for name in sorted(metrics)
            },
            "unscaled_median": {
                name: statistics.median(r["unscaled"][name] for r in mine if name in r.get("unscaled", {}))
                for name in ("setup_s", "throughput_per_s", "latency_p50_ms")
                if any(name in r.get("unscaled", {}) for r in mine)
            },
        }
    doc = {
        "command": f"python3 perfbench/record.py --seeds {args.seeds} --seconds {args.seconds}",
        "commit": commit(),
        "environment": environment(),
        "summary": summary,
        "runs": runs,
    }
    Path(args.output).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
