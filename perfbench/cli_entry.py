"""CLI entry points for the ``cli`` and ``sample`` workloads.

``python3 perfbench/cli_entry.py expect`` prints the curated expectations
(verdicts and level-pair outcomes) as JSON; the benchmark runs it in set-up.

``python3 perfbench/cli_entry.py trace SPANS_FILE ARGS...`` is a traced
``qrange ARGS...``: it times ``import qrange.cli`` in this fresh interpreter,
installs the span wrappers, calls ``qrange.cli.main(ARGS)`` as one op, writes
the spans and exits with the command's exit code.  The import facts go to
``SPANS_FILE.facts.json``.
"""

import json
import sys
import time


def expect() -> int:
    from qrange.instances import curated_cases

    doc = {
        case.name: {
            "verdict": case.expected.verdict,
            "level_checks": [
                [lc.f_level, lc.g_level, lc.g_separates_f, lc.f_separates_g] for lc in case.expected.level_checks
            ],
        }
        for case in curated_cases()
    }
    print(json.dumps(doc))
    return 0


def trace(spans_path: str, args: list[str]) -> int:
    modules_before = len(sys.modules)
    start = time.perf_counter()
    import qrange.cli

    import_ms = (time.perf_counter() - start) * 1e3
    facts = {
        "import_ms": import_ms,
        "modules_loaded": len(sys.modules) - modules_before,
        "scipy_loaded": "scipy" in sys.modules,
    }
    from spans import Tracer

    tracer = Tracer()
    tracer.install()
    with tracer.op(0):
        code = qrange.cli.main(args)
    sys.stdout.flush()
    tracer.dump(spans_path)
    with open(spans_path + ".facts.json", "w", encoding="utf-8") as fh:
        json.dump(facts, fh)
    return code


if __name__ == "__main__":
    if sys.argv[1] == "expect":
        sys.exit(expect())
    sys.exit(trace(sys.argv[2], sys.argv[3:]))
