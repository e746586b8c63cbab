"""End-to-end benchmark of the three Zoomie workflows.

Run from the repository root::

    python3 e2ebench/run.py --workload session --seed 1 --seconds 10 --trace 0

``--workload`` is ``session``, ``campaign`` or ``compile`` (see the
README next to this file). Each workload runs in this one process as a
closed loop with a single client: every operation waits for the
previous one to finish. ``--trace 0`` measures the end-to-end metrics;
``--trace 1`` runs a fixed amount of the same work twice, untraced and
then with every layer's public entry points wrapped in spans, and
prints the per-layer table. The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the exit code is 0 only when every output check passed.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK_FILE = ROOT / "BENCHMARK.json"
sys.path.insert(0, str(HERE))

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import traceback  # noqa: E402


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("session", "campaign", "compile"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads(BENCHMARK_FILE.read_text())
    from harness import CheckError, Isolation, OpClock, main_guard, \
        run_timed, run_traced

    main_guard(ROOT)
    # A private plan-cache directory before the program is imported, so
    # nothing is read from or written to ~/.cache/zoomie.
    work = ROOT / ".bench_work"
    os.environ["ZOOMIE_PLAN_CACHE"] = str(work / f"plans-{os.getpid()}")
    with OpClock(sample=True) as import_clock:
        import repro  # noqa: F401  (timed: part of set-up)

    from workloads import WORKLOADS
    factory = WORKLOADS[args.workload]

    def make_workload():
        return factory(args.seed, Isolation(ROOT, args.workload))

    workload = None
    try:
        if args.trace:
            names = [m["name"] for m in spec["per_layer"]]
            result = run_traced(make_workload, import_clock, names)
        else:
            workload = make_workload()
            result = run_timed(workload, args.seconds, import_clock)
        correct = True
    except CheckError as error:
        traceback.print_exc()
        print(f"# output check failed: {error}")
        result = {"attempted": 1, "failed": 0, "metrics": {}}
        correct = False
    finally:
        if workload is not None:
            workload.iso.close()
        shutil.rmtree(work / f"plans-{os.getpid()}", ignore_errors=True)

    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
