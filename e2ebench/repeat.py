"""Repeat runs of the end-to-end benchmark and judge their steadiness.

Spread, one run per seed::

    python3 e2ebench/repeat.py --workload session --seeds 1-10

prints every end-to-end metric's median, quartiles and spread (the
distance between the first and third quartile, as a share of the
median) against the metric's bound in ``BENCHMARK.json``, plus the
share of failed operations of each run.

Determinism self-check::

    python3 e2ebench/repeat.py --workload campaign --seeds 3 --determinism

runs the seed twice untraced and twice traced and requires identical
``modeled_s``, identical per-layer counts and, for ``campaign``, an
identical report hash. Runs go one after another, never in parallel.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--workload",
               workload, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(command, cwd=ROOT, capture_output=True,
                          text=True, timeout=900)
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed} trace {trace}: "
                         f"exit {proc.returncode}")
    result = json.loads(lines[-1])
    result["wall"] = wall
    result["notes"] = [line for line in lines[:-1] if line.startswith("#")]
    return result


def spread_report(workload: str, seeds: list[int], seconds: int,
                  spec: dict) -> bool:
    runs = []
    for seed in seeds:
        result = run_once(workload, seed, seconds, 0)
        runs.append(result)
        values = "  ".join(f"{name} {m['value']:.5g}"
                           for name, m in result["metrics"].items())
        print(f"seed {seed:>3}: {values}  failed {result['failed']}/"
              f"{result['attempted']}  ({result['wall']:.1f} s wall)",
              flush=True)
    steady = True
    shares = {r["failed"] / r["attempted"] for r in runs}
    print(f"failed share: {sorted(shares)} "
          f"({'identical' if len(shares) == 1 else 'DIFFERS'})")
    steady &= len(shares) == 1
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median
        verdict = "ok" if spread <= bound / 3 else (
            "within bound" if spread <= bound else "OVER BOUND")
        if name != "setup_s":
            steady &= spread <= bound
        print(f"{name:<12} median {median:.6g}  q1 {q1:.6g}  q3 {q3:.6g}"
              f"  spread {spread:.2%} vs bound {bound:.0%} "
              f"(a third: {bound / 3:.2%}) -> {verdict}")
    return steady


def determinism(workload: str, seed: int, seconds: int) -> bool:
    plain = [run_once(workload, seed, seconds, 0) for _ in range(2)]
    traced = [run_once(workload, seed, seconds, 1) for _ in range(2)]
    ok = True
    modeled = {r["metrics"]["modeled_s"]["value"] for r in plain}
    print(f"modeled_s: {sorted(modeled)}")
    ok &= len(modeled) == 1
    counts = [{name: m["value"] for name, m in r["metrics"].items()
               if m["unit"] == "count"} for r in traced]
    differing = sorted(name for name in counts[0]
                       if counts[0][name] != counts[1].get(name))
    print(f"per-layer counts: {len(counts[0])} compared, differing: "
          f"{differing or 'none'}")
    ok &= not differing
    hashes = {note for r in plain + traced for note in r["notes"]
              if "report sha256" in note}
    if hashes:
        print(f"campaign report hashes: {sorted(hashes)}")
        ok &= len(hashes) == 1
    print("deterministic" if ok else "NOT DETERMINISTIC")
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("session", "campaign", "compile"))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--determinism", action="store_true")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    seeds = parse_seeds(args.seeds)
    if args.determinism:
        return 0 if determinism(args.workload, seeds[0], seconds) else 1
    return 0 if spread_report(args.workload, seeds, seconds, spec) else 1


if __name__ == "__main__":
    sys.exit(main())
