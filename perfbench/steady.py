"""Steadiness check: is every end-to-end metric steady within its bound?

Usage (from the repository root)::

    python3 perfbench/steady.py --runs 10
    python3 perfbench/steady.py --runs 5 --workloads shared-pages

Runs every workload ``--runs`` times, one run at a time, with seeds
1..runs, and prints each end-to-end metric's median, quartiles and
spread (interquartile distance as a share of the median) next to the
bound ``BENCHMARK.json`` gives it. A spread under a third of the bound
is steady, one over the bound fails. The medians are then compared with
the previous set, kept in ``perfbench/out/steady.json``: a median that
moved by more than its bound fails. Last, each workload runs traced
under interpreter hash seeds 0 and 1, and every count-type per-layer
metric must read exactly the same.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT = BENCH_DIR / "out" / "steady.json"
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

HASH_SEEDS = (0, 1)


def run_once(workload: str, seed: int, seconds: int, trace: int, hash_seed: int):
    command = [
        sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
        "--hash-seed", str(hash_seed),
    ]
    done = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=900, check=False
    )
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(command)} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument(
        "--workloads", default=",".join(w["name"] for w in spec["workloads"])
    )
    args = parser.parse_args()
    seconds = spec["run_seconds"]

    from run import PINNED_HASH_SEED
    from tracing import COUNT_METRICS

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    previous = json.loads(OUT.read_text()) if OUT.is_file() else None
    summary = {"runs": args.runs, "seconds": seconds, "workloads": {}}
    steady = True
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        shares = set()
        for seed in range(1, args.runs + 1):
            detail, result = run_once(workload, seed, seconds, 0, PINNED_HASH_SEED)
            if not result["correct"]:
                print(f"{workload} seed {seed}: NOT CORRECT: {detail['checks']}")
                steady = False
            shares.add(result["failed"] / result["attempted"])
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{n}={result['metrics'][n]['value']:.4g}" for n in bounds
            ), flush=True)
        before = (previous or {}).get("workloads", {}).get(workload)
        print(f"\n{workload}: {args.runs} runs of {seconds} s"
              + ("; previous set's median and move" if before else ""))
        print(f"  {'metric':<18}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}"
              f"{'bound':>8}" + (f"{'previous':>12}{'move':>8}" if before else ""))
        rows = {}
        for name, series in values.items():
            q1, median, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / median
            bound = bounds[name]
            verdict = "steady" if spread < bound / 3 else (
                "within" if spread <= bound else "WIDE")
            steady = steady and verdict != "WIDE"
            line = (f"  {name:<18}{median:>12.4g}{q1:>12.4g}{q3:>12.4g}"
                    f"{spread:>9.3f}{bound:>8.2f}  {verdict:<7}")
            if before and name in before:
                old = before[name]["median"]
                move = median / old - 1
                moved = abs(move) > bound
                steady = steady and not moved
                line += f"{old:>12.4g}{move:>+8.3f}  {'MOVED' if moved else 'agrees'}"
            rows[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                          "bound": bound, "values": series}
            print(line)
        print(f"  failed share of attempted ops: {sorted(shares)}"
              + (" (identical in every run)" if len(shares) == 1 else " DIFFERS"))
        steady = steady and len(shares) == 1
        summary["workloads"][workload] = rows

        counts = []
        for hash_seed in HASH_SEEDS:
            _detail, traced = run_once(workload, 1, min(seconds, 10), 1, hash_seed)
            counts.append({n: traced["metrics"][n]["value"] for n in COUNT_METRICS})
        differing = [n for n in COUNT_METRICS if counts[0][n] != counts[1][n]]
        print(f"  count metrics across hash seeds {HASH_SEEDS}: "
              + ("identical" if not differing else f"DIFFER: {differing}"))
        steady = steady and not differing
        summary["workloads"][workload]["count_metrics"] = counts[0]
    OUT.parent.mkdir(parents=True, exist_ok=True)
    if previous is not None:
        OUT.with_name("steady.prev.json").write_text(json.dumps(previous, indent=1))
        # Workloads this set did not run keep their previous figures.
        for workload, rows in previous["workloads"].items():
            summary["workloads"].setdefault(workload, rows)
    OUT.write_text(json.dumps(summary, indent=1))
    print(f"\n{'steady' if steady else 'NOT steady'}; summary in {OUT.relative_to(ROOT)}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
