"""Steadiness mode: run workloads in fresh processes and report spread.

    python3 stagebench/steadiness.py --runs 10 --seconds 30
    python3 stagebench/steadiness.py --runs 5 --workloads stream-serve

Each run is ``run.py`` in a new process with its own seed (``--seed0``
+ i).  For every metric the table gives the median, the first and third
quartiles (``statistics.quantiles(values, n=4)``) and the relative
spread ``(q3 - q1) / median``.  With ``BENCHMARK.json`` beside the
benchmark directory, each end-to-end spread is compared against a third
of the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("paper-sweep", "stream-serve", "wideband-scan")


def run_once(workload: str, seed: int, seconds: float) -> dict:
    completed = subprocess.run(
        [
            sys.executable,
            str(HERE / "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", "0",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    if completed.returncode != 0:
        raise RuntimeError(
            f"{workload} seed {seed} exited {completed.returncode}:\n"
            f"{completed.stderr}"
        )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def summarise(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return {
        "median": middle,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / middle if middle else float("inf"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--seed0", type=int, default=1000)
    parser.add_argument(
        "--workloads", default=",".join(WORKLOADS),
        help="comma-separated workload names",
    )
    args = parser.parse_args(argv)

    bounds = {}
    spec = ROOT / "BENCHMARK.json"
    if spec.exists():
        bounds = {
            metric["name"]: metric["bound"]
            for metric in json.loads(spec.read_text())["end_to_end"]
        }

    steady = True
    for workload in args.workloads.split(","):
        results = [
            run_once(workload, args.seed0 + i, args.seconds)
            for i in range(args.runs)
        ]
        shares = {r["failed"] / r["attempted"] for r in results}
        correct = all(r["correct"] for r in results)
        rows = {
            name: summarise([r["metrics"][name]["value"] for r in results])
            for name in results[0]["metrics"]
        }
        print(
            f"\n{workload}: {args.runs} runs, correct={correct}, "
            f"failed shares {sorted(shares)}"
        )
        print(
            f"  {'metric':<28s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
            f"{'spread':>8s} {'bound/3':>8s}"
        )
        for name, row in rows.items():
            bound = bounds.get(name)
            limit = "" if bound is None else f"{bound / 3:8.3f}"
            flag = ""
            if bound is not None and row["spread"] > bound / 3:
                flag = "  <-- wide"
                steady = False
            print(
                f"  {name:<28s} {row['median']:12.5g} {row['q1']:12.5g} "
                f"{row['q3']:12.5g} {row['spread']:8.3f} {limit}{flag}"
            )
        steady = steady and correct and len(shares) == 1
    print("\nsteady" if steady else "\nNOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
