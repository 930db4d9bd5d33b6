"""Measure a baseline: every workload over ten seeds.

    python3 perfbench/baseline.py --out perfbench/BASELINE.json

Run from the repository root.  For each workload in ``BENCHMARK.json``,
``run.py`` runs once per seed 1..10, one run at a time.  Each end-to-end metric is summarised as its median and
quartiles (``statistics.quantiles(values, n=4)``) and its spread, the
interquartile distance over the median, next to the bound in
``BENCHMARK.json``.
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

HERE = Path(__file__).resolve().parent
SEEDS = range(1, 11)


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    spec = json.loads(Path("BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report: dict = {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "run_seconds": spec["run_seconds"],
        "seeds": list(SEEDS),
        "measured_with": "python3 perfbench/baseline.py",
        "workloads": {},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        values: dict[str, list[float]] = {}
        for seed in report["seeds"]:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", "0"],
                capture_output=True, text=True,
            )
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return proc.returncode
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v[-1]:.4g}" for k, v in values.items()), flush=True)
        rows = {name: summarise(v) for name, v in values.items()}
        report["workloads"][workload] = rows
        for name, row in rows.items():
            print(f"  {workload:<15} {name:<17} median {row['median']:10.4g}"
                  f"  spread {row['spread']:.3f}  bound {bounds[name]}")
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
