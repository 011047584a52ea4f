"""Run a workload at several seeds and print each metric's median and
quartile spread (interquartile range over median), as the benchmark's
acceptance rule measures them.

    python3 perfbench/spread.py --workload boundary-walk --seeds 1-5 [--trace 1]
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


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="range a-b, inclusive")
    ap.add_argument("--seconds", default=None,
                    help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", default="0")
    args = ap.parse_args(argv)
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = args.seconds or str(bench["run_seconds"])
    lo, hi = (int(x) for x in args.seeds.split("-"))
    values = {}
    for seed in range(lo, hi + 1):
        t0 = time.perf_counter()
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", seconds, "--trace", args.trace],
            capture_output=True, text=True, check=True, timeout=600)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: correct {result['correct']} attempted "
              f"{result['attempted']} failed {result['failed']} in "
              f"{time.perf_counter() - t0:.1f} s", flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        note = f" bound {bound} ({spread / bound:.2f} of it)" if bound else ""
        print(f"{name}: median {med:.6g} spread {spread:.4f}{note}; "
              + " ".join(f"{v:.4g}" for v in vals))


if __name__ == "__main__":
    main()
