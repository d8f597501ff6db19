"""Run the benchmark over several seeds and report each metric's spread.

Usage::

    python3 perfbench/repeat.py --workloads kpath-plane,service-mix \\
        --seeds 1-10 --out runs.jsonl [--seconds S] [--trace 0|1]

Each run is ``perfbench/run.py`` in a child process, started from the
checkout root; its result line is appended to ``--out`` with the
workload, seed, trace flag and wall time.  The summary gives, per
workload and metric, the median, the quartiles as
``statistics.quantiles(values, n=4)`` gives them, and the spread
(q3 - q1) / median against the metric's bound in ``BENCHMARK.json``:
``steady`` when the spread is below a third of the bound.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import ROOT, quartiles  # noqa: E402


def seed_list(text: str):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    metrics = bench["per_layer"] if args.trace else bench["end_to_end"]
    ok = True
    for wl in args.workloads.split(","):
        values = {}
        for seed in seed_list(args.seeds):
            t0 = perf_counter()
            proc = subprocess.run(
                [sys.executable, *bench["command"][1:], "--workload", wl,
                 "--seed", str(seed), "--seconds", f"{args.seconds:g}",
                 "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True)
            wall = perf_counter() - t0
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{wl} seed {seed}: exit {proc.returncode}\n"
                      f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
                ok = False
                continue
            result = json.loads(lines[-1])
            ok &= bool(result["correct"])
            with open(args.out, "a") as fh:
                fh.write(json.dumps({"workload": wl, "seed": seed,
                                     "trace": args.trace, "wall_s": wall,
                                     "result": result}) + "\n")
            for k, v in result["metrics"].items():
                values.setdefault(k, []).append(v["value"])
            print(f"{wl} seed {seed}: {wall:.1f} s, correct "
                  f"{result['correct']}, attempted {result['attempted']}",
                  flush=True)
        for met in metrics:
            vals = values.get(met["name"])
            if not vals:
                continue
            q1, med, q3 = quartiles(vals)
            spread = (q3 - q1) / abs(med) if med else 0.0
            bound = met.get("bound")
            flag = ""
            if bound is not None:
                flag = "steady" if spread < bound / 3 else "NOT steady"
            print(f"  {wl:18s} {met['name']:36s} median {med:<12.6g} "
                  f"q1 {q1:<12.6g} q3 {q3:<12.6g} spread {spread:7.2%} "
                  f"{'' if bound is None else f'bound {bound:.0%}'} {flag}",
                  flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
