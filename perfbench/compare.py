"""Compare two result sets of the benchmark: parent versus change.

Usage::

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds one JSON object per run, as ``perfbench/repeat.py``
writes them (``workload``, ``seed``, ``trace`` and the run's ``result``
line).  For every workload and end-to-end metric in ``BENCHMARK.json``
it prints the medians and quartiles of both sides and a verdict:

* ``improved`` — the change wins at least 9 of every 10 pairs (ties
  count for neither) and the medians differ by more than the parent's
  own quartile spread;
* ``regressed`` — the change's median is worse than the parent's by more
  than the metric's bound;
* ``unresolved`` — the parent's spread is wider than the bound and not
  every change run reads better than every parent run;
* ``within bound`` — otherwise.

Runs pair up by seed where both sides ran the same seeds, else by
order.  Exit status 3 when any row regressed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import ROOT, quartiles  # noqa: E402

WIN_SHARE = 0.9


def load_runs(path: str) -> Dict[str, List[Tuple[int, dict]]]:
    """``{workload: [(seed, metrics), ...]}`` of the untraced runs."""
    out: Dict[str, List[Tuple[int, dict]]] = {}
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        rec = json.loads(line)
        if rec.get("trace"):
            continue
        metrics = {k: v["value"] for k, v in rec["result"]["metrics"].items()}
        out.setdefault(rec["workload"], []).append((rec["seed"], metrics))
    return out


def pairs(parent: List[Tuple[int, dict]], change: List[Tuple[int, dict]],
          metric: str) -> List[Tuple[float, float]]:
    p_seed = {s: m[metric] for s, m in parent}
    c_seed = {s: m[metric] for s, m in change}
    common = sorted(set(p_seed) & set(c_seed))
    if len(common) == min(len(parent), len(change)):
        return [(p_seed[s], c_seed[s]) for s in common]
    return [(p[1][metric], c[1][metric]) for p, c in zip(parent, change)]


def verdict(pv: List[float], cv: List[float], pr: List[Tuple[float, float]],
            better: str, bound: float) -> Tuple[str, int]:
    sign = 1.0 if better == "higher" else -1.0

    def gain(p, c):  # > 0 when c reads better than p
        return sign * (c - p)

    p_q1, p_med, p_q3 = quartiles(pv)
    _, c_med, _ = quartiles(cv)
    wins = sum(1 for p, c in pr if gain(p, c) > 0)
    spread = (p_q3 - p_q1) / abs(p_med) if p_med else float("inf")
    all_better = min(sign * c for c in cv) > max(sign * p for p in pv)
    won = (wins >= WIN_SHARE * len(pr) and gain(p_med, c_med) > p_q3 - p_q1)
    if spread > bound:
        return ("improved" if all_better and won else "unresolved"), wins
    if won:
        return "improved", wins
    if -gain(p_med, c_med) > bound * abs(p_med):
        return "regressed", wins
    return "within bound", wins


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--benchmark", default=str(ROOT / "BENCHMARK.json"))
    args = ap.parse_args(argv)
    bench = json.loads(Path(args.benchmark).read_text())
    parent, change = load_runs(args.parent), load_runs(args.change)
    print(f"{'workload':18s} {'metric':18s} {'parent median [q1, q3]':>34s} "
          f"{'change median [q1, q3]':>34s} {'delta':>8s} {'wins':>7s}  verdict")
    regressed = False
    for wl in bench["workloads"]:
        name = wl["name"]
        if name not in parent or name not in change:
            print(f"{name:18s} (missing on one side)")
            continue
        for met in bench["end_to_end"]:
            m = met["name"]
            pv = [r[m] for _, r in parent[name]]
            cv = [r[m] for _, r in change[name]]
            pr = pairs(parent[name], change[name], m)
            v, wins = verdict(pv, cv, pr, met["better"], met["bound"])
            regressed |= v == "regressed"
            (pq1, pmed, pq3), (cq1, cmed, cq3) = quartiles(pv), quartiles(cv)
            delta = (cmed - pmed) / pmed if pmed else float("nan")
            p_col = f"{pmed:.5g} [{pq1:.5g}, {pq3:.5g}]"
            c_col = f"{cmed:.5g} [{cq1:.5g}, {cq3:.5g}]"
            print(f"{name:18s} {m:18s} {p_col:>34s} {c_col:>34s} "
                  f"{delta:>+8.2%} {wins:>3d}/{len(pr):<3d}  {v}")
    return 3 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
