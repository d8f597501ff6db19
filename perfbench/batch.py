"""The in-process batch workloads: driver calls on seeded graphs.

* ``kpath-plane`` — sequential ``detect_path`` with the default kernel
  (``auto`` resolves to the bit-sliced, plane-resident evaluator).
* ``kpath-process`` — the same inputs on ``mode="process"`` with two
  workers; every call starts its own worker pool, as it does for users.
* ``tree-scan-element`` — ``detect_tree`` and ``scan_grid`` on
  Barabási–Albert graphs: element-wise table kernels, hub-skewed CSR
  segments, no bit-sliced calls.

Every call's per-round values (or scan grid) must equal a reference
computed once per (workload family, seed) by the sequential
``kernel="table"`` oracle outside the timed section.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Dict, List

import numpy as np

from common import cached_reference, digest

KPATH_N, KPATH_M, KPATH_K = 3000, 12000, 10
TREE_N, TREE_ATTACH, TREE_K = 3000, 4, 8
SCAN_N, SCAN_ATTACH, SCAN_K = 1500, 3, 5
EPS = 0.2  # rounds_for_epsilon(0.2) = 8 amplification rounds


@dataclass
class Batch:
    """One workload's inputs, its timed step and its answer checks."""

    step: Callable[[], dict]  # one timed call -> its outputs
    work: int  # node-iterations per step: sum of n * 2^k * rounds
    reference: Callable[[], dict]  # oracle outputs for the same inputs
    check: Callable[[dict], List[str]]  # planted-instance / control checks


def _kpath(seed: int, process: bool) -> Batch:
    from repro.core import midas
    from repro.core.schedule import rounds_for_epsilon
    from repro.graph.generators import erdos_renyi, plant_path
    from repro.util.rng import RngStream

    # drivers are called through the module so the traced run's
    # wrappers, installed on repro.core.midas, see each call
    rs = RngStream(seed, name="perfbench-kpath")
    g = erdos_renyi(KPATH_N, KPATH_M, rng=rs.child("graph"))
    g, _ = plant_path(g, KPATH_K, rng=rs.child("plant"))
    det = int(rs.child("detect").integers(0, 2**31))
    rt = midas.MidasRuntime(mode="process", workers=2) if process else None

    def run(runtime, graph=g, k=KPATH_K):
        res = midas.detect_path(graph, k, eps=EPS, rng=RngStream(det, name="detect"),
                          runtime=runtime, early_exit=False)
        return {"path": [int(r.value) for r in res.rounds]}

    # warm-up at k=6 on the same graph: imports, lazy tables, a pool start
    run(rt, k=6)
    return Batch(
        step=lambda: run(rt),
        work=g.n * 2**KPATH_K * rounds_for_epsilon(EPS),
        # kpath-plane and kpath-process share this key, so both are held
        # to the same table-kernel values: bit-identical to each other
        reference=lambda: cached_reference(
            f"kpath-{seed}", lambda: run(midas.MidasRuntime(kernel="table"))),
        check=lambda out: [] if any(out["path"]) else
        ["planted 10-path not found"],
    )


def _tree_scan(seed: int) -> Batch:
    from repro.core import midas
    from repro.core.schedule import rounds_for_epsilon
    from repro.graph.generators import barabasi_albert, plant_path, plant_tree
    from repro.graph.templates import TreeTemplate
    from repro.util.rng import RngStream

    rs = RngStream(seed, name="perfbench-tree-scan")
    tmpl = TreeTemplate.binary(TREE_K)
    tg = barabasi_albert(TREE_N, TREE_ATTACH, rng=rs.child("tree-graph"))
    tg, _ = plant_tree(tg, tmpl, rng=rs.child("plant-tree"))
    sg = barabasi_albert(SCAN_N, SCAN_ATTACH, rng=rs.child("scan-graph"))
    # a planted 10-path weighted 0,0,0,0,0,1,1,1,1,1: its windows realise
    # every (size j, weight z <= j) cell; 0/1 weights make z > j impossible
    sg, nodes = plant_path(sg, 10, rng=rs.child("plant-scan"))
    w = rs.child("weights").integers(0, 2, size=SCAN_N).astype(np.int64)
    w[nodes[:5]], w[nodes[5:]] = 0, 1
    tree_seed, scan_seed = (int(rs.child(c).integers(0, 2**31))
                            for c in ("tree", "scan"))

    def run(runtime, tgraph=tg, sgraph=sg, weights=w):
        tree = midas.detect_tree(tgraph, tmpl, eps=EPS,
                           rng=RngStream(tree_seed, name="tree"),
                           runtime=runtime, early_exit=False)
        scan = midas.scan_grid(sgraph, weights, SCAN_K, eps=EPS,
                         rng=RngStream(scan_seed, name="scan"),
                         runtime=runtime)
        return {"tree": [int(r.value) for r in tree.rounds],
                "scan": scan.detected.astype(int).tolist()}

    def check(out):
        errs = [] if any(out["tree"]) else ["planted binary(8) tree not found"]
        grid = np.asarray(out["scan"], dtype=bool)
        for j in range(1, SCAN_K + 1):
            if not grid[j, : j + 1].all():
                errs.append(f"scan row {j}: a planted cell z <= {j} is missing")
            if grid[j, j + 1:].any():
                errs.append(f"scan row {j}: an impossible cell z > {j} is set")
        return errs

    warm = barabasi_albert(128, 3, rng=rs.child("warm"))
    run(None, tgraph=warm, sgraph=warm,
        weights=np.ones(warm.n, dtype=np.int64))
    scan_work = sum(SCAN_N * 2**j for j in range(1, SCAN_K + 1))
    return Batch(
        step=lambda: run(None),
        work=(TREE_N * 2**TREE_K + scan_work) * rounds_for_epsilon(EPS),
        reference=lambda: cached_reference(
            f"tree-scan-{seed}",
            lambda: run(midas.MidasRuntime(kernel="table"))),
        check=check,
    )


BUILDERS: Dict[str, Callable[[int], Batch]] = {
    "kpath-plane": lambda seed: _kpath(seed, process=False),
    "kpath-process": lambda seed: _kpath(seed, process=True),
    "tree-scan-element": _tree_scan,
}


def timed_loop(step: Callable[[], dict], seconds: float, tracer=None):
    """Call ``step`` back to back until ``seconds`` have passed.

    Returns ``(latencies, outputs, wall)``; ``wall`` runs from the first
    call's start to the last call's end.  With a tracer, each call is
    one root span named ``call``.
    """
    lat, outs = [], []
    t_start = perf_counter()
    while True:
        token = tracer.open("call") if tracer is not None else None
        t0 = perf_counter()
        outs.append(step())
        t1 = perf_counter()
        if tracer is not None:
            tracer.close(token)
        lat.append(t1 - t0)
        if t1 - t_start >= seconds:
            return lat, outs, t1 - t_start


def verify(batch: Batch, outputs: List[dict]) -> Dict[int, List[str]]:
    """Compare every call's outputs with the reference and run the
    checks; returns the failing calls' indices with their reasons."""
    ref = batch.reference()
    ref_digest = digest(ref)
    failures: Dict[int, List[str]] = {}
    for i, out in enumerate(outputs):
        errs = list(batch.check(out))
        if digest(out) != ref_digest:
            parts = ", ".join(k for k in out if out[k] != ref.get(k))
            errs.append(f"{parts} differ from the table-kernel reference")
        if errs:
            failures[i] = errs
    return failures
