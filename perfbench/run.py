"""Wall-clock benchmark of the MIDAS reproduction, end to end and per layer.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` is the separate traced run: it measures the same calls
untraced and then again with span wrappers around each layer's public
calls, and reports the per-layer metrics, the tracing overhead, a
self-time table and a Chrome trace under ``.perfbench_out/``.

Inputs come from ``--seed`` alone.  Every answer is checked (see
``batch.py`` and ``service_mix.py``); the last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Workloads and metrics are listed in ``BENCHMARK.json``;
predictions and baselines in ``perfbench/expectations.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    OUT,
    ROOT,
    children_peak_rss_mb,
    median,
    print_metrics,
    reap_children,
    result_line,
    self_peak_rss_mb,
    stop_child_processes,
    tail,
    use_source_tree,
)

WORKLOADS = ("kpath-plane", "kpath-process", "tree-scan-element", "service-mix")
SETUP_REPEATS = 5  # setup_s is the median of this many full set-ups
PROCESS_WORKERS = 2


def per_layer_metrics() -> List[Tuple[str, str]]:
    """(name, unit) of every per-layer metric, in BENCHMARK.json order."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in bench["per_layer"]]


Metrics = Dict[str, Tuple[float, str]]


def end_to_end(setups: List[float], lat: List[float], wall: float,
               work: float, rss_mb: float) -> Metrics:
    return {
        "setup_s": (median(setups), "s"),
        "node_iters_per_s": (work / wall, "1/s"),
        "calls_per_s": (len(lat) / wall, "1/s"),
        "call_p50_s": (median(lat), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def describe_latency(lat: List[float]) -> None:
    t = tail(lat)
    if t is None:
        print(f"  call latency: n={len(lat)}, median {median(lat):.6g} s; too "
              "few calls for a tail percentile with 10 samples beyond it")
    else:
        p, v, n = t
        print(f"  call latency: n={n}, median {median(lat) * 1e3:.4g} ms, "
              f"p{p:g} {v * 1e3:.4g} ms (>= 10 samples beyond)")


# ------------------------------------------------------------------ batch
def run_batch(name: str, seed: int, seconds: float, trace: bool):
    import batch as B
    from spans import Tracer

    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        job = B.BUILDERS[name](seed)
        setups.append(perf_counter() - t0)
    reap_children()
    lat, outs, wall = B.timed_loop(job.step, seconds)
    rss = self_peak_rss_mb()
    if name == "kpath-process":
        # fork workers count their shared pages too: an upper bound
        reap_children()
        rss += PROCESS_WORKERS * children_peak_rss_mb()
    metrics = end_to_end(setups, lat, wall, job.work * len(lat), rss)
    describe_latency(lat)
    layer = None
    if trace:
        tracer = Tracer()
        tracer.install()
        try:
            lat_t, outs_t, _ = B.timed_loop(job.step, seconds, tracer)
        finally:
            tracer.uninstall()
        reap_children()
        outs = outs + outs_t
        layer = traced_report(name, seed, tracer, roots="call",
                              lat=lat, lat_traced=lat_t)
    failures = B.verify(job, outs)
    return metrics, layer, len(outs), failures


# ---------------------------------------------------------------- service
def run_service(seed: int, seconds: float, trace: bool):
    import service_mix as S
    from spans import Tracer

    setups, srv = [], None
    for i in range(SETUP_REPEATS):
        if srv is not None:
            srv.stop()
        t0 = perf_counter()
        graphs = S.make_graphs(seed)
        srv, url = S.start(graphs, tag=f"{os.getpid()}-{i}")
        setups.append(perf_counter() - t0)
    try:
        res = S.drive(url, seed, seconds)
        rss = srv.peak_rss_mb()
    finally:
        srv.stop()
    recs = res["records"]
    ok = [r for r in recs if r[1] is not None]
    lat = [r[3] - r[2] for r in ok]
    executed = [r for r in ok if not (r[1].cache_hit or r[1].coalesced)]
    work = sum(S.N * 2**S.K * r[1].result["rounds_run"] for r in executed)
    metrics = end_to_end(setups, lat, res["wall"], work, rss)
    describe_latency(lat)
    print(f"  replies: {len(ok)} ok of {len(recs)}, "
          f"{sum(r[1].cache_hit for r in ok)} cache hits, "
          f"{sum(r[1].coalesced for r in ok)} coalesced")
    layer = None
    if trace:
        spans_path = OUT / f"service-mix-seed{seed}-server-spans.json"
        srv, url = S.start(graphs, tag=f"{os.getpid()}-traced",
                           spans_out=spans_path)
        try:
            before = S.scrape(url), S.status(url)
            res_t = S.drive(url, seed, seconds)
            after = S.scrape(url), S.status(url)
        finally:
            srv.stop()
        server = Tracer.load(str(spans_path))
        ok_t = [r for r in res_t["records"] if r[1] is not None]
        lat_t = [r[3] - r[2] for r in ok_t]
        client = Tracer()
        for q, reply, t0, t1, _ in ok_t:
            client.add("client.query", t0, t1, reply.trace_id or "-")
        layer = traced_report("service-mix", seed, server, roots=None,
                              lat=lat, lat_traced=lat_t, client=client,
                              server_pid=srv.proc.pid)
        layer.update(S.service_layer(before, after, median(lat_t) * 1e3))
        recs = recs + res_t["records"]
    failures = S.verify(recs, graphs)
    return metrics, layer, len(recs), failures


# ---------------------------------------------------------------- tracing
def traced_report(name, seed, tracer, roots, lat, lat_traced,
                  client=None, server_pid=None) -> Dict[str, float]:
    """Per-layer metrics, self-time table, overhead, probe, Chrome trace."""
    from repro.obs.chrome_trace import validate_chrome_trace
    from roofline import xor_probe
    from spans import by_layer, chrome_events, layer_metrics

    # layers a workload never reaches (service.* on batch runs) stay 0
    m = {k: 0.0 for k, _ in per_layer_metrics()}
    m.update(layer_metrics(tracer))
    table = by_layer(tracer.spans)
    if roots is not None:
        wall = table.get(roots, {}).get("busy_s", 0.0)
        covered = wall - table.get(roots, {}).get("self_s", 0.0)
    else:  # service: client latency the server-side driver spans cover
        wall = sum(s[4] - s[3] for s in client.spans)
        covered = table.get("driver", {}).get("busy_s", 0.0)
    m["trace.unattributed_frac"] = 1.0 - covered / wall if wall else 0.0
    m["trace.overhead_frac"] = median(lat_traced) / median(lat) - 1.0
    for binding in tracer.missing:
        print(f"  not traced (binding not found): {binding}")
    print(f"  traced run: {len(tracer.spans)} spans; per-layer self time "
          f"(share of {'call' if roots else 'client query'} wall {wall:.4g} s):")
    for layer, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
        share = row["self_s"] / wall if wall else 0.0
        print(f"    {layer:30s} calls {row['calls']:>8d}  busy "
              f"{row['busy_s']:10.4f} s  self {row['self_s']:10.4f} s  "
              f"{share:7.2%}")
    print(f"  unattributed share of wall: {m['trace.unattributed_frac']:.2%}; "
          f"tracing overhead on call_p50_s: {m['trace.overhead_frac']:+.2%} "
          f"(untraced {median(lat):.6g} s, traced {median(lat_traced):.6g} s)")

    probe = xor_probe()
    m["host.xor_gbps"] = probe.gbps
    llc = f"{probe.llc_bytes / 2**20:g} MiB" if probe.llc_bytes else "unknown"
    print(f"  host xor probe: {probe.gbps:.4g} GB/s over a "
          f"{probe.array_bytes / 2**20:g} MiB array; last-level cache {llc}")
    for kernel in ("graph.reduce", "bitsliced.mul"):
        bpo, gbps = m[f"{kernel}_bytes_per_op"], m[f"{kernel}_gbps"]
        line = (f"  {kernel}: {bpo:.4g} B/op, {gbps:.4g} GB/s "
                "(bytes computed from array shapes)")
        if probe.roofline_valid and gbps:
            line += f"; {gbps / probe.gbps:.2%} of the xor roofline"
        elif gbps:
            line += "; no roofline ratio: the probe array is under 4x the LLC"
        print(line)

    OUT.mkdir(parents=True, exist_ok=True)
    stem = OUT / f"{name}-seed{seed}"
    sources = [(tracer, server_pid or os.getpid())]
    if client is not None:
        sources.append((client, os.getpid()))
    spans = [s for tr, _ in sources for s in tr.spans]
    t_base = min((s[3] for s in spans), default=0.0)
    events = sorted((e for tr, pid in sources
                     for e in chrome_events(tr, pid, t_base)),
                    key=lambda e: e["ts"])
    doc = {"traceEvents": events, "displayTimeUnit": "ms"}
    n_events = validate_chrome_trace(doc)
    Path(f"{stem}-chrome.json").write_text(json.dumps(doc))
    if roots is not None:
        tracer.dump(f"{stem}-spans.json")
    print(f"  chrome trace: {n_events} events, valid, {stem}-chrome.json")
    return m


# ------------------------------------------------------------------- main
def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    use_source_tree()

    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    try:
        if args.workload == "service-mix":
            metrics, layer, attempted, failures = run_service(
                args.seed, args.seconds, bool(args.trace))
        else:
            metrics, layer, attempted, failures = run_batch(
                args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        stop_child_processes()
    for i, errs in sorted(failures.items())[:20]:
        print(f"  WRONG call {i}: {'; '.join(errs)}")
    print(f"  answers: {attempted - len(failures)} of {attempted} correct; "
          f"fail_frac = {len(failures) / attempted:.6g}")
    print("end-to-end metrics:")
    print_metrics(metrics)
    out = metrics
    if layer is not None:
        out = {k: (layer[k], unit) for k, unit in per_layer_metrics()}
        print("per-layer metrics:")
        print_metrics(out)
    print(result_line(not failures, attempted, len(failures), out))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
