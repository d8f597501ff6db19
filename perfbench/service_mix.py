"""The ``service-mix`` workload: ``repro serve`` under two closed-loop clients.

The server runs as a child process with shipped defaults (sequential,
``auto`` kernel, result cache, coalescing and query tracing on).  Two
``HttpClient`` threads each send their next k=6 ``detect-path`` or
``detect-tree`` query as soon as the previous one returns, against two
registered graphs:

* ``planted`` — ER(300, 900) with a planted 6-path and binary(6) tree;
  every query on it must report found;
* ``control`` — 300 nodes in components of at most five, so no 6-node
  path or tree exists; no query on it may report found.

The mix is fixed per client step: every fifth query repeats one of the
client's recent queries (cache reads beside execute-and-insert writes),
every fifth fresh query goes to the control graph, kinds alternate, and
every ``COALESCE_EVERY``-th query both clients send the same fresh
control query together, which exercises in-flight coalescing.  The seed
picks query seeds and which recent query repeats.  Every reply's result
must equal a standalone driver run of the same query.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import threading
from collections import deque
from itertools import product
from pathlib import Path
from time import perf_counter, sleep
from typing import Dict, List, Optional

import numpy as np

from common import OUT, ROOT, SRC, proc_peak_rss_mb

N, M, K = 300, 900, 6
KINDS = ("detect-path", "detect-tree")
GRAPHS = ("planted", "control")
CLIENTS = 2
REPEAT_EVERY = 5  # every 5th query repeats one of the client's recent ones
RECENT = 32  # how far back a repeat may reach
COALESCE_EVERY = 25  # every 25th query is sent by both clients together
CONTROL_EVERY = 5  # every 5th fresh query goes to the control graph
WARM_SEED = 1 << 50  # warm-up query seeds, outside the timed seed range
SERVE_ARGS = ["serve", "--host", "127.0.0.1", "--port", "0"]


# ----------------------------------------------------------------- inputs
def small_components(n: int, rng):
    """``n`` nodes in random connected components of 2 to 5 nodes."""
    from repro.graph.csr import CSRGraph

    edges, start = [], 0
    while start < n:
        size = min(int(rng.integers(2, 6)), n - start)
        for i in range(1, size):  # random spanning tree, then extra edges
            edges.append((start + i, start + int(rng.integers(0, i))))
        for i in range(size):
            for j in range(i + 1, size):
                if rng.random() < 0.5:
                    edges.append((start + i, start + j))
        start += size
    perm = rng.permutation(n)
    e = perm[np.asarray(edges, dtype=np.int64)]
    return CSRGraph.from_edges(n, e, name="control")


def make_graphs(seed: int) -> Dict[str, object]:
    from repro.graph.generators import erdos_renyi, plant_path, plant_tree
    from repro.graph.templates import TreeTemplate
    from repro.util.rng import RngStream

    rs = RngStream(seed, name="perfbench-service")
    g = erdos_renyi(N, M, rng=rs.child("planted"))
    g, _ = plant_path(g, K, rng=rs.child("plant-path"))
    g, _ = plant_tree(g, TreeTemplate.binary(K), rng=rs.child("plant-tree"))
    return {"planted": g, "control": small_components(N, rs.child("control"))}


def make_query(kind: str, graph: str, seed: int) -> dict:
    q = {"kind": kind, "graph": graph, "k": K, "seed": int(seed)}
    if kind == "detect-tree":
        q["template"] = "binary"
    return q


def fresh_query(rng, kind: str, graph: str) -> dict:
    return make_query(kind, graph, int(rng.integers(0, 1 << 40)))


def schedule(step: int) -> str:
    """What a client sends at ``step``: the mix is fixed, only the query
    seeds and which recent query repeats come from the seed, so the
    share of cheap and expensive queries is the same in every run."""
    if step % COALESCE_EVERY == COALESCE_EVERY - 1:
        return "coalesce"
    if step % REPEAT_EVERY == REPEAT_EVERY - 1:
        return "repeat"
    return "fresh"


# ----------------------------------------------------------------- server
class Server:
    """One ``repro serve`` child; stdout/stderr go to files under OUT."""

    def __init__(self, tag: str, spans_out: Optional[Path] = None) -> None:
        OUT.mkdir(parents=True, exist_ok=True)
        self.log = OUT / f"serve-{tag}.log"
        if spans_out is None:
            cmd = [sys.executable, "-m", "repro", *SERVE_ARGS]
        else:
            cmd = [sys.executable, str(Path(__file__).with_name("serve_traced.py")),
                   str(spans_out), *SERVE_ARGS]
        env = dict(os.environ, PYTHONPATH=str(SRC))
        with open(self.log, "w") as fh:
            self.proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=fh,
                                         stderr=subprocess.STDOUT)

    def wait_ready(self, timeout: float = 60.0) -> str:
        deadline = perf_counter() + timeout
        while perf_counter() < deadline:
            m = re.search(r"serving detection API on (http://[\d.]+:\d+)",
                          self.log.read_text())
            if m:
                return m.group(1)
            if self.proc.poll() is not None:
                break
            sleep(0.02)
        self.stop()
        raise RuntimeError(f"repro serve did not come up; see {self.log}")

    def peak_rss_mb(self) -> float:
        return proc_peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        """Ctrl-C the server (its clean-drain path) and wait for it."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


def start(graphs: Dict[str, object], tag: str, spans_out=None):
    """Start a server, register the graphs and warm it up."""
    from repro.service.client import HttpClient

    srv = Server(tag, spans_out)
    try:
        url = srv.wait_ready()
        client = HttpClient(url)
        for name, g in graphs.items():
            client.register_graph(g, name=name)
        # one query per (kind, graph): builds sessions and field tables
        for i, (kind, graph) in enumerate(product(KINDS, GRAPHS)):
            client.query(make_query(kind, graph, WARM_SEED + i))
    except BaseException:
        srv.stop()
        raise
    return srv, url


# ---------------------------------------------------------------- clients
def client_loop(c: int, url: str, seed: int, deadline: float,
                barrier: threading.Barrier, out: list) -> None:
    """One closed-loop client: send, wait for the reply, repeat."""
    from repro.service.client import HttpClient
    from repro.util.rng import RngStream

    # RngStream entropy comes from the seed alone (the name is a label),
    # so each client's stream is keyed by [seed, 1, c]
    rng = RngStream([seed, 1, c], name=f"client{c}")
    client = HttpClient(url)
    recent: deque = deque(maxlen=RECENT)
    step = fresh = 0
    try:
        while perf_counter() < deadline:
            what = schedule(step)
            if what == "coalesce":
                # the same fresh control-graph query from both clients
                co = RngStream([seed, 2, step], name=f"coalesce{step}")
                q = fresh_query(co, KINDS[step // COALESCE_EVERY % 2], "control")
                try:
                    barrier.wait(timeout=max(deadline - perf_counter(), 0.0))
                except threading.BrokenBarrierError:
                    break
            elif what == "repeat" and recent:
                q = recent[int(rng.integers(0, len(recent)))]
            else:
                graph = "control" if fresh % CONTROL_EVERY == CONTROL_EVERY - 1 \
                    else "planted"
                q = fresh_query(rng, KINDS[fresh % 2], graph)
                fresh += 1
            recent.append(q)
            step += 1
            t0 = perf_counter()
            try:
                reply = client.query(q, tenant=f"client{c}")
            except Exception as exc:  # noqa: BLE001 - a failed query is data
                # counted against the run (fail_frac), never a dead client
                out.append((q, None, t0, perf_counter(), repr(exc)))
            else:
                out.append((q, reply, t0, perf_counter(), None))
    finally:
        barrier.abort()  # never leave the other client waiting


def drive(url: str, seed: int, seconds: float) -> dict:
    """Run both clients for ``seconds``; returns records and wall time."""
    records: List[list] = [[] for _ in range(CLIENTS)]
    barrier = threading.Barrier(CLIENTS)
    t_start = perf_counter()
    threads = [threading.Thread(target=client_loop,
                                args=(c, url, seed, t_start + seconds,
                                      barrier, records[c]))
               for c in range(CLIENTS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    recs = [r for rs in records for r in rs]
    wall = max((r[3] for r in recs), default=perf_counter()) - t_start
    return {"records": recs, "wall": wall}


# ------------------------------------------------------------- checking
def standalone(q: dict, graphs: Dict[str, object]) -> dict:
    """The same query as a plain driver call in this process."""
    from repro.core.midas import detect_path, detect_tree
    from repro.graph.templates import TreeTemplate
    from repro.service.broker import QuerySpec

    spec = QuerySpec.from_dict(q)
    g = graphs[spec.graph]
    if spec.kind == "detect-path":
        res = detect_path(g, spec.k, eps=spec.eps, rng=spec.seed_stream(),
                          early_exit=spec.early_exit)
    else:
        res = detect_tree(g, TreeTemplate.binary(spec.k), eps=spec.eps,
                          rng=spec.seed_stream(), early_exit=spec.early_exit)
    return {"found": bool(res.found), "rounds_run": res.rounds_run,
            "round_values": [int(r.value) for r in res.rounds]}


def verify(records: list, graphs: Dict[str, object]) -> Dict[int, List[str]]:
    """Check every reply; returns failing record indices with reasons."""
    expected: Dict[str, dict] = {}
    failures: Dict[int, List[str]] = {}
    for i, (q, reply, _t0, _t1, err) in enumerate(records):
        if reply is None:
            failures[i] = [f"query failed: {err}"]
            continue
        key = json.dumps(q, sort_keys=True)
        if key not in expected:
            expected[key] = standalone(q, graphs)
        exp, got = expected[key], reply.result
        errs = [f"{f} differs from a standalone run"
                for f in ("found", "rounds_run", "round_values")
                if got.get(f) != exp[f]]
        if q["graph"] == "planted" and not got.get("found"):
            errs.append("planted instance not found")
        if q["graph"] == "control" and got.get("found"):
            errs.append("found an instance in the no-instance control")
        if errs:
            failures[i] = errs
    return failures


# --------------------------------------------------------------- scraping
_SAMPLE = re.compile(r"^([a-zA-Z_:][\w:]*)(?:\{(.*)\})?\s+(\S+)")
_LABEL = re.compile(r'(\w+)="((?:[^"\\]|\\.)*)"')


def scrape(url: str) -> Dict[tuple, float]:
    """``/metrics`` as ``{(name, ((label, value), ...)): sample}``."""
    import urllib.request

    with urllib.request.urlopen(url + "/metrics", timeout=30) as resp:
        text = resp.read().decode()
    out = {}
    for line in text.splitlines():
        if line.startswith("#"):
            continue
        m = _SAMPLE.match(line.split(" # ")[0])
        if m:
            labels = tuple(sorted(_LABEL.findall(m.group(2) or "")))
            out[(m.group(1), labels)] = float(m.group(3))
    return out


def _total(snap: Dict[tuple, float], name: str) -> float:
    return sum(v for (n, _labels), v in snap.items() if n == name)


def _buckets(snap: Dict[tuple, float], stage: str) -> Dict[float, float]:
    """Cumulative ``midas_slo_stage_seconds`` buckets of one stage,
    summed over tenants: ``{upper bound: count}``."""
    out: Dict[float, float] = {}
    for (name, labels), v in snap.items():
        d = dict(labels)
        if name == "midas_slo_stage_seconds_bucket" and d.get("stage") == stage:
            le = float(d["le"])
            out[le] = out.get(le, 0.0) + v
    return out


def stage_p50_ms(before: dict, after: dict, stage: str) -> float:
    """Median of one broker stage from the histogram's delta over the
    window, interpolated linearly inside its bucket."""
    b0, b1 = _buckets(before, stage), _buckets(after, stage)
    les = sorted(b1)
    cum = [b1[le] - b0.get(le, 0.0) for le in les]
    if not cum or cum[-1] <= 0:
        return 0.0
    half = cum[-1] / 2.0
    prev_le, prev_c = 0.0, 0.0
    for le, c in zip(les, cum):
        if c >= half:
            if le == float("inf"):
                return prev_le * 1e3
            frac = (half - prev_c) / (c - prev_c) if c > prev_c else 1.0
            return (prev_le + frac * (le - prev_le)) * 1e3
        prev_le, prev_c = le, c
    return 0.0


def service_layer(before: tuple, after: tuple,
                  client_p50_ms: float) -> Dict[str, float]:
    """The ``service.*`` per-layer metrics over the timed window, from
    ``(scrape, status)`` pairs taken before and after it."""
    (m0, status0), (m1, status1) = before, after

    def delta(name):
        return _total(m1, name) - _total(m0, name)

    queries = delta("midas_service_queries_total")
    errors = (status1["broker"]["stats"].get("errors", 0)
              - status0["broker"]["stats"].get("errors", 0))
    return {
        "service.queries": queries,
        "service.cache_hit_ratio":
            delta("midas_service_cache_hits_total") / queries if queries else 0.0,
        "service.coalesced": delta("midas_service_coalesced_total"),
        "service.rejected": delta("midas_service_rejected_total"),
        "service.errors": float(errors),
        "service.sessions": _total(m1, "midas_service_sessions"),
        "service.queue_ms_p50": stage_p50_ms(m0, m1, "queue"),
        "service.execute_ms_p50": stage_p50_ms(m0, m1, "execute"),
        "service.transport_ms_p50":
            client_p50_ms - stage_p50_ms(m0, m1, "total"),
    }


def status(url: str) -> dict:
    import urllib.request

    with urllib.request.urlopen(url + "/status", timeout=30) as resp:
        return json.load(resp)
