"""In-memory span recording around each layer's public calls.

The traced run replaces selected functions and methods at the bindings
their callers use (for example ``repro.core.evaluator_path
.xor_segment_reduce`` or ``BitslicedGF2m.mul``) with wrappers that record
one span per call: name, start, end, parent span and a few attributes
computed from argument shapes.  Nothing inside ``src/`` is edited; the
wrappers are installed by this file and removed again by
:meth:`Tracer.uninstall`.

A span is the tuple ``(sid, parent, name, t0, t1, tid, req, attrs)``.
``req`` names the request the span belongs to: the benchmark's own root
span id for in-process calls, or the query's trace id inside the
service, so spans of one request share an identifier.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import json
import os
import threading
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np


# ------------------------------------------------------------ attributes
# Each returns a small dict from the call's arguments and result.  Byte
# counts are *computed* from array shapes (operands read + result
# written); they ignore cache misses and temporaries.

def _reduce_attrs(args, kwargs, out):
    values, indptr = args[0], args[1]
    n = len(indptr) - 1
    row = int(np.prod(values.shape[1:], dtype=np.int64)) if values.ndim > 1 else 1
    ops = max(values.shape[0] - n, 0) * row  # element XORs
    return {"bytes": int(values.nbytes + out.nbytes), "ops": int(ops)}


def _gf_mul_attrs(args, kwargs, out):
    a, b = np.asarray(args[1]), np.asarray(args[2])
    return {"elems": int(np.size(out)),
            "bytes": int(a.nbytes + b.nbytes + np.asarray(out).nbytes)}


def _bs_mul_attrs(args, kwargs, out):
    self, pa, pb = args[0], np.asarray(args[1]), np.asarray(args[2])
    words = int(np.prod(pa.shape[:-2], dtype=np.int64)) * pa.shape[-1]
    # m^2 AND + m^2 XOR word ops, plus one XOR per tap per folded plane
    ops = words * (2 * self.m * self.m + (self.m - 1) * len(self._taps))
    return {"lanes": int(words * 64),
            "bytes": int(pa.nbytes + pb.nbytes + out.nbytes), "ops": int(ops)}


def _stage_attrs(args, kwargs, out):
    rounds = len(out.values)
    return {"rounds": rounds, "phases": rounds * out.schedule.n_phases}


def _pool_attrs(args, kwargs, out):
    return {"workers": int(args[2] if len(args) > 2 else kwargs["workers"])}


# (module, class or None, attribute, span name, attribute fn)
LAYERS: Tuple[Tuple[str, Optional[str], str, str, Optional[Callable]], ...] = (
    ("repro.core.midas", None, "detect_path", "driver", None),
    ("repro.core.midas", None, "detect_tree", "driver", None),
    ("repro.core.midas", None, "scan_grid", "driver", None),
    ("repro.core.engine", "DetectionEngine", "run_stage", "engine.stage",
     _stage_attrs),
    ("repro.core.problems", None, "path_phase_value", "evaluator.phase", None),
    ("repro.core.problems", None, "tree_phase_value", "evaluator.phase", None),
    ("repro.core.problems", None, "scanstat_phase_value", "evaluator.phase",
     None),
    ("repro.core.problems", None, "weighted_path_phase_value",
     "evaluator.phase", None),
    ("repro.core.evaluator_path", None, "xor_segment_reduce", "graph.reduce",
     _reduce_attrs),
    ("repro.core.evaluator_tree", None, "xor_segment_reduce", "graph.reduce",
     _reduce_attrs),
    ("repro.core.evaluator_scanstat", None, "xor_segment_reduce",
     "graph.reduce", _reduce_attrs),
    ("repro.core.evaluator_wpath", None, "xor_segment_reduce", "graph.reduce",
     _reduce_attrs),
    ("repro.ff.fingerprint", "Fingerprint", "draw", "fingerprint.draw", None),
    ("repro.ff.fingerprint", "Fingerprint", "base_block",
     "fingerprint.base_block", None),
    ("repro.ff.fingerprint", "Fingerprint", "level_base_block",
     "fingerprint.level_base_block", None),
    ("repro.ff.gf2m", "GF2m", "__init__", "gf2m.field_build", None),
    ("repro.ff.gf2m", "GF2m", "mul", "gf2m.mul", _gf_mul_attrs),
    ("repro.ff.bitsliced", "BitslicedGF2m", "mul", "bitsliced.mul",
     _bs_mul_attrs),
    ("repro.ff.bitsliced", "BitslicedGF2m", "planes_from_words",
     "bitsliced.planes_from_words", None),
    ("repro.ff.bitsliced", "BitslicedGF2m", "pack_indicator",
     "bitsliced.pack_indicator", None),
    ("repro.ff.bitsliced", "BitslicedGF2m", "unslice", "bitsliced.unslice",
     None),
    ("repro.core.process_backend", "ProcessPhasePool", "__init__",
     "process.pool_start", _pool_attrs),
    ("repro.core.process_backend", "ProcessPhasePool", "wire_spec",
     "process.wire_spec", None),
    ("repro.core.process_backend", "ProcessPhasePool", "submit",
     "process.submit", None),
)


class Tracer:
    """Span store plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        # one record per process-pool task, filled by a future callback:
        # (pool, round, submit_t, done_t, kernel_t0, kernel_t1, pid, bytes)
        # where pool and round count the distinct pools and round
        # fingerprints seen by submit, in submission order
        self._last_submit: Tuple[Any, Any] = (None, None)
        self._submit_keys = (0, 0)
        self.tasks: List[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._installed: List[Tuple[Any, str, Any]] = []
        self.missing: List[str] = []  # LAYERS bindings absent at install

    # ------------------------------------------------------------ spans
    def _stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def open(self, name: str, req: Optional[str] = None):
        """Start a span on this thread; returns a token for :meth:`close`.

        A root span takes ``req`` (or its own id) as the request id;
        nested spans inherit their root's.
        """
        st = self._stack()
        sid = next(self._ids)
        if st:
            parent, req = st[-1], self._local.req
        else:
            parent, req = None, req or str(sid)
            self._local.req = req
        st.append(sid)
        return (sid, parent, name, perf_counter(), req)

    def close(self, token, attrs: Optional[dict] = None) -> float:
        t1 = perf_counter()
        sid, parent, name, t0, req = token
        self._stack().pop()
        self.spans.append((sid, parent, name, t0, t1, threading.get_ident(),
                           req, attrs or {}))
        return t1 - t0

    def add(self, name: str, t0: float, t1: float, req: str,
            attrs: Optional[dict] = None) -> None:
        """Record a finished root span measured elsewhere."""
        self.spans.append((next(self._ids), None, name, t0, t1,
                           threading.get_ident(), req, attrs or {}))

    # ---------------------------------------------------------- wrappers
    def _wrap(self, fn: Callable, name: str, attr_fn: Optional[Callable]):
        tracer = self

        def wrapper(*args, **kwargs):
            # inside the service a driver call carries the query's trace
            qt = getattr(kwargs.get("runtime"), "qtrace", None)
            token = tracer.open(name, getattr(qt, "trace_id", None))
            out, ok = None, False
            try:
                out = fn(*args, **kwargs)
                ok = True
                return out
            finally:
                tracer.close(token, attr_fn(args, kwargs, out)
                             if attr_fn is not None and ok else None)

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_submit(self, fn: Callable):
        tracer, wrapped = self, self._wrap(fn, "process.submit", None)

        def submit(pool, wired, fp, q_start, n2, *rest, **kw):
            # the last pool and fingerprint stay referenced, so a new
            # object can never reuse their id and pass as the same one
            last_pool, last_fp = tracer._last_submit
            key = (tracer._submit_keys[0] + (pool is not last_pool),
                   tracer._submit_keys[1] + (fp is not last_fp))
            tracer._last_submit, tracer._submit_keys = (pool, fp), key
            t_submit = perf_counter()
            fut = wrapped(pool, wired, fp, q_start, n2, *rest, **kw)
            nbytes = len(wired) + fp.v.nbytes + fp.y.nbytes

            def done(f):
                if f.cancelled() or f.exception() is not None:
                    return
                _, k0, k1, pid = f.result()[:4]
                tracer.tasks.append((*key, t_submit, perf_counter(),
                                     k0, k1, pid, nbytes))

            fut.add_done_callback(done)
            return fut

        submit.__wrapped__ = fn
        return submit

    def install(self) -> None:
        """Replace every binding in :data:`LAYERS` with a span wrapper."""
        for modname, clsname, attr, name, attr_fn in LAYERS:
            owner = importlib.import_module(modname)
            if clsname is not None:
                owner = getattr(owner, clsname)
            if not hasattr(owner, attr):
                # a renamed or removed binding reports zero; say which
                self.missing.append(f"{modname}.{clsname or ''}.{attr}")
                continue
            raw = inspect.getattr_static(owner, attr)
            fn = getattr(owner, attr)
            if name == "process.submit":
                new = self._wrap_submit(fn)
            else:
                new = self._wrap(fn, name, attr_fn)
            if isinstance(raw, staticmethod):
                new = staticmethod(new)
            setattr(owner, attr, new)
            self._installed.append((owner, attr, raw))

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._installed):
            setattr(owner, attr, raw)
        self._installed = []

    # ------------------------------------------------------------ output
    def dump(self, path: str) -> None:
        """Write spans and task records as JSON (used across processes)."""
        with open(path, "w") as fh:
            json.dump({"pid": os.getpid(), "spans": self.spans,
                       "tasks": self.tasks, "missing": self.missing}, fh)

    @classmethod
    def load(cls, path: str) -> "Tracer":
        with open(path) as fh:
            doc = json.load(fh)
        tr = cls()
        tr.spans = [tuple(s) for s in doc["spans"]]
        tr.tasks = [tuple(t) for t in doc["tasks"]]
        tr.missing = doc["missing"]
        return tr


# ------------------------------------------------------------- analysis
def self_times(spans: List[tuple]) -> Dict[int, float]:
    """Span id -> duration minus the durations of its direct children.

    Children run on their parent's thread and never overlap one another,
    so summing them gives the covered part of the parent's interval.
    """
    child = {}
    for sid, parent, _n, t0, t1, *_ in spans:
        if parent is not None:
            child[parent] = child.get(parent, 0.0) + (t1 - t0)
    return {s[0]: (s[4] - s[3]) - child.get(s[0], 0.0) for s in spans}


def by_layer(spans: List[tuple]) -> Dict[str, Dict[str, float]]:
    """Per span name: call count, busy (inclusive) seconds, self seconds."""
    selfs = self_times(spans)
    out: Dict[str, Dict[str, float]] = {}
    for s in spans:
        row = out.setdefault(s[2], {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["busy_s"] += s[4] - s[3]
        row["self_s"] += selfs[s[0]]
    return out


def _sum_attr(spans, name, key) -> float:
    return float(sum(s[7].get(key, 0) for s in spans if s[2] == name))


def _rate(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(tr: Tracer) -> Dict[str, float]:
    """The per-layer metrics of one traced run (see BENCHMARK.json)."""
    spans = tr.spans
    L = by_layer(spans)

    def calls(n):
        return float(L.get(n, {}).get("calls", 0))

    def busy(n):
        return float(L.get(n, {}).get("busy_s", 0.0))

    red_bytes = _sum_attr(spans, "graph.reduce", "bytes")
    bs_bytes = _sum_attr(spans, "bitsliced.mul", "bytes")
    m = {
        "graph.reduce_calls": calls("graph.reduce"),
        "graph.reduce_s": busy("graph.reduce"),
        "graph.reduce_gbps": _rate(red_bytes, busy("graph.reduce")) / 1e9,
        "graph.reduce_bytes_per_op": _rate(
            red_bytes, _sum_attr(spans, "graph.reduce", "ops")),
        "fingerprint.draw_s": busy("fingerprint.draw"),
        "fingerprint.base_block_calls": calls("fingerprint.base_block"),
        "fingerprint.base_block_s": busy("fingerprint.base_block"),
        "fingerprint.level_base_block_calls":
            calls("fingerprint.level_base_block"),
        "fingerprint.level_base_block_s": busy("fingerprint.level_base_block"),
        "gf2m.mul_calls": calls("gf2m.mul"),
        "gf2m.mul_s": busy("gf2m.mul"),
        "gf2m.mul_elems_per_s": _rate(_sum_attr(spans, "gf2m.mul", "elems"),
                                      busy("gf2m.mul")),
        "gf2m.field_builds": calls("gf2m.field_build"),
        "gf2m.field_build_s": busy("gf2m.field_build"),
        "bitsliced.mul_calls": calls("bitsliced.mul"),
        "bitsliced.mul_s": busy("bitsliced.mul"),
        "bitsliced.mul_lanes_per_s": _rate(
            _sum_attr(spans, "bitsliced.mul", "lanes"), busy("bitsliced.mul")),
        "bitsliced.mul_gbps": _rate(bs_bytes, busy("bitsliced.mul")) / 1e9,
        "bitsliced.mul_bytes_per_op": _rate(
            bs_bytes, _sum_attr(spans, "bitsliced.mul", "ops")),
        "bitsliced.planes_from_words_s": busy("bitsliced.planes_from_words"),
        "bitsliced.pack_indicator_s": busy("bitsliced.pack_indicator"),
        "bitsliced.unslice_s": busy("bitsliced.unslice"),
        "evaluator.phase_calls": calls("evaluator.phase"),
        "evaluator.phase_s": busy("evaluator.phase"),
        "evaluator.self_s": float(L.get("evaluator.phase", {}).get("self_s", 0.0)),
        "engine.calls": calls("engine.stage"),
        "engine.rounds": _sum_attr(spans, "engine.stage", "rounds"),
        "engine.phases": _sum_attr(spans, "engine.stage", "phases"),
        "engine.stage_s": busy("engine.stage"),
        "engine.overhead_s": busy("driver") - busy("engine.stage"),
    }
    m.update(process_metrics(tr, busy("engine.stage")))
    return m


def process_metrics(tr: Tracer, stage_s: float) -> Dict[str, float]:
    """Parent-side view of the process pool: tasks, bytes, worker time.

    Workers start lazily at the first submit, so ``pool_start_s`` is the
    ``ProcessPhasePool.__init__`` time plus, per pool, the wait from its
    first submit to the first worker kernel start.  ``merge_wait_s``
    sums, per round (tasks sharing one fingerprint), the time from the
    last worker kernel end to the parent receiving the round's last
    result: the serial return-and-merge tail.
    """
    pools = [s for s in tr.spans if s[2] == "process.pool_start"]
    workers = max((s[7].get("workers", 1) for s in pools), default=1)
    by_pool: Dict[Any, list] = {}
    by_round: Dict[Any, list] = {}
    for t in tr.tasks:
        by_pool.setdefault(t[0], []).append(t)
        by_round.setdefault(t[:2], []).append(t)
    spawn = sum(min(t[4] for t in ts) - min(t[2] for t in ts)
                for ts in by_pool.values())
    merge = sum(max(t[3] for t in ts) - max(t[5] for t in ts)
                for ts in by_round.values())
    kernel = sum(t[5] - t[4] for t in tr.tasks)
    return {
        "process.pool_start_s": float(sum(s[4] - s[3] for s in pools) + spawn),
        "process.tasks": float(len(tr.tasks)),
        "process.task_bytes": float(sum(t[7] for t in tr.tasks)),
        "process.worker_kernel_s": float(kernel),
        "process.worker_busy_frac": _rate(kernel, workers * stage_s),
        "process.merge_wait_s": float(max(merge, 0.0)),
    }


def chrome_events(tr: Tracer, pid: int, t_base: float) -> List[dict]:
    """Complete ('X') trace events, one per span, ``ts`` relative to
    ``t_base``; the caller sorts them into timestamp order."""
    tids: Dict[int, int] = {}
    events = []
    for sid, parent, name, t0, t1, tid, req, attrs in tr.spans:
        lane = tids.setdefault(tid, len(tids))
        events.append({
            "name": name, "ph": "X", "pid": pid, "tid": lane,
            "ts": (t0 - t_base) * 1e6, "dur": (t1 - t0) * 1e6,
            "args": {"req": str(req), "parent": parent, **attrs},
        })
    return events
