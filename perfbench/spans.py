"""Per-layer spans recorded from outside the program.

:func:`traced` installs a wrapper around the public function of each
layer (see :data:`LAYERS`) for the duration of a ``with`` block, then
puts every original back.  Each wrapped call records one span: layer,
parent span, start and end on the ``perf_counter_ns`` clock, plus the
rows it handled and one layer-specific second count (rows kept, bytes
encoded, rows admitted, probe matches, checkpoint bytes).  Spans stay in
memory in a :class:`Recorder` and are aggregated into per-layer metrics
by :func:`layer_metrics` or written out by :meth:`Recorder.save`.

The engine binds several of these names at import time
(``from repro.kernels.route import build_route_sends``), so each target
names the module attribute the call site actually looks up.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

#: (rows, second count) of one call, from its arguments, result and the
#: state ``before`` captured just before the call.
Counter = Callable[[tuple, dict, Any, Any], Tuple[int, int]]


def _arg(args: tuple, kwargs: dict, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _no_rows(args, kwargs, out, before) -> Tuple[int, int]:
    return 0, 0


def _route_rows(args, kwargs, out, before) -> Tuple[int, int]:
    return int(out[1]), 0


def _index_rows(args, kwargs, out, before) -> Tuple[int, int]:
    return int(out.rows.shape[0]), 0


def _probe_rows(args, kwargs, out, before) -> Tuple[int, int]:
    # probe(self, rows, buckets, probe_cols) -> (starts, counts)
    return int(_arg(args, kwargs, 1, "rows").shape[0]), int(out[1].sum())


def _combine_rows(args, kwargs, out, before) -> Tuple[int, int]:
    return int(_arg(args, kwargs, 0, "rows").shape[0]), int(out.shape[0])


def _encode_rows(args, kwargs, out, before) -> Tuple[int, int]:
    return int(_arg(args, kwargs, 0, "rows").shape[0]), len(out)


def _decode_rows(args, kwargs, out, before) -> Tuple[int, int]:
    return int(out.shape[0]), 0


def _absorb_before(args, kwargs):
    # absorb_block(self, bucket, sub, rows, stats=None)
    stats = args[4] if len(args) > 4 else kwargs.get("stats")
    return stats, (stats.received, stats.admitted) if stats is not None else None


def _absorb_rows(args, kwargs, out, before) -> Tuple[int, int]:
    stats, counts = before
    rows = int(_arg(args, kwargs, 3, "rows").shape[0])
    if stats is None:
        return rows, int(out)
    return stats.received - counts[0], stats.admitted - counts[1]


def _capture_rows(args, kwargs, out, before) -> Tuple[int, int]:
    return int(out.tuples), int(out.nbytes)


def _update_rows(args, kwargs, out, before) -> Tuple[int, int]:
    deltas = _arg(args, kwargs, 1, "edb_deltas")
    return sum(len(rows) for rows in deltas.values()), 0


@dataclass(frozen=True)
class Layer:
    """One traced layer: its patch targets and how to count a call.

    ``targets`` are ``(module, attribute path)`` pairs such as
    ``("repro.kernels.join", "RankJoinIndex.build")``.  ``has_rows``
    says whether ``<name>.rows`` and ``<name>.rows_per_call`` apply.
    """

    name: str
    targets: Tuple[Tuple[str, str], ...]
    count: Counter = _no_rows
    has_rows: bool = False
    before: Optional[Callable[[tuple, dict], Any]] = None


#: The traced layers.  The last one is the root: its self time is what
#: the engine does outside every other layer.
LAYERS: Tuple[Layer, ...] = (
    Layer("route.build", (("repro.runtime.engine", "build_route_sends"),),
          _route_rows, True),
    Layer("route.intra", (("repro.runtime.engine", "build_intra_sends"),),
          _route_rows, True),
    Layer("join.vote", (("repro.runtime.engine", "vote_outer_relation"),)),
    Layer("join.index", (("repro.kernels.join", "RankJoinIndex.build"),),
          _index_rows, True),
    Layer("join.probe", (("repro.kernels.join", "RankJoinIndex.probe"),),
          _probe_rows, True),
    Layer("wire.combine", (("repro.kernels.absorb", "combine_block"),),
          _combine_rows, True),
    Layer("wire.encode", (("repro.kernels.route", "encode_rows"),
                          ("repro.runtime.engine", "encode_rows")),
          _encode_rows, True),
    Layer("wire.decode", (("repro.kernels.route", "decode_rows"),),
          _decode_rows, True),
    Layer("transport", (("repro.comm.simcluster", "SimCluster.alltoallv"),
                        ("repro.comm.simcluster", "SimCluster.allreduce"),
                        ("repro.comm.simcluster", "SimCluster.allgather"))),
    Layer("absorb", (("repro.relational.storage",
                      "VersionedRelation.absorb_block"),),
          _absorb_rows, True, _absorb_before),
    Layer("checkpoint.capture", (("repro.faults.checkpoint", "capture"),),
          _capture_rows, True),
    Layer("incremental.update", (("repro.runtime.incremental",
                                  "FixpointHandle.update"),),
          _update_rows, True),
    Layer("incremental.guard", (("repro.runtime.incremental",
                                 "check_batch_supported"),)),
    Layer("engine.other", (("repro.runtime.engine", "Engine.run"),
                           ("repro.api.session", "Session.update"))),
)


class Recorder:
    """Spans of one traced run, held in parallel lists until the end."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.layer: List[int] = []
        self.parent: List[int] = []
        self.start_ns: List[int] = []
        self.end_ns: List[int] = []
        self.rows: List[int] = []
        self.extra: List[int] = []
        self._stack: List[int] = [-1]

    def __len__(self) -> int:
        return len(self.layer)

    def _open(self, layer: int) -> int:
        sid = len(self.layer)
        self.layer.append(layer)
        self.parent.append(self._stack[-1])
        self.rows.append(0)
        self.extra.append(0)
        self.end_ns.append(0)
        self._stack.append(sid)
        self.start_ns.append(time.perf_counter_ns())
        return sid

    def _close(self, sid: int) -> None:
        self.end_ns[sid] = time.perf_counter_ns()
        self._stack.pop()

    def arrays(self) -> Dict[str, np.ndarray]:
        return {
            "layer": np.asarray(self.layer, dtype=np.int16),
            "parent": np.asarray(self.parent, dtype=np.int64),
            "start_ns": np.asarray(self.start_ns, dtype=np.int64),
            "end_ns": np.asarray(self.end_ns, dtype=np.int64),
            "rows": np.asarray(self.rows, dtype=np.int64),
            "extra": np.asarray(self.extra, dtype=np.int64),
        }

    def save(self, path) -> None:
        """Write the spans as a compressed ``.npz`` (layer names included)."""
        np.savez_compressed(
            path,
            run_id=np.asarray(self.run_id),
            layer_names=np.asarray([layer.name for layer in LAYERS]),
            **self.arrays(),
        )


def _wrap(rec: Recorder, index: int, layer: Layer, fn: Callable) -> Callable:
    count, before = layer.count, layer.before

    def wrapper(*args, **kwargs):
        state = before(args, kwargs) if before is not None else None
        sid = rec._open(index)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec._close(sid)
        rec.rows[sid], rec.extra[sid] = count(args, kwargs, out, state)
        return out

    wrapper.__wrapped__ = fn
    return wrapper


def _resolve(module: str, path: str) -> Tuple[Any, str]:
    owner: Any = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


def patch_points() -> List[Tuple[int, Any, str, Any]]:
    """Every ``(layer index, owner, attribute, raw value)`` :func:`traced`
    patches; the raw value is the one found now."""
    out = []
    for index, layer in enumerate(LAYERS):
        for module, path in layer.targets:
            owner, attr = _resolve(module, path)
            # A class attribute is read raw, so a classmethod stays one.
            raw = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
            out.append((index, owner, attr, raw))
    return out


@contextlib.contextmanager
def traced(rec: Recorder) -> Iterator[Recorder]:
    """Record spans into ``rec`` for every layer call inside the block."""
    saved = patch_points()
    try:
        for index, owner, attr, raw in saved:
            layer = LAYERS[index]
            if isinstance(raw, classmethod):
                new: Any = classmethod(_wrap(rec, index, layer, raw.__func__))
            else:
                new = _wrap(rec, index, layer, raw)
            setattr(owner, attr, new)
        yield rec
    finally:
        for _, owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)


def _ratio(num: float, den: float) -> float:
    return float(num / den) if den else 0.0


def layer_metrics(rec: Recorder) -> Dict[str, float]:
    """Self time, calls, rows and rows per call of every layer, plus the
    ratios measured at the layer boundaries.

    Self time is a span's duration minus the time its child spans cover;
    calls are sequential, so children never overlap.
    """
    a = rec.arrays()
    n_layers = len(LAYERS)
    dur = (a["end_ns"] - a["start_ns"]).astype(np.float64) / 1e9
    child = np.zeros_like(dur)
    has_parent = a["parent"] >= 0
    np.add.at(child, a["parent"][has_parent], dur[has_parent])
    self_s = np.bincount(a["layer"], weights=dur - child, minlength=n_layers)
    calls = np.bincount(a["layer"], minlength=n_layers)
    rows = np.bincount(a["layer"], weights=a["rows"], minlength=n_layers)
    extra = np.bincount(a["layer"], weights=a["extra"], minlength=n_layers)

    out: Dict[str, float] = {}
    counts: Dict[str, Tuple[int, float, float]] = {}
    for i, layer in enumerate(LAYERS):
        counts[layer.name] = (int(calls[i]), float(rows[i]), float(extra[i]))
        out[f"{layer.name}.self_s"] = float(self_s[i])
        out[f"{layer.name}.calls"] = int(calls[i])
        if layer.has_rows:
            out[f"{layer.name}.rows"] = int(rows[i])
            out[f"{layer.name}.rows_per_call"] = _ratio(rows[i], calls[i])
    _, comb_in, comb_out = counts["wire.combine"]
    _, enc_rows, enc_bytes = counts["wire.encode"]
    _, received, admitted = counts["absorb"]
    probes, probe_rows, matches = counts["join.probe"]
    builds, _, _ = counts["join.index"]
    _, _, ckpt_bytes = counts["checkpoint.capture"]
    out["wire.combine.keep_ratio"] = _ratio(comb_out, comb_in)
    out["wire.encode.bytes_per_row"] = _ratio(enc_bytes, enc_rows)
    out["absorb.admit_ratio"] = _ratio(admitted, received)
    out["join.probe.matches_per_row"] = _ratio(matches, probe_rows)
    out["join.index.builds_per_probe"] = _ratio(builds, probes)
    out["checkpoint.capture.bytes"] = int(ckpt_bytes)
    return out
