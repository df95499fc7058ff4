"""Span recording for the traced benchmark run.

The benchmark traces the program from the outside.  It wraps the public
calls of each instance it drives -- the kernel engine through a proxy
:class:`~repro.backends.base.KernelBackend`, the model's layers, the
optimizer, the batch source and the serving executor -- and records one
span per call.  Spans are kept in memory on a per-thread stack (so shard
workers of the parallel schedule get their own stacks) and are written at
exit as a Chrome trace through :mod:`repro.obs.export`.

Every kernel span carries the bytes that the matching formula of
:mod:`repro.core.traffic` charges for the call, computed from the live
arguments, so achieved bandwidth can be set against the analytic model.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.backends.base import KernelBackend
from repro.core import traffic
from repro.core.casting import CastedIndex
from repro.core.indexing import IndexArray
from repro.obs.export import validate_chrome_trace, write_chrome_trace
from repro.obs.tracer import SpanRecord

KERNEL_OPS = (
    "gather_reduce",
    "cast_indices",
    "casted_gather_reduce",
    "expand_coalesce",
    "scatter_update",
)


@dataclass
class Span:
    """One finished call: name, interval, parent span and the work item."""

    span_id: int
    name: str
    thread: str
    start_s: float
    parent: Optional[int]
    work_id: int
    args: Dict[str, Any] = field(default_factory=dict)
    end_s: float = 0.0
    #: Seconds covered by direct children (same thread, so never overlapping).
    child_s: float = 0.0

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s

    @property
    def self_s(self) -> float:
        """Duration minus the time the span's children cover."""
        return self.duration_s - self.child_s


class Recorder:
    """In-memory span store with one open-span stack per thread.

    ``work_id`` names the training step or serving batch the next spans
    belong to; the workload advances it from the step callback (training) or
    the executor wrapper (serving).
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.work_id = 0
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        stack = self._stack()
        with self._lock:
            span_id = next(self._ids)
        span = Span(
            span_id=span_id,
            name=name,
            thread=threading.current_thread().name,
            start_s=time.perf_counter(),
            parent=stack[-1].span_id if stack else None,
            work_id=self.work_id,
        )
        stack.append(span)
        try:
            yield span
        finally:
            span.end_s = time.perf_counter()
            stack.pop()
            if stack:
                stack[-1].child_s += span.duration_s
            with self._lock:
                self.spans.append(span)

    def named(self, name: str) -> List[Span]:
        """Spans called ``name`` that are not nested in a span of that name."""
        by_id = {span.span_id: span for span in self.spans}
        selected = []
        for span in self.spans:
            if span.name != name:
                continue
            parent = by_id.get(span.parent) if span.parent else None
            while parent is not None and parent.name != name:
                parent = by_id.get(parent.parent) if parent.parent else None
            if parent is None:
                selected.append(span)
        return selected

    def total_s(self, name: str, self_time: bool = False) -> float:
        spans = self.named(name)
        return sum(s.self_s if self_time else s.duration_s for s in spans)


def wrap_method(recorder: Recorder, obj: Any, attr: str, name: str) -> None:
    """Replace ``obj.attr`` (on this instance only) with a spanned call."""
    inner = getattr(obj, attr)

    @functools.wraps(inner)
    def traced(*args: Any, **kwargs: Any) -> Any:
        with recorder.span(name):
            return inner(*args, **kwargs)

    setattr(obj, attr, traced)


def wrap_sparse_optimizer(recorder: Recorder, optimizer: Any) -> None:
    """Span the optimizer's sparse row update as the scatter-update kernel.

    The trainers scatter coalesced gradients through
    ``optimizer.apply_sparse`` (``table[rows] -= lr * grads`` for SGD), not
    through the engine's ``scatter_update``, so this is where the scatter
    traffic of a training step happens.
    """
    inner = optimizer.apply_sparse
    optimizer_name = getattr(optimizer, "traffic_name", "sgd")

    @functools.wraps(inner)
    def traced(param: np.ndarray, rows: np.ndarray, grads: np.ndarray) -> Any:
        with recorder.span("kernel.scatter_update") as span:
            result = inner(param, rows, grads)
        span.args["bytes"] = traffic.scatter_traffic(
            int(np.asarray(rows).size), param.shape[1], param.itemsize,
            optimizer_name,
        ).total
        return result

    optimizer.apply_sparse = traced


class TracedBackend(KernelBackend):
    """Proxy engine: span every hot-kernel call, then delegate.

    Passed as the trainer's ``backend=`` instance around the engine the
    trainer would resolve by default, so the traced run executes the same
    kernels.  Reports the wrapped engine's name.
    """

    name = "traced"
    autotune_candidate = False

    def __init__(self, inner: KernelBackend, recorder: Recorder) -> None:
        self.inner = inner
        self.recorder = recorder
        self.name = inner.name  # type: ignore[misc]

    def gather_reduce(self, table: np.ndarray, index: IndexArray,
                      out: Optional[np.ndarray] = None,
                      weights: Optional[np.ndarray] = None) -> np.ndarray:
        with self.recorder.span("kernel.gather_reduce") as span:
            result = self.inner.gather_reduce(table, index, out=out, weights=weights)
        span.args["bytes"] = traffic.gather_reduce_traffic(
            index.num_lookups, index.num_outputs, table.shape[1], table.itemsize
        ).total
        return result

    def cast_indices(self, index: IndexArray) -> CastedIndex:
        with self.recorder.span("kernel.cast_indices") as span:
            cast = self.inner.cast_indices(index)
        n, u, b = cast.num_lookups, cast.num_coalesced, cast.num_gradients
        span.args.update(
            bytes=traffic.casting_traffic(n).total, n=n, u=u, outputs=b
        )
        return cast

    def expand_coalesce(self, index: IndexArray, gradients: np.ndarray
                        ) -> Tuple[np.ndarray, np.ndarray]:
        with self.recorder.span("kernel.expand_coalesce") as span:
            rows, values = self.inner.expand_coalesce(index, gradients)
        span.args["bytes"] = traffic.expand_coalesce_traffic(
            index.num_lookups, index.num_outputs, int(rows.size),
            gradients.shape[1], gradients.itemsize,
        ).total
        return rows, values

    def scatter_update(self, table: np.ndarray, rows: np.ndarray,
                       gradients: np.ndarray, lr: float = 1.0) -> np.ndarray:
        with self.recorder.span("kernel.scatter_update") as span:
            result = self.inner.scatter_update(table, rows, gradients, lr=lr)
        span.args["bytes"] = traffic.scatter_traffic(
            int(rows.size), table.shape[1], table.itemsize
        ).total
        return result

    def casted_gather_reduce(self, gradients: np.ndarray, casted: CastedIndex
                             ) -> Tuple[np.ndarray, np.ndarray]:
        with self.recorder.span("kernel.casted_gather_reduce") as span:
            result = self.inner.casted_gather_reduce(gradients, casted)
        span.args["bytes"] = traffic.casted_gather_reduce_traffic(
            casted.num_lookups, casted.num_coalesced,
            gradients.shape[1], gradients.itemsize,
        ).total
        return result


def trace_model(recorder: Recorder, model: Any, optimizer: Any) -> None:
    """Wrap the DLRM layers, embedding bags and optimizer of one run."""
    for layer, label in (
        (model.bottom_mlp, "model.bottom_mlp"),
        (model.interaction, "model.interaction"),
        (model.top_mlp, "model.top_mlp"),
    ):
        wrap_method(recorder, layer, "forward", label)
        wrap_method(recorder, layer, "backward", label)
    for bag in model.embeddings:
        wrap_method(recorder, bag, "forward", "model.bag.forward")
        wrap_method(recorder, bag, "backward", "model.bag.backward")
        wrap_method(recorder, bag, "apply_gradient", "model.bag.apply_gradient")
    if optimizer is not None:
        wrap_method(recorder, optimizer, "step", "model.dense_optimizer")
        wrap_sparse_optimizer(recorder, optimizer)


def kernel_metrics(recorder: Recorder, per: int, dim: int) -> Dict[str, float]:
    """Per-op calls, ms, bytes and GB/s per work item, plus the cast ratios.

    ``kernel.unique_ratio`` is u/n and ``kernel.backward_traffic_ratio`` is
    the expand-coalesce bytes over the casted gather-reduce bytes that
    :mod:`repro.core.traffic` charges for the live casts of the run, at
    embedding width ``dim``.
    """
    metrics: Dict[str, float] = {}
    for op in KERNEL_OPS:
        spans = recorder.named(f"kernel.{op}")
        seconds = sum(span.duration_s for span in spans)
        moved = sum(span.args.get("bytes", 0) for span in spans)
        metrics[f"kernel.{op}.calls"] = len(spans) / per
        metrics[f"kernel.{op}.ms"] = seconds * 1e3 / per
        metrics[f"kernel.{op}.bytes"] = moved / per
        metrics[f"kernel.{op}.gbps"] = moved / seconds / 1e9 if seconds > 0 else 0.0
    casts = recorder.named("kernel.cast_indices")
    lookups = sum(span.args["n"] for span in casts)
    unique = sum(span.args["u"] for span in casts)
    baseline = casted = 0
    for span in casts:
        n, u, b = span.args["n"], span.args["u"], span.args["outputs"]
        if n == 0:
            continue
        baseline += traffic.expand_coalesce_traffic(n, b, u, dim).total
        casted += traffic.casted_gather_reduce_traffic(n, u, dim).total
    metrics["kernel.unique_ratio"] = unique / lookups if lookups else 0.0
    metrics["kernel.backward_traffic_ratio"] = baseline / casted if casted else 0.0
    return metrics


def model_metrics(recorder: Recorder, per: int) -> Dict[str, float]:
    """Self time per work item of each traced model layer, in ms."""
    names = {
        "model.bottom_mlp.ms": "model.bottom_mlp",
        "model.interaction.ms": "model.interaction",
        "model.top_mlp.ms": "model.top_mlp",
        "model.bag.forward_ms": "model.bag.forward",
        "model.bag.backward_ms": "model.bag.backward",
        "model.bag.apply_gradient_ms": "model.bag.apply_gradient",
        "model.dense_optimizer.ms": "model.dense_optimizer",
    }
    return {
        metric: recorder.total_s(span, self_time=True) * 1e3 / per
        for metric, span in names.items()
    }


def write_trace(recorder: Recorder, path: Path,
                metadata: Dict[str, Any]) -> int:
    """Write the spans as a Chrome trace, read it back and validate it.

    Returns the number of complete events; raises ``ValueError`` when the
    written file breaks the trace-event contract.
    """
    records = [
        SpanRecord(
            name=span.name,
            track=span.thread,
            start_s=span.start_s,
            end_s=span.end_s,
            args={
                "id": span.span_id,
                "parent": span.parent if span.parent is not None else 0,
                "work": span.work_id,
                "self_ms": round(span.self_s * 1e3, 6),
                **span.args,
            },
        )
        for span in recorder.spans
    ]
    write_chrome_trace(path, records, metadata=metadata)
    with open(path) as handle:
        return validate_chrome_trace(json.load(handle))
