"""The benchmark's workloads: inputs from the seed, set-up, timed run, checks.

Three workloads share one model geometry -- RM1 (80 lookups per table,
dimension 64) with 8 float32 tables of 160,000 rows, 312.5 MiB of tables in
all, more than the 300 MiB last-level cache of the reference host (a 2-vCPU
Intel Xeon VM, see README.md) -- and plain SGD:

``train-emb``
    unsharded training with the serial schedule and the casted backward,
    Zipf-skewed lookups (s = 1.0).  The hot kernels do most of the work.
``train-sharded``
    the same model over 2 row-wise shards under ``schedule="parallel"``,
    uniform lookups.  The only workload that runs partition, exchange,
    the barriers and the worker pool.
``serve``
    forward-only serving of the ``train-emb`` model through
    ``ServingSimulator`` + ``EngineExecutor`` on a ``VirtualClock``: an
    open loop of seeded Poisson arrivals at a fixed offered rate.

Every input -- lookups, dense features, labels, arrival times -- comes
from ``--seed``; the model initialisation and every setting do not.  The
training inputs reach the trainer through a recorded batch trace replayed
by ``TraceReplaySource``, so generating them is not timed as program work.
Knobs a workload does not name (kernel engine, parallel mode, worker
count) keep the trainer's defaults.
"""

from __future__ import annotations

import gc
import hashlib
import resource
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.backends.dispatch import resolve_backend
from repro.data.arrivals import ArrivalProcess
from repro.data.distributions import UniformDistribution, ZipfDistribution
from repro.data.generator import SyntheticCTRStream
from repro.data.source import CTRBatch
from repro.data.trace import TraceReplaySource, record_trace
from repro.model.configs import RM1
from repro.model.dlrm import DLRM
from repro.model.loss import bce_with_logits
from repro.model.optim import SGD
from repro.runtime.engine import StepEvent, TrainingCallback
from repro.runtime.stages import TrainingReport
from repro.runtime.trainer import FunctionalTrainer
from repro.serving.batcher import BatchingPolicy
from repro.serving.clock import VirtualClock
from repro.serving.execution import EngineExecutor, ExecutionResult
from repro.serving.harness import ServingReport, ServingSimulator
from repro.serving.request import Request, generate_requests

from tracing import (
    KERNEL_OPS,
    Recorder,
    TracedBackend,
    kernel_metrics,
    model_metrics,
    trace_model,
    wrap_method,
)

NUM_TABLES = 8
ROWS_PER_TABLE = 160_000
MODEL = RM1.with_overrides(num_tables=NUM_TABLES, rows_per_table=ROWS_PER_TABLE)
#: Model initialisation is configuration, not input: the same on every seed.
MODEL_SEED = 0
#: Seed of the hidden ground-truth model that labels the samples.  It is
#: part of the workload, like the geometry; ``--seed`` drives every draw.
TRUTH_SEED = 0
#: The kernel engine, pinned.  The default ``auto`` policy re-probes the
#: engines in every process and flipped between ``vectorized`` and
#: ``blocked`` from one run to the next on the reference host (60 per-shape
#: class decisions over 15 runs, 47 ``blocked``), moving throughput by up to
#: 50%.  Pinned to the engine it picked most often.
BACKEND = "blocked"
LEARNING_RATE = 0.05
#: Set-up runs this many times per run; ``setup_s`` is the median.
SETUP_REPEATS = 3
#: The timed measurement is split into this many consecutive parts
#: (sub-windows of one training run, passes over the served requests);
#: throughput and median latency are the median over the parts, so a slow
#: spell of the host that covers one part does not move the result.
PARTS = 5
#: Every timed training window has at least this many steps, so that more
#: than ten step times lie beyond the reported p90.
MIN_TIMED_STEPS = 150
#: ``loss_final`` is the mean loss over this many last timed steps.
LOSS_TAIL_STEPS = 60
#: Timed steps per ``--seconds``: the reference host's training rate, so the
#: amount of work depends on ``--seconds`` only, never on the program's speed.
NOMINAL_STEPS_PER_S = 8.0
#: Steps the correctness checks train from a fresh model.
PREFIX_STEPS = 2

E2E_METRICS: Tuple[Tuple[str, str], ...] = (
    ("samples_per_s", "samples/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("loss_final", "loss"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
)

NUM_SHARDS = 2
PER_LAYER_METRICS: Tuple[Tuple[str, str], ...] = (
    (("data.draw_ms", "ms"),)
    + tuple(
        (f"kernel.{op}.{field_}", unit)
        for op in KERNEL_OPS
        for field_, unit in (
            ("calls", "count"), ("ms", "ms"), ("bytes", "bytes"), ("gbps", "GB/s")
        )
    )
    + (
        ("kernel.unique_ratio", "ratio"),
        ("kernel.backward_traffic_ratio", "ratio"),
        ("model.bottom_mlp.ms", "ms"),
        ("model.interaction.ms", "ms"),
        ("model.top_mlp.ms", "ms"),
        ("model.bag.forward_ms", "ms"),
        ("model.bag.backward_ms", "ms"),
        ("model.bag.apply_gradient_ms", "ms"),
        ("model.dense_optimizer.ms", "ms"),
        ("sharded.partition_ms", "ms"),
        ("sharded.fwd_exchange_bytes", "bytes"),
        ("sharded.bwd_exchange_bytes", "bytes"),
    )
    + tuple(
        (f"stage.{stage}.ms", "ms")
        for stage in (
            "draw", "cast", "gather", "exchange", "forward", "backward",
            "optimize",
        )
    )
    + (
        ("runtime.unattributed_ms", "ms"),
        ("parallel.sync_ms", "ms"),
    )
    + tuple(
        (f"parallel.worker_busy_ms.shard{shard}", "ms")
        for shard in range(NUM_SHARDS)
    )
    + (
        ("parallel.idle_share", "ratio"),
        ("serving.queue_wait_ms_p50", "ms"),
        ("serving.queue_wait_ms_p99", "ms"),
        ("serving.execute_ms", "ms"),
        ("serving.batch_requests_mean", "requests"),
        ("serving.busy_share", "ratio"),
        ("setup.model_init_s", "s"),
        ("setup.trainer_init_s", "s"),
        ("setup.warmup_s", "s"),
        ("trace_overhead_frac", "ratio"),
    )
)


@dataclass(frozen=True)
class TrainWorkload:
    name: str
    why: str
    #: Zipf exponent of the lookups; ``None`` draws them uniformly.
    zipf: Optional[float]
    #: Trainer knobs the workload names; everything else stays default.
    knobs: Dict[str, Any] = field(default_factory=dict)
    batch: int = 64
    warmup_steps: int = 8


@dataclass(frozen=True)
class ServeWorkload:
    name: str
    why: str
    zipf: float = 1.0
    request_samples: int = 8
    #: Offered load, about half the capacity measured on the reference host.
    rate_per_s: float = 60.0
    sla_s: float = 0.25
    max_batch_requests: int = 8
    max_wait_s: float = 0.005
    warmup_requests: int = 150
    #: Requests per pass: at least 600, so twelve lie beyond the p98.
    min_requests: int = 600
    nominal_requests_per_s: float = 33.0
    tail_percentile: float = 98.0
    #: Every this-many-th served batch is re-scored by ``infer``.
    check_every: int = 25


WORKLOADS: Dict[str, Any] = {
    spec.name: spec
    for spec in (
        TrainWorkload(
            name="train-emb",
            why="unsharded serial casted training on Zipf lookups: the hot "
                "kernels (gather, cast, casted gather, scatter) do most of "
                "the work",
            zipf=1.0,
            knobs={"backend": BACKEND},
        ),
        TrainWorkload(
            name="train-sharded",
            why="2 row-wise shards under the parallel schedule on uniform "
                "lookups: the only run of partition, exchange, barriers and "
                "the worker pool",
            zipf=None,
            knobs={"backend": BACKEND, "num_shards": NUM_SHARDS,
                   "schedule": "parallel"},
        ),
        ServeWorkload(
            name="serve",
            why="open-loop Poisson serving of the train-emb model: reads "
                "through the gather path with no backward, scatter or "
                "optimizer",
        ),
    )
}


@dataclass
class Outcome:
    """What one run measured and checked.

    ``attempted`` counts timed operations (training steps or served
    requests) plus correctness checks; ``failed`` counts the operations that
    failed (non-finite loss, request over the SLA) plus failed checks.
    """

    metrics: Dict[str, float]
    attempted: int
    failed: int
    checks: List[Tuple[str, bool, str]]
    settings: Dict[str, Any]
    recorder: Optional[Recorder] = None

    @property
    def correct(self) -> bool:
        return all(passed for _, passed, _ in self.checks)


def _stream(zipf: Optional[float], seed: int) -> SyntheticCTRStream:
    rows = MODEL.rows_per_table
    dists = [
        ZipfDistribution(rows, zipf) if zipf else UniformDistribution(rows)
        for _ in range(NUM_TABLES)
    ]
    return SyntheticCTRStream(
        NUM_TABLES, rows, MODEL.gathers_per_table, MODEL.dense_features,
        distributions=dists, seed=TRUTH_SEED,
    )


def record_inputs(spec: TrainWorkload, seed: int, steps: int,
                  path: Path) -> Path:
    """Generate ``steps`` batches from the seed into a replayable trace."""
    return record_trace(
        _stream(spec.zipf, seed), path, spec.batch, steps,
        np.random.default_rng(seed),
    )


def new_model() -> DLRM:
    return DLRM(MODEL, rng=np.random.default_rng(MODEL_SEED), dtype=np.float32)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _median_setups(setups: Sequence[Dict[str, float]]) -> Dict[str, float]:
    return {
        key: float(np.median([setup[key] for setup in setups]))
        for key in setups[0]
    }


class StepClock(TrainingCallback):
    """Timestamp each completed step; advance the recorder's step id."""

    def __init__(self, recorder: Optional[Recorder] = None) -> None:
        self.stamps: List[float] = []
        self.recorder = recorder

    def on_step_end(self, event: StepEvent) -> None:
        self.stamps.append(time.perf_counter())
        if self.recorder is not None:
            self.recorder.work_id = len(self.stamps)


@dataclass
class Window:
    """One timed training window."""

    report: TrainingReport
    step_ms: np.ndarray
    wall_s: float

    @property
    def samples_per_s(self) -> float:
        return self.report.samples / self.wall_s


def timed_window(trainer: FunctionalTrainer, batch: int, steps: int,
                 recorder: Optional[Recorder] = None) -> Window:
    clock = StepClock(recorder)
    start = time.perf_counter()
    report = trainer.train(batch, steps, np.random.default_rng(0),
                           callbacks=[clock])
    stamps = np.array([start] + clock.stamps)
    return Window(report, np.diff(stamps) * 1e3, float(stamps[-1] - start))


# ----------------------------------------------------------------------
# Training
# ----------------------------------------------------------------------

def _setup_train(spec: TrainWorkload, trace_path: Path
                 ) -> Tuple[FunctionalTrainer, Dict[str, float]]:
    """Model and table init, trainer construction and warm-up, timed."""
    gc.collect()
    start = time.perf_counter()
    model = new_model()
    built = time.perf_counter()
    trainer = FunctionalTrainer(
        model, TraceReplaySource(trace_path), SGD(lr=LEARNING_RATE),
        **spec.knobs,
    )
    constructed = time.perf_counter()
    trainer.train(spec.batch, spec.warmup_steps, np.random.default_rng(0))
    ready = time.perf_counter()
    return trainer, {
        "model_init_s": built - start,
        "trainer_init_s": constructed - built,
        "warmup_s": ready - constructed,
        "setup_s": ready - start,
    }


def _release(trainer: Optional[FunctionalTrainer]) -> None:
    if trainer is not None:
        trainer.close()
        trainer.stream.close()


def run_train(spec: TrainWorkload, seed: int, seconds: float, trace: bool,
              workdir: Path, inject_fault: bool) -> Outcome:
    steps = max(MIN_TIMED_STEPS, round(seconds * NOMINAL_STEPS_PER_S))
    steps += -steps % PARTS
    windows = 2 if trace else 1
    trace_path = record_inputs(
        spec, seed, spec.warmup_steps + windows * steps, workdir / "inputs"
    )
    trainer = None
    setups = []
    for _ in range(SETUP_REPEATS):
        _release(trainer)
        trainer = None
        trainer, times = _setup_train(spec, trace_path)
        setups.append(times)
    setup = _median_setups(setups)
    assert trainer is not None
    window = timed_window(trainer, spec.batch, steps)
    losses = np.asarray(window.report.losses)
    nonfinite = int(np.count_nonzero(~np.isfinite(losses)))
    checks: List[Tuple[str, bool, str]] = [
        ("finite_losses", nonfinite == 0, f"{nonfinite} non-finite losses"),
    ]
    if trace:
        metrics, trace_checks, recorder = _traced_train(
            spec, trainer, steps, window, setup
        )
        checks += trace_checks
    else:
        parts = np.split(window.step_ms, PARTS)
        metrics = {
            "samples_per_s": float(np.median(
                [spec.batch * part.size / part.sum() * 1e3 for part in parts]
            )),
            "latency_p50_ms": float(np.median([np.median(p) for p in parts])),
            "latency_tail_ms": float(np.percentile(window.step_ms, 90)),
            "loss_final": float(np.mean(losses[-LOSS_TAIL_STEPS:])),
            "setup_s": setup["setup_s"],
            "peak_rss_mb": peak_rss_mb(),
        }
        recorder = None
    settings = {
        "timed_steps": steps,
        "batch": spec.batch,
        "backend": trainer.backend.name,
    }
    _release(trainer)
    del trainer
    if spec.knobs.get("schedule") == "parallel":
        checks.append(_check_parallel_prefix(spec, trace_path, inject_fault))
    else:
        checks.append(_check_casted_prefix(spec, trace_path, inject_fault))
    gates = checks[1:]
    return Outcome(
        metrics=metrics,
        attempted=steps + len(gates),
        failed=nonfinite + sum(not passed for _, passed, _ in gates),
        checks=checks,
        settings=settings,
        recorder=recorder,
    )


def _stage_ms(report: TrainingReport, draw_s: float, steps: int,
              parallel: bool) -> Tuple[Dict[str, float], float]:
    """Step-loop seconds per stage (ms per step) and the barrier wait (s).

    The phases of ``TrainingReport`` sum worker time and step-loop time.
    Under the parallel schedule the shard workers run casting, gather and
    the casted backward while the step loop waits at a barrier (the
    ``sync`` phase), so their worker time is taken out of the stage rows
    here and shows in ``parallel.worker_busy_ms`` instead.
    """
    totals = report.timings.totals
    shards = report.shard_timings or []

    def shard_sum(phase: str) -> float:
        return sum(timing.totals.get(phase, 0.0) for timing in shards)

    gather = shard_sum("gather")
    worker_cast = shard_sum("casting") if parallel else 0.0
    worker_backward = shard_sum("backward") if parallel else 0.0
    seconds = {
        "draw": draw_s,
        "cast": totals.get("partition", 0.0) + totals.get("casting", 0.0)
        - worker_cast,
        "gather": 0.0 if parallel else gather,
        "exchange": totals.get("exchange", 0.0),
        "forward": totals.get("forward", 0.0) - gather + totals.get("loss", 0.0),
        "backward": totals.get("backward", 0.0) - worker_backward,
        "optimize": totals.get("update", 0.0),
    }
    stages = {
        f"stage.{name}.ms": value * 1e3 / steps for name, value in seconds.items()
    }
    return stages, totals.get("sync", 0.0)


def _kernel_within_phases(recorder: Recorder,
                          totals: Dict[str, float]) -> Tuple[bool, str]:
    """Each kernel's time is no larger than the phase that encloses it."""
    enclosing = {
        "gather_reduce": ("forward",),
        "cast_indices": ("casting",),
        "casted_gather_reduce": ("backward",),
        "expand_coalesce": ("backward",),
        "scatter_update": ("update",),
    }
    worst = []
    for op, phases in enclosing.items():
        kernel_s = recorder.total_s(f"kernel.{op}")
        phase_s = sum(totals.get(phase, 0.0) for phase in phases)
        if kernel_s > phase_s + 1e-9:
            worst.append(f"{op} {kernel_s:.4f}s > {'+'.join(phases)} {phase_s:.4f}s")
    return not worst, "; ".join(worst) or "every kernel inside its phase"


def _traced_train(spec: TrainWorkload, trainer: FunctionalTrainer,
                  steps: int, untraced: Window, setup: Dict[str, float]
                  ) -> Tuple[Dict[str, float], List[Tuple[str, bool, str]], Recorder]:
    """Second window through a traced trainer over the same model."""
    recorder = Recorder()
    model, source, optimizer = trainer.model, trainer.stream, trainer.optimizer
    knobs = dict(spec.knobs, backend=TracedBackend(trainer.backend, recorder))
    traced_trainer = FunctionalTrainer(model, source, optimizer, **knobs)
    trace_model(recorder, model, optimizer)
    wrap_method(recorder, source, "next_batch", "data.draw")
    window = timed_window(traced_trainer, spec.batch, steps, recorder)
    report = window.report
    parallel = spec.knobs.get("schedule") == "parallel"
    draw_s = recorder.total_s("data.draw")
    stages, sync_s = _stage_ms(report, draw_s, steps, parallel)
    wall_ms = window.wall_s * 1e3 / steps
    unattributed = wall_ms - sum(stages.values()) - sync_s * 1e3 / steps
    metrics: Dict[str, float] = {"data.draw_ms": draw_s * 1e3 / steps}
    metrics.update(kernel_metrics(recorder, steps, MODEL.embedding_dim))
    metrics.update(model_metrics(recorder, steps))
    totals = report.timings.totals
    metrics["sharded.partition_ms"] = totals.get("partition", 0.0) * 1e3 / steps
    metrics["sharded.fwd_exchange_bytes"] = report.forward_exchange_bytes / steps
    metrics["sharded.bwd_exchange_bytes"] = report.backward_exchange_bytes / steps
    metrics.update(stages)
    metrics["runtime.unattributed_ms"] = unattributed
    metrics["parallel.sync_ms"] = sync_s * 1e3 / steps
    busy = [0.0] * NUM_SHARDS
    if parallel and report.shard_timings:
        for shard, timing in enumerate(report.shard_timings):
            busy[shard] = sum(
                timing.totals.get(phase, 0.0)
                for phase in ("casting", "gather", "backward")
            )
    for shard, seconds in enumerate(busy):
        metrics[f"parallel.worker_busy_ms.shard{shard}"] = seconds * 1e3 / steps
    metrics["parallel.idle_share"] = (
        1.0 - sum(busy) / (NUM_SHARDS * window.wall_s) if parallel else 0.0
    )
    metrics.update(_zero_serving())
    metrics.update(_setup_rows(setup))
    metrics["trace_overhead_frac"] = (
        1.0 - window.samples_per_s / untraced.samples_per_s
    )
    within, detail = _kernel_within_phases(recorder, totals)
    checks = [
        (
            "stages_sum_to_step_wall",
            unattributed >= 0.0,
            f"unattributed {unattributed:.3f} ms/step of {wall_ms:.3f}",
        ),
        ("kernels_within_phases", within, detail),
    ]
    return metrics, checks, recorder


def _zero_serving() -> Dict[str, float]:
    return {
        name: 0.0 for name, _ in PER_LAYER_METRICS if name.startswith("serving.")
    }


def _setup_rows(setup: Dict[str, float]) -> Dict[str, float]:
    return {
        "setup.model_init_s": setup["model_init_s"],
        "setup.trainer_init_s": setup["trainer_init_s"],
        "setup.warmup_s": setup["warmup_s"],
    }


def _train_prefix(spec: TrainWorkload, trace_path: Path, mode: str,
                  knobs: Dict[str, Any]) -> DLRM:
    """A fresh model after the first ``PREFIX_STEPS`` steps of the inputs."""
    model = new_model()
    with FunctionalTrainer(
        model, TraceReplaySource(trace_path), SGD(lr=LEARNING_RATE), **knobs
    ) as trainer:
        trainer.train(spec.batch, PREFIX_STEPS,
                      np.random.default_rng(0), mode=mode)
        trainer.stream.close()
    return model


def _digest(model: DLRM) -> List[str]:
    return [
        hashlib.sha256(np.ascontiguousarray(param).data).hexdigest()
        for param in model.all_parameters()
    ]


def _check_parallel_prefix(spec: TrainWorkload, trace_path: Path,
                           inject_fault: bool) -> Tuple[str, bool, str]:
    """Parallel-schedule parameters are bit-identical to serial ones."""
    parallel = _digest(_train_prefix(spec, trace_path, "casted", spec.knobs))
    gc.collect()
    serial_knobs = dict(spec.knobs, schedule="serial")
    serial = _digest(_train_prefix(spec, trace_path, "casted", serial_knobs))
    if inject_fault:
        serial[0] = "injected"
    differing = sum(a != b for a, b in zip(parallel, serial))
    return (
        "parallel_equals_serial",
        differing == 0,
        f"{differing} of {len(serial)} parameter tensors differ after "
        f"{PREFIX_STEPS} steps",
    )


def _snapshot(model: DLRM, rows: List[np.ndarray]) -> List[np.ndarray]:
    """Dense parameters, every table's row sums and its touched rows."""
    dense = [param.copy() for param, _ in model.dense_parameters()]
    tables = []
    for bag, touched in zip(model.embeddings, rows):
        tables.append(bag.table.sum(axis=1, dtype=np.float64))
        tables.append(bag.table[touched])
    return dense + tables


def _check_casted_prefix(spec: TrainWorkload, trace_path: Path,
                         inject_fault: bool) -> Tuple[str, bool, str]:
    """The casted backward matches the baseline expand-coalesce one.

    Both start from the same initialisation and train the first steps of
    the inputs; every dense parameter, every table row sum and every row
    the steps touched must agree within float32 tolerance.
    """
    source = TraceReplaySource(trace_path)
    batches = [source.next_batch(None) for _ in range(PREFIX_STEPS)]
    source.close()
    rows = [
        np.unique(np.concatenate([b.indices[t].src for b in batches]))
        for t in range(NUM_TABLES)
    ]
    casted = _snapshot(_train_prefix(spec, trace_path, "casted", spec.knobs), rows)
    gc.collect()
    baseline = _snapshot(
        _train_prefix(spec, trace_path, "baseline", spec.knobs), rows
    )
    if inject_fault:
        baseline[0] = baseline[0] + 1.0
    eps = float(np.finfo(np.float32).eps)
    worst = 0.0
    passed = True
    for a, b in zip(casted, baseline):
        scale = max(1.0, float(np.max(np.abs(b)))) if b.size else 1.0
        error = float(np.max(np.abs(a - b))) / scale if b.size else 0.0
        worst = max(worst, error)
        passed &= error <= 64 * eps
    return (
        "casted_matches_baseline",
        passed,
        f"largest scaled difference {worst:.3e} (limit {64 * eps:.3e})",
    )


# ----------------------------------------------------------------------
# Serving
# ----------------------------------------------------------------------

class ServedBatches:
    """Executor wrapper: keep a sample of served batches and the served loss.

    Delegates every batch to the engine executor unchanged; the simulator
    charges the engine's measured seconds.
    """

    def __init__(self, inner: Any, check_every: int,
                 recorder: Optional[Recorder] = None) -> None:
        self.inner = inner
        self.check_every = check_every
        self.recorder = recorder
        self.sampled: List[Tuple[CTRBatch, np.ndarray]] = []
        self.batches = 0
        self.samples = 0
        self.busy_s = 0.0
        self.loss_sum = 0.0

    def execute(self, data: CTRBatch) -> ExecutionResult:
        if self.recorder is not None:
            self.recorder.work_id = self.batches
        result = self.inner.execute(data)
        if self.batches % self.check_every == 0:
            self.sampled.append((data, result.logits))
        loss, _ = bce_with_logits(result.logits, data.labels)
        self.loss_sum += loss * data.size
        self.batches += 1
        self.samples += data.size
        self.busy_s += result.seconds
        return result


def make_requests(spec: ServeWorkload, seed: int,
                  count: int) -> Tuple[List[Request], List[Request]]:
    """Warm-up and timed requests: seeded payloads and Poisson arrivals."""
    requests = generate_requests(
        _stream(spec.zipf, seed),
        spec.warmup_requests + count,
        spec.request_samples,
        ArrivalProcess(spec.rate_per_s, "poisson", seed=seed),
        np.random.default_rng(seed),
    )
    return requests[: spec.warmup_requests], requests[spec.warmup_requests:]


def _policy(spec: ServeWorkload) -> BatchingPolicy:
    return BatchingPolicy(spec.max_batch_requests, spec.max_wait_s)


def _serve(spec: ServeWorkload, executor: Any,
           requests: Sequence[Request]) -> Tuple[ServingReport, float]:
    simulator = ServingSimulator(
        executor, _policy(spec), spec.sla_s, clock=VirtualClock()
    )
    start = time.perf_counter()
    report = simulator.run(requests)
    return report, time.perf_counter() - start


class _BatchList:
    """Already-generated batches in the legacy ``make_batch`` stream shape."""

    def __init__(self, batches: List[CTRBatch]) -> None:
        self._batches = list(batches)
        self.num_tables = NUM_TABLES
        self.rows_per_table = [MODEL.rows_per_table] * NUM_TABLES
        self.dense_features = MODEL.dense_features

    def make_batch(self, batch: int, rng: np.random.Generator) -> CTRBatch:
        return self._batches.pop(0)


def _check_served_logits(model: DLRM, sampled: List[Tuple[CTRBatch, np.ndarray]],
                         inject_fault: bool) -> Tuple[str, bool, str]:
    """Served logits equal ``FunctionalTrainer.infer`` on the same inputs."""
    trainer = FunctionalTrainer(
        model, _BatchList([data for data, _ in sampled]), SGD(lr=LEARNING_RATE),
        backend=BACKEND,
    )
    mismatched = 0
    for index, (data, served) in enumerate(sampled):
        logits = trainer.infer(data.size, 1, np.random.default_rng(0)).logits[0]
        if inject_fault and index == 0:
            logits = logits + 1.0
        mismatched += not np.array_equal(logits, served)
    return (
        "served_equals_infer",
        mismatched == 0,
        f"{mismatched} of {len(sampled)} sampled batches differ",
    )


def run_serve(spec: ServeWorkload, seed: int, seconds: float, trace: bool,
              workdir: Path, inject_fault: bool) -> Outcome:
    del workdir  # serving keeps its inputs in memory
    count = max(spec.min_requests, round(seconds * spec.nominal_requests_per_s))
    warmup, timed = make_requests(spec, seed, count)
    setups = []
    model = executor = None
    for _ in range(SETUP_REPEATS):
        model = executor = None
        gc.collect()
        start = time.perf_counter()
        model = new_model()
        built = time.perf_counter()
        executor = EngineExecutor(model, backend=BACKEND)
        constructed = time.perf_counter()
        _serve(spec, executor, warmup)
        ready = time.perf_counter()
        setups.append({
            "model_init_s": built - start,
            "trainer_init_s": constructed - built,
            "warmup_s": ready - constructed,
            "setup_s": ready - start,
        })
    setup = _median_setups(setups)
    assert model is not None
    passes = []
    for _ in range(PARTS):
        served = ServedBatches(executor, spec.check_every)
        report, wall_s = _serve(spec, served, timed)
        passes.append((served, report, wall_s))
    samples_per_s = float(np.median(
        [served.samples / wall_s for served, _, wall_s in passes]
    ))
    over_sla = missing = 0
    for _, report, _ in passes:
        latencies = np.array([outcome.latency_s for outcome in report.outcomes])
        over_sla += int(np.count_nonzero(latencies > spec.sla_s))
        missing += len(timed) - report.requests
    served = passes[0][0]
    recorder = None
    if trace:
        recorder = Recorder()
        traced_executor = EngineExecutor(
            model, backend=TracedBackend(resolve_backend(BACKEND), recorder)
        )
        trace_model(recorder, model, None)
        wrap_method(recorder, traced_executor, "execute", "serving.execute")
        traced = ServedBatches(traced_executor, spec.check_every, recorder)
        traced_report, traced_wall = _serve(spec, traced, timed)
        metrics, trace_checks = _serve_layers(
            recorder, traced, traced_executor, traced_report, setup,
            samples_per_s, traced.samples / traced_wall,
        )
    else:
        reports = [report for _, report, _ in passes]
        metrics = {
            "samples_per_s": samples_per_s,
            "latency_p50_ms": float(np.median([r.p50_s for r in reports])) * 1e3,
            "latency_tail_ms": float(np.median([
                np.percentile([o.latency_s for o in r.outcomes],
                              spec.tail_percentile)
                for r in reports
            ])) * 1e3,
            "loss_final": served.loss_sum / served.samples,
            "setup_s": setup["setup_s"],
            "peak_rss_mb": peak_rss_mb(),
        }
        trace_checks = []
    checks = [_check_served_logits(model, served.sampled, inject_fault)]
    checks += trace_checks
    settings = {
        "requests": len(timed),
        "passes": PARTS,
        "rate_per_s": spec.rate_per_s,
        "sla_ms": spec.sla_s * 1e3,
        "generator_late_ms": 0.0,
        "backend": executor.trainer.backend.name,
    }
    return Outcome(
        metrics=metrics,
        attempted=PARTS * len(timed) + len(checks),
        failed=over_sla + missing + sum(not passed for _, passed, _ in checks),
        checks=checks,
        settings=settings,
        recorder=recorder,
    )


def _serve_layers(recorder: Recorder, served: ServedBatches,
                  executor: EngineExecutor, report: ServingReport,
                  setup: Dict[str, float], untraced_sps: float,
                  traced_sps: float
                  ) -> Tuple[Dict[str, float], List[Tuple[str, bool, str]]]:
    batches = served.batches
    phases = executor.timings.totals
    waits = np.array([outcome.queue_wait_s for outcome in report.outcomes])
    metrics: Dict[str, float] = {
        name: 0.0 for name, _ in PER_LAYER_METRICS
    }
    metrics.update(kernel_metrics(recorder, batches, MODEL.embedding_dim))
    metrics.update(model_metrics(recorder, batches))
    stages = {
        "stage.cast.ms": phases.get("casting", 0.0),
        "stage.forward.ms": phases.get("forward", 0.0) + phases.get("loss", 0.0),
    }
    execute_s = recorder.total_s("serving.execute")
    for name, seconds in stages.items():
        metrics[name] = seconds * 1e3 / batches
    metrics["runtime.unattributed_ms"] = (
        (execute_s - sum(stages.values())) * 1e3 / batches
    )
    metrics["serving.queue_wait_ms_p50"] = float(np.percentile(waits, 50)) * 1e3
    metrics["serving.queue_wait_ms_p99"] = float(np.percentile(waits, 99)) * 1e3
    metrics["serving.execute_ms"] = served.busy_s * 1e3 / batches
    metrics["serving.batch_requests_mean"] = report.mean_batch_requests
    metrics["serving.busy_share"] = served.busy_s / report.makespan_s
    metrics.update(_setup_rows(setup))
    metrics["trace_overhead_frac"] = 1.0 - traced_sps / untraced_sps
    within, detail = _kernel_within_phases(recorder, phases)
    unattributed = metrics["runtime.unattributed_ms"]
    checks = [
        (
            "stages_sum_to_execute_wall",
            unattributed >= 0.0,
            f"unattributed {unattributed:.3f} ms/batch",
        ),
        ("kernels_within_phases", within, detail),
    ]
    return metrics, checks
