"""The repository benchmark: one workload per run, metrics on the last line.

Run from the root of a checkout::

    python3 perfbench/run.py --workload train-emb --seed 1 --seconds 12 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` runs the same workload again through wrapped instances and
reports the per-layer metrics, writing the spans as a Chrome trace under
``perfbench/out/``.  Either way the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics`` (each metric a ``{"value", "unit"}`` pair); the line before it
carries the host fingerprint and the run settings.  The exit code is 0
only when every correctness check passed.  ``--inject-fault`` corrupts
the reference side of the workload's correctness check, for the
benchmark's self-test.
"""

from __future__ import annotations

import os

# Thread caps are set before NumPy loads, identically for every commit:
# BLAS runs on the calling thread, so with the default one pool worker per
# shard no run has more computing threads than the 2 cores it targets.
BLAS_THREADS = "1"
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = BLAS_THREADS

import argparse  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Dict, List, Optional  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _llc_bytes() -> Optional[int]:
    caches = Path("/sys/devices/system/cpu/cpu0/cache")
    sizes = []
    for index in sorted(caches.glob("index*")):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        units = {"K": 1024, "M": 1024 ** 2, "G": 1024 ** 3}
        scale = units.get(size[-1:], 1)
        sizes.append((level, int(size.rstrip("KMG")) * scale))
    return max(sizes)[1] if sizes else None


def host_fingerprint(workload: str, seed: int, workers: int) -> Dict[str, Any]:
    """Where and how this run was made: compare results only across equals."""
    import numpy as np
    from repro.obs.export import git_revision

    blas: Dict[str, Any] = {}
    try:
        config = np.show_config(mode="dicts")
        blas = dict(config["Build Dependencies"]["blas"])
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "llc_bytes": _llc_bytes(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "numba": importlib.util.find_spec("numba") is not None,
        "blas_threads": int(BLAS_THREADS),
        "workers": workers,
        # Only a checkout that is itself a repository has a SHA; asking git
        # elsewhere would make it search the directories above the checkout.
        "git_sha": (
            git_revision(ROOT) if (ROOT / ".git").exists() else "unknown"
        ),
        "workload": workload,
        "seed": seed,
    }


def parse_args(argv: List[str], workloads: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject-fault", action="store_true",
                        help="corrupt the correctness check's reference")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: List[str]) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import workloads
        from tracing import write_trace
    except ImportError as error:
        print(f"perfbench: cannot import the program under test from "
              f"{ROOT / 'src'}: {error}", file=sys.stderr)
        return 2
    args = parse_args(argv, sorted(workloads.WORKLOADS))
    spec = workloads.WORKLOADS[args.workload]
    trace = bool(args.trace)
    workdir = OUT / f"tmp-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        run = (
            workloads.run_serve
            if isinstance(spec, workloads.ServeWorkload)
            else workloads.run_train
        )
        outcome = run(spec, args.seed, args.seconds, trace, workdir,
                      args.inject_fault)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    names = workloads.PER_LAYER_METRICS if trace else workloads.E2E_METRICS
    metrics = {
        name: {"value": float(outcome.metrics[name]), "unit": unit}
        for name, unit in names
    }
    host = host_fingerprint(
        args.workload, args.seed, getattr(spec, "knobs", {}).get("num_shards", 0)
    )
    if outcome.recorder is not None:
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        try:
            events = write_trace(outcome.recorder, trace_path, host)
            check = ("chrome_trace_valid", True,
                     f"{events} events in {trace_path.relative_to(ROOT)}")
        except ValueError as error:
            check = ("chrome_trace_valid", False, str(error))
        outcome.checks.append(check)
        outcome.attempted += 1
        outcome.failed += not check[1]
    info = {
        "host": host,
        "settings": outcome.settings,
        "checks": [
            {"name": name, "passed": passed, "detail": detail}
            for name, passed, detail in outcome.checks
        ],
    }
    result = {
        "correct": outcome.correct,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": metrics,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    record = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({**info, **result}, indent=1, sort_keys=True))
    for name, passed, detail in outcome.checks:
        print(f"check {name}: {'ok' if passed else 'FAILED'} ({detail})",
              file=sys.stderr)
    print(json.dumps(info, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except Exception:  # noqa: BLE001 - report, then fail the run
        traceback.print_exc()
        sys.exit(3)
