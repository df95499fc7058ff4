"""Self-tests of the benchmark.  Run from the root of a checkout::

    python3 perfbench/selftest.py

Checks that

* ``BENCHMARK.json`` names exactly the workloads and metrics the code
  produces, with the same units;
* the seed changes the generated inputs and nothing else;
* every workload prints every metric with its unit, with tracing off
  and on, and exits 0;
* an injected correctness failure makes every workload exit non-zero.

The full set runs each workload four times, a few minutes in all.  Exits
non-zero on the first failed check.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Tuple

os.environ["OPENBLAS_NUM_THREADS"] = "1"
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import numpy as np  # noqa: E402

import workloads  # noqa: E402

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def check(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)
    print(f"ok   {message}")


def run(workload: str, seed: int, trace: int,
        *extra: str) -> Tuple[int, Dict[str, Any], Dict[str, Any]]:
    """Run the benchmark; return exit code, settings line and result line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        raise AssertionError(
            f"{workload} printed no result (exit {proc.returncode}):\n"
            f"{proc.stderr[-3000:]}"
        )
    return proc.returncode, json.loads(lines[-2]), json.loads(lines[-1])


def test_declaration() -> None:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    check(
        [w["name"] for w in declared["workloads"]] == list(workloads.WORKLOADS),
        "BENCHMARK.json names the code's workloads",
    )
    for key, produced in (
        ("end_to_end", workloads.E2E_METRICS),
        ("per_layer", workloads.PER_LAYER_METRICS),
    ):
        pairs = [(m["name"], m["unit"]) for m in declared[key]]
        check(pairs == list(produced),
              f"BENCHMARK.json {key} metrics and units match the code")


def _arrays(batch: Any) -> List[np.ndarray]:
    return [batch.dense, batch.labels] + [
        array for index in batch.indices for array in (index.src, index.dst)
    ]


def _same(first: List[np.ndarray], second: List[np.ndarray]) -> bool:
    return len(first) == len(second) and all(
        np.array_equal(a, b) for a, b in zip(first, second)
    )


def test_seed_changes_inputs_only(tmp: Path) -> None:
    from repro.data.trace import TraceReplaySource

    for spec in workloads.WORKLOADS.values():
        if isinstance(spec, workloads.ServeWorkload):
            def inputs(seed: int) -> List[np.ndarray]:
                _, timed = workloads.make_requests(spec, seed, 20)
                out = [np.array([r.arrival_s for r in timed])]
                for request in timed:
                    out += _arrays(request.data)
                return out
        else:
            def inputs(seed: int) -> List[np.ndarray]:
                path = workloads.record_inputs(
                    spec, seed, 2, tmp / f"{spec.name}-{seed}"
                )
                source = TraceReplaySource(path)
                out = []
                for _ in range(2):
                    out += _arrays(source.next_batch(None))
                source.close()
                return out
        check(_same(inputs(1), inputs(1)),
              f"{spec.name}: the same seed gives the same inputs")
        check(not _same(inputs(1), inputs(2)),
              f"{spec.name}: another seed gives other inputs")


def test_runs() -> None:
    for name in workloads.WORKLOADS:
        settings = {}
        for trace, declared in ((0, workloads.E2E_METRICS),
                                (1, workloads.PER_LAYER_METRICS)):
            code, info, result = run(name, 7, trace)
            check(code == 0, f"{name} trace={trace} exits 0")
            check(set(result) == RESULT_KEYS,
                  f"{name} trace={trace} result has exactly {sorted(RESULT_KEYS)}")
            check(result["correct"] is True and result["attempted"] >= 1,
                  f"{name} trace={trace} is correct")
            printed = [(k, v["unit"]) for k, v in result["metrics"].items()]
            check(sorted(printed) == sorted(declared),
                  f"{name} trace={trace} prints every metric with its unit")
            check(all(np.isfinite(v["value"]) for v in result["metrics"].values()),
                  f"{name} trace={trace} values are finite numbers")
            settings[trace] = info["settings"]
        code, info, _ = run(name, 8, 0)
        check(info["settings"] == settings[0] and info["host"]["seed"] == 8,
              f"{name}: another seed leaves every setting unchanged")
        code, _, result = run(name, 7, 0, "--inject-fault")
        check(code != 0 and result["correct"] is False,
              f"{name}: an injected correctness failure exits non-zero")


def main() -> int:
    tmp = ROOT / "perfbench" / "out" / "selftest"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        test_declaration()
        test_seed_changes_inputs_only(tmp)
        test_runs()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print("all self-tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
