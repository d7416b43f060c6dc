"""The repository benchmark: host cost per simulated second.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S
    python3 perfbench/run.py --write-spec

Each operation is one seeded workload run in a fresh process
(``op.py``).  A run derives its operation seeds from ``--seed`` and
repeats them until ``--seconds`` have passed:

* ``--trace 0`` measures the end-to-end metrics.  The operation seeds
  run in turn, the first at least twice; every repeat of a seed must
  give the same output digest.
* ``--trace 1`` runs the first operation seed once untraced and then
  at least twice under the per-layer ledger (``ledger.py``).  The
  traced digests must equal the untraced one, the traced counts must
  repeat exactly, wrapper counts must equal the program's own
  counters, and the layer self times must add up to the traced total.

Every metric is printed as ``name value unit``; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 only if every operation
passed its checks.  ``--workload all`` runs every workload untraced and
traced.  ``--write-spec`` writes ``BENCHMARK.json`` from ``spec.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from spec import END_TO_END, PER_LAYER, UNITS, WORKLOAD_WHY, write_spec  # noqa: E402

#: Operation seeds per run seed, per workload.  paper-drive has a
#: single client, so its goodput varies most from seed to seed.
SUBSEEDS = {"paper-drive": 3, "city-corridor": 2, "rider-churn": 3}
#: A run must end well inside 180 s; no operation starts after this.
BUDGET_S = 150.0
#: Set-ups sampled per untraced run (extra set-up-only operations are
#: added when the timed operations give fewer).
MIN_SETUPS = 5
#: Allowed gap between the summed layer self times and the traced
#: total, as a share of the total.
RECONCILE_TOLERANCE = 0.01


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


class Runner:
    """Starts operations one at a time and keeps the run's clock."""

    def __init__(self, workload: str, seconds: float):
        self.workload = workload
        self.seconds = seconds
        self.started = time.monotonic()
        self.env = dict(
            os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0"
        )
        self.attempted = 0
        self.failed = 0

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def op(self, seed: int, mode: str) -> Optional[Dict]:
        """One operation in a fresh process; None if it failed to run."""
        command = [
            sys.executable,
            str(HERE / "op.py"),
            self.workload,
            str(seed),
            repr(time.monotonic()),
            mode,
        ]
        try:
            done = subprocess.run(
                command,
                cwd=ROOT,
                env=self.env,
                capture_output=True,
                text=True,
                timeout=max(1.0, 175.0 - self.elapsed()),
            )
        except subprocess.TimeoutExpired:
            log(f"{self.workload} seed={seed} {mode}: timed out")
            return None
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            log(f"{self.workload} seed={seed} {mode}: exit {done.returncode}")
            log(done.stderr[-4000:])
            return None
        return json.loads(lines[-1])

    def timed_op(self, seed: int, mode: str, reference: Optional[str]) -> Optional[Dict]:
        """A counted operation; failed if it crashed, a check failed, or
        its digest differs from ``reference``."""
        self.attempted += 1
        record = self.op(seed, mode)
        problems = []
        if record is None:
            problems.append("did not complete")
        else:
            checks = {**record["checks"], **record.get("exact_checks", {})}
            problems += [f"check {k} failed" for k, ok in checks.items() if not ok]
            if reference is not None and record["digest"] != reference:
                problems.append("digest differs from the reference run")
            if "traced_s" in record:
                gap = abs(record["self_sum_s"] - record["traced_s"])
                if gap > RECONCILE_TOLERANCE * record["traced_s"]:
                    problems.append(f"layer self times miss the total by {gap:.4f} s")
        if problems:
            self.failed += 1
            log(f"{self.workload} seed={seed} {mode}: FAILED: {'; '.join(problems)}")
            return None
        log(
            f"{self.workload} seed={seed} {mode}: cpu={record['cpu_s']:.3f}s "
            f"sim={record['sim_s']:.3f}s setup={record['setup_s']:.3f}s"
        )
        return record

    def budget_left_for(self, records: List[Dict]) -> bool:
        """Whether another operation like the last ones fits the budget."""
        last = max((r["wall_s"] + r["setup_s"] for r in records), default=0.0)
        return self.elapsed() + last < BUDGET_S


def operation_seeds(workload: str, seed: int) -> List[int]:
    return [seed * 100 + k for k in range(SUBSEEDS[workload])]


def measure(runner: Runner, seed: int) -> Dict[str, float]:
    """Untraced run: the end-to-end metrics."""
    seeds = operation_seeds(runner.workload, seed)
    reference: Dict[int, str] = {}
    first: Dict[int, Dict] = {}
    records: List[Dict] = []
    done = 0
    while done <= len(seeds) or (
        runner.elapsed() < runner.seconds and runner.budget_left_for(records)
    ):
        s = seeds[done % len(seeds)]
        done += 1
        record = runner.timed_op(s, "run", reference.get(s))
        if record is not None:
            reference.setdefault(s, record["digest"])
            first.setdefault(s, record)
            records.append(record)
    setups = [r["setup_s"] for r in records]
    while records and len(setups) < MIN_SETUPS:
        probe = runner.op(seeds[len(setups) % len(seeds)], "setup")
        if probe is None:
            break
        setups.append(probe["setup_s"])
    if not records:
        return {}
    switches = [d for r in first.values() for d in r["switch_durations_us"]]
    return {
        "cpu_s_per_sim_s": statistics.median(r["cpu_s"] / r["sim_s"] for r in records),
        "wall_s_per_sim_s": statistics.median(r["wall_s"] / r["sim_s"] for r in records),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in records),
        "sim_goodput_mbps": statistics.fmean(r["goodput_mbps"] for r in first.values()),
        "switch_latency_ms.p50": statistics.median(switches) / 1000.0 if switches else 0.0,
        "switches": float(len(switches)),
    }


def trace(runner: Runner, seed: int) -> Dict[str, float]:
    """Traced run: the per-layer metrics."""
    s = operation_seeds(runner.workload, seed)[0]
    base = runner.timed_op(s, "run", None)
    if base is None:
        return {}
    traced: List[Dict] = []
    while len(traced) < 2 or runner.elapsed() < runner.seconds:
        if traced and not runner.budget_left_for(traced):
            break
        record = runner.timed_op(s, "trace", base["digest"])
        if record is None:
            break
        if traced and (
            record["counts"] != traced[0]["counts"]
            or _counts(record) != _counts(traced[0])
        ):
            runner.failed += 1
            log(f"{runner.workload} seed={s} trace: FAILED: counts did not repeat")
            break
        traced.append(record)
    if not traced:
        return {}
    metrics = dict(_counts(traced[0]))
    for name in traced[0]["layer"]:
        if name.endswith(".self_s"):
            metrics[name] = statistics.median(r["layer"][name] for r in traced)
    metrics["scenarios.build_s"] = base["build_s"]
    metrics["trace.overhead"] = statistics.median(r["cpu_s"] for r in traced) / base["cpu_s"]
    return metrics


def _counts(record: Dict) -> Dict[str, float]:
    return {k: v for k, v in record["layer"].items() if not k.endswith(".self_s")}


def run_one(workload: str, seed: int, seconds: float, traced: bool):
    """One run; prints every metric and returns the result fields."""
    runner = Runner(workload, seconds)
    values = trace(runner, seed) if traced else measure(runner, seed)
    if traced:
        wanted = [n for n, _u, _b in PER_LAYER]
    else:
        wanted = [n for n, _u, _b, _bound in END_TO_END]
    metrics = {n: {"value": values[n], "unit": UNITS[n]} for n in wanted if n in values}
    for name, metric in metrics.items():
        print(f"{workload} {name} {metric['value']:.6g} {metric['unit']}")
    if "switches" in values:
        print(f"{workload} switches {values['switches']:.0f} count")
    share = runner.failed / max(runner.attempted, 1)
    print(f"{workload} failed_share {share:.6g} ratio")
    correct = runner.failed == 0 and len(metrics) == len(wanted)
    return correct, runner.attempted, runner.failed, metrics


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOAD_WHY, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-spec", action="store_true")
    args = parser.parse_args(argv)
    if args.write_spec:
        print(write_spec(ROOT))
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "repro").is_dir():
        log(f"no simulator sources under {ROOT / 'src'}")
        return 2

    if args.workload == "all":
        total = [True, 0, 0, {}]
        for workload in WORKLOAD_WHY:
            for traced in (False, True):
                correct, attempted, failed, metrics = run_one(
                    workload, args.seed, args.seconds, traced
                )
                total[0] = total[0] and correct
                total[1] += attempted
                total[2] += failed
                total[3].update({f"{workload}/{k}": v for k, v in metrics.items()})
        correct, attempted, failed, metrics = total
    else:
        correct, attempted, failed, metrics = run_one(
            args.workload, args.seed, args.seconds, bool(args.trace)
        )
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
