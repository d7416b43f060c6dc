"""Tests of the benchmark itself.

Run from the repository root (each test starts fresh processes, so the
ledger's patches never leak into the test process)::

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from spec import PER_LAYER, benchmark_spec, spec_text  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")


def op(workload: str, seed: int, mode: str) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "op.py"), workload, str(seed),
         repr(time.monotonic()), mode],
        cwd=ROOT, env=ENV, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr[-3000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_benchmark_json_is_generated_from_spec():
    assert (ROOT / "BENCHMARK.json").read_text() == spec_text()


def test_spec_respects_the_schema_limits():
    spec = benchmark_spec()
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(0 < len(w["why"]) <= 200 for w in spec["workloads"])
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])


@pytest.fixture(scope="module")
def paper_drive_ops():
    return [op("paper-drive", 7, "trace"), op("paper-drive", 7, "trace"),
            op("paper-drive", 7, "run")]


def test_traced_counts_repeat_exactly(paper_drive_ops):
    first, second, _untraced = paper_drive_ops
    assert first["counts"] == second["counts"]
    counts = {k: v for k, v in first["layer"].items() if not k.endswith(".self_s")}
    assert counts == {
        k: v for k, v in second["layer"].items() if not k.endswith(".self_s")
    }
    assert {n for n, _u, _b in PER_LAYER} - set(first["layer"]) == {
        "scenarios.build_s",
        "trace.overhead",
    }


def test_wrapper_counts_equal_program_counters(paper_drive_ops):
    for record in paper_drive_ops[:2]:
        assert record["exact_checks"] == {
            "backhaul_messages": True,
            "events_processed": True,
            "frames_sent": True,
            "phy_memo_lookups": True,
        }


def test_tracing_does_not_perturb_the_simulation(paper_drive_ops):
    first, second, untraced = paper_drive_ops
    assert first["digest"] == second["digest"] == untraced["digest"]
    assert all(first["checks"].values())


def test_self_times_reconcile_with_traced_total(paper_drive_ops):
    record = paper_drive_ops[0]
    assert abs(record["self_sum_s"] - record["traced_s"]) <= 0.01 * record["traced_s"]
    layer = record["layer"]
    # Nothing of the soak harness runs on paper-drive.
    assert layer["soak.self_s"] == layer["invariants.self_s"] == 0.0
    assert layer["mac.receivers_per_frame"] == 8.0


def test_setup_only_operation_stops_at_the_first_event():
    record = op("paper-drive", 7, "setup")
    assert set(record) == {"setup_s"} and record["setup_s"] > 0


def test_run_fails_without_the_simulator(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper-drive",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
