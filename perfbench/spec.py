"""What the benchmark measures: workloads, metrics, units and bounds.

``BENCHMARK.json`` at the repository root is generated from this
module (``python3 perfbench/run.py --write-spec``); the tests check
that the two agree.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Tuple

#: Seconds one benchmark run measures.
RUN_SECONDS = 30

#: Why each workload is in the benchmark, and what a change should do
#: to it (the ROADMAP item numbers are those of ROADMAP.md).
WORKLOAD_WHY: Dict[str, str] = {
    "paper-drive": (
        "Figure-9 testbed, 8 APs, 1 client at 15 mph, TCP downlink; per-frame "
        "PHY/MAC math dominates. Item 2 (medium culling): no change; item 3: "
        "setup_s, mac.self_s"
    ),
    "city-corridor": (
        "128 APs in 4 HA shards, 6 UDP clients at 25 mph crossing shard "
        "boundaries; the medium visits ~133 radios per frame. Item 2 moves "
        "mac.receivers_per_frame and channel.*"
    ),
    "rider-churn": (
        "run_soak: Poisson riders, heavy-tailed flows, faults, admission, "
        "invariant checker; the only load on soak/faults/invariants/obs. Item "
        "4 moves core.*, item 5 obs.self_s"
    ),
}

#: (name, unit, better, bound) of every end-to-end metric.  Medians
#: over the operations of one untraced run.
END_TO_END: Tuple[Tuple[str, str, str, float], ...] = (
    ("cpu_s_per_sim_s", "s/s", "lower", 0.25),
    ("wall_s_per_sim_s", "s/s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("sim_goodput_mbps", "Mbit/s", "higher", 0.25),
    # The paper's Table 1 measures ~17 ms.  The switching model is
    # calibrated to that figure, not validated against held-out data.
    ("switch_latency_ms.p50", "ms", "lower", 0.15),
)

_SELF = ("s/s", "lower")
_RATE = ("1/s", "lower")

#: (name, unit, better) of every per-layer metric, from the traced run.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("sim.self_s", *_SELF),
    ("sim.events", *_RATE),
    ("sim.compactions", *_RATE),
    ("mac.self_s", *_SELF),
    ("mac.frames", *_RATE),
    ("mac.receivers_per_frame", "1/frame", "lower"),
    ("mac.live_receiver_ratio", "ratio", "higher"),
    ("mac.carrier_sense_calls", *_RATE),
    ("channel.self_s", *_SELF),
    ("channel.snapshots", *_RATE),
    ("channel.rx_power_calls", "1/frame", "lower"),
    ("channel.links", "count", "lower"),
    ("mobility.self_s", *_SELF),
    ("mobility.position_calls", "1/frame", "lower"),
    ("phy.self_s", *_SELF),
    ("phy.memo_hit_ratio", "ratio", "higher"),
    ("phy.batch_rows", *_RATE),
    ("net.self_s", *_SELF),
    ("net.messages", *_RATE),
    ("net.bytes", "B/s", "lower"),
    ("net.dropped", *_RATE),
    ("core.self_s", *_SELF),
    ("core.csi_reports", *_RATE),
    ("core.selection_queries", *_RATE),
    ("core.fanout_copies", "1/packet", "lower"),
    ("core.switches", *_RATE),
    ("core.switch_completion_ratio", "ratio", "higher"),
    ("core.stale_dropped", *_RATE),
    ("transport.self_s", *_SELF),
    ("transport.segments", *_RATE),
    ("transport.retransmit_ratio", "ratio", "lower"),
    ("shard.self_s", *_SELF),
    ("shard.handoffs", *_RATE),
    ("shard.handoff_retries", *_RATE),
    ("ha.self_s", *_SELF),
    ("ha.checkpoint_bytes", "B/s", "lower"),
    ("soak.self_s", *_SELF),
    ("faults.self_s", *_SELF),
    ("faults.events", *_RATE),
    ("invariants.self_s", *_SELF),
    ("obs.self_s", *_SELF),
    ("scenarios.self_s", *_SELF),
    ("scenarios.build_s", "s", "lower"),
    ("scenarios.grid_scanned_per_query", "1/query", "lower"),
    ("other.self_s", *_SELF),
    ("trace.overhead", "ratio", "lower"),
)

UNITS: Dict[str, str] = {
    **{name: unit for name, unit, _b, _bound in END_TO_END},
    **{name: unit for name, unit, _b in PER_LAYER},
}


def benchmark_spec() -> Dict:
    """The content of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOAD_WHY.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


def spec_text() -> str:
    return json.dumps(benchmark_spec(), indent=2) + "\n"


def write_spec(root: Path) -> Path:
    path = root / "BENCHMARK.json"
    path.write_text(spec_text())
    return path

