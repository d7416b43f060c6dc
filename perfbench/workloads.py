"""The three seeded workloads, driven through the public API.

Each workload is a function of one seed that builds its inputs, runs
the simulation once (one ``Simulator.run``, the timed phase) and
returns the run's outputs: goodput, switch durations, the correctness
checks and the payload the output digest is computed from.  The
program sees only the configs and plans built here.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence

from repro.mobility.road import Road
from repro.mobility.vehicle import VehicleTrack
from repro.scenarios.presets import shard_corridor_config
from repro.scenarios.testbed import Testbed, TestbedConfig
from repro.shard.config import ShardConfig
from repro.sim.engine import SECOND
from repro.soak.harness import SoakConfig, run_soak
from repro.soak.workload import WorkloadConfig
from repro.transport.udp import UDP_PACKET_BYTES

#: city-corridor geometry: 128 APs in 4 shards of 32.
CORRIDOR_APS = 128
CORRIDOR_SHARDS = 4
CORRIDOR_CLIENTS = 6
CORRIDOR_SPEED_MPH = 25.0
CORRIDOR_SECONDS = 0.5
#: Per-client UDP rates.  UDP, not TCP: with TCP, slow start and early
#: losses in a 1.5 s run made the summed goodput vary ~20% by seed.
CORRIDOR_DOWNLINK_BPS = 4e6
CORRIDOR_UPLINK_BPS = 1e6
#: Clients placed ahead of a shard boundary start this many metres
#: before it, so they cross it (plus the 2 m hysteresis) within
#: the run.
CORRIDOR_LEAD_M = 1.0

#: rider-churn: soak length and rider arrival rate.
CHURN_SECONDS = 8.0
CHURN_ARRIVALS_PER_S = 8.0
CHURN_MAX_RIDERS = 20
#: Per-flow offered rate range.  The ~20 riders' offered load stays
#: below what the channel delivers, so goodput follows the offered
#: load, not the fault schedule.  At the soak default (1-8 Mbit/s) the
#: riders offer several times the channel's capacity.
CHURN_RATE_BPS = (0.05e6, 0.15e6)


def controllers(testbed: Testbed) -> List:
    """The controller currently in charge of each control region."""
    if testbed.shard_manager is not None:
        found = [s.active_controller() for s in testbed.shard_manager.shards]
    else:
        found = [testbed.active_controller()]
    return [c for c in found if c is not None]


def _switches(testbed: Testbed) -> Dict:
    active = controllers(testbed)
    return {
        "history": [r.to_state() for c in active for r in c.coordinator.history],
        "durations_us": [
            d for c in active for d in c.coordinator.completed_durations_us()
        ],
    }


def paper_drive(seed: int, built: Sequence[Testbed]) -> Dict:
    """Figure-9 testbed: 8 APs, one client at 15 mph, saturating TCP
    downlink over the client's full transit."""
    testbed = Testbed(TestbedConfig(seed=seed, client_speeds_mph=[15.0]))
    sender, receiver = testbed.add_downlink_tcp_flow(0)
    sender.start()
    duration_s = testbed.transit_duration_us(0) / SECOND
    testbed.run_seconds(duration_s)
    now = testbed.sim.now
    switches = _switches(testbed)
    return {
        "goodput_mbps": sender.throughput_mbps(now),
        "switch_durations_us": switches["durations_us"],
        "sim_seconds": duration_s,
        "digest_payload": {
            "goodput_series_mbps": receiver.goodput_series_mbps(now),
            "switch_history": switches["history"],
            "metrics": testbed.obs.metrics.snapshot(),
        },
        "checks": {
            "goodput_positive": sender.acked_bytes() > 0,
            "switched": len(switches["durations_us"]) > 0,
        },
    }


def corridor_starts(config: TestbedConfig) -> List[float]:
    """Client start positions: one just ahead of each shard boundary,
    the rest inside the shards at staggered offsets from an AP.

    The geometry is fixed; the seed drives the channel, traffic and
    backhaul.  A 0.5 s run moves a client less than one AP spacing, so
    a seeded position would set how much of the run it spends between
    cells, and the run's goodput and cost with it."""
    xs = config.ap_xs()
    per_shard = CORRIDOR_APS // CORRIDOR_SHARDS
    starts = [
        (xs[k * per_shard - 1] + xs[k * per_shard]) / 2.0 - CORRIDOR_LEAD_M
        for k in range(1, CORRIDOR_SHARDS)
    ]
    interior = CORRIDOR_CLIENTS - len(starts)
    for k in range(interior):
        offset = config.ap_spacing_m * k / interior
        starts.append(xs[k * per_shard + per_shard // 2] - offset)
    return starts


def city_corridor(seed: int, built: Sequence[Testbed]) -> Dict:
    """128 APs in 4 shards with warm standbys; 6 clients at 25 mph with
    a UDP downlink and a UDP uplink each, three of them about to cross a
    shard boundary."""
    config = shard_corridor_config(
        num_shards=CORRIDOR_SHARDS,
        num_aps=CORRIDOR_APS,
        seed=seed,
        shard=ShardConfig(num_shards=CORRIDOR_SHARDS, ha_enabled=True),
    )
    road = Road(length_m=config.road_length_m())
    config.client_tracks = [
        VehicleTrack(road, start_x=x, speed_mph=CORRIDOR_SPEED_MPH)
        for x in corridor_starts(config)
    ]
    testbed = Testbed(config)
    sinks = []
    for i in range(CORRIDOR_CLIENTS):
        for add, rate in (
            (testbed.add_downlink_udp_flow, CORRIDOR_DOWNLINK_BPS),
            (testbed.add_uplink_udp_flow, CORRIDOR_UPLINK_BPS),
        ):
            source, sink = add(i, rate_bps=rate)
            source.start()
            sinks.append(sink)

    # Every uplink packet that reaches the server must be new: a key
    # seen twice escaped the controllers' dedup across a handoff.
    deliver = testbed.server_host.deliver
    seen = set()
    duplicates = [0]

    def audited_deliver(packet):
        key = (packet.src, packet.ip_id)
        if key in seen:
            duplicates[0] += 1
        seen.add(key)
        deliver(packet)

    testbed.server_host.deliver = audited_deliver
    testbed.run_seconds(CORRIDOR_SECONDS)

    now = testbed.sim.now
    switches = _switches(testbed)
    metrics = testbed.obs.metrics.snapshot()
    initiated = metrics["shard_handoffs_initiated"]
    settled = (
        metrics["shard_handoffs_completed"]
        + metrics["shard_handoffs_abandoned"]
        + metrics["shard_handoffs_pending"]
    )
    return {
        "goodput_mbps": sum(s.bytes_received() for s in sinks)
        * 8
        / CORRIDOR_SECONDS
        / 1e6,
        "switch_durations_us": switches["durations_us"],
        "sim_seconds": CORRIDOR_SECONDS,
        "digest_payload": {
            "goodput_series_mbps": [s.throughput_series_mbps(now) for s in sinks],
            "switch_history": switches["history"],
            "metrics": metrics,
        },
        "checks": {
            "no_duplicate_delivery": duplicates[0] == 0,
            "handoffs_happened": metrics["shard_handoffs_completed"] > 0,
            "handoffs_complete_or_self_heal": initiated == settled,
            "every_flow_delivered": all(s.bytes_received() > 0 for s in sinks),
        },
    }


def rider_churn(seed: int, built: Sequence[Testbed]) -> Dict:
    """``run_soak`` on 8 APs: Poisson riders, heavy-tailed uplink and
    downlink flows, continuous faults, admission control, backpressure
    and the invariant checker.  ``run_soak`` builds its own testbed;
    ``built`` lists the testbeds constructed so far."""
    result = run_soak(
        SoakConfig(
            seed=seed,
            duration_s=CHURN_SECONDS,
            num_aps=8,
            fault_intensity=1.0,
            invariants_enabled=True,
            admission_enabled=True,
            backpressure_enabled=True,
            workload=WorkloadConfig(
                arrival_rate_per_s=CHURN_ARRIVALS_PER_S,
                max_concurrent=CHURN_MAX_RIDERS,
                rate_min_bps=CHURN_RATE_BPS[0],
                rate_max_bps=CHURN_RATE_BPS[1],
            ),
        )
    )
    testbed = built[-1]
    metrics = result.final_metrics
    switches = _switches(testbed)
    delivered = result.churn_stats["packets_delivered"]
    return {
        "goodput_mbps": delivered * UDP_PACKET_BYTES * 8 / CHURN_SECONDS / 1e6,
        "switch_durations_us": switches["durations_us"],
        "sim_seconds": CHURN_SECONDS,
        "digest_payload": {
            "soak_fingerprint": result.fingerprint,
            "churn_stats": result.churn_stats,
            "switch_history": switches["history"],
            "metrics": metrics,
        },
        "checks": {
            "slo_ok": result.ok,
            "no_invariant_violations": metrics["invariant_violations_total"] == 0,
            "riders_arrived": result.churn_stats["arrivals"] > 0,
        },
    }


#: Workload name -> ``run(seed, built)``, where ``built`` lists every
#: Testbed constructed in this process so far.
WORKLOADS: Dict[str, Callable[[int, Sequence[Testbed]], Dict]] = {
    "paper-drive": paper_drive,
    "city-corridor": city_corridor,
    "rider-churn": rider_churn,
}
