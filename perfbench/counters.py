"""Per-layer metrics of one traced operation.

Self times come from the :class:`~ledger.Ledger`; work counts come from
the ledger's wrapper counts and from the program's own counters, read
after the run.  Where both exist for the same quantity, they must be
equal: that is checked here and reported as ``exact_checks``.
"""

from __future__ import annotations

from typing import Dict

from ledger import Ledger
from workloads import controllers

TRANSMIT = "repro.mac.medium:WirelessMedium.transmit"
CARES_ABOUT = "repro.mac.wifi_device:WifiDevice.cares_about"
WARM = "repro.channel.link_batch:warm_snapshots"
PREWARM = "repro.phy.batch:prewarm_receivers"
RX_POWER = "repro.channel.link:Link.mean_rx_power_dbm"
POSITION = "repro.mobility.vehicle:VehicleTrack.position_at"
MEMO_GET = "repro.phy.per:_IdentityLru.get"
FIRE = "repro.sim.engine:EventHandle._fire"
SEND = "repro.net.backhaul:EthernetBackhaul.send"
CSI = "repro.core.selection:ApSelector.record"
BEST_AP = "repro.core.selection:ApSelector.best_ap"
LINK_NEW = "repro.channel.link:Link#new"
TCP_NEW = "repro.transport.tcp:TcpSender#new"
UDP_NEW = "repro.transport.udp:UdpSource#new"


def install_tracking(ledger: Ledger) -> None:
    """Instance hooks the counters below rely on."""
    from repro.channel.link import Link
    from repro.transport.tcp import TcpSender
    from repro.transport.udp import UdpSource

    ledger.track(Link)
    ledger.track(TcpSender, keep=True)
    ledger.track(UdpSource, keep=True)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _stale(stats: Dict[str, int]) -> int:
    return sum(
        v
        for k, v in stats.items()
        if k.startswith("stale_") or k.endswith("_after_departure")
    )


def layer_record(ledger: Ledger, probe, out: Dict) -> Dict:
    """``layer`` metrics, raw ``counts``, ``exact_checks`` and the
    self-time reconciliation of one traced operation."""
    from repro.phy.per import phy_memo_stats

    testbed = probe.testbeds[-1]
    sim_s = out["sim_seconds"]
    count = ledger.count
    per_s = lambda value: value / sim_s  # noqa: E731
    frames = count(TRANSMIT)
    completions = count(WARM)
    visited = count(CARES_ABOUT)
    stats = testbed.backhaul.stats
    memo = phy_memo_stats().values()
    memo_hits = sum(m["hits"] for m in memo)
    memo_lookups = memo_hits + sum(m["misses"] for m in memo)
    active = controllers(testbed)
    history = [r for c in active for r in c.coordinator.history]
    completed = [r for r in history if r.outcome == "completed"]
    stale = sum(_stale(c.stats) + c.coordinator.stale_acks for c in active)
    stale += sum(_stale(ap.stats) for ap in testbed.wgtt_aps.values())
    senders = ledger.instances[TCP_NEW]
    sources = ledger.instances[UDP_NEW]
    tcp_segments = sum(s.segments_sent for s in senders)
    manager = testbed.shard_manager
    shard_stats = manager.stats if manager is not None else {}
    if manager is not None:
        clusters = [s.ha for s in manager.shards if s.ha is not None]
    else:
        clusters = [testbed.ha] if testbed.ha is not None else []
    injector = testbed.fault_injector
    index = testbed.ap_index

    layer = {f"{name}.self_s": per_s(t) for name, t in ledger.timed_self_s().items()}
    layer.update(
        {
            "sim.events": per_s(testbed.sim.events_processed),
            "sim.compactions": per_s(testbed.sim.compactions),
            "mac.frames": per_s(frames),
            "mac.receivers_per_frame": _ratio(visited, completions),
            "mac.live_receiver_ratio": _ratio(count(WARM + "#items"), visited),
            "mac.carrier_sense_calls": per_s(
                count("repro.mac.medium:WirelessMedium.busy_until")
            ),
            "channel.snapshots": per_s(count(WARM + "#items")),
            "channel.rx_power_calls": _ratio(count(RX_POWER), frames),
            "channel.links": count(LINK_NEW),
            "mobility.position_calls": _ratio(count(POSITION), frames),
            "phy.memo_hit_ratio": _ratio(memo_hits, memo_lookups),
            "phy.batch_rows": per_s(count(PREWARM + "#items")),
            "net.messages": per_s(stats.messages),
            "net.bytes": per_s(stats.bytes),
            "net.dropped": per_s(
                stats.fault_dropped
                + testbed.backhaul.dropped
                + stats.corrupt_dropped
                + stats.oneway_dropped
                + stats.gray_dropped
            ),
            "core.csi_reports": per_s(count(CSI)),
            "core.selection_queries": per_s(count(BEST_AP)),
            "core.fanout_copies": _ratio(
                sum(c.stats["fanout_messages"] for c in active),
                sum(c.stats["downlink_accepted"] for c in active),
            ),
            "core.switches": per_s(len(history)),
            "core.switch_completion_ratio": _ratio(len(completed), len(history)),
            "core.stale_dropped": per_s(stale),
            "transport.segments": per_s(
                tcp_segments + sum(s.packets_sent for s in sources)
            ),
            "transport.retransmit_ratio": _ratio(
                sum(s.retransmits for s in senders), tcp_segments
            ),
            "shard.handoffs": per_s(shard_stats.get("handoffs_initiated", 0)),
            "shard.handoff_retries": per_s(shard_stats.get("handoff_retries", 0)),
            "ha.checkpoint_bytes": per_s(sum(c.checkpoint_bytes for c in clusters)),
            "faults.events": per_s(len(injector.events) if injector else 0),
            "scenarios.grid_scanned_per_query": _ratio(index.scanned, index.queries),
        }
    )
    exact = {
        "events_processed": count(FIRE) == testbed.sim.events_processed,
        "frames_sent": frames == testbed.medium.frames_sent,
        "backhaul_messages": count(SEND) == stats.messages,
        "phy_memo_lookups": count(MEMO_GET) == memo_lookups,
    }
    self_sum = sum(ledger.timed_self_s().values())
    return {
        "layer": layer,
        "counts": ledger.counts(),
        "exact_checks": exact,
        "self_sum_s": self_sum,
        "traced_s": probe.traced_s,
    }

