"""The roadside testbed (paper §4, Figure 9), fully assembled.

Eight APs behind third-floor windows overlooking a 25 mph side road,
7.5 m apart, each with a 14 dBi / 21° parabolic antenna aimed at the
road; an Ethernet backhaul; a controller (WGTT) or a thin WLC
(Enhanced 802.11r); and one or more vehicular clients. This module
builds the whole thing from a :class:`TestbedConfig` and exposes flow
attachment and run helpers — every experiment driver goes through it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from repro.baselines.enhanced_80211r import (
    Baseline80211rAp,
    BaselineWlc,
    RoamingClientAgent,
    RoamingConfig,
)
from repro.channel.antenna import OmniAntenna
from repro.channel.link import ChannelMap, RadioPort
from repro.channel.pathloss import LogDistancePathLoss
from repro.core.access_point import WgttAccessPoint
from repro.core.assoc_sync import StaInfo
from repro.core.config import WgttConfig
from repro.core.controller import WgttController
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.mac.medium import WirelessMedium
from repro.mac.wifi_device import WifiDevice
from repro.mobility.road import Position, Road
from repro.mobility.vehicle import VehicleTrack
from repro.net.backhaul import EthernetBackhaul
from repro.net.packet import IpIdAllocator, Packet
from repro.obs.context import ObsConfig, ObsContext
from repro.obs.metrics import metric_key
from repro.shard.config import ShardConfig
from repro.sim.engine import SECOND, Simulator
from repro.sim.rng import RngRegistry
from repro.transport.flows import Host
from repro.transport.tcp import TcpReceiver, TcpSender
from repro.transport.udp import UdpSink, UdpSource

if TYPE_CHECKING:
    from repro.ha.cluster import HaCluster
    from repro.ha.standby import StandbyController
    from repro.scenarios.builder import RegionSpec
    from repro.scenarios.spatial import ApGridIndex
    from repro.shard.manager import ShardManager

#: Default AP x-positions: 7.5 m spacing as measured in §2.
DEFAULT_AP_SPACING_M = 7.5
DEFAULT_FIRST_AP_X = 10.0


@dataclass
class TestbedConfig:
    """Everything needed to instantiate a testbed run."""

    # Not a pytest test class despite the name.
    __test__ = False

    seed: int = 1
    #: "wgtt" or "baseline" (Enhanced 802.11r).
    scheme: str = "wgtt"
    num_aps: int = 8
    #: Explicit AP x-positions override the uniform spacing.
    ap_positions_m: Optional[List[float]] = None
    ap_spacing_m: float = DEFAULT_AP_SPACING_M
    first_ap_x_m: float = DEFAULT_FIRST_AP_X
    ap_setback_m: float = 12.0
    ap_height_m: float = 10.0
    #: Effective beamwidth of the deployed antenna. The Laird panel is
    #: nominally 21°, but the paper's *measured* cell size (5.2 m at a
    #: 7.5 m AP spacing, §2) implies a much narrower effective beam —
    #: the third-floor window aperture clips the lobe. 10° reproduces
    #: the measured footprint and the between-cell ESNR dips of Fig 2.
    ap_beamwidth_deg: float = 10.0
    ap_tx_power_dbm: float = 20.0
    client_tx_power_dbm: float = 15.0
    #: One entry per client. Ignored when ``client_tracks`` is given.
    client_speeds_mph: List[float] = field(default_factory=lambda: [15.0])
    #: Clients start just inside the first AP's coverage flank, the way
    #: the paper's measured transits begin.
    client_start_x_m: float = 4.0
    client_tracks: Optional[List[VehicleTrack]] = None
    wgtt: WgttConfig = field(default_factory=WgttConfig)
    roaming: RoamingConfig = field(default_factory=RoamingConfig)
    pathloss: LogDistancePathLoss = field(default_factory=LogDistancePathLoss)
    coherence_factor: float = 0.25
    rician_k_db: Optional[float] = None
    #: Associate clients instantly at t=0 (experiments assume an
    #: already-admitted commuter device); False exercises the real
    #: over-the-air association path.
    instant_association: bool = True
    #: Clients emit an 802.11 NULL-frame keepalive when their radio has
    #: been silent this long (real stations do this for power
    #: management / presence). These uplink frames are what keeps CSI
    #: flowing to the WGTT controller when transport goes quiet.
    client_keepalive_us: int = 50_000
    #: Wi-Fi channel per AP. None (the paper's deployment) puts every
    #: AP on channel 11. The §7 multi-channel ablation assigns e.g.
    #: [1, 6, 11, 1, 6, 11, ...]; clients retune to their serving AP's
    #: channel on every switch, and cross-channel overhearing — hence
    #: uplink diversity and BA forwarding — disappears.
    channel_plan: Optional[List[int]] = None
    #: Optional chaos schedule (``repro.faults``). When set, a
    #: :class:`FaultInjector` is built and armed at construction, so
    #: the plan's crashes/partitions/jitter fire during the run.
    fault_plan: Optional["FaultPlan"] = None
    #: Observability switches (tracing / detail / profiling).  None
    #: builds the default everything-off context — the configuration
    #: under which runs are bit-identical to the pre-obs tree.
    obs: Optional[ObsConfig] = None
    #: Batched snapshot/PHY fast path on the shared medium and the
    #: oracle probes.  Bit-identical to the scalar path (asserted by
    #: ``tests/test_perf_equivalence.py``); ``False`` forces per-link
    #: scalar snapshots, with no fused evolution or prewarm, everywhere.
    batch_phy: bool = True
    #: Partition the corridor into AP-cluster shards, each owned by its
    #: own controller, with inter-shard client handoff (``repro.shard``).
    #: Off (the default) takes the exact legacy single-controller
    #: construction path — runs are bit-identical to the pre-shard tree.
    sharding_enabled: bool = False
    #: Shard-count / handoff-protocol tunables (consulted only when
    #: ``sharding_enabled``).
    shard: ShardConfig = field(default_factory=ShardConfig)

    def ap_channel(self, index: int) -> int:
        if self.channel_plan is None:
            return 11
        return self.channel_plan[index % len(self.channel_plan)]

    def ap_xs(self) -> List[float]:
        """AP x-positions, memoized on the geometry inputs.

        Derived per call historically; at city scale (hundreds of APs,
        consulted by region planning, road sizing and the spatial
        index) the rebuild cost adds up, so the list is cached against
        the fields it derives from and invalidated when they change.
        """
        key = (
            None
            if self.ap_positions_m is None
            else tuple(self.ap_positions_m),
            self.num_aps,
            self.ap_spacing_m,
            self.first_ap_x_m,
        )
        cached: Optional[Tuple[object, Tuple[float, ...]]] = getattr(
            self, "_ap_xs_cache", None
        )
        if cached is not None and cached[0] == key:
            return list(cached[1])
        if self.ap_positions_m is not None:
            xs = list(self.ap_positions_m)
        else:
            xs = [
                self.first_ap_x_m + i * self.ap_spacing_m
                for i in range(self.num_aps)
            ]
        self._ap_xs_cache = (key, tuple(xs))
        return xs

    def road_length_m(self) -> float:
        return self.ap_xs()[-1] + self.first_ap_x_m


class ClientNode:
    """A vehicular client: radio + mobility + host stack."""

    def __init__(
        self,
        testbed: "Testbed",
        index: int,
        track: VehicleTrack,
        client_id: Optional[str] = None,
    ):
        self.client_id = client_id or f"client{index}"
        self.track = track
        self.testbed = testbed
        self.retired = False
        config = testbed.config
        testbed.channel.register_port(
            RadioPort(
                self.client_id,
                OmniAntenna(),
                config.client_tx_power_dbm,
                track.position_at,
                lambda: track.speed_mps,
            )
        )
        self.device = WifiDevice(
            testbed.sim,
            testbed.medium,
            testbed.rng,
            self.client_id,
            role="client",
        )
        self.host = Host(self.client_id)
        self.device.on_packet = lambda packet, src: self.host.deliver(packet)
        self.agent: Optional[RoamingClientAgent] = None
        if config.scheme == "baseline":
            self.agent = RoamingClientAgent(
                testbed.sim, self.device, config.roaming
            )
        self._ip_ids = IpIdAllocator()
        self.uplink_dropped = 0
        self.keepalives_sent = 0
        interval = config.client_keepalive_us
        if interval > 0:
            from repro.sim.engine import Timer

            def keepalive_tick():
                if (
                    testbed.sim.now - self.device.last_tx_us >= interval
                    and not self.device.dcf.busy
                ):
                    null = Packet(
                        src=self.client_id,
                        dst="server",
                        size_bytes=36,
                        protocol="udp",
                        flow_id="keepalive",
                        created_us=testbed.sim.now,
                    )
                    null.meta["keepalive"] = True
                    self.keepalives_sent += 1
                    self.send_uplink(null)
                self._keepalive_timer.start(interval)

            self._keepalive_timer = Timer(testbed.sim, keepalive_tick)
            self._keepalive_timer.start(interval)

    def retire(self) -> None:
        """Stop every self-rearming activity this node owns.

        Without this the keepalive timer reschedules itself forever —
        one leaked timer per departed rider is exactly the unbounded
        growth a churn soak exists to catch.
        """
        self.retired = True
        timer = getattr(self, "_keepalive_timer", None)
        if timer is not None:
            timer.stop()

    def send_uplink(self, packet: Packet) -> None:
        """Hand a locally generated datagram to the radio."""
        packet.ip_id = self._ip_ids.allocate(self.client_id)
        if self.agent is not None:
            peer = self.agent.uplink_peer()
            if peer is None:
                self.uplink_dropped += 1
                return
        else:
            peer = self.testbed.config.wgtt.bssid
        self.device.enqueue(packet, peer)

    def position_x(self) -> float:
        return self.track.position_at(self.testbed.sim.now).x


class Testbed:
    """A fully wired simulation instance.

    Construction is delegated to
    :class:`~repro.scenarios.builder.ScenarioBuilder`, whose stages
    (substrate, AP bank, control plane, HA, clients, faults,
    recorders) run in the legacy constructor order — a default config
    builds the exact same simulation the monolithic ``__init__`` did.
    """

    # Not a pytest test class despite the name.
    __test__ = False

    # Populated by the ScenarioBuilder stages (declared here so the
    # class remains the single place the testbed's surface is listed).
    config: TestbedConfig
    obs: ObsContext
    sim: Simulator
    rng: RngRegistry
    road: Road
    channel: ChannelMap
    medium: WirelessMedium
    backhaul: EthernetBackhaul
    server_host: Host
    _server_ip_ids: IpIdAllocator
    #: Region plan the AP bank was built from (one region per shard;
    #: a single region for the classic deployment).
    regions: List["RegionSpec"]
    ap_ids: List[str]
    ap_positions: Dict[str, Position]
    #: Uniform-grid spatial index every nearest-AP query runs on.
    ap_index: "ApGridIndex"
    controller: Optional[WgttController]
    #: Warm standby + cluster glue (built when wgtt.ha_enabled).
    standby: Optional["StandbyController"]
    ha: Optional["HaCluster"]
    wlc: Optional[BaselineWlc]
    #: Every WGTT AP across all shards (shard-local views live on the
    #: shard manager's :class:`~repro.shard.manager.Shard` objects).
    wgtt_aps: Dict[str, WgttAccessPoint]
    baseline_aps: Dict[str, Baseline80211rAp]
    #: Sharded control plane (``sharding_enabled``); None keeps every
    #: helper on the legacy single-controller path.
    shard_manager: Optional["ShardManager"]
    clients: List[ClientNode]
    _next_client_index: int
    #: Retired ids live here until their deferred radio teardown
    #: fires (see :meth:`retire_client`).
    _retiring: Dict[str, ClientNode]
    clients_retired: int
    fault_injector: Optional[FaultInjector]
    #: Installed by :meth:`install_invariant_checker`; None keeps
    #: the trace stream dormant and the run byte-identical.
    invariant_checker: Optional[object]

    def __init__(self, config: TestbedConfig):
        from repro.scenarios.builder import ScenarioBuilder

        ScenarioBuilder(config).construct_into(self)

    def _retune_client(self, client_id: str, ap_id: str) -> None:
        """Multi-channel ablation glue: a switch retunes the client."""
        index = self.ap_ids.index(ap_id)
        for client in self.clients:
            if client.client_id == client_id:
                client.device.channel = self.config.ap_channel(index)

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------

    def _register_obs_collectors(self) -> None:
        """Wire the scattered subsystem counters into the metrics
        registry as snapshot-time collectors.

        Collectors read the existing ``stats`` dicts only when a
        snapshot is requested, so the hot paths keep their plain
        ``dict[key] += 1`` increments — zero added cost and zero
        behaviour risk for the bit-identity contract.
        """
        registry = self.obs.metrics
        registry.register_collector(self._collect_backhaul_metrics)
        registry.register_collector(self._collect_medium_metrics)
        registry.register_collector(self._collect_phy_memo_metrics)
        registry.register_collector(self._collect_client_metrics)
        if self.controller is not None:
            registry.register_collector(self._collect_controller_metrics)
            registry.register_collector(self._collect_ap_metrics)
        if self.ha is not None:
            registry.register_collector(self._collect_ha_metrics)
        if self.shard_manager is not None:
            registry.register_collector(self.shard_manager.collect_metrics)

    def _collect_backhaul_metrics(self) -> Dict[str, object]:
        stats = self.backhaul.stats
        out: Dict[str, object] = {
            "backhaul_messages": stats.messages,
            "backhaul_bytes": stats.bytes,
            "backhaul_control_messages": stats.control_messages,
            "backhaul_fault_dropped": stats.fault_dropped,
            "backhaul_loss_dropped": self.backhaul.dropped,
        }
        for kind, count in stats.by_kind.items():
            out[metric_key("backhaul_messages_by_kind", kind=kind)] = count
        if self.backhaul.adversary_armed:
            # Conditional keys: the armed latch only flips once an
            # adversary event executes, so adversary-free runs keep
            # the exact pre-adversary metric key set (fingerprints).
            out["backhaul_adversary_duplicated"] = stats.duplicated
            out["backhaul_adversary_replayed"] = stats.replayed
            out["backhaul_adversary_corrupt_dropped"] = stats.corrupt_dropped
            out["backhaul_adversary_oneway_dropped"] = stats.oneway_dropped
            out["backhaul_adversary_gray_dropped"] = stats.gray_dropped
        return out

    def _collect_medium_metrics(self) -> Dict[str, object]:
        return {
            "medium_frames_sent": self.medium.frames_sent,
            "medium_airtime_us": self.medium.airtime_us,
            "engine_events_processed": self.sim.events_processed,
            "engine_compactions": self.sim.compactions,
        }

    def _collect_phy_memo_metrics(self) -> Dict[str, object]:
        from repro.phy.per import phy_memo_stats

        out: Dict[str, object] = {}
        for memo, stats in phy_memo_stats().items():
            for field_name, value in stats.items():
                out[
                    metric_key("phy_memo", memo=memo, stat=field_name)
                ] = value
        return out

    def _collect_client_metrics(self) -> Dict[str, object]:
        out: Dict[str, object] = {}
        for client in self.clients:
            cid = client.client_id
            out[metric_key("client_uplink_dropped", client=cid)] = (
                client.uplink_dropped
            )
            out[metric_key("client_keepalives_sent", client=cid)] = (
                client.keepalives_sent
            )
        return out

    #: Stats keys that only move under an adversarial schedule (or an
    #: extreme reordering no stock run produces).  They are exported
    #: only once nonzero, so the metrics snapshot — and therefore every
    #: soak fingerprint — of an adversary-free run is byte-identical to
    #: what it was before the hardening counters existed.
    _LAZY_STATS = frozenset(
        {
            "stale_sta_syncs",
            "stale_serving_claims",
            "stale_stops",
            "stale_starts",
            "stale_failovers",
            "stale_takeovers",
            "stale_ctrl_hellos",
            "stale_serving_updates",
            "stale_warm_updates",
            "serving_relinquished",
            "serving_after_departure",
            "uplink_unowned",
        }
    )

    def _collect_controller_metrics(self) -> Dict[str, object]:
        controller = self.controller
        out: Dict[str, object] = {
            metric_key("controller_stat", name=name): value
            for name, value in controller.stats.items()
            if value or name not in self._LAZY_STATS
        }
        out["dedup_accepted"] = controller.dedup.accepted
        out["dedup_duplicates"] = controller.dedup.duplicates
        out["switches_completed"] = len(controller.coordinator.history)
        out["switches_abandoned"] = controller.coordinator.abandoned
        out["switches_aborted"] = controller.coordinator.aborted
        out["liveness_events"] = len(controller.liveness.events)
        # Convenience top-level aliases the soak SLO guard (and humans
        # reading ``drive --metrics``) watch without knowing the
        # controller_stat{name=...} key scheme.
        out["backpressure_on"] = controller.stats["backpressure_on"]
        out["backpressure_off"] = controller.stats["backpressure_off"]
        # Bounded-memory gauges: each of these must plateau on a soak.
        out["controller_tracked_clients"] = len(controller._clients)
        out["controller_index_cursors"] = (
            controller._index_alloc.tracked_clients()
        )
        out["controller_selector_series"] = controller.selector.series_count()
        out["controller_dedup_window"] = controller.dedup.window_size()
        if controller._pacer is not None:
            out["admission_backlog"] = controller._pacer.backlog()
            out["admission_clients"] = controller._pacer.tracked_clients()
        if self.fault_injector is not None:
            out["faults_executed"] = len(self.fault_injector.events)
            if self.fault_injector.gray_windows:
                out["faults_gray_windows"] = self.fault_injector.gray_windows
        if self.backhaul.adversary_armed:
            # stale_acks moves on ordinary retransmissions too, so it
            # must not surface (new key!) in adversary-free snapshots.
            out["switches_stale_acks"] = controller.coordinator.stale_acks
        return out

    def _collect_ap_metrics(self) -> Dict[str, object]:
        out: Dict[str, object] = {}
        for ap_id, ap in self.wgtt_aps.items():
            for name, value in ap.stats.items():
                if not value and name in self._LAZY_STATS:
                    continue
                out[metric_key("ap_stat", ap=ap_id, name=name)] = value
            queues = ap._cyclic.values()
            out[metric_key("ap_overflow_drops", ap=ap_id)] = sum(
                queue.overflow_drops for queue in queues
            )
            out[metric_key("ap_cyclic_queues", ap=ap_id)] = len(ap._cyclic)
            out[metric_key("ap_cyclic_high_watermark", ap=ap_id)] = max(
                (queue.high_watermark for queue in queues), default=0
            )
            out[metric_key("ap_cyclic_overwrites", ap=ap_id)] = sum(
                queue.overwrites for queue in queues
            )
            out[metric_key("ap_hold_buffer", ap=ap_id)] = len(ap._hold_buffer)
            device = ap.device.stats
            out[metric_key("ap_mpdus_sent", ap=ap_id)] = device["mpdus_sent"]
            out[metric_key("ap_ba_timeouts", ap=ap_id)] = device["ba_timeouts"]
        return out

    def _collect_ha_metrics(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "ha_checkpoints_shipped": self.ha.checkpoints_shipped,
            "ha_checkpoint_bytes": self.ha.checkpoint_bytes,
            "ha_lost_downlink": self.ha.lost_downlink,
        }
        if self.standby is not None:
            out["ha_promotions"] = self.standby.stats["promotions"]
        return out

    def _nearest_ap(self, client: ClientNode) -> str:
        """Nearest (live, when known) AP — O(nearby) via the spatial
        index; result identical to the legacy linear ``min()`` scan."""
        position = client.track.position_at(self.sim.now)
        if self.wgtt_aps:
            # Mid-run arrivals (churn) must not be homed onto a crashed
            # AP; at t=0 everything is alive and this filter is a no-op.
            live = self.ap_index.nearest(
                position, predicate=lambda ap: self.wgtt_aps[ap].alive
            )
            if live is not None:
                return live
        best = self.ap_index.nearest(position)
        assert best is not None  # the AP bank is never empty
        return best

    def _associate_instantly(self, client: ClientNode) -> None:
        if self.shard_manager is not None:
            self.shard_manager.associate_instantly(client)
            return
        first_ap = self._nearest_ap(client)
        if self.config.scheme == "wgtt":
            info = StaInfo(
                client=client.client_id,
                associated_at_us=self.sim.now,
                first_ap=first_ap,
            )
            for ap in self.wgtt_aps.values():
                if ap.alive:
                    ap.directory.admit(info)
            active = self.active_controller()
            if active is not None and active.alive:
                active.register_association(info)
            # else: controller down mid-arrival — the AP directories
            # admitted above replay the association (sta-sync +
            # serving-claim) during the ctrl-hello resync on restart.
            if self.standby is not None:
                self.standby.directory.admit(info)
            self.wgtt_aps[first_ap].start_serving(client.client_id)
        else:
            agent = client.agent
            agent.current_ap = first_ap
            agent._last_switch_us = self.sim.now
            agent.association_log.append((self.sim.now, first_ap))
            self.wlc._route[client.client_id] = first_ap

    # ------------------------------------------------------------------
    # fault injection
    # ------------------------------------------------------------------

    def install_fault_plan(self, plan: FaultPlan) -> FaultInjector:
        """Arm a chaos schedule against this testbed (WGTT only)."""
        if self.config.scheme != "wgtt":
            raise ValueError("fault injection targets the WGTT scheme")
        self.fault_injector = FaultInjector(self, plan)
        self.fault_injector.arm()
        return self.fault_injector

    def install_invariant_checker(self, **kwargs):
        """Arm the runtime protocol-invariant checker (WGTT only).

        Subscribing flips the tracer's ``active`` flag, so guarded
        emit sites start producing — protocol behaviour is unchanged
        (emission draws no randomness), but runs are no longer
        trace-dormant.  Keyword arguments forward to
        :class:`~repro.invariants.InvariantChecker`.
        """
        if self.config.scheme != "wgtt":
            raise ValueError("the invariant checker targets the WGTT scheme")
        if self.invariant_checker is not None:
            raise RuntimeError("invariant checker already installed")
        if self.shard_manager is not None:
            from repro.invariants.shard import ShardInvariantChecker

            shard_checker = ShardInvariantChecker(self, **kwargs)
            shard_checker.start()
            self.obs.metrics.register_collector(
                shard_checker.collect_metrics
            )
            self.invariant_checker = shard_checker
            return shard_checker
        from repro.invariants import InvariantChecker

        checker = InvariantChecker(self, **kwargs)
        checker.start()
        self.obs.metrics.register_collector(checker.collect_metrics)
        self.invariant_checker = checker
        return checker

    def crash_ap(self, ap_id: str) -> None:
        """Immediately crash one AP (manual chaos helper)."""
        self.wgtt_aps[ap_id].crash()

    def restart_ap(self, ap_id: str) -> None:
        """Immediately restart a crashed AP."""
        self.wgtt_aps[ap_id].restart()

    def crash_controller(self) -> None:
        """Immediately crash the (primary) controller."""
        self.controller.crash()

    def restart_controller(self) -> None:
        """Immediately restart a crashed controller."""
        self.controller.restart()

    def active_controller(self) -> Optional[WgttController]:
        """The controller currently owning the control plane."""
        if self.ha is not None:
            return self.ha.active_controller()
        return self.controller

    def depart_client(
        self,
        client_index: Optional[int] = None,
        *,
        client_id: Optional[str] = None,
    ) -> None:
        """Deregister a client everywhere (commuter leaves the bus).

        Accepts either a positional index into :attr:`clients` (the
        historical call shape, default 0) or an explicit ``client_id``
        keyword — churn code holds ids, not list positions, because
        positions shift as other clients retire.
        """
        if client_id is None:
            index = 0 if client_index is None else client_index
            client_id = self.clients[index].client_id
        elif client_index is not None:
            raise ValueError("pass client_index or client_id, not both")
        if self.shard_manager is not None:
            self.shard_manager.depart_client(client_id)
            return
        active = self.active_controller()
        if active is not None:
            active.deregister_client(client_id)

    # ------------------------------------------------------------------
    # client churn (soak extension)
    # ------------------------------------------------------------------

    #: How long after retirement the radio port is actually torn down.
    #: The medium replays its recent transmission history (20 ms) for
    #: interference, and in-flight backhaul fan-outs may still name the
    #: client; tearing the port down under them would fault.  50 ms
    #: clears both horizons with margin.
    RETIRE_TEARDOWN_DELAY_US = 50_000

    def client_by_id(self, client_id: str) -> Optional[ClientNode]:
        for client in self.clients:
            if client.client_id == client_id:
                return client
        return None

    def add_client(
        self,
        track: VehicleTrack,
        client_id: Optional[str] = None,
    ) -> ClientNode:
        """Mid-run arrival: a new vehicle enters the road.

        Builds the full client node (radio port, Wi-Fi device, host,
        keepalives) and — under ``instant_association`` — admits it to
        the array exactly like a t=0 client, homed on the nearest
        *live* AP.  Ids must be fresh: the channel map and backhaul
        reject duplicates by design.
        """
        index = self._next_client_index
        self._next_client_index += 1
        client = ClientNode(self, index, track, client_id=client_id)
        self.clients.append(client)
        if self.config.instant_association:
            self._associate_instantly(client)
        return client

    def retire_client(self, client_id: str) -> None:
        """Mid-run departure: tear down one client's local footprint.

        The caller is responsible for protocol-level deregistration
        (:meth:`depart_client`) *before* retiring — this method frees
        the simulation-side resources: keepalive timer, radio power,
        membership in :attr:`clients`, and (deferred past the
        interference-history horizon) the medium registration and the
        channel map's port and links.
        """
        client = self.client_by_id(client_id)
        if client is None:
            return
        client.retire()
        client.device.power_off()
        self.clients.remove(client)
        self._retiring[client_id] = client
        self.clients_retired += 1

        def teardown() -> None:
            self._retiring.pop(client_id, None)
            self.medium.unregister(client_id)
            self.channel.forget_port(client_id)

        self.sim.schedule(self.RETIRE_TEARDOWN_DELAY_US, teardown)

    # ------------------------------------------------------------------
    # traffic plumbing
    # ------------------------------------------------------------------

    def _deliver_uplink(self, packet: Packet) -> None:
        if packet.meta.get("keepalive"):
            return  # NULL frames carry no payload for the server
        tracer = self.sim.obs.trace
        if tracer.active:
            # Post-dedup server ingress: the invariant checker audits
            # this stream for duplicate keys that escaped suppression.
            tracer.emit(
                "testbed",
                "uplink-deliver",
                track="server",
                detail=True,
                key=packet.dedup_key(),
                src=packet.src,
                ip_id=packet.ip_id,
                protocol=packet.protocol,
            )
        self.sim.schedule(
            self.config.wgtt.server_latency_us,
            lambda: self.server_host.deliver(packet),
        )

    def send_downlink(self, packet: Packet) -> None:
        """Server-side ingress: tag IP-ID, add server latency, route."""
        packet.ip_id = self._server_ip_ids.allocate(packet.src)
        if self.shard_manager is not None:
            ingress = self.shard_manager.accept_downlink
        elif self.ha is not None:
            ingress = self.ha.accept_downlink
        elif self.controller is not None:
            ingress = self.controller.accept_downlink
        else:
            ingress = self.wlc.accept_downlink
        self.sim.schedule(
            self.config.wgtt.server_latency_us, lambda: ingress(packet)
        )

    def client(self, index: int) -> ClientNode:
        return self.clients[index]

    def add_downlink_tcp_flow(
        self, client_index: int = 0, flow_id: Optional[str] = None
    ) -> Tuple[TcpSender, TcpReceiver]:
        client = self.clients[client_index]
        flow_id = flow_id or f"tcp-dl-{client.client_id}"
        sender = TcpSender(
            self.sim, "server", client.client_id, self.send_downlink, flow_id
        )
        receiver = TcpReceiver(
            self.sim, client.client_id, "server", client.send_uplink, flow_id
        )
        self.server_host.attach_tcp_sender(sender)
        client.host.attach_tcp_receiver(receiver)
        return sender, receiver

    def add_uplink_tcp_flow(
        self, client_index: int = 0, flow_id: Optional[str] = None
    ) -> Tuple[TcpSender, TcpReceiver]:
        client = self.clients[client_index]
        flow_id = flow_id or f"tcp-ul-{client.client_id}"
        sender = TcpSender(
            self.sim, client.client_id, "server", client.send_uplink, flow_id
        )
        receiver = TcpReceiver(
            self.sim, "server", client.client_id, self.send_downlink, flow_id
        )
        client.host.attach_tcp_sender(sender)
        self.server_host.attach_tcp_receiver(receiver)
        return sender, receiver

    def add_downlink_udp_flow(
        self,
        client_index: int = 0,
        rate_bps: float = 15e6,
        flow_id: Optional[str] = None,
    ) -> Tuple[UdpSource, UdpSink]:
        client = self.clients[client_index]
        flow_id = flow_id or f"udp-dl-{client.client_id}"
        source = UdpSource(
            self.sim,
            "server",
            client.client_id,
            rate_bps,
            self.send_downlink,
            flow_id,
        )
        sink = UdpSink(self.sim, flow_id)
        client.host.attach_udp_sink(sink)
        return source, sink

    def add_uplink_udp_flow(
        self,
        client_index: int = 0,
        rate_bps: float = 15e6,
        flow_id: Optional[str] = None,
    ) -> Tuple[UdpSource, UdpSink]:
        client = self.clients[client_index]
        flow_id = flow_id or f"udp-ul-{client.client_id}"
        source = UdpSource(
            self.sim,
            client.client_id,
            "server",
            rate_bps,
            client.send_uplink,
            flow_id,
        )
        sink = UdpSink(self.sim, flow_id)
        self.server_host.attach_udp_sink(sink)
        return source, sink

    # ------------------------------------------------------------------
    # running and ground truth
    # ------------------------------------------------------------------

    def run_seconds(self, seconds: float) -> None:
        self.sim.run(until_us=self.sim.now + int(seconds * SECOND))

    def run_until(self, time_us: int) -> None:
        self.sim.run(until_us=time_us)

    def transit_duration_us(self, client_index: int = 0) -> int:
        return self.clients[client_index].track.transit_duration_us()

    def best_ap_ground_truth(self, client_index: int, time_us: int) -> str:
        """The AP with the instantaneously best ESNR (oracle knowledge,
        used only by the accuracy metric — never by the protocols)."""
        client_id = self.clients[client_index].client_id
        if self.config.batch_phy:
            from repro.channel.link_batch import probe_snapshots
            from repro.phy.batch import effective_snr_db_batch

            entries = [
                (self.channel.link(ap_id, client_id), ap_id)
                for ap_id in self.ap_ids
            ]
            snaps = probe_snapshots(time_us, entries)
            esnrs = effective_snr_db_batch(np.stack(snaps))
            best_ap, best_esnr = None, -1e9
            for ap_id, esnr in zip(self.ap_ids, esnrs):
                if esnr > best_esnr:
                    best_ap, best_esnr = ap_id, float(esnr)
            return best_ap
        from repro.phy.esnr import effective_snr_db

        best_ap, best_esnr = None, -1e9
        for ap_id in self.ap_ids:
            link = self.channel.link(ap_id, client_id)
            esnr = effective_snr_db(
                link.probe_subcarrier_snr_db(time_us, tx_id=ap_id)
            )
            if esnr > best_esnr:
                best_ap, best_esnr = ap_id, esnr
        return best_ap

    def serving_ap_of(self, client_index: int) -> Optional[str]:
        client_id = self.clients[client_index].client_id
        if self.shard_manager is not None:
            return self.shard_manager.serving_ap(client_id)
        if self.controller is not None:
            active = self.active_controller() or self.controller
            return active.serving_ap(client_id)
        agent = self.clients[client_index].agent
        return agent.current_ap if agent else None


def build_testbed(config: TestbedConfig) -> Testbed:
    """Deprecated construction shim.

    Construction now flows through
    :class:`~repro.scenarios.builder.ScenarioBuilder` (``Testbed(config)``
    delegates to it); this wrapper survives so the historical call
    sites keep working, but new code should construct ``Testbed`` (or
    a ``ScenarioBuilder``) directly.
    """
    warnings.warn(
        "repro.scenarios.build_testbed is deprecated; construct "
        "Testbed(config) directly or use "
        "repro.scenarios.builder.ScenarioBuilder",
        DeprecationWarning,
        stacklevel=2,
    )
    return Testbed(config)
