"""Composable scenario construction over explicit region specs.

``Testbed.__init__`` used to be one monolithic constructor: substrate,
AP bank, control plane, HA, clients, fault plumbing and metrics
recorders all inline.  This module decomposes it into a
:class:`ScenarioBuilder` whose build stages are separately invokable
and parameterized by :class:`RegionSpec` — the piece the sharded
control plane (``repro.shard``) composes per AP-cluster region while
the classic single-controller path keeps running the exact same code
in the exact same order.

Byte-identity contract: ``ScenarioBuilder(config).build()`` executes
the identical construction sequence (RNG stream creation, backhaul
registration, timer arming) the legacy constructor did, so a
default-config run is bit-identical to the pre-builder tree.
``Testbed(config)`` itself now delegates here; ``build_testbed`` is a
deprecated shim.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.baselines.enhanced_80211r import Baseline80211rAp, BaselineWlc
from repro.channel.antenna import ParabolicAntenna
from repro.channel.link import ChannelMap, RadioPort
from repro.core.access_point import WgttAccessPoint
from repro.core.controller import WgttController
from repro.mac.medium import WirelessMedium
from repro.mobility.road import Position, Road
from repro.mobility.vehicle import VehicleTrack
from repro.net.backhaul import EthernetBackhaul
from repro.net.packet import IpIdAllocator
from repro.obs.context import ObsContext
from repro.scenarios.spatial import ApGridIndex
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.transport.flows import Host

if TYPE_CHECKING:
    from repro.scenarios.testbed import Testbed, TestbedConfig


@dataclass(frozen=True)
class RegionSpec:
    """One contiguous corridor stretch owned by one controller.

    Regions tile the corridor: region k's APs carry the global ids
    ``ap{first_ap_index} .. ap{first_ap_index + len(ap_xs) - 1}``, so a
    single region spanning every AP reproduces the legacy AP bank
    exactly.
    """

    #: Shard index (0 for the single-controller deployment).
    shard: int
    #: Global index of this region's first AP (id numbering offset).
    first_ap_index: int
    #: AP x-positions inside this region, corridor order.
    ap_xs: Tuple[float, ...]
    #: Backhaul id of the controller owning this region.
    controller_id: str = "controller"
    #: Backhaul id of the region's warm standby (None = no HA).
    standby_id: Optional[str] = None

    @property
    def ap_ids(self) -> Tuple[str, ...]:
        return tuple(
            f"ap{self.first_ap_index + i}" for i in range(len(self.ap_xs))
        )

    def span_m(self) -> Tuple[float, float]:
        """x-extent of this region's AP bank."""
        return (self.ap_xs[0], self.ap_xs[-1])


class ScenarioBuilder:
    """Composable construction of a :class:`Testbed`.

    Each ``build_*`` stage is separately invokable (the stage order of
    :meth:`construct_into` is the legacy constructor order); tests and
    bespoke scenarios may call stages individually against a blank
    testbed shell.
    """

    def __init__(
        self,
        config: "TestbedConfig",
        regions: Optional[List[RegionSpec]] = None,
    ):
        if config.scheme not in ("wgtt", "baseline"):
            raise ValueError(f"unknown scheme {config.scheme!r}")
        self.config = config
        self.regions: List[RegionSpec] = (
            list(regions) if regions is not None else self.plan_regions(config)
        )

    # ------------------------------------------------------------------
    # region planning
    # ------------------------------------------------------------------

    @staticmethod
    def plan_regions(config: "TestbedConfig") -> List[RegionSpec]:
        """Partition the corridor into regions.

        Sharding off: one region covering every AP under the classic
        ``"controller"`` id.  Sharding on: ``ShardConfig.num_shards``
        contiguous chunks, as even as possible (earlier shards take the
        remainder), each with its own controller id.
        """
        xs = config.ap_xs()
        if not config.sharding_enabled:
            standby = (
                config.wgtt.standby_id
                if config.scheme == "wgtt" and config.wgtt.ha_enabled
                else None
            )
            return [
                RegionSpec(
                    shard=0,
                    first_ap_index=0,
                    ap_xs=tuple(xs),
                    controller_id="controller",
                    standby_id=standby,
                )
            ]
        if config.scheme != "wgtt":
            raise ValueError("sharding requires the wgtt scheme")
        if config.wgtt.ha_enabled:
            raise ValueError(
                "sharding uses per-shard HA (ShardConfig.ha_enabled), "
                "not wgtt.ha_enabled"
            )
        if config.channel_plan is not None:
            raise ValueError("channel_plan is not supported with sharding")
        shard_cfg = config.shard
        count = shard_cfg.num_shards
        if count < 1:
            raise ValueError("num_shards must be >= 1")
        if count > len(xs):
            raise ValueError("more shards than APs")
        base, extra = divmod(len(xs), count)
        regions: List[RegionSpec] = []
        start = 0
        for k in range(count):
            size = base + (1 if k < extra else 0)
            regions.append(
                RegionSpec(
                    shard=k,
                    first_ap_index=start,
                    ap_xs=tuple(xs[start : start + size]),
                    controller_id=shard_cfg.controller_id(k),
                    standby_id=(
                        shard_cfg.standby_id(k)
                        if shard_cfg.ha_enabled
                        else None
                    ),
                )
            )
            start += size
        return regions

    # ------------------------------------------------------------------
    # assembly
    # ------------------------------------------------------------------

    def build(self) -> "Testbed":
        """Construct a fresh, fully wired testbed."""
        from repro.scenarios.testbed import Testbed

        return self.construct_into(Testbed.__new__(Testbed))

    def construct_into(self, tb: "Testbed") -> "Testbed":
        """Run every build stage, legacy constructor order."""
        tb.config = self.config
        self.build_substrate(tb)
        self.build_ap_bank(tb)
        self.build_control_plane(tb)
        self.build_ha(tb)
        self.build_clients(tb)
        self.build_faults(tb)
        self.build_recorders(tb)
        return tb

    # ------------------------------------------------------------------
    # stages
    # ------------------------------------------------------------------

    def build_substrate(self, tb: "Testbed") -> None:
        """Engine, RNG, road, channel, medium, backhaul, server."""
        config = self.config
        tb.obs = ObsContext(config.obs)
        tb.sim = Simulator(obs=tb.obs)
        tb.rng = RngRegistry(config.seed)
        road_length = config.road_length_m()
        tb.road = Road(length_m=road_length)
        tb.channel = ChannelMap(
            tb.sim,
            tb.rng,
            pathloss=config.pathloss,
            coherence_factor=config.coherence_factor,
            rician_k_db=config.rician_k_db,
        )
        tb.medium = WirelessMedium(
            tb.sim, tb.channel, batch_phy=config.batch_phy
        )
        tb.backhaul = EthernetBackhaul(tb.sim)
        tb.server_host = Host("server")
        tb._server_ip_ids = IpIdAllocator()

    def build_ap_bank(self, tb: "Testbed") -> None:
        """Radio ports + antennas for every region's APs, corridor
        order, plus the spatial index nearest-AP queries run on."""
        config = self.config
        tb.regions = list(self.regions)
        tb.ap_ids = []
        tb.ap_positions = {}
        tb.ap_index = ApGridIndex()
        for region in self.regions:
            for offset, x in enumerate(region.ap_xs):
                ap_id = f"ap{region.first_ap_index + offset}"
                mount = Position(x, -config.ap_setback_m, config.ap_height_m)
                antenna = ParabolicAntenna(
                    mount=mount,
                    boresight=Position(x, 0.0, 1.5),
                    beamwidth_deg=config.ap_beamwidth_deg,
                )
                tb.channel.register_port(
                    RadioPort.fixed(
                        ap_id, antenna, config.ap_tx_power_dbm, mount
                    )
                )
                tb.ap_ids.append(ap_id)
                tb.ap_positions[ap_id] = mount
                tb.ap_index.add(ap_id, mount)

    def build_control_plane(self, tb: "Testbed") -> None:
        """Controller(s) + protocol APs: single WGTT controller,
        sharded controllers, or the baseline WLC."""
        config = self.config
        tb.controller = None
        tb.standby = None
        tb.ha = None
        tb.wlc = None
        tb.wgtt_aps = {}
        tb.baseline_aps = {}
        tb.shard_manager = None
        if config.scheme == "wgtt":
            if config.sharding_enabled:
                from repro.shard.manager import ShardManager

                tb.shard_manager = ShardManager(tb, self.regions)
            else:
                self._build_single_wgtt(tb)
        else:
            self._build_baseline(tb)

    def _build_single_wgtt(self, tb: "Testbed") -> None:
        tb.controller = WgttController(
            tb.sim, tb.backhaul, tb.rng, self.config.wgtt
        )
        tb.controller.on_uplink = tb._deliver_uplink
        for index, ap_id in enumerate(tb.ap_ids):
            ap = WgttAccessPoint(
                tb.sim,
                tb.medium,
                tb.backhaul,
                tb.rng,
                ap_id,
                self.config.wgtt,
            )
            ap.device.channel = self.config.ap_channel(index)
            ap.device.start_beaconing()
            tb.wgtt_aps[ap_id] = ap
            tb.controller.add_ap(ap_id)

    def _build_baseline(self, tb: "Testbed") -> None:
        tb.wlc = BaselineWlc(tb.sim, tb.backhaul)
        tb.wlc.on_uplink = tb._deliver_uplink
        for index, ap_id in enumerate(tb.ap_ids):
            ap = Baseline80211rAp(
                tb.sim, tb.medium, tb.backhaul, tb.rng, ap_id
            )
            ap.device.channel = self.config.ap_channel(index)
            tb.baseline_aps[ap_id] = ap
            tb.wlc.add_ap(ap_id)

    def build_ha(self, tb: "Testbed") -> None:
        """Warm standby + cluster (opt-in: ``wgtt.ha_enabled``), then
        the multi-channel retune hook.  Sharded deployments build HA
        per shard inside the shard manager instead."""
        config = self.config
        if tb.controller is not None and config.wgtt.ha_enabled:
            from repro.ha.cluster import HaCluster
            from repro.ha.standby import StandbyController

            tb.standby = StandbyController(
                tb.sim,
                tb.backhaul,
                tb.rng,
                config.wgtt,
                controller_id=config.wgtt.standby_id,
                primary_id=tb.controller.controller_id,
            )
            tb.standby.on_uplink = tb._deliver_uplink
            for ap_id in tb.ap_ids:
                tb.standby.add_ap(ap_id)
            tb.ha = HaCluster(
                tb.sim, tb.backhaul, tb.controller, tb.standby, config.wgtt
            )
            tb.ha.start()
        if config.channel_plan is not None and tb.controller is not None:
            tb.controller.on_serving_update = tb._retune_client
            if tb.standby is not None:
                tb.standby.on_serving_update = tb._retune_client

    def build_clients(self, tb: "Testbed") -> None:
        """Client nodes (radio, host stack, keepalives), churn
        bookkeeping, instant association."""
        from repro.scenarios.testbed import ClientNode

        config = self.config
        tb.clients = []
        for index, track in enumerate(self.client_tracks(tb)):
            tb.clients.append(ClientNode(tb, index, track))
        tb._next_client_index = len(tb.clients)
        tb._retiring = {}
        tb.clients_retired = 0
        if config.instant_association:
            for client in tb.clients:
                tb._associate_instantly(client)

    def client_tracks(self, tb: "Testbed") -> List[VehicleTrack]:
        config = self.config
        if config.client_tracks is not None:
            return list(config.client_tracks)
        return [
            VehicleTrack(
                tb.road,
                start_x=config.client_start_x_m,
                speed_mph=speed,
            )
            for speed in config.client_speeds_mph
        ]

    def build_faults(self, tb: "Testbed") -> None:
        """Fault-injection plumbing (armed only when a plan is set)."""
        tb.fault_injector = None
        tb.invariant_checker = None
        if self.config.fault_plan is not None:
            tb.install_fault_plan(self.config.fault_plan)

    def build_recorders(self, tb: "Testbed") -> None:
        """Metrics collectors over every built subsystem."""
        tb._register_obs_collectors()
