"""The spatially culled medium changes nothing but its cost.

Frame completion visits only the radios that can hear the sender: every
moving radio plus the fixed radios (APs) inside the sender's audible
reach along the road.  These tests check the link-budget bound the cull
rests on, that a culled run is byte-identical to one that visits every
radio, and that the work per frame stays flat as the corridor grows.
"""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.channel.antenna import OmniAntenna, ParabolicAntenna
from repro.channel.link import (
    AUDIBLE_SLACK_DB,
    ENERGY_DETECT_DBM,
    ChannelMap,
    RadioPort,
)
from repro.channel.pathloss import LogDistancePathLoss
from repro.channel.reach import gain_bound, rx_power_bound_dbm
from repro.mac.medium import WirelessMedium
from repro.mac.wifi_device import WifiDevice
from repro.mobility.road import Position, Road
from repro.mobility.vehicle import VehicleTrack
from repro.phy.per import reset_phy_memo_stats, reset_phy_memos
from repro.scenarios.presets import shard_corridor_config
from repro.scenarios.testbed import Testbed
from repro.shard.config import ShardConfig
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry

# ----------------------------------------------------------------------
# the link-budget bound
# ----------------------------------------------------------------------

#: Absorbs the last-ulp difference between the bound's sum and the
#: exact ``mean_snr + noise`` round trip.
_ULP_DB = 1e-9

coord = st.floats(-300.0, 300.0)


@st.composite
def ap_ports(draw, node_id):
    """A stationary parabolic AP; about one in five has a boresight with
    a non-zero x-component, which the bound may not exploit."""
    mount = Position(draw(coord), draw(st.floats(-40.0, 0.0)), draw(st.floats(0.0, 25.0)))
    skew = draw(coord) if draw(st.integers(0, 4)) == 0 else 0.0
    antenna = ParabolicAntenna(
        mount=mount,
        boresight=Position(mount.x + skew, draw(st.floats(-10.0, 10.0)), 1.5),
        beamwidth_deg=draw(st.floats(2.0, 120.0)),
        side_lobe_suppression_db=draw(st.floats(0.0, 40.0)),
    )
    return RadioPort.fixed(node_id, antenna, draw(st.floats(0.0, 30.0)), mount)


@st.composite
def client_ports(draw, node_id):
    where = Position(draw(coord), draw(st.floats(-10.0, 10.0)), draw(st.floats(0.0, 5.0)))
    return RadioPort(node_id, OmniAntenna(), draw(st.floats(0.0, 30.0)), lambda t: where)


def _scene(ports, exponent):
    cmap = ChannelMap(
        Simulator(), RngRegistry(0), pathloss=LogDistancePathLoss(exponent=exponent)
    )
    for port in ports:
        cmap.register_port(port)
    return cmap


def _check_pair(cmap, tx_id, rx_id):
    tx, rx = cmap.port(tx_id), cmap.port(rx_id)
    tx_pos, rx_pos = tx.position_at(0), rx.position_at(0)
    exact = cmap.link(tx_id, rx_id).mean_rx_power_dbm(0, tx_id=tx_id)
    bound = rx_power_bound_dbm(
        tx.tx_power_dbm,
        gain_bound(tx.antenna, tx.position),
        gain_bound(rx.antenna, rx.position),
        abs(tx_pos.x - rx_pos.x),
        tx_pos.distance_to(rx_pos),
        cmap._pathloss,
    )
    assert exact <= bound + _ULP_DB
    if rx.position is not None and abs(tx_pos.x - rx_pos.x) > cmap.audible_dx_m(tx_id):
        assert exact < ENERGY_DETECT_DBM - AUDIBLE_SLACK_DB + _ULP_DB


@settings(max_examples=300, deadline=None)
@given(
    ap=ap_ports("ap"),
    other_ap=ap_ports("ap2"),
    client=client_ports("client"),
    exponent=st.floats(1.6, 4.5),
)
def test_bound_covers_exact_power(ap, other_ap, client, exponent):
    cmap = _scene([ap, other_ap, client], exponent)
    for tx_id, rx_id in [
        ("ap", "client"), ("client", "ap"), ("ap", "ap2"), ("ap2", "ap"),
        ("client", "ap2"),
    ]:
        _check_pair(cmap, tx_id, rx_id)


def test_skewed_boresight_takes_the_peak_fallback():
    mount = Position(0.0, -12.0, 10.0)
    aimed = ParabolicAntenna(mount=mount, boresight=Position(0.0, 0.0, 1.5))
    skewed = ParabolicAntenna(mount=mount, boresight=Position(3.0, 0.0, 1.5))
    assert gain_bound(aimed, mount).side_lobe_sin < 1.0
    assert gain_bound(skewed, mount).side_lobe_sin == math.inf
    assert gain_bound(aimed, None).side_lobe_sin == math.inf  # moving port


# ----------------------------------------------------------------------
# culled vs exhaustive: byte-identical runs
# ----------------------------------------------------------------------


def _exhaustive_candidates(self, tx):
    """Every registered radio, in registration order: the scan the
    culled candidate list must be indistinguishable from."""
    return [
        (seq, node_id, device)
        for seq, (node_id, device) in enumerate(self._devices.items())
    ]


def _corridor(num_aps, num_shards, starts, seed=7):
    config = shard_corridor_config(
        num_shards=num_shards,
        num_aps=num_aps,
        seed=seed,
        shard=ShardConfig(num_shards=num_shards),
    )
    road = Road(length_m=config.road_length_m())
    config.client_tracks = [
        VehicleTrack(road, start_x=x, speed_mph=25.0) for x in starts
    ]
    return Testbed(config), road


def _switch_history(testbed):
    return [
        record.to_state()
        for shard in testbed.shard_manager.shards
        for record in shard.active_controller().coordinator.history
    ]


def _culled_run(monkeypatch, exhaustive):
    """A 48-AP, two-shard corridor with UDP both ways; one client
    leaves mid-run and a new one arrives."""
    dispatched = []
    original = WifiDevice.on_air_frame

    def recording(self, frame, snr_db, decodable):
        if snr_db is not None and decodable:
            dispatched.append(
                (self._sim.now, self.node_id, frame.tx_device,
                 type(frame).__name__, snr_db.tobytes())
            )
        original(self, frame, snr_db, decodable)

    # The PHY memos and their counters (reported as metrics) are
    # process-wide; start both runs from the same state.
    reset_phy_memos()
    reset_phy_memo_stats()
    with monkeypatch.context() as patch:
        patch.setattr(WifiDevice, "on_air_frame", recording)
        if exhaustive:
            patch.setattr(WirelessMedium, "_candidates", _exhaustive_candidates)
        xs = shard_corridor_config(num_shards=2, num_aps=48).ap_xs()
        testbed, road = _corridor(48, 2, [xs[22] + 1.0, xs[5], xs[40]])
        sinks = []
        for i in range(3):
            for add, rate in (
                (testbed.add_downlink_udp_flow, 2e6),
                (testbed.add_uplink_udp_flow, 0.5e6),
            ):
                source, sink = add(i, rate_bps=rate)
                source.start()
                sinks.append(sink)
        testbed.run_seconds(0.15)
        testbed.depart_client(client_id="client1")
        testbed.retire_client("client1")
        testbed.add_client(VehicleTrack(road, start_x=xs[30], speed_mph=25.0))
        testbed.run_seconds(0.15)
        now = testbed.sim.now
        return {
            "goodput": [s.throughput_series_mbps(now) for s in sinks],
            "switches": _switch_history(testbed),
            "metrics": testbed.obs.metrics.snapshot(),
            "dispatched": dispatched,
            "devices": list(testbed.medium._devices),
            "visited": testbed.medium.receivers_visited,
        }


def test_culled_corridor_matches_exhaustive_scan(monkeypatch):
    culled = _culled_run(monkeypatch, exhaustive=False)
    full = _culled_run(monkeypatch, exhaustive=True)
    assert "client1" not in culled["devices"]  # the teardown ran
    assert len(culled["dispatched"]) > 1000
    for key in ("goodput", "switches", "metrics", "dispatched", "devices"):
        assert culled[key] == full[key], key
    assert culled["visited"] * 2 < full["visited"]


# ----------------------------------------------------------------------
# work per frame stays flat as the corridor grows
# ----------------------------------------------------------------------


def _visited_per_frame(num_aps):
    xs = shard_corridor_config(num_shards=1, num_aps=num_aps).ap_xs()
    middle = len(xs) // 2
    testbed, _road = _corridor(num_aps, 1, [xs[middle], xs[middle + 2]])
    for i in range(2):
        for add, rate in (
            (testbed.add_downlink_udp_flow, 4e6),
            (testbed.add_uplink_udp_flow, 1e6),
        ):
            source, _sink = add(i, rate_bps=rate)
            source.start()
    testbed.run_seconds(0.15)
    medium = testbed.medium
    assert medium.frames_sent > 300
    # frames_sent counts the (at most a few) frames still on the air.
    return medium.receivers_visited / medium.frames_sent


def test_receivers_visited_per_frame_stays_flat():
    small = _visited_per_frame(32)
    large = _visited_per_frame(400)
    assert small <= 30 and large <= 30
    assert large / small <= 1.5


def test_reach_is_finite_on_the_default_corridor():
    testbed, _road = _corridor(32, 1, [50.0])
    assert 0.0 < testbed.channel.audible_dx_m("client0") < 100.0
    assert 0.0 < testbed.channel.audible_dx_m("ap0") < math.inf


def test_paper_array_keeps_every_radio():
    """With the paper's 8 APs every AP may hear every other AP."""
    xs = shard_corridor_config(num_shards=1, num_aps=8).ap_xs()
    testbed, _road = _corridor(8, 1, [xs[3]])
    testbed.run_seconds(0.11)  # every AP has beaconed
    heard_by = testbed.medium._heard_by
    assert sorted(heard_by) == sorted(testbed.ap_ids)
    assert all(len(heard) == 7 for heard in heard_by.values())
