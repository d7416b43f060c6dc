"""Per-pair radio links: geometry + antennas + path loss + fading.

A :class:`Link` answers the question every other layer asks of the
channel: *if node A transmits to node B at time t, what per-subcarrier
SNR does B see?* It combines

* the transmit power of the sender,
* both antenna gains along the current geometry (the client moves,
  so gains are re-evaluated from the mobility model at every sample),
* log-distance path loss, and
* the tapped Rayleigh fading process, evolved lazily to ``t``.

The fading taps are shared between the two directions of a pair —
TDD channel reciprocity — which is precisely the property WGTT relies
on when it predicts *downlink* deliverability from *uplink* CSI.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

import numpy as np

from repro.channel.antenna import Antenna
from repro.channel.fading import (
    NUM_SUBCARRIERS,
    TappedRayleighChannel,
    coherence_time_us,
    doppler_hz,
)
from repro.channel.pathloss import LogDistancePathLoss
from repro.channel.reach import (
    GainBound,
    audible_dx_m,
    gain_bound,
    rx_power_bound_dbm,
)
from repro.mobility.road import Position
from repro.phy.ber import linear_to_db
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry

#: Thermal noise over 20 MHz plus a 7 dB receiver noise figure.
NOISE_FLOOR_DBM = -94.0
#: Frames arriving below this mean power are not even energy-detectable.
ENERGY_DETECT_DBM = NOISE_FLOOR_DBM - 10.0
#: How far below :data:`ENERGY_DETECT_DBM` the audible reach keeps every
#: culled receiver.  Float rounding in the exact link budget needs far
#: less; the rest only costs visits, never results.  At 3 dB the reach
#: along the default corridor (~70 m for a client, ~64 m between APs)
#: spans the paper's whole 8-AP array, so the cull only acts on longer
#: corridors.
AUDIBLE_SLACK_DB = 3.0


@dataclass
class RadioPort:
    """One radio endpoint (an AP's antenna port or a client device).

    ``position_fn`` maps absolute simulation time to a position; a
    vehicle passes its track's ``position_at``. A stationary radio (an
    AP) is built with :meth:`fixed` and carries its frozen ``position``,
    which lets the channel tabulate its pairwise powers once and bound
    how far it can be heard. ``speed_mps_fn`` feeds the Doppler model.
    """

    node_id: str
    antenna: Antenna
    tx_power_dbm: float
    position_fn: Callable[[int], Position]
    speed_mps_fn: Callable[[], float] = field(default=lambda: 0.0)
    #: Where a stationary radio sits; ``None`` for one that moves.
    position: Optional[Position] = None
    #: One-slot position memo.  A client port is shared by every link
    #: that involves the client, so when a frame completes, the mobility
    #: model is evaluated once per timestamp instead of once per link.
    _pos_time: Optional[int] = field(
        default=None, init=False, repr=False, compare=False
    )
    _pos_cache: Optional[Position] = field(
        default=None, init=False, repr=False, compare=False
    )

    @classmethod
    def fixed(
        cls,
        node_id: str,
        antenna: Antenna,
        tx_power_dbm: float,
        position: Position,
    ) -> "RadioPort":
        """A radio that never moves."""
        return cls(
            node_id, antenna, tx_power_dbm, lambda t: position,
            position=position,
        )

    def position_at(self, time_us: int) -> Position:
        if self.position is not None:
            return self.position
        if self._pos_time == time_us:
            return self._pos_cache
        pos = self.position_fn(time_us)
        self._pos_time = time_us
        self._pos_cache = pos
        return pos


def _mean_snr_db(
    tx_dbm: float,
    ap: RadioPort,
    client: RadioPort,
    ap_pos: Position,
    client_pos: Position,
    pathloss: LogDistancePathLoss,
) -> float:
    """Fading-free link SNR; the one expression every mean-power path
    (per-link memo, fixed-pair table) evaluates, term for term."""
    return (
        tx_dbm
        + ap.antenna.gain_dbi(client_pos)
        + client.antenna.gain_dbi(ap_pos)
        - pathloss.loss_db(ap_pos.distance_to(client_pos))
        - NOISE_FLOOR_DBM
    )


class Link:
    """The radio channel between one AP port and one client port."""

    def __init__(
        self,
        sim: Simulator,
        rng: RngRegistry,
        ap: RadioPort,
        client: RadioPort,
        pathloss: Optional[LogDistancePathLoss] = None,
        coherence_factor: float = 0.25,
        rician_k_db: Optional[float] = None,
    ):
        self._sim = sim
        self.ap = ap
        self.client = client
        self.pathloss = pathloss or LogDistancePathLoss()
        self._coherence_factor = coherence_factor
        self._rng = rng
        self._rician_k_db = rician_k_db
        # Built on first use: most links in a dense corridor only ever
        # answer mean-power queries.  The stream is label-hashed and the
        # AR(1) clock starts at the first sample, so building it late
        # draws exactly the same values.
        self._fading_ch: Optional[TappedRayleighChannel] = None
        self._cache_time: Optional[int] = None
        self._cache_power: Optional[np.ndarray] = None
        # Per-(time, tx power) cache of the assembled SNR snapshot.  A
        # completion asks for the same snapshot from several layers
        # (medium, CSI path, PHY memos); returning one stable array
        # object lets the identity memos in repro.phy.per hit, and is
        # the hand-off point the fused batch path
        # (repro.channel.link_batch) seeds.
        self._snr_key: Optional[Tuple[int, float]] = None
        self._snr_cache: Optional[np.ndarray] = None
        # scalar memos keyed on (time_us, tx_power_dbm): geometry terms
        # and the derived effective SNR, both re-asked several times per
        # event (medium decode check, interference terms, CSI path).
        # The mean-SNR memo holds a handful of entries rather than one:
        # the interference scan samples the *start* times of every
        # overlapping transmission, and those keys recur across the
        # completions in a busy window — a single slot thrashes.
        self._mean_snr_cache: Dict[Tuple[int, float], float] = {}
        self._esnr_key: Optional[Tuple[int, float]] = None
        self._esnr_db: float = 0.0
        self._coh_speed: Optional[float] = None
        self._coh_us: float = 0.0

    @property
    def fading(self) -> TappedRayleighChannel:
        """The link's small-scale fading process."""
        channel = self._fading_ch
        if channel is None:
            channel = self._fading_ch = TappedRayleighChannel(
                self._rng.stream(
                    f"fading/{self.ap.node_id}/{self.client.node_id}"
                ),
                rician_k_db=self._rician_k_db,
            )
        return channel

    def invalidate_geometry(self) -> None:
        """Drop the scalar geometry memos.

        The memos key on simulation time, which assumes positions are a
        pure function of time.  Drivers that *mutate* geometry at a
        fixed time (fig10 walks a probe client across a grid) must call
        :meth:`ChannelMap.invalidate_geometry` after each mutation.
        """
        self._mean_snr_cache.clear()
        self._esnr_key = None
        self._snr_key = None

    # ------------------------------------------------------------------
    # large-scale terms
    # ------------------------------------------------------------------

    def distance_m(self, time_us: int) -> float:
        return self.ap.position_at(time_us).distance_to(
            self.client.position_at(time_us)
        )

    def _combined_gain_db(self, time_us: int) -> float:
        ap_pos = self.ap.position_at(time_us)
        client_pos = self.client.position_at(time_us)
        return self.ap.antenna.gain_dbi(client_pos) + self.client.antenna.gain_dbi(
            ap_pos
        )

    def _tx_power_dbm(self, downlink: bool, tx_id: Optional[str]) -> float:
        if tx_id is not None:
            if tx_id == self.ap.node_id:
                return self.ap.tx_power_dbm
            if tx_id == self.client.node_id:
                return self.client.tx_power_dbm
            raise ValueError(f"{tx_id!r} is not an endpoint of this link")
        return self.ap.tx_power_dbm if downlink else self.client.tx_power_dbm

    def mean_snr_db(
        self, time_us: int, downlink: bool = True, tx_id: Optional[str] = None
    ) -> float:
        """Average (fading-free) SNR of the link at ``time_us``.

        The transmitter is named by ``tx_id`` (either endpoint), or by
        the ``downlink`` flag for the common AP→client / client→AP case.

        The geometry terms (positions, antenna gains, path loss) are
        memoized per ``(time_us, tx_power)`` — the medium asks for this
        several times per frame (decode check, interference, RSSI).
        """
        tx_dbm = self._tx_power_dbm(downlink, tx_id)
        key = (time_us, tx_dbm)
        cache = self._mean_snr_cache
        cached = cache.get(key)
        if cached is not None:
            return cached
        value = _mean_snr_db(
            tx_dbm,
            self.ap,
            self.client,
            self.ap.position_at(time_us),
            self.client.position_at(time_us),
            self.pathloss,
        )
        if len(cache) >= 32:
            cache.clear()
        cache[key] = value
        return value

    def mean_rx_power_dbm(
        self, time_us: int, downlink: bool = True, tx_id: Optional[str] = None
    ) -> float:
        """Average received power — the RSSI legacy roaming decides on."""
        return self.mean_snr_db(time_us, downlink, tx_id) + NOISE_FLOOR_DBM

    # ------------------------------------------------------------------
    # small-scale terms
    # ------------------------------------------------------------------

    def _coherence_us(self) -> float:
        speed = max(self.ap.speed_mps_fn(), self.client.speed_mps_fn())
        # Speeds are constant for most of a run; memoize the Doppler /
        # coherence math on the speed value itself.
        if speed != self._coh_speed:
            doppler = doppler_hz(speed, self.pathloss.wavelength_m)
            self._coh_speed = speed
            self._coh_us = coherence_time_us(doppler, self._coherence_factor)
        return self._coh_us

    def _subcarrier_power(self, time_us: int) -> np.ndarray:
        """Fading power per subcarrier, evolved (and cached) for ``time_us``."""
        if self._cache_time != time_us:
            self._cache_power = self.fading.power_at(time_us, self._coherence_us())
            self._cache_time = time_us
        return self._cache_power

    def subcarrier_snr_db(
        self, time_us: int, downlink: bool = True, tx_id: Optional[str] = None
    ) -> np.ndarray:
        """Per-subcarrier SNR (dB): the CSI-equivalent channel snapshot.

        Cached per ``(time_us, tx power)`` — repeated queries within one
        frame completion return the *same* array object, which the
        identity memos in :mod:`repro.phy.per` key on.  Treated as
        immutable by every consumer.
        """
        tx_dbm = self._tx_power_dbm(downlink, tx_id)
        key = (time_us, tx_dbm)
        cached = self._snr_cache
        if cached is not None and self._snr_key == key:
            return cached
        mean_db = self.mean_snr_db(time_us, downlink, tx_id)
        snapshot = mean_db + linear_to_db(self._subcarrier_power(time_us))
        self._snr_key = key
        self._snr_cache = snapshot
        return snapshot

    def _seed_snapshot(
        self,
        time_us: int,
        tx_dbm: float,
        power: np.ndarray,
        snapshot: np.ndarray,
    ) -> None:
        """Install a batch-computed snapshot into the per-link caches.

        Called by :mod:`repro.channel.link_batch` after a fused
        multi-link evolution; the arrays must be exactly what the
        scalar path would have produced (the fused path computes them
        with bit-identical kernels).
        """
        self._cache_time = time_us
        self._cache_power = power
        self._snr_key = (time_us, tx_dbm)
        self._snr_cache = snapshot

    def esnr_db(
        self, time_us: int, downlink: bool = True, tx_id: Optional[str] = None
    ) -> float:
        """Effective SNR of the link at ``time_us``, memoized.

        The memo key pairs the timestamp with the resolved transmit
        power, so the two directions of the link cache independently;
        it sits alongside the subcarrier-power cache and makes repeated
        per-frame ESNR queries (controller metrics, figure drivers)
        O(1) after the first evaluation.
        """
        from repro.phy.esnr import effective_snr_db

        tx_dbm = self._tx_power_dbm(downlink, tx_id)
        key = (time_us, tx_dbm)
        if self._esnr_key == key:
            return self._esnr_db
        value = effective_snr_db(self.subcarrier_snr_db(time_us, downlink, tx_id))
        self._esnr_key = key
        self._esnr_db = value
        return value

    def rssi_dbm(
        self, time_us: int, downlink: bool = True, tx_id: Optional[str] = None
    ) -> float:
        """Instantaneous wideband received power including fading."""
        power = self._subcarrier_power(time_us)
        fading_db = float(
            linear_to_db(float(np.add.reduce(power)) / power.shape[0])
        )
        return self.mean_rx_power_dbm(time_us, downlink, tx_id) + fading_db

    def probe_subcarrier_snr_db(
        self, time_us: int, downlink: bool = True, tx_id: Optional[str] = None
    ) -> np.ndarray:
        """Side-effect-free channel probe for oracle metrics.

        Unlike :meth:`subcarrier_snr_db`, this does not advance the
        fading process or consume randomness — measuring ground truth
        never changes the experiment.
        """
        if self._cache_time == time_us:
            power = self._cache_power
        else:
            power = self.fading.peek_power_at(time_us, self._coherence_us())
        mean_db = self.mean_snr_db(time_us, downlink, tx_id)
        return mean_db + linear_to_db(power)

    def snapshot(self, time_us: Optional[int] = None, downlink: bool = True):
        """Convenience: subcarrier SNRs at 'now' (or an explicit time)."""
        if time_us is None:
            time_us = self._sim.now
        return self.subcarrier_snr_db(time_us, downlink)


class ChannelMap:
    """Registry of every AP↔client link in a scenario.

    The MAC-layer medium pulls links from here to decide decode success
    and interference; the WGTT controller never touches it (it only
    sees CSI reports, like the real system).
    """

    def __init__(
        self,
        sim: Simulator,
        rng: RngRegistry,
        pathloss: Optional[LogDistancePathLoss] = None,
        coherence_factor: float = 0.25,
        rician_k_db: Optional[float] = None,
    ):
        self._sim = sim
        self._rng = rng
        self._pathloss = pathloss or LogDistancePathLoss()
        self._coherence_factor = coherence_factor
        self._rician_k_db = rician_k_db
        self._links: Dict[Tuple[str, str], Link] = {}
        self._ports: Dict[str, RadioPort] = {}
        #: per-endpoint index of instantiated links, maintained on link
        #: creation so ``links_for_client`` never scans the full map.
        self._links_by_port: Dict[str, List[Link]] = {}
        #: Mean rx power between two fixed ports, keyed ``(tx, rx)``.
        #: Fixed positions never change, so each entry is the float
        #: ``Link.mean_rx_power_dbm`` returns for the pair at any time.
        self._fixed_rx_dbm: Dict[Tuple[str, str], float] = {}
        #: Provable gain bound of every port's antenna.
        self._bounds: Dict[str, GainBound] = {}
        #: The distinct bounds among fixed ports (the receivers a reach
        #: covers).
        self._fixed_bounds: Set[GainBound] = set()
        #: ``audible_dx_m`` per transmitter, reset when a fixed port joins.
        self._reach: Dict[str, float] = {}

    def register_port(self, port: RadioPort) -> None:
        if port.node_id in self._ports:
            raise ValueError(f"duplicate radio port id {port.node_id!r}")
        self._ports[port.node_id] = port
        bound = self._bounds[port.node_id] = gain_bound(port.antenna, port.position)
        if port.position is not None:
            self._fixed_bounds.add(bound)
            self._reach.clear()

    def port(self, node_id: str) -> RadioPort:
        return self._ports[node_id]

    def port_ids(self):
        return self._ports.keys()

    def link(self, a_id: str, b_id: str) -> Link:
        """The (lazily created) link between any two radio ports.

        The pair key is order-normalized so ``link(a, b)`` and
        ``link(b, a)`` return the same object — the channel itself is
        reciprocal; only transmit power depends on direction.
        """
        if a_id == b_id:
            raise ValueError("a link needs two distinct endpoints")
        key = (a_id, b_id) if a_id <= b_id else (b_id, a_id)
        existing = self._links.get(key)
        if existing is None:
            existing = Link(
                self._sim,
                self._rng,
                self._ports[key[0]],
                self._ports[key[1]],
                pathloss=self._pathloss,
                coherence_factor=self._coherence_factor,
                rician_k_db=self._rician_k_db,
            )
            self._links[key] = existing
            self._links_by_port.setdefault(key[0], []).append(existing)
            self._links_by_port.setdefault(key[1], []).append(existing)
        return existing

    def mean_rx_power_dbm(self, tx_id: str, rx_id: str, time_us: int) -> float:
        """Mean received power of ``tx_id``'s transmissions at ``rx_id``.

        Pairs of fixed ports are served from a table and never build a
        :class:`Link`; any other pair asks its link.
        """
        key = (tx_id, rx_id)
        power = self._fixed_rx_dbm.get(key)
        if power is not None:
            return power
        tx = self._ports[tx_id]
        rx = self._ports[rx_id]
        if tx.position is None or rx.position is None:
            return self.link(tx_id, rx_id).mean_rx_power_dbm(time_us, tx_id=tx_id)
        # The same endpoint order and expression as the pair's Link.
        ap, client = (tx, rx) if tx_id <= rx_id else (rx, tx)
        power = (
            _mean_snr_db(
                tx.tx_power_dbm,
                ap,
                client,
                ap.position_at(time_us),
                client.position_at(time_us),
                self._pathloss,
            )
            + NOISE_FLOOR_DBM
        )
        self._fixed_rx_dbm[key] = power
        return power

    def audible_dx_m(self, tx_id: str) -> float:
        """Distance in x beyond which ``tx_id`` is heard by no fixed port.

        Every fixed port further than this from the transmitter along
        the road receives it at least :data:`AUDIBLE_SLACK_DB` below
        :data:`ENERGY_DETECT_DBM` (see :mod:`repro.channel.reach`).
        """
        reach = self._reach.get(tx_id)
        if reach is None:
            reach = self._reach[tx_id] = audible_dx_m(
                self._ports[tx_id].tx_power_dbm,
                self._bounds[tx_id],
                self._fixed_bounds,
                self._pathloss,
                ENERGY_DETECT_DBM - AUDIBLE_SLACK_DB,
            )
        return reach

    def may_hear(self, tx_id: str, rx_id: str) -> bool:
        """Whether the fixed port ``rx_id`` may detect fixed ``tx_id``.

        False means the link budget over the pair's exact geometry puts
        every frame at least :data:`AUDIBLE_SLACK_DB` below
        :data:`ENERGY_DETECT_DBM`.
        """
        tx_pos = self._ports[tx_id].position
        rx_pos = self._ports[rx_id].position
        assert tx_pos is not None and rx_pos is not None, "fixed ports only"
        bound = rx_power_bound_dbm(
            self._ports[tx_id].tx_power_dbm,
            self._bounds[tx_id],
            self._bounds[rx_id],
            abs(tx_pos.x - rx_pos.x),
            tx_pos.distance_to(rx_pos),
            self._pathloss,
        )
        return bound >= ENERGY_DETECT_DBM - AUDIBLE_SLACK_DB

    def invalidate_geometry(self) -> None:
        """Drop every position/geometry memo in the scenario.

        Required after mutating a mobility model in place at a fixed
        simulation time (see :meth:`Link.invalidate_geometry`).
        """
        for port in self._ports.values():
            port._pos_time = None
            port._pos_cache = None
        for link in self._links.values():
            link.invalidate_geometry()

    def links_for_client(self, client_id: str):
        """All instantiated links that involve ``client_id``.

        Served from the per-endpoint index (O(links of this client))
        rather than a scan of every link in the scenario.
        """
        return list(self._links_by_port.get(client_id, ()))

    def forget_port(self, node_id: str) -> None:
        """Tear down one endpoint and every link touching it.

        Client churn needs this: a retired vehicle's RadioPort and its
        per-AP Links (fading streams, SNR memos) would otherwise pin
        memory forever — the same unbounded-growth class as
        ``IndexAllocator.forget_client``.  Callers must wait until the
        medium holds no in-flight transmission history naming the port
        (the testbed defers retirement past the interference-history
        horizon) or ``link()`` lookups on stale history would fail.
        """
        if node_id not in self._ports:
            return
        del self._ports[node_id]
        del self._bounds[node_id]
        self._reach.pop(node_id, None)
        gone = self._links_by_port.pop(node_id, [])
        for link in gone:
            peer = (
                link.ap.node_id
                if link.client.node_id == node_id
                else link.client.node_id
            )
            key = (
                (node_id, peer) if node_id <= peer else (peer, node_id)
            )
            self._links.pop(key, None)
            peer_links = self._links_by_port.get(peer)
            if peer_links is not None:
                peer_links[:] = [ln for ln in peer_links if ln is not link]
                if not peer_links:
                    del self._links_by_port[peer]


def subcarrier_count() -> int:
    """Number of subcarriers in every CSI snapshot (56 for HT20)."""
    return NUM_SUBCARRIERS
