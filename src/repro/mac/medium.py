"""The shared 2.4 GHz wireless medium (channel 11).

The medium is where transmissions physically overlap: it tracks every
frame on the air, answers carrier-sense queries for the DCF, and — when
a frame's airtime ends — hands each potential receiver a per-subcarrier
SINR snapshot with co-channel interference folded in. Capture is
implicit: a strong frame keeps a usable SINR through a weak overlap,
a near-tie destroys both. Half-duplex radios never receive while they
transmit.

All eight testbed APs and every client share this one channel, exactly
as deployed in the paper (§4: "channel 11 ... without modification").
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.channel.link import ChannelMap, ENERGY_DETECT_DBM, NOISE_FLOOR_DBM
from repro.channel.link_batch import warm_snapshots
from repro.mac.frames import Frame, SIFS_US
from repro.phy.batch import prewarm_receivers
from repro.sim.engine import Simulator

#: Energy level above which a station defers (carrier sense).
CS_THRESHOLD_DBM = -82.0
#: A transmission is only *sensed* after this many microseconds on air;
#: two stations firing within this window collide instead of deferring.
SENSE_DELAY_US = 4
#: How long finished transmissions are kept for interference accounting.
HISTORY_US = 20_000


@dataclass
class Transmission:
    """A frame occupying the medium for [start_us, end_us)."""

    sender: str
    frame: Frame
    start_us: int
    end_us: int
    channel: int = 11

    def overlaps(self, start_us: int, end_us: int) -> int:
        """Microseconds of overlap with [start_us, end_us)."""
        return max(0, min(self.end_us, end_us) - max(self.start_us, start_us))


class MacEntity:
    """Interface the medium expects from a registered radio device."""

    node_id: str
    #: Wi-Fi channel the radio is tuned to. Radios on different
    #: channels neither interfere with nor hear one another (adjacent-
    #: channel leakage is neglected). The paper's testbed is single-
    #: channel; the multi-channel ablation of §7 retunes APs.
    channel: int = 11

    def on_air_frame(
        self, frame: Frame, snr_db: Optional[np.ndarray], decodable: bool
    ) -> None:
        """Called at the end of every other station's transmission.

        ``snr_db`` is the per-subcarrier SINR snapshot at this receiver
        (None when the frame was completely below the noise floor or
        the receiver was itself transmitting); ``decodable`` is False
        when reception was physically impossible (half-duplex clash).
        """
        raise NotImplementedError

    def cares_about(self, frame: Frame) -> bool:
        """Cheap pre-filter: should the medium bother computing this
        receiver's SINR for ``frame``? Devices that can never use the
        frame (e.g. a client hearing another client's data) return
        False and skip the channel-model work entirely."""
        return True


#: One indexed radio: (registration sequence number, node id, device).
#: Sorting entries sorts them into registration order.
_Entry = Tuple[int, str, MacEntity]


class WirelessMedium:
    """Arbiter for one Wi-Fi channel.

    Frame completion visits only the radios that could hear the frame:
    every moving radio, plus the fixed radios (APs) within the sender's
    audible reach along the road (:meth:`ChannelMap.audible_dx_m`). A
    fixed radio outside that reach is provably below the energy-detect
    floor, where the full scan would only have handed it the no-op
    ``on_air_frame(frame, None, False)``.
    """

    def __init__(
        self,
        sim: Simulator,
        channel_map: ChannelMap,
        batch_phy: bool = True,
    ):
        self._sim = sim
        self._channel = channel_map
        self._devices: Dict[str, MacEntity] = {}
        self._transmissions: List[Transmission] = []
        self.frames_sent = 0
        self.airtime_us = 0
        #: Receivers examined by frame completions (the sender excluded).
        self.receivers_visited = 0
        #: Coalesce each frame completion's receiver set into one fused
        #: channel-evolution + PHY-kernel batch (bit-identical to the
        #: per-link scalar snapshots; ``False`` keeps those).
        self.batch_phy = batch_phy
        # Receiver index: fixed radios in x order (parallel lists for
        # bisection); moving ones are candidates for every frame.
        self._next_seq = 0
        self._fixed_xs: List[float] = []
        self._fixed: List[_Entry] = []
        self._mobile: List[_Entry] = []
        #: Per fixed sender: the fixed radios it may reach, filtered
        #: once on the pairs' exact geometry (which never changes).
        self._heard_by: Dict[str, List[_Entry]] = {}

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------

    def register(self, device: MacEntity) -> None:
        node_id = device.node_id
        if node_id in self._devices:
            raise ValueError(f"duplicate device {node_id!r}")
        self._devices[node_id] = device
        entry = (self._next_seq, node_id, device)
        self._next_seq += 1
        position = self._channel.port(node_id).position
        if position is None:
            self._mobile.append(entry)
            return
        i = bisect_right(self._fixed_xs, position.x)
        self._fixed_xs.insert(i, position.x)
        self._fixed.insert(i, entry)
        self._heard_by.clear()

    def unregister(self, node_id: str) -> None:
        """Remove a retired device from the medium.

        Churn support: a departed vehicle must stop being a candidate
        receiver (and stop pinning its MacEntity).  Callers must defer
        this past the interference-history horizon — ``busy_until`` and
        frame completion replay recent ``_transmissions`` through the
        channel map, which fails once the port is forgotten.
        """
        if self._devices.pop(node_id, None) is None:
            return
        self._mobile = [e for e in self._mobile if e[1] != node_id]
        for i, entry in enumerate(self._fixed):
            if entry[1] == node_id:
                del self._fixed[i], self._fixed_xs[i]
                self._heard_by.clear()
                break

    def devices(self):
        return self._devices.values()

    # ------------------------------------------------------------------
    # carrier sense
    # ------------------------------------------------------------------

    def busy_until(self, node_id: str, now: Optional[int] = None) -> int:
        """Latest end time of any transmission this node can sense.

        Returns a time <= now when the medium appears idle. Frames that
        started less than :data:`SENSE_DELAY_US` ago are invisible —
        that blind spot is what produces genuine collisions.
        """
        now = self._sim.now if now is None else now
        own_channel = self._channel_of(node_id)
        latest = 0
        for tx in self._transmissions:
            if tx.end_us <= now:
                continue
            if tx.sender == node_id:
                latest = max(latest, tx.end_us)
                continue
            if tx.channel != own_channel:
                continue
            if tx.start_us > now - SENSE_DELAY_US:
                continue
            power_dbm = self._channel.mean_rx_power_dbm(
                tx.sender, node_id, tx.start_us
            )
            if power_dbm >= CS_THRESHOLD_DBM:
                latest = max(latest, tx.end_us)
        return latest

    def _channel_of(self, node_id: str) -> int:
        device = self._devices.get(node_id)
        return getattr(device, "channel", 11)

    def is_idle(self, node_id: str) -> bool:
        return self.busy_until(node_id) <= self._sim.now

    # ------------------------------------------------------------------
    # transmission
    # ------------------------------------------------------------------

    def transmit(self, frame: Frame) -> Transmission:
        """Put ``frame`` on the air now; reception resolves at its end."""
        now = self._sim.now
        duration = frame.duration_us()
        tx = Transmission(
            frame.tx_device, frame, now, now + duration,
            channel=self._channel_of(frame.tx_device),
        )
        self._transmissions.append(tx)
        self.frames_sent += 1
        self.airtime_us += duration
        tracer = self._sim.obs.trace
        if tracer.active:
            tracer.emit(
                "medium",
                "air-tx",
                track=f"air/{tx.channel}",
                detail=True,
                sender=tx.sender,
                frame=type(frame).__name__,
                duration_us=duration,
            )
        self._sim.schedule(duration, lambda: self._complete(tx))
        self._prune(now)
        return tx

    def transmit_response(
        self, frame: Frame, delay_us: int = SIFS_US,
        abort_if_busy: bool = True,
    ) -> None:
        """Send a SIFS-separated response (BA/ACK) without DCF contention.

        When ``abort_if_busy`` the responder performs a last-instant
        sense and silently drops its response if another station beat it
        to the air — this is how near-simultaneous block ACKs from
        multiple WGTT APs usually avoid colliding (paper §5.3.2).
        """

        def fire():
            if abort_if_busy and not self.is_idle(frame.tx_device):
                return
            self.transmit(frame)

        self._sim.schedule(delay_us, fire)

    def _prune(self, now: int) -> None:
        cutoff = now - HISTORY_US
        self._transmissions = [
            t for t in self._transmissions if t.end_us >= cutoff
        ]

    # ------------------------------------------------------------------
    # reception
    # ------------------------------------------------------------------

    def _candidates(self, tx: Transmission) -> List[_Entry]:
        """The radios that might hear ``tx``, in registration order."""
        sender = tx.sender
        heard = self._heard_by.get(sender)
        if heard is None:
            channel = self._channel
            port = channel.port(sender)
            reach = channel.audible_dx_m(sender)
            x = port.position_at(tx.start_us).x
            xs = self._fixed_xs
            heard = self._fixed[
                bisect_left(xs, x - reach):bisect_right(xs, x + reach)
            ]
            if port.position is not None:
                heard = sorted(
                    entry
                    for entry in heard
                    if entry[1] != sender and channel.may_hear(sender, entry[1])
                )
                self._heard_by[sender] = heard
        return sorted(heard + self._mobile)

    def _complete(self, tx: Transmission) -> None:
        noise_mw = 10.0 ** (NOISE_FLOOR_DBM / 10.0)
        # The overlap geometry of every co-channel transmission against
        # ``tx`` is receiver-independent, so it is computed ONCE here
        # rather than inside the per-receiver interference loop — with
        # a dozen radios and a 20 ms history that scan used to dominate
        # frame completion.  ``interferers`` keeps the transmission-list
        # order, so the per-receiver float sums below always add the
        # same terms in the same order.
        sender = tx.sender
        tx_start, tx_end = tx.start_us, tx.end_us
        duration = max(tx_end - tx_start, 1)
        interferers = []  # (sender, start_us, overlap_fraction)
        active_senders = set()  # anyone on air during [start, end)
        for other in self._transmissions:
            overlap = (
                min(other.end_us, tx_end) - max(other.start_us, tx_start)
            )
            if overlap <= 0:
                continue
            active_senders.add(other.sender)
            if other is tx or other.channel != tx.channel:
                continue
            interferers.append(
                (other.sender, other.start_us, overlap / duration)
            )

        # ---- plan pass: apply the cheap per-receiver filters first, so
        # the receivers that need a full SINR snapshot are known before
        # any channel math runs.  Every per-link computation is
        # independent (private RNG streams, per-link caches) and
        # ``on_air_frame`` dispatch keeps registration order below.
        rx_power_dbm = self._channel.mean_rx_power_dbm
        receivers: List[tuple] = []  # (node_id, device, link_or_None)
        visited = 0
        for _seq, node_id, device in self._candidates(tx):
            if node_id == sender:
                continue
            visited += 1
            if getattr(device, "channel", 11) != tx.channel:
                continue  # tuned elsewhere: hears nothing
            if not device.cares_about(tx.frame):
                continue
            if node_id in active_senders:
                # Half-duplex: it was transmitting itself.
                receivers.append((node_id, device, None))
                continue
            if rx_power_dbm(sender, node_id, tx_start) < ENERGY_DETECT_DBM:
                # Far below the noise floor: not even energy-detectable.
                receivers.append((node_id, device, None))
                continue
            receivers.append(
                (node_id, device, self._channel.link(sender, node_id))
            )
        self.receivers_visited += visited

        live = [
            (i, entry[2])
            for i, entry in enumerate(receivers)
            if entry[2] is not None
        ]
        if self.batch_phy:
            # This completion's contention domain as one batch: a fused
            # multi-link fading step (bit-identical to per-link steps).
            snaps = warm_snapshots(tx_start, [(link, sender) for _i, link in live])
        else:
            snaps = [
                link.subcarrier_snr_db(tx_start, tx_id=sender) for _i, link in live
            ]
        rows: List[Optional[np.ndarray]] = [None] * len(receivers)
        for (i, _link), snr_db in zip(live, snaps):
            node_id = receivers[i][0]
            interference_mw = 0.0
            for other, start_us, weight in interferers:
                if other == node_id:
                    continue
                power_dbm = rx_power_dbm(other, node_id, start_us)
                interference_mw += weight * 10.0 ** (power_dbm / 10.0)
            if interference_mw > 0.0:
                penalty_db = 10.0 * math.log10(1.0 + interference_mw / noise_mw)
                snr_db = snr_db - penalty_db
            rows[i] = snr_db
        if self.batch_phy and len(live) >= 2:
            # Seed the preamble memo for every live receiver at once,
            # with the exact row objects dispatched below, so each
            # receiver's preamble check is a memo hit.  Only the
            # preamble term: every receiver evaluates it, while data /
            # CSI follow-ups hang on a per-device draw and seeding them
            # eagerly measured as a net loss (docs/performance.md).
            prewarm_receivers([rows[i] for i, _link in live])
        for i, (_node_id, device, link) in enumerate(receivers):
            device.on_air_frame(tx.frame, rows[i], link is not None)
