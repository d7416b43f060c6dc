"""Conservative audibility bounds: how far away can a transmitter be heard?

The medium hands every frame to each radio that could possibly detect
it. Visiting every radio in a city corridor costs O(radios) per frame,
while only the handful near the sender ever clear the energy-detect
floor. This module proves, from the link budget alone, an x-distance
beyond which a transmitter cannot reach a stationary receiver, so the
medium can skip those receivers without changing a single result.

The argument rests on the deployed geometry. Every roadside AP antenna
is aimed across the road, so its boresight has zero x-component. For a
target at offset ``v`` from the mount, the off-axis angle ``θ`` then
satisfies ``sin θ ≥ |v_x| / |v|`` (Cauchy–Schwarz: ``v_x`` is the
projection of ``v`` on a unit vector orthogonal to the boresight, so it
is at most the orthogonal component ``|v| sin θ``). Once that lower
bound passes the angle where the main lobe meets the side-lobe floor,
the gain is the floor. Any other antenna is bounded by its peak gain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional

from repro.channel.antenna import Antenna, OmniAntenna, ParabolicAntenna
from repro.channel.pathloss import LogDistancePathLoss
from repro.mobility.road import Position

#: Widens the side-lobe test against float rounding in the exact
#: pattern's ``acos``: a target this close to the side-lobe angle is
#: treated as main-lobe (peak gain), which only loosens the bound.
_SIN_MARGIN = 1e-9


@dataclass(frozen=True)
class GainBound:
    """Piecewise upper bound on one antenna's gain.

    Toward a target at x-offset ``dx`` and distance ``r`` from the
    antenna the gain is at most ``side_lobe_dbi`` when
    ``|dx| >= r * side_lobe_sin``, and at most ``peak_dbi`` otherwise.
    ``side_lobe_sin = inf`` means the side-lobe branch never applies.
    """

    peak_dbi: float
    side_lobe_dbi: float
    side_lobe_sin: float = math.inf

    def at(self, abs_dx: float, distance_m: float) -> float:
        """The bound toward one target."""
        if abs_dx >= distance_m * self.side_lobe_sin:
            return self.side_lobe_dbi
        return self.peak_dbi


def gain_bound(antenna: Antenna, position: Optional[Position]) -> GainBound:
    """The tightest provable :class:`GainBound` for ``antenna``.

    ``position`` is where the antenna's radio port sits (``None`` for a
    moving port). The side-lobe branch needs a stationary parabolic
    antenna mounted at the port's position with a boresight of zero
    x-component; every other antenna falls back to its peak gain.
    """
    if isinstance(antenna, ParabolicAntenna):
        suppression = antenna.side_lobe_suppression_db
        # A negative suppression lifts every direction above the peak.
        peak = antenna.peak_gain_dbi - min(0.0, suppression)
        side_lobe_deg = antenna.beamwidth_deg / 2.0 * math.sqrt(
            max(suppression, 0.0) / 3.0
        )
        if (
            position is not None
            and position == antenna.mount
            and antenna.boresight.x == antenna.mount.x
            and suppression > 0.0
            and side_lobe_deg < 90.0
        ):
            sin_floor = math.sin(math.radians(side_lobe_deg)) + _SIN_MARGIN
            return GainBound(peak, peak - suppression, sin_floor)
        return GainBound(peak, peak)
    if isinstance(antenna, OmniAntenna):
        return GainBound(antenna.peak_gain_dbi, antenna.peak_gain_dbi)
    return GainBound(math.inf, math.inf)  # an antenna of unknown pattern


def rx_power_bound_dbm(
    tx_power_dbm: float,
    tx: GainBound,
    rx: GainBound,
    abs_dx: float,
    distance_m: float,
    pathloss: LogDistancePathLoss,
) -> float:
    """Upper bound on the mean received power between two ports
    ``abs_dx`` apart in x and ``distance_m`` apart in space."""
    return (
        tx_power_dbm
        + tx.at(abs_dx, distance_m)
        + rx.at(abs_dx, distance_m)
        - pathloss.loss_db(distance_m)
    )


def audible_dx_m(
    tx_power_dbm: float,
    tx: GainBound,
    receivers: Iterable[GainBound],
    pathloss: LogDistancePathLoss,
    threshold_dbm: float,
) -> float:
    """Half-width in x beyond which ``tx`` stays below ``threshold_dbm``
    at every receiver bounded by one of ``receivers``.

    For a fixed ``|dx| = X`` the distance ``r`` ranges over ``[X, ∞)``.
    Each antenna's bound switches from side lobe to peak at
    ``r = X / side_lobe_sin``; between consecutive switch points the
    gain bound is constant and the path loss is smallest at the left
    end. So the worst case over ``r`` is the largest of a few
    closed-form terms, each decreasing in ``X``; the result is the
    smallest ``X`` that puts every term below the threshold.
    """
    rx = set(receivers)
    if not rx:
        return 0.0
    bounds = [tx, *rx]
    ratios = sorted(
        {1.0, *(1.0 / b.side_lobe_sin for b in bounds if b.side_lobe_sin < 1.0)}
    )
    reach = 0.0
    for k, ratio in enumerate(ratios):
        upper = ratios[k + 1] if k + 1 < len(ratios) else math.inf
        budget = (
            tx_power_dbm
            + _gain_below(tx, upper)
            + max(_gain_below(b, upper) for b in rx)
        )
        distance = pathloss.distance_at_loss_m(budget - threshold_dbm)
        reach = max(reach, distance / ratio)
    return reach


def _gain_below(bound: GainBound, ratio: float) -> float:
    """The bound toward every target with ``r < ratio · |dx|``: still in
    the side lobe exactly when the switch point lies at or past it."""
    if 1.0 / bound.side_lobe_sin >= ratio:
        return bound.side_lobe_dbi
    return bound.peak_dbi
