"""Large-scale path loss for the 2.4 GHz roadside link.

A log-distance model anchored to the free-space loss at a 1 m
reference, with an excess-loss term that folds in everything the
paper's link budget hides: the 3-way RF splitter, window penetration,
cable losses. The defaults are calibrated (see ``repro.scenarios``)
so a client on an AP's antenna boresight sees roughly 25 dB of SNR —
enough for the top single-stream MCS — decaying to ~0 dB near the cell
edge, matching the ESNR ranges in the paper's Figure 2 and Figure 10.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

#: Speed of light, m/s.
SPEED_OF_LIGHT = 299_792_458.0
#: Carrier frequency of 2.4 GHz channel 11.
CHANNEL_11_HZ = 2.462e9


def free_space_path_loss_db(distance_m: float, frequency_hz: float) -> float:
    """Friis free-space path loss in dB; distance is floored at 1 m."""
    distance_m = max(distance_m, 1.0)
    wavelength = SPEED_OF_LIGHT / frequency_hz
    return 20.0 * math.log10(4.0 * math.pi * distance_m / wavelength)


@dataclass(frozen=True)
class LogDistancePathLoss:
    """Log-distance path loss with a calibrated excess-loss offset.

    loss(d) = FSPL(d0) + 10 * n * log10(d / d0) + excess_loss_db
    """

    exponent: float = 2.7
    reference_distance_m: float = 1.0
    frequency_hz: float = CHANNEL_11_HZ
    excess_loss_db: float = 30.0

    def __post_init__(self) -> None:
        # ``loss_db`` sits on the per-link geometry hot path; the
        # reference FSPL and the 10·n slope never change after
        # construction.  (object.__setattr__ because frozen=True.)
        # The summation order below mirrors the original expression
        # term for term, so the hoisting cannot move a single bit.
        object.__setattr__(
            self,
            "_reference_db",
            free_space_path_loss_db(self.reference_distance_m, self.frequency_hz),
        )
        object.__setattr__(self, "_slope_db", 10.0 * self.exponent)

    def loss_db(self, distance_m: float) -> float:
        """Total large-scale loss in dB at ``distance_m``."""
        distance_m = max(distance_m, self.reference_distance_m)
        return (
            self._reference_db
            + self._slope_db * math.log10(distance_m / self.reference_distance_m)
            + self.excess_loss_db
        )

    def distance_at_loss_m(self, loss_db: float) -> float:
        """Inverse of :meth:`loss_db`: the distance past which the loss
        exceeds ``loss_db`` (``inf`` if it never does)."""
        excess_db = loss_db - self._reference_db - self.excess_loss_db
        if excess_db <= 0.0:
            return self.reference_distance_m
        if self._slope_db <= 0.0 or excess_db / self._slope_db > 300.0:
            return math.inf
        return self.reference_distance_m * 10.0 ** (excess_db / self._slope_db)

    @property
    def wavelength_m(self) -> float:
        """Carrier wavelength — 12.2 cm at channel 11, as the paper notes."""
        return SPEED_OF_LIGHT / self.frequency_hz
