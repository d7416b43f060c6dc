"""BER clipping range and dB conversions shared by the PHY models.

The uncoded BER curves themselves (the AWGN closed forms of Halperin et
al., SIGCOMM 2010) are served from the lookup tables in
:mod:`repro.phy.lut`; their closed forms live with the tests, in
``tests/phy_oracle.py``.
"""

from __future__ import annotations

import numpy as np

#: BER is clipped into this range before inversion so that saturated
#: (underflowed) measurements stay finite and ordered.
BER_FLOOR = 1e-15
BER_CEILING = 0.5


def db_to_linear(db):
    """Convert dB to a linear power ratio."""
    return np.power(10.0, np.asarray(db, dtype=float) / 10.0)


def linear_to_db(linear):
    """Convert a linear power ratio to dB (floored to avoid -inf)."""
    return 10.0 * np.log10(np.maximum(np.asarray(linear, dtype=float), 1e-30))
