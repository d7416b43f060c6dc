"""Closed-form PHY curves: the scipy oracles the shipped tables come from.

These are the standard AWGN bit-error-rate expressions used by Halperin
et al.'s Effective SNR work ("Predictable 802.11 packet delivery from
wireless channel measurements", SIGCOMM 2010), which WGTT builds on:

    BPSK    Q(sqrt(2 * snr))
    QPSK    Q(sqrt(snr))
    16-QAM  3/4 * Q(sqrt(snr / 5))
    64-QAM  7/12 * Q(sqrt(snr / 21))

All functions accept scalars or numpy arrays of *linear* SNR and are
invertible, which is what lets a mean BER across subcarriers be mapped
back to a single AWGN-equivalent "effective" SNR.

The simulator itself never evaluates them: it serves every BER and ESNR
query from the lookup tables in ``repro/phy/ber_tables.npz``
(:mod:`repro.phy.lut`).  This module is where those tables come from
and what the tests hold them to:

* :func:`build_tables` samples the closed forms onto the LUT grids with
  exactly the expressions the table file was written from;
  ``tests/test_phy_tables.py`` asserts the shipped file is
  ``tobytes()``-equal to it.
* the ``*_exact`` effective-SNR and mean-BER functions are the
  reference the LUT fast paths are held to (0.05 dB) in
  ``tests/test_perf_equivalence.py`` and ``tests/test_phy_batch.py``.

scipy is a test-only dependency (the ``dev`` extra).  Regenerate the
table file with::

    PYTHONPATH=src python -m tests.phy_oracle --write
"""

from __future__ import annotations

import sys
from typing import Dict

import numpy as np
from scipy.special import erfc, erfcinv

from repro.phy.ber import BER_CEILING, BER_FLOOR, db_to_linear, linear_to_db
from repro.phy.esnr import DEFAULT_MODULATION, ESNR_CAP_DB
from repro.phy.lut import (
    _LOG_BER_GRID,
    _SNR_GRID_DB,
    SAMPLE_BER_FLOOR,
    TABLE_PATH,
)


def q_function(x):
    """Gaussian tail probability Q(x)."""
    return 0.5 * erfc(np.asarray(x, dtype=float) / np.sqrt(2.0))


def q_inverse(p):
    """Inverse of :func:`q_function`."""
    return np.sqrt(2.0) * erfcinv(2.0 * np.asarray(p, dtype=float))


def ber_bpsk(snr_linear):
    return q_function(np.sqrt(2.0 * np.maximum(snr_linear, 0.0)))


def ber_qpsk(snr_linear):
    return q_function(np.sqrt(np.maximum(snr_linear, 0.0)))


def ber_16qam(snr_linear):
    return 0.75 * q_function(np.sqrt(np.maximum(snr_linear, 0.0) / 5.0))


def ber_64qam(snr_linear):
    return (7.0 / 12.0) * q_function(np.sqrt(np.maximum(snr_linear, 0.0) / 21.0))


def snr_for_ber_bpsk(ber):
    return q_inverse(np.clip(ber, BER_FLOOR, BER_CEILING)) ** 2 / 2.0


def snr_for_ber_qpsk(ber):
    return q_inverse(np.clip(ber, BER_FLOOR, BER_CEILING)) ** 2


def snr_for_ber_16qam(ber):
    scaled = np.clip(np.asarray(ber, dtype=float) / 0.75, BER_FLOOR, BER_CEILING)
    return 5.0 * q_inverse(scaled) ** 2


def snr_for_ber_64qam(ber):
    scaled = np.clip(
        np.asarray(ber, dtype=float) * 12.0 / 7.0, BER_FLOOR, BER_CEILING
    )
    return 21.0 * q_inverse(scaled) ** 2


BER_BY_MODULATION = {
    "bpsk": ber_bpsk,
    "qpsk": ber_qpsk,
    "16qam": ber_16qam,
    "64qam": ber_64qam,
}

SNR_FOR_BER_BY_MODULATION = {
    "bpsk": snr_for_ber_bpsk,
    "qpsk": snr_for_ber_qpsk,
    "16qam": snr_for_ber_16qam,
    "64qam": snr_for_ber_64qam,
}


# ----------------------------------------------------------------------
# closed-form effective SNR and mean BER
# ----------------------------------------------------------------------


def effective_snr_linear_exact(
    subcarrier_snr_db: np.ndarray, modulation: str = DEFAULT_MODULATION
) -> float:
    """Closed-form effective SNR as a linear power ratio."""
    ber = BER_BY_MODULATION[modulation]
    inverse = SNR_FOR_BER_BY_MODULATION[modulation]
    snr_linear = db_to_linear(np.asarray(subcarrier_snr_db, dtype=float))
    mean = float(np.mean(ber(snr_linear)))
    mean = min(max(mean, BER_FLOOR), BER_CEILING)
    return float(inverse(mean))


def effective_snr_db_exact(
    subcarrier_snr_db: np.ndarray, modulation: str = DEFAULT_MODULATION
) -> float:
    """Closed-form effective SNR in dB, capped at ``ESNR_CAP_DB``."""
    esnr_db = float(
        linear_to_db(effective_snr_linear_exact(subcarrier_snr_db, modulation))
    )
    return min(esnr_db, ESNR_CAP_DB)


def mean_ber_exact(
    subcarrier_snr_db: np.ndarray, modulation: str, coding_gain_db: float = 0.0
) -> float:
    """Closed-form mean coded BER across subcarriers."""
    ber = BER_BY_MODULATION[modulation]
    snr_linear = db_to_linear(
        np.asarray(subcarrier_snr_db, dtype=float) + coding_gain_db
    )
    return float(np.mean(ber(snr_linear)))


# ----------------------------------------------------------------------
# the shipped tables
# ----------------------------------------------------------------------


def build_tables() -> Dict[str, np.ndarray]:
    """Sample every closed form onto the LUT grids.

    Keys are ``"<modulation>_ber"`` (forward table, linear BER on the
    SNR-dB grid, floored per sample at ``SAMPLE_BER_FLOOR``) and
    ``"<modulation>_inv_snr_db"`` (inverse table, SNR dB on the
    log10(BER) grid) — the layout of ``repro/phy/ber_tables.npz``.
    """
    tables = {}
    for modulation, forward in BER_BY_MODULATION.items():
        inverse = SNR_FOR_BER_BY_MODULATION[modulation]
        snr_linear = np.power(10.0, _SNR_GRID_DB / 10.0)
        with np.errstate(under="ignore"):
            ber = np.asarray(forward(snr_linear), dtype=float)
        tables[f"{modulation}_ber"] = np.maximum(ber, SAMPLE_BER_FLOOR)
        with np.errstate(under="ignore", divide="ignore"):
            snr_for = inverse(np.power(10.0, _LOG_BER_GRID))
        tables[f"{modulation}_inv_snr_db"] = np.asarray(
            linear_to_db(snr_for), dtype=float
        )
    return tables


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python -m tests.phy_oracle --write")
    np.savez(TABLE_PATH, **build_tables())
    print(f"wrote {TABLE_PATH}")
