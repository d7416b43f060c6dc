"""Batched PHY kernels: whole link sets through the LUTs in one pass.

The scalar entry points in :mod:`repro.phy.esnr` / :mod:`repro.phy.per`
evaluate one ``(56,)`` snapshot per Python call.  A frame completion on
the shared medium, a CSI fan-out, or an oracle capacity probe needs the
same quantities for *every* receiver at one instant — a
``(n_links, 56)`` stack.  This module runs those stacks through the
same uniform-grid gather kernels (:class:`repro.phy.lut.ModulationLut`)
in one set of numpy ops.

**Equivalence contract**: every function here is bit-identical, element
for element, to mapping its scalar counterpart over the rows — the
heavy elementwise stages (grid gather, ``log10``, ``power``,
``add.reduce(axis=-1)``) produce the same bits on a 2-D stack as on
each 1-D row, and the cheap per-row finishing below runs the *same*
scalar helpers the scalar path runs (``math.log10`` wideband check,
scalar BER lookup, ``(1-ber)**n``).  ``tests/test_phy_batch.py`` sweeps
random link counts, modulations and NaN/±inf inputs to hold both paths
together, and to the scipy ``*_exact`` oracles.

The ``prewarm_*`` entry points seed the bounded identity memos of
:mod:`repro.phy.per`, so the per-frame scalar calls the MAC makes
afterwards (`preamble_success_probability`, `coded_ber`, …) collapse to
dictionary hits on exactly the values the scalar path would have
computed.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.phy.esnr import DEFAULT_MODULATION, ESNR_CAP_DB
from repro.phy.lut import ber_at_snr_db_lut, lut_for
from repro.phy.mcs import CODING_GAIN_DB, MCS_TABLE, Mcs
from repro.phy.per import (
    _PREAMBLE_BITS,
    PREAMBLE_SNR_FLOOR_DB,
    seed_coded_ber,
    seed_effective_snr_db,
    seed_preamble_success,
    seed_rssi_offset,
)

__all__ = [
    "effective_snr_db_batch",
    "mean_ber_batch",
    "coded_ber_batch",
    "preamble_success_batch",
    "mpdu_payload_success_batch",
    "rssi_offset_batch",
    "prewarm_receivers",
    "prewarm_best_rate",
]


def _as_matrix(subcarrier_snr_db) -> np.ndarray:
    matrix = np.asarray(subcarrier_snr_db, dtype=float)
    if matrix.ndim == 1:
        matrix = matrix[None, :]
    return matrix


def effective_snr_db_batch(
    subcarrier_snr_db,
    modulation: str = DEFAULT_MODULATION,
    capped: bool = True,
) -> np.ndarray:
    """Effective SNR (dB) for a ``(n_links, n_subcarriers)`` stack.

    ``capped=True`` matches :func:`repro.phy.esnr.effective_snr_db`
    (including its NaN-maps-to-cap ternary); ``capped=False`` matches
    the uncapped LUT path (:func:`repro.phy.lut.effective_snr_db_lut`).
    """
    matrix = _as_matrix(subcarrier_snr_db)
    lut = lut_for(modulation)
    ber = lut.ber_of_db_batch(matrix)
    mean = np.add.reduce(ber, axis=-1) / matrix.shape[-1]
    esnr = lut.snr_db_for_ber_batch(mean)
    if capped:
        # np.where — not np.minimum — to match the scalar ternary
        # ``esnr if esnr < CAP else CAP`` bitwise (NaN takes the cap).
        esnr = np.where(esnr < ESNR_CAP_DB, esnr, ESNR_CAP_DB)
    return esnr


def mean_ber_batch(
    subcarrier_snr_db,
    modulation: str,
    coding_gain_db: float = 0.0,
) -> np.ndarray:
    """Row-wise :func:`repro.phy.lut.mean_ber_lut`."""
    matrix = _as_matrix(subcarrier_snr_db)
    if coding_gain_db:
        matrix = matrix + coding_gain_db
    lut = lut_for(modulation)
    ber = lut.ber_of_db_batch(matrix)
    return np.add.reduce(ber, axis=-1) / matrix.shape[-1]


def coded_ber_batch(
    subcarrier_snr_db, mcs: Mcs
) -> Tuple[np.ndarray, np.ndarray]:
    """Row-wise :func:`repro.phy.per.coded_ber`.

    Returns ``(coded_ber, esnr_db)`` — the per-row uncapped effective
    SNR is computed on the way and callers (the prewarm below) want to
    seed it too.
    """
    matrix = _as_matrix(subcarrier_snr_db)
    gain_db = CODING_GAIN_DB[mcs.coding_rate]
    esnr = effective_snr_db_batch(matrix, mcs.modulation, capped=False)
    values = np.empty(len(esnr))
    modulation = mcs.modulation
    for i in range(len(esnr)):
        # Same scalar lookup the memo path runs — float(np.float64)
        # round-trips bitwise.
        values[i] = ber_at_snr_db_lut(modulation, float(esnr[i]) + gain_db)
    return values, esnr


def preamble_success_batch(
    subcarrier_snr_db,
) -> Tuple[np.ndarray, np.ndarray]:
    """Row-wise :func:`repro.phy.per.preamble_success_probability`.

    Returns ``(p_preamble, bpsk_esnr_db)``; the BPSK effective SNR is
    evaluated for every row (the scalar path skips it below the
    wideband floor, but computing it never changes a value — only the
    memo seeds).
    """
    matrix = _as_matrix(subcarrier_snr_db)
    with np.errstate(over="ignore"):  # huge finite SNRs saturate to inf
        linear = np.power(10.0, matrix * 0.1)
    wideband = np.add.reduce(linear, axis=-1) / matrix.shape[-1]
    esnr = effective_snr_db_batch(matrix, "bpsk", capped=False)
    gain_db = CODING_GAIN_DB[1 / 2]
    # One vectorized LUT gather for every row's BER; the batch kernel
    # is bit-identical to the scalar lookup (tests/test_phy_batch.py),
    # and ``esnr + gain_db`` is the same IEEE add the scalar path does.
    bers = lut_for("bpsk").ber_of_db_batch(esnr + gain_db)
    out = np.empty(len(wideband))
    for i in range(len(wideband)):
        wideband_db = 10.0 * math.log10(max(float(wideband[i]), 1e-12))
        if wideband_db < PREAMBLE_SNR_FLOOR_DB:
            out[i] = 0.0
        else:
            # scalar ``**`` finishing — same op the scalar path runs
            out[i] = (1.0 - float(bers[i])) ** _PREAMBLE_BITS
    return out, esnr


def mpdu_payload_success_batch(
    subcarrier_snr_db, mcs: Mcs, length_bytes: int
) -> np.ndarray:
    """Row-wise :func:`repro.phy.per.mpdu_payload_success_probability`."""
    coded, _esnr = coded_ber_batch(subcarrier_snr_db, mcs)
    bits = 8 * int(length_bytes)
    out = np.empty(len(coded))
    for i in range(len(coded)):
        ber = float(coded[i])
        if ber >= 1.0:
            out[i] = 0.0
        else:
            out[i] = math.exp(bits * math.log1p(-min(ber, 0.999999)))
    return out


def rssi_offset_batch(subcarrier_snr_db) -> np.ndarray:
    """Row-wise :func:`repro.phy.per.wideband_rssi_offset_db`."""
    matrix = _as_matrix(subcarrier_snr_db)
    with np.errstate(over="ignore"):  # huge finite SNRs saturate to inf
        powers = 10.0 ** (matrix / 10.0)
    linear = np.add.reduce(powers, axis=-1) / matrix.shape[-1]
    out = np.empty(len(linear))
    for i in range(len(linear)):
        out[i] = 10.0 * math.log10(max(float(linear[i]), 1e-12))
    return out


# ----------------------------------------------------------------------
# memo prewarm (the medium's contention-domain batching layer)
# ----------------------------------------------------------------------


#: Below this preamble success probability a receiver's data / CSI
#: follow-up work is, for prewarming purposes, unreachable: the MAC
#: gates everything downstream on a ``draw < p`` preamble check.  Rows
#: under the threshold are simply not pre-seeded — on the (vanishingly
#: rare) draw that still passes, the scalar memo-miss path computes
#: the identical values.  Perf heuristic only; never changes a value.
PREWARM_MIN_PREAMBLE_P = 1e-9


def prewarm_receivers(
    rows: Sequence[np.ndarray],
    data_mcs: Optional[Mcs] = None,
    data_indices: Sequence[int] = (),
    csi_indices: Sequence[int] = (),
) -> None:
    """Batch-evaluate one completed transmission's receiver set and
    seed the :mod:`repro.phy.per` identity memos.

    ``rows`` are the *final* per-receiver snapshot arrays — the exact
    objects the MAC will hand to ``device.on_air_frame`` (interference
    penalties already applied) — because the memos key on object
    identity.  ``data_indices`` selects rows whose receiver will decode
    the payload (coded BER at ``data_mcs``); ``csi_indices`` selects
    rows whose receiver will take a CSI measurement (reference-
    modulation ESNR + wideband RSSI).  Sub-batches only cover rows the
    MAC can actually reach (see :data:`PREWARM_MIN_PREAMBLE_P`).

    The medium calls this with *no* index sets — preamble-only.  The
    preamble is evaluated unconditionally by every receiver, so the
    stacked kernel amortizes across the whole contention domain; the
    draw-gated data / CSI follow-ups measured cheaper left to the lazy
    memoized scalar path (see docs/performance.md).  The index-driven
    seeding remains for callers whose consumption is unconditional.
    """
    n_rows = len(rows)
    matrix = np.empty((n_rows, rows[0].shape[0]))
    for i, row in enumerate(rows):
        matrix[i] = row
    preamble, _bpsk_esnr = preamble_success_batch(matrix)
    for i, row in enumerate(rows):
        seed_preamble_success(row, float(preamble[i]))
    data_idx = [
        i
        for i in data_indices
        if preamble[i] >= PREWARM_MIN_PREAMBLE_P
    ]
    csi_idx = [
        i for i in csi_indices if preamble[i] >= PREWARM_MIN_PREAMBLE_P
    ]
    if data_mcs is None:
        data_idx = []

    def esnr_rows(modulation: str, idx: List[int]) -> np.ndarray:
        sub = matrix if len(idx) == n_rows else matrix[idx]
        return effective_snr_db_batch(sub, modulation, capped=False)

    data_esnr: Optional[np.ndarray] = None
    if data_idx:
        modulation = data_mcs.modulation
        data_esnr = esnr_rows(modulation, data_idx)
        gain_db = CODING_GAIN_DB[data_mcs.coding_rate]
        for j, i in enumerate(data_idx):
            esnr_db = float(data_esnr[j])
            seed_effective_snr_db(rows[i], modulation, esnr_db)
            seed_coded_ber(
                rows[i],
                data_mcs,
                ber_at_snr_db_lut(modulation, esnr_db + gain_db),
            )
    if csi_idx:
        if (
            data_esnr is not None
            and data_mcs.modulation == DEFAULT_MODULATION
            and data_idx == csi_idx
        ):
            esnr_ref = data_esnr  # same rows, same modulation: reuse
        else:
            esnr_ref = esnr_rows(DEFAULT_MODULATION, csi_idx)
        offsets = rssi_offset_batch(
            matrix if len(csi_idx) == n_rows else matrix[csi_idx]
        )
        for j, i in enumerate(csi_idx):
            seed_effective_snr_db(
                rows[i], DEFAULT_MODULATION, float(esnr_ref[j])
            )
            seed_rssi_offset(rows[i], float(offsets[j]))


def prewarm_best_rate(rows: Sequence[np.ndarray]) -> None:
    """Seed everything :func:`repro.phy.per.best_rate_bps` touches for a
    stack of probe snapshots: the preamble term plus the uncapped ESNR
    of every modulation in the MCS table (for rows whose preamble term
    is nonzero — ``best_rate_bps`` returns early otherwise).  The
    subsequent per-row ``best_rate_bps`` calls then reduce to memo hits
    plus cheap scalar finishing."""
    n_rows = len(rows)
    if not n_rows:
        return
    matrix = np.empty((n_rows, rows[0].shape[0]))
    for i, row in enumerate(rows):
        matrix[i] = row
    preamble, _bpsk_esnr = preamble_success_batch(matrix)
    for i, row in enumerate(rows):
        seed_preamble_success(row, float(preamble[i]))
    idx = [i for i in range(n_rows) if preamble[i] > 0.0]
    if not idx:
        return
    sub = matrix if len(idx) == n_rows else matrix[idx]
    seen: set = set()
    for mcs in MCS_TABLE:
        if mcs.modulation in seen:
            continue
        seen.add(mcs.modulation)
        esnr = effective_snr_db_batch(sub, mcs.modulation, capped=False)
        for j, i in enumerate(idx):
            seed_effective_snr_db(rows[i], mcs.modulation, float(esnr[j]))
