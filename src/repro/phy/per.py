"""Packet-error model: from per-subcarrier SNR to delivery probability.

An MPDU of ``L`` bytes at a given MCS succeeds when all its coded bits
come through:  p = (1 - ber)^(8L), where ``ber`` is the mean coded BER
across subcarriers (modulation curve + coding-gain offset). This is the
Effective-SNR delivery model of Halperin et al., evaluated directly on
the subcarrier SNRs, and it is what gives WGTT's CSI-based AP selection
its predictive power: two links with equal RSSI but different
frequency-selective fades get very different delivery probabilities.

A decode also requires the PLCP preamble/header, sent at the most
robust rate, to be received; below a small SNR floor nothing decodes.

Hot path: all non-linear maps are served from the log-domain lookup
tables in :mod:`repro.phy.lut`, and the per-aggregate quantities
(effective SNR, coded BER, preamble success) carry bounded *identity*
memos: the MAC evaluates the same SNR snapshot once per subframe of an
A-MPDU, and the batched medium path (:mod:`repro.phy.batch`) pre-seeds
the same memos for every receiver of a completed transmission, so the
per-frame entry points below collapse to dictionary hits.  Keys embed
``id()`` of the snapshot array; a strong reference to the array is held
in each entry, making ``id`` reuse impossible while the entry lives.
The memos are LRU-bounded (:data:`PHY_MEMO_CAPACITY`) so hour-long
soak runs cannot grow them without limit, and hit/miss/eviction
counters are exported through :func:`phy_memo_stats` (the testbed
registers them with the ``MetricsRegistry``).  SNR arrays are treated
as immutable throughout the simulator — derived quantities always
allocate fresh arrays.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from typing import Any, Dict, Tuple

import numpy as np

from repro.phy.esnr import DEFAULT_MODULATION, ESNR_CAP_DB
from repro.phy.lut import ber_at_snr_db_lut, lut_for
from repro.phy.mcs import CODING_GAIN_DB, Mcs

#: Below this wideband SNR (dB) the preamble itself is undetectable.
PREAMBLE_SNR_FLOOR_DB = -1.0
#: Preamble length in bits at the 6 Mbit/s base rate (for its own BER check).
_PREAMBLE_BITS = 192

#: Entry cap for each identity memo below.  A snapshot batch touches at
#: most ~#receivers × #modulations entries, so 128 comfortably covers a
#: full medium completion plus the controller's follow-up reads while
#: keeping worst-case growth bounded for soak runs.
PHY_MEMO_CAPACITY = 128


class _IdentityLru:
    """Bounded identity-keyed memo with hit/miss/eviction counters.

    Keys embed ``id()`` of a live array; each entry holds a strong
    reference to that array (and any other identity-keyed operand), so
    a key collision with a *different* object is impossible — CPython
    cannot recycle the id of an object the entry keeps alive.
    """

    __slots__ = ("capacity", "hits", "misses", "evictions", "_data")

    def __init__(self, capacity: int = PHY_MEMO_CAPACITY):
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._data: "OrderedDict[Any, Tuple[Any, ...]]" = OrderedDict()

    def get(self, key: Any) -> Any:
        entry = self._data.get(key)
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        self._data.move_to_end(key)
        return entry

    def put(self, key: Any, entry: Tuple[Any, ...]) -> None:
        data = self._data
        if key in data:
            data[key] = entry
            data.move_to_end(key)
            return
        if len(data) >= self.capacity:
            data.popitem(last=False)
            self.evictions += 1
        data[key] = entry  # fresh keys insert at the recent end already

    def clear(self) -> None:
        self._data.clear()

    def __len__(self) -> int:
        return len(self._data)

    def stats(self) -> Dict[str, int]:
        return {
            "size": len(self._data),
            "capacity": self.capacity,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }


#: value: (snr_array, esnr_db) keyed by (id(array), modulation)
_esnr_memo = _IdentityLru()
#: value: (snr_array, mcs, coded_ber) keyed by (id(array), id(mcs))
_coded_memo = _IdentityLru()
#: value: (snr_array, p_preamble) keyed by id(array)
_preamble_memo_lru = _IdentityLru()
#: value: (snr_array, offset_db) keyed by id(array)
_rssi_memo = _IdentityLru()


def phy_memo_stats() -> Dict[str, Dict[str, int]]:
    """Counters for the bounded PHY memos (for the obs collectors)."""
    return {
        "esnr": _esnr_memo.stats(),
        "coded_ber": _coded_memo.stats(),
        "preamble": _preamble_memo_lru.stats(),
        "rssi": _rssi_memo.stats(),
    }


def reset_phy_memos() -> None:
    """Drop all memo entries (counters survive; tests use this)."""
    _esnr_memo.clear()
    _coded_memo.clear()
    _preamble_memo_lru.clear()
    _rssi_memo.clear()


def reset_phy_memo_stats() -> None:
    """Zero the hit/miss/eviction counters (entries untouched).

    The soak harness calls this alongside :func:`reset_phy_memos` so
    that two same-seed runs in one process stream byte-identical
    telemetry — the counters are process-lifetime by default and would
    otherwise carry the first run's totals into the second.
    """
    for memo in (_esnr_memo, _coded_memo, _preamble_memo_lru, _rssi_memo):
        memo.hits = 0
        memo.misses = 0
        memo.evictions = 0


# ----------------------------------------------------------------------
# batch prewarm hooks (repro.phy.batch seeds these after a fused
# multi-link evaluation so the per-frame scalar entry points hit)
# ----------------------------------------------------------------------


def seed_effective_snr_db(
    subcarrier_snr_db: np.ndarray, modulation: str, esnr_db: float
) -> None:
    _esnr_memo.put(
        (id(subcarrier_snr_db), modulation), (subcarrier_snr_db, esnr_db)
    )


def seed_coded_ber(
    subcarrier_snr_db: np.ndarray, mcs: Mcs, value: float
) -> None:
    _coded_memo.put(
        (id(subcarrier_snr_db), id(mcs)), (subcarrier_snr_db, mcs, value)
    )


def seed_preamble_success(
    subcarrier_snr_db: np.ndarray, value: float
) -> None:
    _preamble_memo_lru.put(id(subcarrier_snr_db), (subcarrier_snr_db, value))


def seed_rssi_offset(subcarrier_snr_db: np.ndarray, value: float) -> None:
    _rssi_memo.put(id(subcarrier_snr_db), (subcarrier_snr_db, value))


def wideband_rssi_offset_db(subcarrier_snr_db: np.ndarray) -> float:
    """Wideband fading+SNR offset over the noise floor, in dB.

    ``NOISE_FLOOR_DBM + offset`` is the instantaneous RSSI a receiver
    reports for this snapshot (see ``WifiDevice._rssi_from_snr``).
    Factored here so the batched CSI fan-out can pre-seed it.
    """
    entry = _rssi_memo.get(id(subcarrier_snr_db))
    if entry is not None:
        return entry[1]
    with np.errstate(over="ignore"):  # huge finite SNRs saturate to inf
        powers = 10.0 ** (np.asarray(subcarrier_snr_db) / 10.0)
    linear = float(np.add.reduce(powers)) / powers.shape[0]
    value = 10.0 * math.log10(max(linear, 1e-12))
    if isinstance(subcarrier_snr_db, np.ndarray):
        _rssi_memo.put(id(subcarrier_snr_db), (subcarrier_snr_db, value))
    return value


def _effective_snr_db_memo(subcarrier_snr_db: np.ndarray, modulation: str) -> float:
    """Uncapped LUT effective SNR with a bounded identity memo."""
    key = (id(subcarrier_snr_db), modulation)
    entry = _esnr_memo.get(key)
    if entry is not None:
        return entry[1]
    lut = lut_for(modulation)
    ber = lut.ber_of_db_batch(subcarrier_snr_db)
    mean = float(np.add.reduce(ber)) / ber.shape[0]
    esnr_db = lut.snr_db_for_ber(mean)
    if isinstance(subcarrier_snr_db, np.ndarray):
        _esnr_memo.put(key, (subcarrier_snr_db, esnr_db))
    return esnr_db


def effective_snr_db_memoized(
    subcarrier_snr_db: np.ndarray, modulation: str = DEFAULT_MODULATION
) -> float:
    """Capped effective SNR served through the bounded identity memo.

    Bit-identical to :func:`repro.phy.esnr.effective_snr_db` (same
    kernels, same cap ternary); the CSI path uses this entry point so a
    report whose snapshot was pre-seeded by the batched medium resolves
    without recomputing the LUT collapse.
    """
    esnr_db = _effective_snr_db_memo(subcarrier_snr_db, modulation)
    return esnr_db if esnr_db < ESNR_CAP_DB else ESNR_CAP_DB


def coded_ber(subcarrier_snr_db: np.ndarray, mcs: Mcs) -> float:
    """Post-FEC BER for this MCS on a frequency-selective channel.

    Per Halperin et al.: collapse the subcarrier SNRs to the effective
    SNR for this MCS's *modulation* (uncoded mean-BER inversion), then
    evaluate the coded link at that single AWGN-equivalent point. The
    convolutional code and interleaver operate across the whole band,
    so coding is credited after the collapse, not per subcarrier.
    """
    key = (id(subcarrier_snr_db), id(mcs))
    entry = _coded_memo.get(key)
    if entry is not None:
        return entry[2]
    gain_db = CODING_GAIN_DB[mcs.coding_rate]
    esnr_db = _effective_snr_db_memo(subcarrier_snr_db, mcs.modulation)
    value = ber_at_snr_db_lut(mcs.modulation, esnr_db + gain_db)
    if isinstance(subcarrier_snr_db, np.ndarray):
        _coded_memo.put(key, (subcarrier_snr_db, mcs, value))
    return value


def preamble_success_probability(subcarrier_snr_db: np.ndarray) -> float:
    """Probability the PLCP preamble + header decode (BPSK 1/2)."""
    entry = _preamble_memo_lru.get(id(subcarrier_snr_db))
    if entry is not None:
        return entry[1]
    arr = np.asarray(subcarrier_snr_db, dtype=float)
    with np.errstate(over="ignore"):  # huge finite SNRs saturate to inf
        linear = np.power(10.0, arr * 0.1)
    # add.reduce/n is what np.mean computes, minus the dispatch layer.
    wideband_linear = float(np.add.reduce(linear)) / linear.shape[0]
    wideband_db = 10.0 * math.log10(max(wideband_linear, 1e-12))
    if wideband_db < PREAMBLE_SNR_FLOOR_DB:
        value = 0.0
    else:
        esnr_db = _effective_snr_db_memo(subcarrier_snr_db, "bpsk")
        ber = ber_at_snr_db_lut("bpsk", esnr_db + CODING_GAIN_DB[1 / 2])
        value = (1.0 - ber) ** _PREAMBLE_BITS
    if isinstance(subcarrier_snr_db, np.ndarray):
        _preamble_memo_lru.put(
            id(subcarrier_snr_db), (subcarrier_snr_db, value)
        )
    return value


def mpdu_success_probability(
    subcarrier_snr_db: np.ndarray, mcs: Mcs, length_bytes: int
) -> float:
    """Probability one MPDU of ``length_bytes`` delivers at ``mcs``.

    Includes the preamble detection term, so it is a complete
    per-transmission delivery probability. Within one A-MPDU the
    preamble is shared; :mod:`repro.mac` draws the preamble once per
    aggregate and this per-MPDU term for each subframe, using
    :func:`mpdu_payload_success_probability`.
    """
    return preamble_success_probability(
        subcarrier_snr_db
    ) * mpdu_payload_success_probability(subcarrier_snr_db, mcs, length_bytes)


def mpdu_payload_success_probability(
    subcarrier_snr_db: np.ndarray, mcs: Mcs, length_bytes: int
) -> float:
    """Payload-only success term (preamble handled separately)."""
    ber = coded_ber(subcarrier_snr_db, mcs)
    if ber >= 1.0:
        return 0.0
    bits = 8 * int(length_bytes)
    # log-domain to survive long frames at moderate BER
    return math.exp(bits * math.log1p(-min(ber, 0.999999)))


def expected_throughput_bps(
    subcarrier_snr_db: np.ndarray, mcs: Mcs, length_bytes: int = 1500
) -> float:
    """Delivery-probability-weighted PHY rate; the link 'capacity' metric.

    Used by the capacity-loss analyses (Figures 4 and 21): the best AP
    at an instant is the one maximizing this quantity over the MCS set.
    """
    return mcs.data_rate_bps * mpdu_success_probability(
        subcarrier_snr_db, mcs, length_bytes
    )


def best_rate_bps(subcarrier_snr_db: np.ndarray, length_bytes: int = 1500) -> float:
    """max over the MCS table of :func:`expected_throughput_bps`."""
    from repro.phy.mcs import MCS_TABLE

    preamble = preamble_success_probability(subcarrier_snr_db)
    if preamble == 0.0:
        return 0.0
    return preamble * max(
        mcs.data_rate_bps
        * mpdu_payload_success_probability(subcarrier_snr_db, mcs, length_bytes)
        for mcs in MCS_TABLE
    )
