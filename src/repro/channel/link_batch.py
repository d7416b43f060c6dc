"""Fused same-timestamp evolution for a set of links (snapshot batching).

When a frame completes, the medium needs the channel snapshot of every
receiver *at the same instant*; when an oracle metric samples the
scenario, it probes every AP↔client link at one timestamp.  The scalar
path walks those links one Python call at a time — per-link AR(1)
steps, per-link 56-point DFTs, per-link ``log10`` — even though the
heavy math is identical in shape across the set.

:class:`LinkBatch` collects the links that share a timestamp and runs
one fused numpy pipeline over the whole stack:

1. per-link AR(1) coefficients (``rho``, ``sqrt(1 - rho²)``) and one
   ``standard_normal(2·taps)`` draw from each link's *private* stream —
   the draws must stay per-link so seeded runs are unchanged, and
   because every stream is private, drawing them back-to-back instead
   of interleaved with the math cannot change any stream's values;
2. one broadcast AR(1) update over the ``(n_links, taps)`` stack;
3. one ``(n_links, 56, taps)`` multiply + ``add.reduce`` DFT
   (:func:`repro.channel.fading.subcarrier_power_from_taps` — the same
   formulation the scalar path uses, see its docstring for why matmul
   is *not* usable here);
4. one ``(n_links, 56)`` ``linear_to_db`` + mean-SNR broadcast add.

Every elementwise kernel is shared with the scalar path, so a fused
evolution is **bit-identical** to sequential per-link
:meth:`~repro.channel.fading.TappedRayleighChannel.evolve_to` calls —
``tests/test_phy_batch.py`` asserts this property directly and the
batched-vs-scalar drive test in ``tests/test_perf_equivalence.py``
asserts it end-to-end.

Rician links (``k > 0``) and links that need no evolution fall back to
the exact scalar code for the state update and join the batch only for
the (state-independent) DFT/power/log stage.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

import numpy as np

from repro.channel.fading import _dft_matrix, subcarrier_power_from_taps
from repro.channel.link import Link
from repro.phy.ber import linear_to_db


class LinkBatch:
    """Plan and execute one fused multi-link snapshot at a timestamp.

    Entries are ``(link, tx_id)`` pairs — ``tx_id`` resolves the
    transmit power (either endpoint of the link may be the sender).
    Each link may appear at most once per batch.
    """

    __slots__ = ("time_us", "_entries")

    def __init__(self, time_us: int):
        self.time_us = time_us
        self._entries: List[Tuple[Link, str]] = []

    def add(self, link: Link, tx_id: str) -> None:
        self._entries.append((link, tx_id))

    def __len__(self) -> int:
        return len(self._entries)

    # ------------------------------------------------------------------
    # evolving snapshot (the medium path)
    # ------------------------------------------------------------------

    def snapshots(self) -> List[np.ndarray]:
        """Evolve every link to ``time_us`` and return the SNR snapshots.

        Side effects match the scalar path exactly: fading state and
        RNG streams advance, and each link's power/snapshot caches are
        seeded, so a subsequent ``link.subcarrier_snr_db(time_us, ...)``
        is a cache hit returning the same array object.
        """
        t = self.time_us
        entries = self._entries
        if len(entries) < 2:  # nothing to fuse — scalar path is cheaper
            return [
                link.subcarrier_snr_db(t, tx_id=tx_id)
                for link, tx_id in entries
            ]

        results: List[Optional[np.ndarray]] = [None] * len(entries)
        # (slot, link, tx_dbm, mean_db, cached_power_or_None)
        pending: List[tuple] = []
        evolve: List[tuple] = []  # Rayleigh links needing an AR(1) step
        for slot, (link, tx_id) in enumerate(entries):
            tx_dbm = link._tx_power_dbm(True, tx_id)
            cached = link._snr_cache
            if cached is not None and link._snr_key == (t, tx_dbm):
                results[slot] = cached
                continue
            mean_db = link.mean_snr_db(t, tx_id=tx_id)
            if link._cache_time == t:
                pending.append((slot, link, tx_dbm, mean_db, link._cache_power))
                continue
            ch = link.fading
            if ch._last_time_us is None:
                # First sample: the stationary draw is the state.
                ch._last_time_us = t
            elif t > ch._last_time_us:
                if ch._k_linear > 0.0:
                    # Rician: LOS bookkeeping stays on the scalar path.
                    ch.evolve_to(t, link._coherence_us())
                else:
                    evolve.append((link, ch))
            pending.append((slot, link, tx_dbm, mean_db, None))

        if evolve:
            self._fused_evolve(t, evolve)
        if not pending:
            return results  # type: ignore[return-value]

        # One DFT/power/log pipeline per tap count (all 6 in practice).
        by_taps: dict = {}
        for item in pending:
            ch = item[1].fading
            by_taps.setdefault(ch.num_taps, []).append(item)
        for num_taps, group in by_taps.items():
            dft = _dft_matrix(num_taps)
            powers: List[np.ndarray] = []
            fresh = [item for item in group if item[4] is None]
            if fresh:
                taps_stack = np.empty(
                    (len(fresh), 1, num_taps), dtype=complex
                )
                for j, item in enumerate(fresh):
                    taps_stack[j, 0] = item[1].fading._taps
                power_matrix = subcarrier_power_from_taps(dft, taps_stack)
            fresh_i = 0
            for item in group:
                if item[4] is None:
                    powers.append(power_matrix[fresh_i])
                    fresh_i += 1
                else:
                    powers.append(item[4])
            stacked = (
                power_matrix if fresh_i == len(group) else np.stack(powers)
            )
            fading_db = linear_to_db(stacked)
            mean_col = np.array(
                [item[3] for item in group], dtype=float
            )[:, None]
            snap_matrix = mean_col + fading_db
            for i, (slot, link, tx_dbm, _mean, cached_power) in enumerate(
                group
            ):
                power = powers[i]
                snapshot = snap_matrix[i]
                link._seed_snapshot(t, tx_dbm, power, snapshot)
                results[slot] = snapshot
        return results  # type: ignore[return-value]

    @staticmethod
    def _fused_evolve(t: int, evolve: List[tuple]) -> None:
        """One broadcast AR(1) step over all Rayleigh links needing one.

        Mirrors :meth:`TappedRayleighChannel.evolve_to` operation for
        operation; per-link draws come from each link's private stream.
        """
        by_taps: dict = {}
        for link, ch in evolve:
            by_taps.setdefault(ch.num_taps, []).append((link, ch))
        for num_taps, group in by_taps.items():
            n = num_taps
            count = len(group)
            # Preallocated buffers filled row by row — np.stack costs
            # more than the whole AR(1) update at these batch sizes.
            rhos = np.empty((count, 1))
            stds = np.empty((count, 1))
            draws = np.empty((count, 2 * n))
            scales = np.empty((count, n))
            taps_stack = np.empty((count, n), dtype=complex)
            for i, (link, ch) in enumerate(group):
                dt = t - ch._last_time_us
                rho = math.exp(-dt / link._coherence_us())
                rhos[i, 0] = rho
                stds[i, 0] = math.sqrt(1.0 - rho * rho)
                # Same stream, same bits as ``standard_normal(2n)``.
                ch._rng.standard_normal(2 * n, out=draws[i])
                scales[i] = ch._scatter_scale
                taps_stack[i] = ch._taps
            innovation = (draws[:, :n] + 1j * draws[:, n:]) * scales
            new_taps = rhos * taps_stack + stds * innovation
            for i, (_link, ch) in enumerate(group):
                # Row views: the scalar path never mutates taps in
                # place (every update rebinds), so sharing the backing
                # matrix is safe.
                ch._taps = new_taps[i]
                ch._last_time_us = t

    # ------------------------------------------------------------------
    # non-evolving probe (oracle metrics / figure drivers)
    # ------------------------------------------------------------------

    def probe_snapshots(self) -> List[np.ndarray]:
        """Side-effect-free batch counterpart of
        :meth:`Link.probe_subcarrier_snr_db`.

        Fading state, RNG streams and link caches are all left exactly
        as found; the returned snapshots are bit-identical to per-link
        scalar probes at the same instant.
        """
        t = self.time_us
        entries = self._entries
        if len(entries) < 2:
            return [
                link.probe_subcarrier_snr_db(t, tx_id=tx_id)
                for link, tx_id in entries
            ]
        saved = []  # (ch, taps_ref, last_time, rng_state) for evolved
        try:
            pending: List[tuple] = []
            evolve: List[tuple] = []
            for slot, (link, tx_id) in enumerate(entries):
                tx_dbm = link._tx_power_dbm(True, tx_id)
                mean_db = link.mean_snr_db(t, tx_id=tx_id)
                if link._cache_time == t:
                    pending.append(
                        (slot, link, tx_dbm, mean_db, link._cache_power)
                    )
                    continue
                ch = link.fading
                needs_step = (
                    ch._last_time_us is not None and t > ch._last_time_us
                )
                if needs_step:
                    # Taps are never mutated in place (updates rebind),
                    # so a reference — not a copy — restores exactly.
                    saved.append(
                        (
                            ch,
                            ch._taps,
                            ch._last_time_us,
                            ch._rng.bit_generator.state,
                        )
                    )
                    if ch._k_linear > 0.0:
                        ch.evolve_to(t, link._coherence_us())
                    else:
                        evolve.append((link, ch))
                elif ch._last_time_us is None:
                    saved.append((ch, ch._taps, None, None))
                    ch._last_time_us = t
                pending.append((slot, link, tx_dbm, mean_db, None))
            if evolve:
                self._fused_evolve(t, evolve)

            results: List[Optional[np.ndarray]] = [None] * len(entries)
            by_taps: dict = {}
            for item in pending:
                ch = item[1].fading
                by_taps.setdefault(ch.num_taps, []).append(item)
            for num_taps, group in by_taps.items():
                dft = _dft_matrix(num_taps)
                powers: List[np.ndarray] = []
                fresh = [item for item in group if item[4] is None]
                if fresh:
                    taps_stack = np.empty(
                        (len(fresh), 1, num_taps), dtype=complex
                    )
                    for j, item in enumerate(fresh):
                        taps_stack[j, 0] = item[1].fading._taps
                    power_matrix = subcarrier_power_from_taps(dft, taps_stack)
                fresh_i = 0
                for item in group:
                    if item[4] is None:
                        powers.append(power_matrix[fresh_i])
                        fresh_i += 1
                    else:
                        powers.append(item[4])
                stacked = (
                    power_matrix
                    if fresh_i == len(group)
                    else np.stack(powers)
                )
                fading_db = linear_to_db(stacked)
                mean_col = np.array(
                    [item[3] for item in group], dtype=float
                )[:, None]
                snap_matrix = mean_col + fading_db
                for i, item in enumerate(group):
                    results[item[0]] = snap_matrix[i]
            return results  # type: ignore[return-value]
        finally:
            for ch, taps, last_time, rng_state in saved:
                ch._taps = taps
                ch._last_time_us = last_time
                if rng_state is not None:
                    ch._rng.bit_generator.state = rng_state


def warm_snapshots(
    time_us: int, entries: List[Tuple[Link, str]]
) -> List[np.ndarray]:
    """Convenience wrapper: fused evolve + cache-seed for ``entries``."""
    batch = LinkBatch(time_us)
    for link, tx_id in entries:
        batch.add(link, tx_id)
    return batch.snapshots()


def probe_snapshots(
    time_us: int, entries: List[Tuple[Link, str]]
) -> List[np.ndarray]:
    """Convenience wrapper: side-effect-free fused probe for ``entries``."""
    batch = LinkBatch(time_us)
    for link, tx_id in entries:
        batch.add(link, tx_id)
    return batch.probe_snapshots()
