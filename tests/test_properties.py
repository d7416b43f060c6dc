"""Property-based tests (hypothesis) on core data structures and
invariants: sequence arithmetic, scoreboard/reorder consistency, the
cyclic queue, deduplication, ESNR, and the event engine."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cyclic_queue import CyclicQueue
from repro.core.dedup import PacketDeduplicator
from repro.core.selection import ApSelector
from repro.mac.blockack import BlockAckScoreboard, ReorderBuffer
from repro.mac.frames import SEQ_MODULO, seq_distance
from repro.net.packet import Packet
from repro.phy.ber import db_to_linear
from repro.phy.esnr import effective_snr_db
from repro.sim import Simulator
from tests.phy_oracle import BER_BY_MODULATION

seqs = st.integers(min_value=0, max_value=SEQ_MODULO - 1)


def pkt(seq):
    return Packet("s", "c", 100, seq=seq)


# ----------------------------------------------------------------------
# sequence arithmetic
# ----------------------------------------------------------------------

@given(seqs, seqs)
def test_seq_distance_antisymmetry(a, b):
    forward = seq_distance(a, b)
    backward = seq_distance(b, a)
    assert 0 <= forward < SEQ_MODULO
    if a != b:
        assert forward + backward == SEQ_MODULO
    else:
        assert forward == backward == 0


@given(seqs, st.integers(min_value=0, max_value=SEQ_MODULO - 1))
def test_seq_distance_shift_invariance(a, shift):
    b = (a + shift) % SEQ_MODULO
    assert seq_distance(a, b) == shift


# ----------------------------------------------------------------------
# scoreboard invariants
# ----------------------------------------------------------------------

@given(
    st.integers(min_value=1, max_value=40),
    st.sets(st.integers(min_value=0, max_value=39)),
)
@settings(max_examples=60)
def test_scoreboard_conserves_mpdus(issued_count, acked_subset):
    """Every issued MPDU ends up exactly once in: delivered, pending
    retransmission, or still outstanding."""
    board = BlockAckScoreboard()
    mpdus = [board.issue(pkt(i)) for i in range(issued_count)]
    board.record_transmit(mpdus)
    acked = {m.seq for m in mpdus if m.seq in acked_subset}
    delivered, dropped = board.process_block_ack(acked)
    assert len(delivered) == len(acked)
    assert not dropped  # first failure never exceeds the retry limit
    assert board.in_flight() == issued_count - len(acked)
    # window start is the oldest unresolved seq (or next_seq if none)
    if board.in_flight():
        assert board.window_start == min(
            set(range(issued_count)) - acked
        )
    else:
        assert board.window_start == board.next_seq


@given(st.lists(st.integers(min_value=0, max_value=63), min_size=1, max_size=64))
@settings(max_examples=60)
def test_scoreboard_external_ack_idempotent(ack_list):
    board = BlockAckScoreboard()
    mpdus = [board.issue(pkt(i)) for i in range(64)]
    board.record_transmit(mpdus)
    first = board.apply_external_ack(set(ack_list))
    second = board.apply_external_ack(set(ack_list))
    assert len(first) == len(set(ack_list))
    assert second == []


# ----------------------------------------------------------------------
# reorder buffer invariants
# ----------------------------------------------------------------------

@given(st.permutations(list(range(30))))
@settings(max_examples=60)
def test_reorder_delivers_in_order_under_any_arrival_order(order):
    buffer = ReorderBuffer()
    released = []
    for seq in order:
        released.extend(p.seq for p in buffer.receive(seq, pkt(seq)))
    assert released == list(range(30))


@given(
    st.lists(
        st.integers(min_value=0, max_value=29), min_size=1, max_size=120
    )
)
@settings(max_examples=60)
def test_reorder_never_delivers_duplicates(arrivals):
    buffer = ReorderBuffer()
    released = []
    for seq in arrivals:
        released.extend(p.seq for p in buffer.receive(seq, pkt(seq)))
    assert len(released) == len(set(released))


# ----------------------------------------------------------------------
# cyclic queue invariants
# ----------------------------------------------------------------------

@given(
    st.lists(
        st.integers(min_value=0, max_value=200), min_size=1, max_size=200,
        unique=True,
    )
)
@settings(max_examples=60)
def test_cyclic_pop_order_is_index_order(indices):
    queue = CyclicQueue(4096)
    for index in indices:
        queue.insert(index, pkt(index))
    popped = []
    while True:
        entry = queue.pop_head()
        if entry is None:
            break
        popped.append(entry[0])
    # Everything inserted at/after the initial head in this lap comes
    # out in strictly increasing index order with no duplicates.
    assert popped == sorted(popped)
    assert len(popped) == len(set(popped))
    assert set(popped) <= set(indices)


@given(st.integers(min_value=0, max_value=4095), st.integers(min_value=0, max_value=400))
@settings(max_examples=60)
def test_cyclic_advance_then_pop_only_ahead(start, count):
    queue = CyclicQueue(4096)
    for offset in range(min(count, 300)):
        queue.insert((start + offset) % 4096, pkt(offset))
    k = (start + min(count, 300) // 2) % 4096
    queue.advance_to(k)
    entry = queue.pop_head()
    if entry is not None:
        assert seq_distance(k, entry[0]) < 2048


# ----------------------------------------------------------------------
# dedup invariants
# ----------------------------------------------------------------------

@given(
    st.lists(
        st.tuples(
            st.sampled_from(["c0", "c1", "c2"]),
            st.integers(min_value=0, max_value=50),
        ),
        max_size=200,
    )
)
@settings(max_examples=60)
def test_dedup_accepts_each_identity_exactly_once(stream):
    dedup = PacketDeduplicator()
    seen = set()
    for src, ip_id in stream:
        packet = Packet(src, "server", 100, ip_id=ip_id)
        accepted = dedup.accept(packet)
        assert accepted == ((src, ip_id) not in seen)
        seen.add((src, ip_id))


# ----------------------------------------------------------------------
# selector invariants
# ----------------------------------------------------------------------

@given(
    st.lists(
        st.tuples(
            st.sampled_from(["ap0", "ap1", "ap2"]),
            st.integers(min_value=0, max_value=9_999),
            st.floats(min_value=-10, max_value=40, allow_nan=False),
        ),
        min_size=1,
        max_size=80,
    )
)
@settings(max_examples=60)
def test_selector_best_is_argmax_of_medians(readings):
    selector = ApSelector(10_000)
    now = 10_000
    for ap, t, esnr in readings:
        selector.record("c", ap, t, esnr)
    best = selector.best_ap("c", now)
    medians = {
        ap: selector.median_esnr("c", ap, now)
        for ap in selector.candidates("c", now)
    }
    if medians:
        assert medians[best] == max(medians.values())
    else:
        assert best is None


# ----------------------------------------------------------------------
# PHY invariants
# ----------------------------------------------------------------------

@given(
    st.lists(
        st.floats(min_value=-10.0, max_value=35.0, allow_nan=False),
        min_size=56,
        max_size=56,
    )
)
@settings(max_examples=60)
def test_esnr_bounded_by_extremes(snrs):
    """Effective SNR lies between the worst subcarrier and the best."""
    arr = np.array(snrs)
    esnr = effective_snr_db(arr)
    assert esnr <= arr.max() + 0.5
    # not absurdly below the minimum either (within the metric's floor)
    assert esnr >= arr.min() - 35.0


@given(st.floats(min_value=-5.0, max_value=30.0, allow_nan=False))
def test_ber_curves_are_probabilities(snr_db):
    snr = db_to_linear(snr_db)
    for ber in BER_BY_MODULATION.values():
        value = float(ber(snr))
        assert 0.0 <= value <= 0.5 + 1e-12


# ----------------------------------------------------------------------
# event engine invariants
# ----------------------------------------------------------------------

@given(st.lists(st.integers(min_value=0, max_value=10_000), max_size=60))
@settings(max_examples=60)
def test_engine_fires_in_nondecreasing_time_order(delays):
    sim = Simulator()
    fired = []
    for delay in delays:
        sim.schedule(delay, lambda d=delay: fired.append(sim.now))
    sim.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)
