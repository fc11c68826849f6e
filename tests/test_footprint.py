"""The per-table footprint of a corpus: rows shared within a stream, slotted
instances, and the idempotents cached as one bit mask."""

import gc
import pickle
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import pytest

from idemfree import (
    FiniteSemigroup,
    chain_glue,
    cyclic_data,
    cyclic_group,
    cyclic_nil,
    enumerate_semigroups,
    ghw_bound,
    idempotents,
    is_commutative,
    is_nilsemigroup,
    monogenic,
    validate,
)
from idemfree.seqprod import _idem_mask
from idemfree.verify import build_corpus, check_extremal_equivalence
from conftest import SLOW
from oracles import naive_is_nilsemigroup


def _row_ids(tables) -> set[int]:
    return {id(row) for S in tables for row in S.table}


def test_stream_shares_one_object_per_distinct_row():
    for n, commutative_only in ((4, True), (3, False)):
        tables = list(enumerate_semigroups(n, commutative_only=commutative_only))
        distinct = {row for S in tables for row in S.table}
        assert len(_row_ids(tables)) <= len(distinct)
    # the trusted wrap keeps row tuples as they are
    rows = ((0, 1), (1, 0))
    S = FiniteSemigroup._trusted(rows)
    assert all(mine is given for mine, given in zip(S.table, rows))


def test_two_live_streams_share_no_row():
    first = list(enumerate_semigroups(4, commutative_only=True))
    second = list(enumerate_semigroups(4, commutative_only=True))
    assert [S.table for S in first] == [S.table for S in second]
    assert not _row_ids(first) & _row_ids(second)
    assert not _row_ids(first) & _row_ids(enumerate_semigroups(4))


def test_tables_have_slots_and_keep_no_cyclic_data():
    assert FiniteSemigroup.__slots__ == ("order", "table", "_idempotents", "_commutative")
    built = [
        next(enumerate_semigroups(3, commutative_only=True)),
        validate(2, [[0, 1], [1, 0]]),
        monogenic(3, 2),
        chain_glue([cyclic_group(2), cyclic_nil(2)]),
    ]
    for S in built:
        assert not hasattr(S, "__dict__")
        with pytest.raises(AttributeError):
            S.label = "x"
        # cyclic data is walked afresh on each call and left on no table
        before = {f: getattr(S, f) for f in FiniteSemigroup.__slots__}
        assert cyclic_data(S, 0) == cyclic_data(S, 0)
        assert {f: getattr(S, f) for f in FiniteSemigroup.__slots__} == before


def test_caches_filled_by_threads_at_once_hold_the_serial_data(corpus_le3):
    # 8 threads on 2 cores, switching every microsecond, fill the caches of
    # the same fresh tables: every result read must be the serial one
    want = [([cyclic_data(S, x) for x in S.elements], idempotents(S)) for S in corpus_le3]
    fresh = [validate(S.order, S.table) for S in corpus_le3]

    def fill(_):
        return [([cyclic_data(S, x) for x in S.elements], idempotents(S)) for S in fresh]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(fill, i) for i in range(8)]
            got = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert got == [want] * 8
    assert [fill(0) for _ in range(2)] == [want] * 2


def _diagonal(S) -> list[int]:
    return [e for e in S.elements if S.table[e][e] == e]


def test_idempotent_mask_matches_diagonal_scan(corpus_le4):
    for S in corpus_le4:
        diag = _diagonal(S)
        mask = sum(1 << e for e in diag)
        # the enumerated table reads the mask first, its validated copy the set
        assert _idem_mask(S) == mask and S._idempotents == mask
        assert idempotents(S) == frozenset(diag)
        T = validate(S.order, S.table)
        assert T._idempotents is None
        assert idempotents(T) == frozenset(diag) and _idem_mask(T) == mask
        assert ghw_bound(T) == S.order - len(diag) + 1
        assert is_nilsemigroup(S) == is_nilsemigroup(T) == naive_is_nilsemigroup(S)


def test_pickled_corpus_batch_round_trips_with_its_caches():
    corpus = build_corpus(4)
    batch = corpus[::7]
    for i, S in enumerate(batch):
        ghw_bound(S)
        if i % 2:
            is_commutative(S)
    fields = ("order", "table", "_idempotents", "_commutative")
    for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(batch, protocol=protocol))
        assert back == batch
        for S, T in zip(batch, back):
            assert [getattr(T, f) for f in fields] == [getattr(S, f) for f in fields]


def test_held_commutative_corpus_stays_small():
    # the tables of commutative order <= 5 as one list: 21.1 MB traced
    # when each table held private rows, an instance dict and a cyclic
    # dict, about 5.1 MB with shared rows, slots and no cyclic dict. With
    # the slow flag, extremal-equivalence then runs over the held list,
    # which must grow by under 2 MB: the check leaves no cyclic data behind
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        corpus = build_corpus(5, True, 5)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
        if SLOW:
            c = check_extremal_equivalence(corpus)
            assert (c["instances"], c["failed"]) == (31940, 0), c
            del c
            gc.collect()
            grown = tracemalloc.get_traced_memory()[0] - before - held
            assert grown < 2_000_000, grown
    finally:
        if not tracing:
            tracemalloc.stop()
    assert len(corpus) == 31940
    assert held < 5_300_000, held


def test_extremal_equivalence_leaves_a_held_corpus_as_it_was():
    # the check reads each generator's cyclic data and must store none of
    # it on the tables, which a held corpus would carry to its end
    corpus = build_corpus(4, True)
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        check_extremal_equivalence(corpus)
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert len(corpus) == 1210
    assert grown < 250_000, grown
