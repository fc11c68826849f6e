import functools
import random
import sys
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import replace
from types import SimpleNamespace

import pytest

import oracles
from idemfree import (
    InvalidParameters,
    constants,
    cyclic_data,
    cyclic_group,
    enumerate_semigroups,
    extremal_structure_check,
    verify,
)
from idemfree.seqprod import _any_mask


@functools.lru_cache(maxsize=1)
def _order5_commutative():
    return list(enumerate_semigroups(5, commutative_only=True, max_order=5))


def _order5_sample(k: int = 150, seed: int = 5):
    return random.Random(seed).sample(_order5_commutative(), k)


def test_equivalence_case_matches_word_by_word_reference(commutative_le4):
    for S in commutative_le4 + _order5_sample():
        assert verify._equivalence_case(S) == oracles.reference_equivalence_case(S)


def test_equivalence_case_matches_multiset_sweep(corpus_le4):
    # the free and certified sets give the row of the sweep over every
    # multiset, on commutative and noncommutative tables alike
    for S in corpus_le4 + _order5_sample(500, seed=17):
        assert verify._equivalence_case(S) == oracles.multiset_equivalence_case(S)


def test_equivalence_failure_records_match_reference(commutative_le4, monkeypatch):
    # a certificate and product sets that are wrong, but only as functions of
    # the multiset: the certificate flips on every pinned multiset (each
    # count index + period - 2, the only kind it can pass) that holds the
    # first non-idempotent, and the full-length product set loses the last
    def flipped(S, seq):
        alphabet = [a for a in S.elements if S.table[a][a] != a]
        pinned = all(seq.count(x) == cyclic_data(S, x).index + cyclic_data(S, x).period - 2 for x in seq)
        return SimpleNamespace(passed=extremal_structure_check(S, seq).passed != (pinned and alphabet[0] in seq))

    def lossy(real):
        def products(S, terms):
            alphabet = [a for a in S.elements if S.table[a][a] != a]
            got = real(S, terms)
            if len(terms) != len(alphabet):
                return got
            if isinstance(got, int):
                return got & ~(1 << alphabet[-1])
            return got - {alphabet[-1]}

        return products

    monkeypatch.setattr(verify, "_certify", flipped)
    monkeypatch.setattr(oracles, "extremal_structure_check", flipped)
    monkeypatch.setattr(verify, "_any_mask", lossy(_any_mask))
    monkeypatch.setattr(oracles, "_any_mask", lossy(_any_mask))
    monkeypatch.setattr(oracles, "naive_any_order_products", lossy(oracles.naive_any_order_products))
    totals = {"equivalenceFailures": 0, "lambdaFailures": 0, "claimFailures": 0}
    for S in commutative_le4:
        if all(S.table[a][a] == a for a in S.elements):
            continue
        got = verify._equivalence_case(S)
        assert got == oracles.reference_equivalence_case(S)
        assert got == oracles.multiset_equivalence_case(S)
        for key in totals:
            totals[key] += got[key]
    assert all(totals.values()), totals


def test_extremal_spec_bounds_are_integers():
    with pytest.raises(InvalidParameters, match="max_terms 2.5 is not an integer"):
        verify.enumerate_extremal_specs(max_terms=2.5)
    with pytest.raises(InvalidParameters, match="max_components 1.5 is not an integer"):
        verify.enumerate_extremal_specs(max_components=1.5)
    with pytest.raises(InvalidParameters, match="max_terms 2.5 is not an integer"):
        verify.check_extremal_families(max_terms=2.5)
    # an empty family would pass vacuously, with 0 instances
    with pytest.raises(InvalidParameters, match="^max_components must be at least 1, got 0$"):
        verify.check_extremal_families(max_components=0)
    with pytest.raises(InvalidParameters, match="^max_components must be at least 1, got -2$"):
        verify.check_extremal_families(max_components=-2)
    with pytest.raises(InvalidParameters, match="^max_terms must be at least 0, got -1$"):
        verify.check_extremal_families(max_terms=-1)


def test_sharing_scope_lives_for_one_check(corpus_le3):
    seen = []

    def watching_map(fn, items):
        for item in items:
            seen.append(constants._shared)
            yield fn(item)

    for check in (verify.check_ghw_bound, verify.check_strong_weak):
        seen.clear()
        assert check(corpus_le3, watching_map)["failed"] == 0
        # one scope for the whole lazy map, holding the reports searched
        assert seen and all(memo is seen[0] for memo in seen) and seen[0]
        assert constants._shared is None
    seen.clear()
    verify.check_extremal_families(watching_map, max_components=1, max_terms=3)
    assert seen and all(memo is seen[0] for memo in seen)
    assert constants._shared is None

    def failing_map(fn, items):
        yield fn(items[0])
        raise RuntimeError("stop")

    with pytest.raises(RuntimeError, match="stop"):
        verify.check_ghw_bound(corpus_le3, failing_map)
    assert constants._shared is None


def test_nested_sharing_scope_reuses_the_outer_one():
    with constants._sharing():
        outer = constants._shared
        constants.erdos_burgess(cyclic_group(4))
        with constants._sharing():
            assert constants._shared is outer
        assert constants._shared is outer and len(outer) == 1
    assert constants._shared is None


def _scope_open(_item) -> bool:
    return constants._shared is not None


def test_pool_map_keeps_rows_in_order_and_opens_one_scope_per_batch():
    # 21 items over 2 workers make batches of 2 and a last batch of 1
    with ProcessPoolExecutor(max_workers=2) as executor:
        pool_map = verify._PoolMap(executor, 2)
        for items in ([], [5], list(range(-10, 11))):
            assert pool_map(abs, items) == list(map(abs, items))
        assert pool_map(_scope_open, range(21)) == [True] * 21
    # a worker forked while its parent has a scope open starts outside it
    with constants._sharing():
        with ProcessPoolExecutor(max_workers=1) as executor:
            assert executor.submit(_scope_open, 0).result(timeout=60) is False


def test_sharing_scope_across_threads(corpus_le3):
    # 8 threads on 2 cores, switching every microsecond, share one scope
    # while they search each table four times: every report they look up
    # or store must be the report searched outside a scope
    def reports(S):
        return constants.erdos_burgess(S), constants.strong_erdos_burgess(S)

    serial = list(map(reports, corpus_le3))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with constants._sharing(), ThreadPoolExecutor(max_workers=8) as pool:
            threaded = list(pool.map(reports, corpus_le3 * 4, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial * 4


def test_ghw_bound_check_reports_a_search_past_the_bound(monkeypatch):
    # a strong search that returned one more than |S \ E(S)| + 1 must become
    # a failure record, not an abort, whether the report or the search's own
    # walk is past the bound
    real = verify.strong_erdos_burgess
    S = cyclic_group(3)
    record = [{"table": [v for row in S.table for v in row], "si": 4, "bound": 3}]

    def past_bound(T):
        return replace(real(T), value=verify.ghw_bound(T) + 1)

    monkeypatch.setattr(verify, "strong_erdos_burgess", past_bound)
    got = verify.check_ghw_bound([S])
    assert (got["instances"], got["passed"], got["failed"], got["failures"]) == (1, 0, 1, record)
    monkeypatch.undo()
    real_walk = constants._memo_walk

    def padded(*args):
        length, witness, nodes = real_walk(*args)
        return length + 1, witness + witness[:1], nodes

    monkeypatch.setattr(constants, "_memo_walk", padded)
    assert verify.check_ghw_bound([S])["failures"] == record


def test_only_the_value_checks_use_the_bounded_search(corpus_le3, monkeypatch):
    # ghw-bound and strong-vs-weak run the exhaustive searches, which must
    # not rest on the lemma behind the bound
    def refuse(S):
        raise AssertionError("bounded search called")

    monkeypatch.setattr(constants, "_weak_value", refuse)
    monkeypatch.setattr(verify, "_weak_value", refuse)
    assert verify.check_ghw_bound(corpus_le3)["failed"] == 0
    assert verify.check_strong_weak(corpus_le3)["failed"] == 0
    with pytest.raises(AssertionError, match="bounded search called"):
        verify.check_extremal_families(max_components=1, max_terms=3)


def test_bounded_result_never_serves_a_report():
    # in one scope, a stored bounded value must not stand in for the
    # report, whose node count is the plain tree's: 5 + 3 on C3
    c3 = cyclic_group(3)
    with constants._sharing():
        assert constants._weak_value(c3) == 3
        assert constants.erdos_burgess(c3).nodes_explored == 8
        assert constants._weak_value(c3) == 3
        assert len(constants._shared) == 2


def test_corpus_order_past_enum_cap_names_enum_cap_before_any_pool(monkeypatch):
    # the caller raised max_order already; the cap to raise is enum_cap, and
    # the refusal comes before a pool starts or a table is enumerated
    from idemfree.construct import OrderTooLarge

    def refuse(*args, **kwargs):
        raise AssertionError("started before the order was checked")

    monkeypatch.setattr(verify, "_fan_out", refuse)
    monkeypatch.setattr(verify, "enumerate_semigroups", refuse)
    with pytest.raises(OrderTooLarge, match=r"^order 5 exceeds the configured cap 4; raise enum_cap explicitly$") as exc:
        verify.run_verification(max_order=5, enum_cap=4, checks=["ghw-bound"], workers=2)
    assert (exc.value.order, exc.value.cap) == (5, 4)
    # past the hard cap no cap helps, so none is named
    with pytest.raises(OrderTooLarge, match=r"^enumeration is capped at order 5$") as exc:
        verify.run_verification(max_order=6, enum_cap=6, checks=["nil-product-lemma"])
    assert exc.value.cap is None


def test_checks_without_a_corpus_ignore_enum_cap():
    log = verify.run_verification(max_order=5, enum_cap=1, checks=["example-formulas"])
    assert log["corpus"]["semigroups"] == 0 and log["summary"]["allPassed"]
