import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from idemfree import (
    EmptySequence,
    InvalidParameters,
    Seq,
    SequenceTooLong,
    any_order_products,
    cyclic_group,
    cyclic_nil,
    extremal_structure_check,
    generated_subsemigroup,
    group_nil_chain,
    is_commutative,
    is_strongly_free,
    is_weakly_free,
    monogenic,
    natural_order_products,
    ordered_product,
    product_gain,
    product_sets,
    trivial_ideal_extension,
)
from oracles import (
    dihedral,
    left_zero_semigroup,
    naive_any_order_products,
    naive_natural_order_products,
)

POOL = [
    cyclic_group(1),
    cyclic_group(3),
    cyclic_group(4),
    cyclic_nil(3),
    monogenic(2, 2),
    monogenic(3, 2),
    group_nil_chain(2, 2),
    trivial_ideal_extension(2, 2),
    left_zero_semigroup(2),
    left_zero_semigroup(3),
    dihedral(3),
]


def test_ordered_product():
    Z3 = cyclic_group(3)
    assert ordered_product(Z3, [0]) == 0
    assert ordered_product(Z3, [0, 0, 0]) == 2  # g^3 is the identity
    S = group_nil_chain(2, 2)
    assert ordered_product(S, [0, 2]) == 2  # group generator times nil generator
    with pytest.raises(EmptySequence):
        ordered_product(Z3, [])


def test_any_order_products_examples():
    Z3 = cyclic_group(3)
    assert any_order_products(Z3, [0, 0]) == {0, 1}
    assert any_order_products(Z3, [0, 0, 0]) == {0, 1, 2}
    assert any_order_products(monogenic(3, 2), [0, 0, 0]) == {0, 1, 2}
    assert any_order_products(Z3, []) == frozenset()


def test_natural_order_products_examples():
    lz = left_zero_semigroup(2)
    assert natural_order_products(lz, [0, 1]) == {0, 1}  # 0*1 = 0 already present
    assert natural_order_products(lz, []) == frozenset()


def test_freeness_examples():
    Z3 = cyclic_group(3)
    assert is_weakly_free(Z3, [0, 0])
    assert not is_weakly_free(Z3, [0, 0, 0])
    assert is_weakly_free(Z3, [])
    assert is_strongly_free(Z3, [0, 0])
    # a length-1 idempotent subsequence always breaks strong freeness
    assert not is_strongly_free(Z3, [0, 2])


def test_product_gain_examples():
    Z3 = cyclic_group(3)
    assert product_gain(Z3, [], 0) == 1
    assert product_gain(Z3, [0], 0) == 1
    S = group_nil_chain(2, 2)
    # weakly free T = g.x; dropping either term and re-adding it gains products
    for x in (0, 2):
        rest = [t for t in (0, 2) if t != x]
        assert product_gain(S, rest, x) >= 1


def test_dp_cap():
    # the general DP is bounded by its 14 * 14 sub-multiset states, not by length
    assert any_order_products(left_zero_semigroup(2), [0, 1] * 13) == {0, 1}
    # 25 distinct terms need 2^25 states: refused before any work
    lz = left_zero_semigroup(25)
    start = time.perf_counter()
    with pytest.raises(SequenceTooLong, match="33554432"):
        any_order_products(lz, range(25))
    assert time.perf_counter() - start < 1.0
    # the commutative fast path has no bound to hit
    assert any_order_products(cyclic_group(2), [0] * 30) == {0, 1}


def test_slab_refuses_past_dp_bound(monkeypatch):
    from idemfree import seqprod
    from idemfree.seqprod import _MAX_DP_STATES, _fill_slab

    lz = left_zero_semigroup(2)
    reach = [0, 1]
    with pytest.raises(SequenceTooLong, match=f"{_MAX_DP_STATES + 1} sub-multiset states"):
        _fill_slab(lz.table, reach, [()], 1, _MAX_DP_STATES - 1)
    assert reach == [0, 1]  # refused before the slab is allocated
    # the general DP refuses exactly past the bound
    monkeypatch.setattr(seqprod, "_MAX_DP_STATES", 6)
    assert any_order_products(lz, [0, 1, 0]) == {0, 1}  # 3 * 2 states
    with pytest.raises(SequenceTooLong, match="8 sub-multiset states exceed the any-order DP bound of 6"):
        any_order_products(lz, [1, 0, 0, 0])


def test_seq_type():
    t = Seq.of([2, 0, 2])
    assert len(t) == 3
    assert t.multiplicity(2) == 2
    assert t.support() == {0, 2}
    assert Seq.parse("2 0 2\n").terms == (2, 0, 2)
    assert Seq.parse("\n").terms == ()
    assert Seq.parse("# note\n1 1\n").terms == (1, 1)
    assert Seq.of([1, 1]).format() == "1 1\n"
    assert Seq.parse("").terms == ()
    assert Seq.parse("# only a note\n\n").terms == ()
    assert Seq.parse("\n1 2\n").terms == (1, 2)
    assert Seq.parse("# a\n\n  3 0  \n\n# b\n").terms == (3, 0)
    with pytest.raises(InvalidParameters, match="one line of indices, got 2 data lines"):
        Seq.parse("1 2\n3 4\n")
    with pytest.raises(InvalidParameters, match="sequence term 'x' is not an integer"):
        Seq.parse("1 x")
    with pytest.raises(InvalidParameters, match="sequence term '1.5' is not an integer"):
        Seq.parse("# note\n1.5 2\n")
    assert Seq.of([]).format() == "\n"
    # terms are indices: a float or string is rejected, never truncated
    Z3 = cyclic_group(3)
    with pytest.raises(InvalidParameters, match="term 1.7 is not an integer"):
        Seq.of([1.7])
    with pytest.raises(InvalidParameters, match="term '1' is not an integer"):
        Seq.of(["1"])
    with pytest.raises(InvalidParameters, match="term 0.9 is not an integer"):
        is_weakly_free(Z3, [0.9])
    with pytest.raises(InvalidParameters, match="term 2.5 is not an integer"):
        any_order_products(Z3, [2.5])
    with pytest.raises(InvalidParameters, match="term 1.5 is not an integer"):
        product_gain(Z3, [1], 1.5)
    with pytest.raises(InvalidParameters, match="generator 1.5 is not an integer"):
        generated_subsemigroup(Z3, [1.5])
    # a Seq built directly gets the same checks as any other iterable
    with pytest.raises(InvalidParameters, match="term 0.9 is not an integer"):
        is_weakly_free(Z3, Seq((0.9,)))
    with pytest.raises(InvalidParameters, match="term '1' is not an integer"):
        any_order_products(Z3, Seq(("1",)))
    with pytest.raises(InvalidParameters, match="term 0.5 is not an integer"):
        extremal_structure_check(Z3, Seq((0.5, 0.5)))
    with pytest.raises(InvalidParameters, match="term 3 outside semigroup of order 3"):
        ordered_product(Z3, Seq((3,)))


def _random_cases(seed, count, max_len=6):
    rng = random.Random(seed)
    for _ in range(count):
        S = rng.choice(POOL)
        terms = tuple(rng.randrange(S.order) for _ in range(rng.randint(0, max_len)))
        yield S, terms


def test_oracle_equivalence_small():
    for S, terms in _random_cases(411, 300):
        assert any_order_products(S, terms) == naive_any_order_products(S, terms)
        assert natural_order_products(S, terms) == naive_natural_order_products(S, terms)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_any_order_is_permutation_invariant(data):
    S = data.draw(st.sampled_from(POOL))
    terms = data.draw(st.lists(st.integers(0, S.order - 1), max_size=6))
    shuffled = data.draw(st.permutations(terms))
    assert any_order_products(S, terms) == any_order_products(S, shuffled)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_natural_subset_of_any_order(data):
    S = data.draw(st.sampled_from(POOL))
    terms = data.draw(st.lists(st.integers(0, S.order - 1), max_size=6))
    ps = product_sets(S, terms)
    assert ps.natural_order <= ps.any_order
    if terms:
        assert ordered_product(S, terms) in ps.natural_order


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_commutative_orders_agree(data):
    S = data.draw(st.sampled_from([T for T in POOL if is_commutative(T)]))
    terms = data.draw(st.lists(st.integers(0, S.order - 1), max_size=8))
    assert natural_order_products(S, terms) == any_order_products(S, terms)


def test_gain_lower_bound_for_free_sequences():
    # for every weakly free T and every term, re-adding the term grows the set
    for S, terms in _random_cases(77, 400, max_len=5):
        if not terms or not is_weakly_free(S, terms):
            continue
        for x in set(terms):
            rest = list(terms)
            rest.remove(x)
            assert product_gain(S, rest, x) >= 1


def test_strictly_growing_natural_sets_for_strongly_free_words():
    for S, terms in _random_cases(909, 400, max_len=5):
        if not terms or not is_strongly_free(S, terms):
            continue
        sizes = [len(natural_order_products(S, terms[:k])) for k in range(len(terms) + 1)]
        assert all(b > a for a, b in zip(sizes, sizes[1:]))


def test_packed_translates_match_sets(corpus_le3):
    # field x of the packed translates of A is {a*x : a in A}, and growing A
    # in two steps packs the same integer as building it at once
    from idemfree.seqprod import _grow, _packed_rows

    for S in corpus_le3 + POOL:
        n, t = S.order, S.table
        rows = _packed_rows(t, S.elements)
        for mask in range(1, 1 << n):
            packed = _grow(rows, 0, mask)
            low = mask & -mask
            assert _grow(rows, _grow(rows, 0, low), mask ^ low) == packed
            A = [a for a in S.elements if mask >> a & 1]
            for x in S.elements:
                assert {b for b in S.elements if packed >> (x * n + b) & 1} == {t[a][x] for a in A}


def test_packed_stop_field_marks_letters_meeting_stop(corpus_le3):
    # field n of a row holds the columns c with a*c in stop; _grow ORs it
    # like any other field, so A's vector marks the c whose A*c meets stop
    from idemfree.seqprod import _grow, _idem_mask, _packed_rows

    rng = random.Random(5)
    for S in corpus_le3 + POOL:
        n, t = S.order, S.table
        letters = [a for a in S.elements if t[a][a] != a]
        for cols in (list(S.elements), letters):
            for stop in (_idem_mask(S), rng.randrange(1 << n)):
                rows = _packed_rows(t, cols, stop)
                for a in S.elements:
                    assert rows[a] >> (n * n) == sum(1 << c for c in cols if stop >> t[a][c] & 1)
                for mask in range(1, 1 << n):
                    vec = _grow(rows, 0, mask)
                    A = [a for a in S.elements if mask >> a & 1]
                    dead = {c for c in cols if any(stop >> t[a][c] & 1 for a in A)}
                    assert {c for c in S.elements if vec >> (n * n + c) & 1} == dead
                    assert vec >> (n * n + n) == 0
