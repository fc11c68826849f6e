import dataclasses
import hashlib
import itertools
import os
import pickle

import pytest

from idemfree import (
    ExtremalSpec,
    GroupByNil,
    InvalidParameters,
    Monogenic,
    OrderTooLarge,
    adjoin_identity,
    canonical_form,
    chain_glue,
    cyclic_data,
    cyclic_group,
    cyclic_nil,
    enumerate_semigroups,
    extremal_pair,
    ghw_bound,
    group_nil_chain,
    idempotents,
    identity_element,
    is_commutative,
    is_weakly_free,
    monogenic,
    partial_hom,
    trivial_ideal_extension,
    unique_cycle_idempotent,
    validate,
    zero_element,
)
from oracles import chain_glue_cells, naive_associative_tables

from idemfree.verify import _spec_to_json, build_corpus, enumerate_extremal_specs


def test_cyclic_group_and_nil():
    assert cyclic_group(1).order == 1
    assert cyclic_group(3).table == monogenic(1, 3).table
    assert cyclic_data(cyclic_group(5), 0).period == 5
    assert cyclic_nil(1).order == 1
    nil = cyclic_nil(3)
    assert zero_element(nil) == 2
    with pytest.raises(InvalidParameters):
        cyclic_group(0)
    with pytest.raises(InvalidParameters):
        cyclic_nil(0)
    with pytest.raises(InvalidParameters, match="group order 3.7 is not an integer"):
        cyclic_group(3.7)
    # a bool passes operator.index as 0 or 1, but is no size
    with pytest.raises(InvalidParameters, match="group order True is not an integer"):
        cyclic_group(True)
    with pytest.raises(InvalidParameters, match="nil index False is not an integer"):
        group_nil_chain(2, False)
    with pytest.raises(InvalidParameters, match="nil index 2.5 is not an integer"):
        cyclic_nil(2.5)
    with pytest.raises(InvalidParameters, match="group order 2.5 is not an integer"):
        group_nil_chain(2.5, 2)
    with pytest.raises(InvalidParameters, match="group order '3' is not an integer"):
        group_nil_chain("3", 2)
    with pytest.raises(InvalidParameters, match="nil index None is not an integer"):
        group_nil_chain(3, None)


def test_trivial_ideal_extension_small():
    S = trivial_ideal_extension(2, 2)
    assert S.order == 3
    e = unique_cycle_idempotent(S, 0)
    assert idempotents(S) == {e}
    # x1^2 = e and nil elements act as identities on the group
    assert S.mul(0, 0) == e
    assert all(partial_hom(S, S.elements, a) == e for a in (0,))
    big = trivial_ideal_extension(4, 3)
    e = unique_cycle_idempotent(big, 0)
    assert all(partial_hom(big, big.elements, a) == e for a in range(3))
    with pytest.raises(InvalidParameters):
        trivial_ideal_extension(1, 2)
    with pytest.raises(InvalidParameters):
        trivial_ideal_extension(2, 1)
    with pytest.raises(InvalidParameters, match="nil index 2.5 is not an integer"):
        trivial_ideal_extension(2.5, 2)
    with pytest.raises(InvalidParameters, match="group order 3.5 is not an integer"):
        trivial_ideal_extension(2, 3.5)


def test_chain_glue_matches_group_nil_chain():
    S = group_nil_chain(2, 2)
    assert S.order == 4
    assert len(idempotents(S)) == 2
    # cross products fall to the nil side
    assert S.mul(0, 2) == 2 and S.mul(2, 0) == 2
    single = chain_glue([cyclic_group(3)])
    assert single.table == cyclic_group(3).table


def test_chain_glue_preserves_commutativity_and_idempotent_count():
    parts = [cyclic_group(2), cyclic_nil(2), trivial_ideal_extension(2, 2)]
    for k in (1, 2, 3):
        for combo in itertools.permutations(parts, k):
            glued = chain_glue(list(combo))
            assert is_commutative(glued)
            assert len(idempotents(glued)) == sum(len(idempotents(c)) for c in combo)


def test_chain_glue_matches_cell_by_cell_definition():
    # the row slices of every family chain of the (3, 8) and (3, 10)
    # catalogues against the ordinal sum's definition, cell by cell
    chains = {spec.chain for terms in (8, 10) for spec in enumerate_extremal_specs(3, terms)}
    for chain in chains:
        comps = [
            monogenic(p.index, p.period) if isinstance(p, Monogenic) else trivial_ideal_extension(p.nil_index, p.group_order)
            for p in chain
        ]
        assert chain_glue(comps).table == chain_glue_cells(comps), chain


def test_chain_glue_rejects_bad_input():
    with pytest.raises(InvalidParameters):
        chain_glue([])
    lz = validate(2, [[0, 0], [1, 1]])
    with pytest.raises(InvalidParameters):
        chain_glue([lz])
    with pytest.raises(InvalidParameters):
        chain_glue(iter([]))


def test_chain_glue_reads_an_iterator_once():
    # the commutativity check must not use up the parts before the table is
    # built from them
    S = chain_glue(iter([cyclic_group(2), cyclic_group(3)]))
    assert S == chain_glue([cyclic_group(2), cyclic_group(3)])
    assert S.order == 5


def test_adjoin_identity():
    S = adjoin_identity(cyclic_nil(2))
    assert identity_element(S) == 2
    assert len(idempotents(S)) == 2


def test_extremal_spec_validation():
    with pytest.raises(InvalidParameters):
        Monogenic(2, 2)  # 2 is not 1 mod 2
    with pytest.raises(InvalidParameters):
        GroupByNil(1, 2)
    with pytest.raises(InvalidParameters):
        ExtremalSpec(())
    assert Monogenic(1, 1).term_count == 0
    assert Monogenic(3, 2).term_count == 3
    assert GroupByNil(2, 3).term_count == 3
    # parameters are integers: a float or string is rejected, never truncated
    with pytest.raises(InvalidParameters, match="index 3.0 is not an integer"):
        Monogenic(3.0, 2)
    with pytest.raises(InvalidParameters, match="period '2' is not an integer"):
        Monogenic(3, "2")
    with pytest.raises(InvalidParameters, match="nil index 2.5 is not an integer"):
        GroupByNil(2.5, 2)
    with pytest.raises(InvalidParameters, match="group order 2.0 is not an integer"):
        GroupByNil(2, 2.0)


def test_extremal_pair_examples():
    S, T = extremal_pair(ExtremalSpec((Monogenic(1, 4),)))
    assert S.table == cyclic_group(4).table
    assert T.terms == (0, 0, 0)
    S, T = extremal_pair(ExtremalSpec((Monogenic(3, 2),)))
    assert T.terms == (0, 0, 0)
    assert is_weakly_free(S, T)
    assert len(T) == S.order - len(idempotents(S))


def test_extremal_pair_lengths_and_bound():
    specs = [
        ExtremalSpec((Monogenic(5, 2), GroupByNil(2, 4))),
        ExtremalSpec((GroupByNil(4, 4),), adjoin_identity=True),
        ExtremalSpec((Monogenic(1, 1), Monogenic(1, 3))),
    ]
    for spec in specs:
        S, T = extremal_pair(spec)
        assert len(T) == S.order - len(idempotents(S))
        assert is_weakly_free(S, T)
        assert ghw_bound(S) == len(T) + 1


def _fresh_table(part):
    if isinstance(part, Monogenic):
        return monogenic(part.index, part.period)
    return trivial_ideal_extension(part.nil_index, part.group_order)


def test_extremal_pair_from_shared_parts_matches_fresh_constructors():
    specs = enumerate_extremal_specs(3, 10)
    assert len(specs) == 16142
    # the chains share the catalog's part objects: one object per part
    parts = {id(part): part for spec in specs for part in spec.chain}
    assert len(parts) == len(set(parts.values())) == 38
    for spec in specs:
        S, T = extremal_pair(spec)
        # new part objects, so every part table comes from its constructor
        fresh = ExtremalSpec(tuple(dataclasses.replace(part) for part in spec.chain), spec.adjoin_identity)
        S_fresh, T_fresh = extremal_pair(fresh)
        assert (S.table, T) == (S_fresh.table, T_fresh), spec
    for part in parts.values():
        assert part._table.table == _fresh_table(part).table


def test_cached_part_table_is_not_part_of_the_spec():
    for part in (Monogenic(3, 2), GroupByNil(3, 2)):
        spec = ExtremalSpec((part,), adjoin_identity=True)
        before = (hash(part), repr(part), hash(spec), repr(spec), _spec_to_json(spec))
        assert "_table" not in vars(part)
        assert part._table is part._table
        assert "_table" in vars(part)
        assert (hash(part), repr(part), hash(spec), repr(spec), _spec_to_json(spec)) == before
        assert part == dataclasses.replace(part) and spec == ExtremalSpec((dataclasses.replace(part),), True)


def test_spec_pickle_round_trip_with_and_without_cached_tables():
    part = GroupByNil(2, 3)
    spec = ExtremalSpec((Monogenic(3, 2), part, part))
    want = extremal_pair(ExtremalSpec((Monogenic(3, 2), GroupByNil(2, 3), GroupByNil(2, 3))))
    for cached in (False, True):
        if cached:
            extremal_pair(spec)
        back = pickle.loads(pickle.dumps(spec))
        assert back == spec and hash(back) == hash(spec)
        assert ("_table" in vars(back.chain[1])) == cached
        # one object in, one object out: the repeated part stays shared
        assert back.chain[1] is back.chain[2]
        S, T = extremal_pair(back)
        assert (S.table, T) == (want[0].table, want[1])


def _flat(table):
    return tuple(v for row in table for v in row)


def _symmetric(table):
    n = len(table)
    return all(table[a][b] == table[b][a] for a in range(n) for b in range(a))


def test_enumeration_matches_naive_filter():
    for n in (1, 2, 3):
        got = [S.table for S in enumerate_semigroups(n)]
        want = naive_associative_tables(n)
        assert got == want
        comm = [S.table for S in enumerate_semigroups(n, commutative_only=True)]
        assert comm == [t for t in want if _symmetric(t)]


def test_commutative_stream_is_the_symmetric_labelled_stream():
    for n in (1, 2, 3, 4):
        comm = [S.table for S in enumerate_semigroups(n, commutative_only=True)]
        want = [S.table for S in enumerate_semigroups(n) if _symmetric(S.table)]
        assert comm == want


def test_commutative_order_5_count():
    # OEIS A023815: commutative labelled semigroups of order 5
    assert sum(1 for _ in enumerate_semigroups(5, commutative_only=True, max_order=5)) == 30730


def _stream_digest(stream) -> tuple[int, str]:
    h = hashlib.sha256()
    count = 0
    for S in stream:
        h.update(bytes(_flat(S.table)))
        count += 1
    return count, h.hexdigest()


def test_commutative_order_5_stream_is_pinned():
    # the commutative walk checks each mirror pair of cells once; the
    # symmetric labelled comparison above stops at order 4, so the order-5
    # stream is pinned by a sha256 over its flattened tables in stream order,
    # taken from the walk that checked both cells of every pair, and so is a
    # resume from a mid-stream prefix ending at the lower cell (2, 1)
    stream = enumerate_semigroups(5, commutative_only=True, max_order=5)
    assert _stream_digest(stream) == (30730, "dec1909f22b595c4d77b3665f95cb205f8d9fe0ed8038b9cd05c07f937fd038c")
    prefix = [0, 4, 0, 0, 4, 4, 0, 1, 1, 0, 0, 1]
    stream = enumerate_semigroups(5, commutative_only=True, max_order=5, resume_from=prefix)
    assert _stream_digest(stream) == (15735, "412299f62e2f2d36e6d0fc652221aa392e356dcf2ca9aa21fbd51bf3c0755c49")


def test_labelled_order_4_stream_is_pinned():
    # values forced by the set triples through a cell are the only ones
    # tried there; the labelled stream is compared table by table with the
    # naive filter only up to order 3, so order 4 is pinned by a sha256
    # taken from the walk that tried every value, and so is a resume
    assert _stream_digest(enumerate_semigroups(4)) == (
        3492, "d9c1e89ffd5eda52106e05031849e10dd19e0d50e181db6b0ad0986bb98e4f64"
    )
    stream = enumerate_semigroups(4, resume_from=[0, 1, 2, 3, 1, 1, 1])
    assert _stream_digest(stream) == (
        1827, "87fca49cb342d4254e0565138c745aad4a81563ecb0107219896de491d602da2"
    )


def test_commutative_resume():
    n = 4
    full = [S.table for S in enumerate_semigroups(n, commutative_only=True)]

    def resumed(prefix):
        got = [S.table for S in enumerate_semigroups(n, commutative_only=True, resume_from=prefix)]
        bar = tuple(prefix) + (0,) * (n * n - len(prefix))
        assert got == [t for t in full if _flat(t) >= bar]
        return got

    assert resumed(list(_flat(full[300]))) == full[300:]
    assert resumed(list(_flat(full[300]))[:6])
    # the prefix ends at the lower cell (1, 0), above the value its upper
    # mirror (0, 1) already forces, so every table through that mirror is
    # pruned at (1, 0)
    t = next(t for t in full if t[0][1] < n - 1)
    prefix = list(_flat(t)[:4]) + [t[0][1] + 1]
    got = resumed(prefix)
    assert got and all(_flat(g)[:4] > tuple(prefix[:4]) for g in got)


def test_enumeration_known_counts():
    assert sum(1 for _ in enumerate_semigroups(2)) == 8
    assert sum(1 for _ in enumerate_semigroups(3)) == 113
    assert sum(1 for _ in enumerate_semigroups(4)) == 3492
    assert sum(1 for _ in enumerate_semigroups(3, dedup_iso=True)) == 24
    assert sum(1 for _ in enumerate_semigroups(4, dedup_iso=True)) == 188


def test_enumeration_is_lexicographic_and_valid():
    flats = [tuple(v for row in S.table for v in row) for S in enumerate_semigroups(3)]
    assert flats == sorted(flats)


def test_enumeration_dedup_emits_canonical_representatives():
    for S in enumerate_semigroups(3, dedup_iso=True):
        assert canonical_form(S) == tuple(v for row in S.table for v in row)
    canon = {canonical_form(S) for S in enumerate_semigroups(3)}
    assert len(canon) == 24


def test_enumeration_resume():
    full = [S.table for S in enumerate_semigroups(3)]
    mid = full[57]
    prefix = list(_flat(mid))
    resumed = [S.table for S in enumerate_semigroups(3, resume_from=prefix)]
    assert resumed == full[57:]
    # a partial prefix is padded with zeros, inclusive
    partial = prefix[:4]
    resumed = [S.table for S in enumerate_semigroups(3, resume_from=partial)]
    bar = tuple(partial + [0] * 5)
    assert resumed == [t for t in full if _flat(t) >= bar]
    # a prefix one above a table's own cell; where that cell's value is
    # forced by the set triples, the walk must skip the cell's subtree, not
    # restart below the prefix
    for commutative_only in (False, True):
        flats = [_flat(S.table) for S in enumerate_semigroups(3, commutative_only=commutative_only)]
        for t in flats[::4]:
            for d in range(9):
                if t[d] < 2:
                    bumped = list(t[:d]) + [t[d] + 1]
                    bar = tuple(bumped) + (0,) * (8 - d)
                    stream = enumerate_semigroups(3, commutative_only=commutative_only, resume_from=bumped)
                    assert [_flat(S.table) for S in stream] == [f for f in flats if f >= bar]


def test_enumeration_order_caps():
    with pytest.raises(OrderTooLarge):
        list(enumerate_semigroups(5))
    with pytest.raises(OrderTooLarge):
        list(enumerate_semigroups(6, max_order=6))
    with pytest.raises(InvalidParameters):
        list(enumerate_semigroups(0))
    with pytest.raises(InvalidParameters, match="order 2.7 is not an integer"):
        list(enumerate_semigroups(2.7))
    with pytest.raises(InvalidParameters, match="resume cell 0.9 is not an integer"):
        list(enumerate_semigroups(3, resume_from=[0.9, 1.2]))
    with pytest.raises(InvalidParameters, match="max_order 2.5 is not an integer"):
        list(enumerate_semigroups(2, max_order=2.5))
    # a truthy non-bool flag ran the commutative stream or deduplicated
    with pytest.raises(InvalidParameters, match="commutative_only must be True or False, got 'no'"):
        list(enumerate_semigroups(3, commutative_only="no"))
    with pytest.raises(InvalidParameters, match="dedup_iso must be True or False, got 'no'"):
        list(enumerate_semigroups(3, dedup_iso="no"))
    with pytest.raises(InvalidParameters, match="dedup_iso must be True or False, got 0"):
        list(enumerate_semigroups(3, dedup_iso=0))
    with pytest.raises(InvalidParameters, match="commutative_only must be True or False, got 'no'"):
        build_corpus(3, commutative_only="no")
    # order 5 works when requested explicitly; just probe the stream start
    gen = enumerate_semigroups(5, max_order=5)
    first = next(gen)
    assert first.order == 5


@pytest.mark.parametrize(
    "kwargs, error, message",
    [
        ({"order": 5}, OrderTooLarge, "order 5 exceeds the configured cap 4"),
        ({"order": 6, "max_order": 6}, OrderTooLarge, "enumeration is capped at order 5"),
        ({"order": 0}, InvalidParameters, "order must be >= 1"),
        ({"order": 2.7}, InvalidParameters, "order 2.7 is not an integer"),
        ({"order": 2, "max_order": 2.5}, InvalidParameters, "max_order 2.5 is not an integer"),
        ({"order": 3, "resume_from": [0.9, 1.2]}, InvalidParameters, "resume cell 0.9 is not an integer"),
        ({"order": 3, "resume_from": [0, 3]}, InvalidParameters, r"resume cell 3 is not in \[0, 3\)"),
        ({"order": 2, "resume_from": [0] * 5}, InvalidParameters, "resume prefix has 5 cells, more than the 4"),
        ({"order": 3, "commutative_only": "no"}, InvalidParameters, "commutative_only must be True or False"),
        ({"order": 3, "dedup_iso": "no"}, InvalidParameters, "dedup_iso must be True or False"),
    ],
)
def test_enumeration_arguments_are_checked_at_the_call(kwargs, error, message):
    # no list(...) around the call: a bad argument fails before any stream
    # is handed back, not at its first next()
    with pytest.raises(error, match=message):
        enumerate_semigroups(**kwargs)


@pytest.mark.skipif(
    not os.environ.get("IDEMFREE_SLOW_TESTS"),
    reason="full order-5 enumeration takes a minute or two; set IDEMFREE_SLOW_TESTS=1",
)
def test_enumeration_order_5_count():
    # the digest is the labelled order-5 stream of the walk that tried every value
    assert _stream_digest(enumerate_semigroups(5, max_order=5)) == (
        183732, "e17a0eef74959f07a5a403591533fad1669405f1e00e361b3f10f8cd0db9618e"
    )
