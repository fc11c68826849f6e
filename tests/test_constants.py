import gc
import tracemalloc

import pytest

from idemfree import (
    ExtremalSpec,
    FiniteSemigroup,
    GroupByNil,
    Monogenic,
    NotCommutative,
    Seq,
    SequenceTooLong,
    adjoin_identity,
    chain_glue,
    cyclic_group,
    davenport,
    erdos_burgess,
    extremal_pair,
    ghw_bound,
    group_nil_chain,
    idempotents,
    is_commutative,
    is_strongly_free,
    is_weakly_free,
    monogenic,
    strong_erdos_burgess,
    validate,
)
from oracles import (
    dihedral,
    distinct_child_states,
    left_zero_semigroup,
    naive_davenport,
    naive_erdos_burgess,
    naive_is_irreducible,
    naive_strong_erdos_burgess,
    reference_search,
    relabel,
    relabel_by,
    vee_semilattice,
)

import itertools

from idemfree import constants, seqprod
from idemfree.verify import _memo, enumerate_extremal_specs

SEARCHES = {"I": erdos_burgess, "SI": strong_erdos_burgess, "D": davenport}


def test_ghw_bound():
    assert ghw_bound(cyclic_group(5)) == 5
    assert ghw_bound(group_nil_chain(2, 2)) == 3
    assert ghw_bound(validate(1, [[0]])) == 1


def test_erdos_burgess_cyclic_groups():
    for n in range(1, 9):
        assert erdos_burgess(cyclic_group(n)).value == n


def test_erdos_burgess_monogenic_2_2():
    report = erdos_burgess(monogenic(2, 2))
    assert report.value == 2
    assert report.witness.terms == (0,)


def test_erdos_burgess_group_nil_chains():
    for n1 in range(2, 6):
        for n2 in range(2, 6):
            got = erdos_burgess(group_nil_chain(n1, n2)).value
            assert got == (n1 - 1) + (n2 - 1) + 1


def test_strong_erdos_burgess():
    for n in range(1, 7):
        assert strong_erdos_burgess(cyclic_group(n)).value == n
    assert strong_erdos_burgess(left_zero_semigroup(2)).value == 1
    for S in (cyclic_group(4), monogenic(2, 2), group_nil_chain(2, 3)):
        assert strong_erdos_burgess(S).value == erdos_burgess(S).value


def test_davenport_values():
    for n in range(1, 9):
        assert davenport(cyclic_group(n)).value == n
    for n1 in range(2, 6):
        for n2 in range(2, 6):
            assert davenport(group_nil_chain(n1, n2)).value == max(n1, n2 + 1)
    assert davenport(group_nil_chain(2, 2)).value == 3


def test_davenport_rejects_noncommutative():
    with pytest.raises(NotCommutative):
        davenport(left_zero_semigroup(2))


def test_against_naive_constants(corpus_le3):
    # raw length-by-length enumeration agrees with the pruned search
    for S in corpus_le3:
        assert erdos_burgess(S).value == naive_erdos_burgess(S)
        assert strong_erdos_burgess(S).value == naive_strong_erdos_burgess(S)
        if is_commutative(S):
            assert davenport(S).value == naive_davenport(S)


def test_chain_glue_of_cyclic_groups():
    for k in range(1, 4):
        for orders in itertools.product(range(2, 5), repeat=k):
            S = chain_glue([cyclic_group(p) for p in orders])
            assert erdos_burgess(S).value == sum(p - 1 for p in orders) + 1


def _ordinal_splits(S):
    # each split of S as an ordinal sum, A above B, over all subsets: B a
    # proper nonempty ideal, A = S \ B a subsemigroup, and every a in A a
    # two-sided identity on B
    t, n = S.table, S.order
    for size in range(1, n):
        for B in itertools.combinations(range(n), size):
            A = [a for a in range(n) if a not in B]
            if (
                all(t[s][b] in B and t[b][s] in B for s in range(n) for b in B)
                and all(t[a][c] in A for a in A for c in A)
                and all(t[a][b] == t[b][a] == b for a in A for b in B)
            ):
                yield A, list(B)


def _restricted(S, ids):
    return FiniteSemigroup([[ids.index(S.table[a][b]) for b in ids] for a in ids])


def test_ordinal_sums_add_their_constants(corpus_le4):
    # the lemmas behind the families check's I and bound columns: a
    # subsequence with a term in B multiplies, in any order, to the product
    # of its B-terms in their order, so a sequence is free exactly when its
    # A-terms and its B-terms are, and I(S) = I(A) + I(B) - 1, SI likewise;
    # x * x lies in A for x in A and in B for x in B (Lemma C of the
    # ``verify`` docstring), so GHW(S) = GHW(A) + GHW(B) - 1. On every split
    # of the 1 068 labelled tables of order <= 4 that have one,
    # noncommutative ones included
    split = 0
    for S in corpus_le4:
        splits = list(_ordinal_splits(S))
        split += bool(splits)
        for A, B in splits:
            SA, SB = _restricted(S, A), _restricted(S, B)
            for search in (erdos_burgess, strong_erdos_burgess):
                assert search(S).value == search(SA).value + search(SB).value - 1, (search.__name__, S.table, B)
            assert ghw_bound(S) == ghw_bound(SA) + ghw_bound(SB) - 1, (S.table, B)
    assert split == 1068


@pytest.mark.parametrize("max_components, max_terms", [(3, 8), (3, 10)])
def test_spec_bounds_add_over_their_parts(max_components, max_terms):
    # Lemma C along a chain: each spec's GHW bound, read on its own table,
    # is 1 plus the sum of GHW(part) - 1 over its parts, and an adjoined
    # identity, idempotent, adds nothing
    from idemfree.construct import extremal_pair

    for spec in enumerate_extremal_specs(max_components, max_terms):
        want = 1 + sum(ghw_bound(part._table) - 1 for part in spec.chain)
        assert ghw_bound(extremal_pair(spec)[0]) == want, spec


def test_witness_reverification(corpus_le3):
    for S in corpus_le3[::7]:
        weak = erdos_burgess(S)
        assert len(weak.witness) == weak.value - 1
        assert is_weakly_free(S, weak.witness)
        for x in S.elements:
            assert not is_weakly_free(S, weak.witness.terms + (x,))
        strong = strong_erdos_burgess(S)
        assert len(strong.witness) == strong.value - 1
        assert is_strongly_free(S, strong.witness)
        for x in S.elements:
            assert not is_strongly_free(S, strong.witness.terms + (x,))
        if is_commutative(S):
            dav = davenport(S)
            assert len(dav.witness) == dav.value - 1
            assert naive_is_irreducible(S, dav.witness.terms)
            for x in S.elements:
                assert not naive_is_irreducible(S, dav.witness.terms + (x,))


def test_bound_invariants(corpus_le3):
    for S in corpus_le3:
        i = erdos_burgess(S).value
        si = strong_erdos_burgess(S).value
        assert i <= si <= ghw_bound(S)
        if is_commutative(S):
            assert i == si


def test_witness_is_lex_least_among_longest():
    Z3 = cyclic_group(3)
    # both g.g and g2.g2 are free of length 2; the witness is the lex least
    assert erdos_burgess(Z3).witness.terms == (0, 0)
    assert is_weakly_free(Z3, (1, 1))


def test_report_json_shape():
    d = erdos_burgess(cyclic_group(3)).to_json_dict()
    assert set(d) == {"kind", "value", "witness", "nodesExplored"}
    assert d["kind"] == "ErdosBurgess"
    assert d["witness"] == [0, 0]


def test_empty_alphabet_reports():
    # a walk from the empty sequence that has no child: on a band I and SI
    # try no letter, and D tries the trivial group's one element, the
    # identity, which is reducible
    lz = left_zero_semigroup(2)  # every element idempotent
    assert idempotents(lz) == {0, 1}
    for search in (erdos_burgess, strong_erdos_burgess):
        report = search(lz)
        assert (report.value, report.witness, report.nodes_explored) == (1, Seq(()), 0)
    report = davenport(cyclic_group(1))
    assert (report.value, report.witness, report.nodes_explored) == (1, Seq(()), 1)


def _assert_reports_match_reference(S, kinds=("I", "SI", "D")):
    for kind in kinds:
        if kind == "D" and not is_commutative(S):
            continue
        report = SEARCHES[kind](S)
        got = (report.value, report.witness.terms, report.nodes_explored)
        want = reference_search(kind, S)
        assert got == want, (kind, S.table)


def test_weak_value_on_tiny_alphabets():
    # a band has no letters: value 1; C2 and monogenic(2, 1) have one
    # letter, which is free alone
    for S, want in ((vee_semilattice(), 1), (cyclic_group(2), 2), (monogenic(2, 1), 2)):
        assert erdos_burgess(S).value == want
        _assert_reports_match_reference(S, ("I",))


def test_searches_match_reference_on_small_corpus(corpus_le4):
    # values, lex-least witnesses and node counts of the packed-translate
    # searches against the plain set-based walk
    for S in corpus_le4:
        _assert_reports_match_reference(S)


def test_searches_match_reference_on_commutative_order5(commutative_le5):
    for S in [S for S in commutative_le5 if S.order == 5][::10]:
        _assert_reports_match_reference(S)


def test_searches_match_reference_on_families():
    # every 25th table of the (3, 8) catalogue; SI walks words, 19 M nodes
    # on that sample, so it runs on every 250th
    for i, spec in enumerate(enumerate_extremal_specs(max_components=3, max_terms=8)[::25]):
        _assert_reports_match_reference(extremal_pair(spec)[0], ("I", "SI", "D") if i % 10 == 0 else ("I", "D"))
    for n in range(1, 13):
        _assert_reports_match_reference(cyclic_group(n))
    for n1 in range(2, 6):
        for n2 in range(2, 6):
            _assert_reports_match_reference(group_nil_chain(n1, n2))


def test_dihedral_searches_match_reference():
    # deep noncommutative I: the any-order DP carried down the path against
    # naive any-order sets at every node, on D_2n and two relabelled copies;
    # I(D_2n) = n + 1 (Olson and White 1977)
    for n in range(3, 7):
        for S in (dihedral(n), relabel(dihedral(n), n), relabel(dihedral(n), 100 + n)):
            assert not is_commutative(S)
            assert erdos_burgess(S).value == n + 1
            _assert_reports_match_reference(S, ("I", "SI"))


def test_dihedral_searches_past_one_slice():
    # D_14 and D_16 have 13 and 15 letters, more than 8, so the slab fill of
    # the noncommutative I walk reads its translates from two column slices
    # (widths 8 and 5, and 8 and 7); value, witness and node count as
    # pinned from the per-bit kernel, on D_2n and a relabelled copy, whose
    # tree differs, since the walk appends letters in increasing order. The
    # plain reference walk takes seconds here, so it stops at D_12 above
    pins = {
        7: (4238, (1,) * 6 + (7,), 3575, (0,) + (4,) * 6),
        8: (8514, (1,) * 7 + (8,), 7387, (0,) + (4,) * 7),
    }
    for n, (nodes, witness, moved_nodes, moved_witness) in pins.items():
        rep = erdos_burgess(dihedral(n))
        assert (rep.value, rep.nodes_explored, rep.witness.terms) == (n + 1, nodes, witness)
        rep = erdos_burgess(relabel(dihedral(n), n))
        assert (rep.value, rep.nodes_explored, rep.witness.terms) == (n + 1, moved_nodes, moved_witness)


def test_relabelled_commutative_searches_match_reference():
    # the packed walks order children by bit position, so a relabelling
    # changes which letters they meet first; values, lex-least witnesses
    # and node counts must still follow the plain walk
    tables = [cyclic_group(n) for n in range(1, 13)] + [monogenic(6, 4), group_nil_chain(4, 4)]
    for i, S in enumerate(tables):
        for seed in (i, 50 + i):
            _assert_reports_match_reference(relabel(S, seed))


def test_noncommutative_search_refuses_past_dp_bound(monkeypatch):
    # the largest candidates the D_6 walk tries, such as (1, 1, 3, 4), have
    # 3 * 2 * 2 = 12 sub-multiset states; the search refuses exactly past them
    S = dihedral(3)
    monkeypatch.setattr(seqprod, "_MAX_DP_STATES", 12)
    assert erdos_burgess(S).value == 4
    monkeypatch.setattr(seqprod, "_MAX_DP_STATES", 11)
    with pytest.raises(SequenceTooLong, match="12 sub-multiset states exceed the any-order DP bound of 11"):
        erdos_burgess(S)


def test_search_node_counts_on_c3():
    # the hand-counted trees of C3 = {x, x^2, e}: I 5 + 3, SI 5 + 5,
    # D 1 (the identity) + 7 + 5
    assert erdos_burgess(cyclic_group(3)).nodes_explored == 8
    assert strong_erdos_burgess(cyclic_group(3)).nodes_explored == 10
    assert davenport(cyclic_group(3)).nodes_explored == 13


def test_memo_walks_match_reference_where_states_repeat():
    # D walks its states (pi, proper products, start) through a memo, and I
    # and SI walk theirs (allowed letters, product mask) through one; on a
    # commutative table I's allowed letters are those from its last term
    # on. A repeated state must add its subtree's node count and keep the
    # lex-least longest witness
    tables = [cyclic_group(5), cyclic_group(6), monogenic(5, 3), group_nil_chain(3, 3)]
    for i, S in enumerate(tables):
        for seed in (200 + i, 300 + i):
            _assert_reports_match_reference(relabel(S, seed), ("I", "SI", "D"))
    # I(C24) and D(C28) pin the counts the plain walk gives; SI(C24) pins a
    # tree of over 2 * 10^9 nodes, which only the memo walk finishes
    weak = erdos_burgess(cyclic_group(24))
    assert (weak.value, weak.nodes_explored) == (24, 645_349)
    assert weak.witness.terms == (0,) * 23
    dav = davenport(cyclic_group(28))
    assert (dav.value, dav.nodes_explored) == (28, 3_069_830)
    assert dav.witness.terms == (0,) * 27
    strong = strong_erdos_burgess(cyclic_group(24))
    assert (strong.value, strong.nodes_explored) == (24, 2_153_425_140)
    assert strong.witness.terms == (0,) * 23
    # the SI tree where the most states repeat under different first letters
    strong = strong_erdos_burgess(monogenic(13, 12))
    assert (strong.value, strong.nodes_explored) == (24, 413_889_347)


def test_memo_walks_walk_each_state_once(monkeypatch):
    # every walked child state calls _grow once, the first time it is met,
    # and the witness rebuild calls it once per step below the root: value - 1
    # steps for I and SI, whose one-term sequences are children of the
    # empty sequence, and value - 2 for D, whose walk starts at them. A walk
    # that met a stored state, a leaf too, and walked it again would call
    # _grow more often
    calls = []
    real = constants._grow

    def counting(rows, vec, new):
        calls.append(None)
        return real(rows, vec, new)

    monkeypatch.setattr(constants, "_grow", counting)
    counts = []
    for S in (cyclic_group(12), group_nil_chain(4, 4), relabel(monogenic(6, 4), 7)):
        for kind, steps in (("I", 1), ("SI", 1), ("D", 2)):
            calls.clear()
            value = SEARCHES[kind](S).value
            states = distinct_child_states(kind, S)
            assert len(calls) == states + value - steps, (kind, S.table)
            counts.append((len(calls), states))
    assert counts[:3] == [(410, 399), (280, 269), (487, 477)]


def test_memo_is_freed_when_its_task_returns():
    # a walk breaks its closure's self-reference when it ends, so the
    # memo dies with the walk by reference count even while the collector is
    # off; a second call of each search, after one that fills the
    # interpreter's free lists, must leave the traced memory where it was.
    # A memo left in a cycle, leaves included, keeps about 2.6 MB for
    # D(C24), 0.2 MB for SI(C18) and 0.35 MB for I(C18)
    gc.collect()
    gc.disable()
    try:
        searches = (
            (davenport, cyclic_group(24)),
            (strong_erdos_burgess, cyclic_group(18)),
            (erdos_burgess, cyclic_group(18)),
        )
        for search, S in searches:
            search(S)
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                search(S)
                kept = tracemalloc.get_traced_memory()[0] - before
            finally:
                tracemalloc.stop()
            assert kept < 64 * 1024, (search.__name__, S.order, kept)
    finally:
        gc.enable()


def _idempotent_heavy(m):
    # gbn(3, 3), then m trivial groups, then mono(3, 2): k = 7 letters for
    # every m, and |S| = m + 9
    return extremal_pair(ExtremalSpec((GroupByNil(3, 3),) + (Monogenic(1, 1),) * m + (Monogenic(3, 2),)))[0]


def test_free_searches_read_the_letter_table_not_s():
    # I and SI walk the k * k letter table, so tables with the same 7
    # letters and ever more idempotents keep their reports, the witness
    # moved with the last component, and their traced peaks stay far below
    # what one packed row of n * n + n bits per element of S takes, about
    # 40 MB at |S| = 209
    small, big = _idempotent_heavy(20), _idempotent_heavy(200)
    assert (big.order, ghw_bound(big)) == (209, 8)
    for S in (small, big):
        last = S.order - 4
        for kind, nodes in (("I", 399), ("SI", 25_690)):
            r = SEARCHES[kind](S)
            assert (r.value, r.witness.terms, r.nodes_explored) == (8, (0, 0, 2, 2, last, last, last), nodes)
    for search in (erdos_burgess, strong_erdos_burgess):
        tracemalloc.start()
        try:
            search(big)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, (search.__name__, peak)


def test_searches_leave_no_cyclic_garbage(monkeypatch):
    # every walk's closure refers to itself; a walk that did not break that
    # reference would leave the closure, its lists and any memo for the cycle
    # collector, which the corpus's tens of thousands of searches then pay
    searches = (
        (erdos_burgess, cyclic_group(7)),  # commutative I, memo walk
        (strong_erdos_burgess, cyclic_group(5)),  # SI, 4 letters, memo walk
        (strong_erdos_burgess, cyclic_group(9)),  # SI, 8 letters, memo walk
        (erdos_burgess, dihedral(3)),  # noncommutative I
        (davenport, cyclic_group(9)),
    )
    gc.collect()
    gc.disable()
    try:
        for search, S in searches:
            search(S)
            assert gc.collect() == 0, (search.__name__, S.table)
        # a refusal unwinds the walk and must leave nothing behind either
        monkeypatch.setattr(seqprod, "_MAX_DP_STATES", 11)
        with pytest.raises(SequenceTooLong):
            erdos_burgess(dihedral(3))
        assert gc.collect() == 0
    finally:
        gc.enable()


def _relabellings(S):
    # the idempotents moved to the front, the letters after them in their
    # own order (which keeps the letter table) and reversed (which need not)
    idem = sorted(idempotents(S))
    letters = [a for a in S.elements if a not in idem]
    return tuple(relabel_by(S, _inverse(idem + order)) for order in (letters, letters[::-1]))


def _inverse(order):
    perm = [0] * len(order)
    for k, a in enumerate(order):
        perm[a] = k
    return perm


def _left_zero_under(S):
    """The ordinal sum of a two-element left-zero band below S: noncommutative,
    but its letters are S's and commute when S's do."""
    n = S.order + 2
    table = [[0, 0, *range(2, n)], [1, 1, *range(2, n)]]
    table += [[a + 2, a + 2, *(v + 2 for v in row)] for a, row in enumerate(S.table)]
    return FiniteSemigroup(table)


# letters 2 and 3 do not commute: 3 * 2 = 1, 2 * 3 = 0
_noncommuting = FiniteSemigroup([[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 1, 1]])


def _report(search, S):
    rep = search(S)
    return rep.value, rep.witness.terms, rep.nodes_explored


_KINDS = {"I": constants.KIND_ERDOS_BURGESS, "SI": constants.KIND_STRONG_ERDOS_BURGESS}


def _memo_report(memo, kind, S):
    # the report a sharing check reads: the walk over the letter table of
    # S, stored in the memo under its kind and letter table, mapped back
    # through the alpha of S
    alpha, letters = constants._letter_table(S)
    key = (_KINDS[kind], letters)
    value, positions, nodes = _memo(memo, key, constants._walk, letters, len(alpha), _KINDS[kind])
    return value, tuple(alpha[i] for i in positions), nodes


def test_shared_reports_are_the_searched_reports():
    # each group fills one memo, so a table whose letter table an earlier
    # one had gets the earlier walk mapped back through its own letters;
    # every report must be the public search's and reference_search's
    c3, c5, c6 = cyclic_group(3), cyclic_group(5), cyclic_group(6)
    groups = [
        [S, adjoin_identity(S), *_relabellings(S), *_relabellings(adjoin_identity(S))]
        for S in (c5, c6, monogenic(5, 3), group_nil_chain(3, 3))
    ]
    # chains that differ only in their idempotent components
    groups.append([
        chain_glue(parts)
        for parts in ([c3, c5], [cyclic_group(1), c3, c5], [c3, vee_semilattice(), c5], [c3, c5, cyclic_group(1)])
    ])
    # noncommutative tables whose letters commute: I takes the memo walk
    # there, shared with the commutative table of the same letters
    groups.append([c5, _left_zero_under(c5), c6, _left_zero_under(c6), _left_zero_under(adjoin_identity(c6))])
    # letters that do not commute: I reads the any-order walk's F
    groups.append([_noncommuting, adjoin_identity(_noncommuting), *_relabellings(_noncommuting)])
    for tables in groups:
        memo = {}
        for kind in ("I", "SI"):
            for S in tables:
                got = _memo_report(memo, kind, S)
                assert got == _report(SEARCHES[kind], S) == reference_search(kind, S), (kind, S.table)
        # the group shares walks: fewer keys than searches
        assert len(memo) < 2 * len(tables)


def test_shared_reports_on_small_corpus(corpus_le4):
    # 3 614 tables with 98 letter tables between them, in one memo: a key
    # that confused two letter tables would hand one the other's report
    memo = {}
    fresh = [_report(SEARCHES[kind], S) for S in corpus_le4 for kind in ("I", "SI")]
    assert [_memo_report(memo, kind, S) for S in corpus_le4 for kind in ("I", "SI")] == fresh
    assert len(memo) == 2 * 98


def test_i_reads_the_free_stream_and_keeps_no_free_set(monkeypatch):
    # I on letters that do not commute reads F as the any-order walk yields
    # it and keeps only the report, and F as a dict, the free set of
    # extremal-equivalence, is its own walk that reads the same value,
    # witness and node count
    calls = []
    real = constants._any_order_walk

    def counted(rows, k):
        calls.append(k)
        return real(rows, k)

    monkeypatch.setattr(constants, "_any_order_walk", counted)
    for S in (_noncommuting, dihedral(4)):
        alpha, letters = constants._letter_table(S)
        k = len(alpha)
        calls.clear()
        outside = _report(erdos_burgess, S)
        assert outside == reference_search("I", S)
        assert calls == [k]
        free = constants._free_masks(letters, k)
        assert calls == [k, k]
        best = max(free, key=len)
        assert (len(best) + 1, tuple(alpha[i] for i in best)) == outside[:2]
        assert k + sum(k - seq[-1] for seq in free if seq) == outside[2]


def test_noncommutative_table_with_commuting_letters_takes_the_memo_walk(monkeypatch):
    # a band below a commutative table has that table's letters, which
    # commute, so I runs the memo walk, never the any-order walk, and its
    # report is the plain reference walk's, whose any-order sets are naive
    def refuse(*args):
        raise AssertionError("any-order walk called")

    monkeypatch.setattr(constants, "_any_order_walk", refuse)
    tables = [cyclic_group(5), monogenic(5, 3), group_nil_chain(3, 3), adjoin_identity(cyclic_group(4))]
    for S in tables:
        band = _left_zero_under(S)
        assert not is_commutative(band)
        for T in (band, relabel(band, S.order)):
            assert _report(erdos_burgess, T) == reference_search("I", T)
    with pytest.raises(AssertionError, match="any-order walk called"):
        erdos_burgess(_noncommuting)
