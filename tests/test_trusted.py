"""Full validation of every table built without the associativity check.

Constructors whose tables are associative by construction skip the O(n^3)
check at run time; these tests rebuild each such table through ``validate``
so the check still covers everything they emit.
"""

import itertools

from idemfree import (
    adjoin_identity,
    archimedean_decomposition,
    chain_glue,
    cyclic_data,
    cyclic_group,
    cyclic_nil,
    enumerate_semigroups,
    extremal_pair,
    generated_subsemigroup,
    is_commutative,
    monogenic,
    trivial_ideal_extension,
    unique_cycle_idempotent,
    validate,
)
from idemfree.structure import ArchDecomposition, ComponentData
from idemfree.verify import enumerate_extremal_specs
from oracles import naive_archimedean_decomposition


def assert_valid(S):
    assert validate(S.order, S.table).table == S.table


def test_monogenic_grid_is_valid():
    for i in range(1, 9):
        for p in range(1, 9):
            assert_valid(monogenic(i, p))


def test_trivial_ideal_extension_grid_is_valid_and_archimedean():
    for n in range(2, 7):
        for p in range(2, 7):
            S = trivial_ideal_extension(n, p)
            assert_valid(S)
            # one archimedean component, reached by a nil generator of
            # index n whose idempotent power is the group identity
            assert len(archimedean_decomposition(S).components) == 1
            cd = cyclic_data(S, 0)
            assert (cd.index, cd.period) == (n, 1)
            assert unique_cycle_idempotent(S, 0) == S.order - 1


def test_chain_glue_and_adjoin_identity_are_valid():
    parts = [cyclic_group(3), cyclic_nil(3), monogenic(3, 2), trivial_ideal_extension(3, 2)]
    for k in (1, 2, 3):
        for combo in itertools.permutations(parts, k):
            glued = chain_glue(list(combo))
            assert_valid(glued)
            assert_valid(adjoin_identity(glued))
    for part in parts:
        assert_valid(adjoin_identity(part))


def _commutes(S):
    t = S.table
    return all(t[a][b] == t[b][a] for a in S.elements for b in S.elements)


def test_glued_and_adjoined_tables_know_whether_they_commute(corpus_le3):
    # chain_glue marks its result commutative and adjoin_identity copies
    # what its input knows; each flag must agree with a full scan
    for spec in enumerate_extremal_specs(max_components=3, max_terms=8):
        S, _ = extremal_pair(spec)
        assert S._commutative is True and _commutes(S)
    for S in corpus_le3:
        T = validate(S.order, S.table)
        assert adjoin_identity(T)._commutative is None
        is_commutative(T)
        assert adjoin_identity(T)._commutative == _commutes(adjoin_identity(T))
        assert adjoin_identity(adjoin_identity(T))._commutative == _commutes(T)


def test_extremal_pairs_are_valid():
    for spec in enumerate_extremal_specs(max_components=3, max_terms=8):
        S, _ = extremal_pair(spec)
        assert_valid(S)


def _restriction(S, carrier):
    """R's sorted elements and a fully validated copy of R on 0..|R|-1."""
    t = S.table
    orig = sorted(carrier)
    pos = {e: i for i, e in enumerate(orig)}
    return orig, validate(len(orig), [[pos[t[a][b]] for b in orig] for a in orig])


def _lifted(S, orig, dec):
    """A decomposition of the restriction mapped back into S's element ids."""

    def back(ids):
        return frozenset(orig[i] for i in ids)

    comp_of = [-1] * S.order
    for i, cid in enumerate(dec.comp_of):
        comp_of[orig[i]] = cid
    return ArchDecomposition(
        components=tuple(back(c) for c in dec.components),
        leq=dec.leq,
        per_component=tuple(
            ComponentData(orig[d.idempotent], back(d.kernel_group), back(d.nil_part)) for d in dec.per_component
        ),
        comp_of=tuple(comp_of),
    )


def _traced(S, dec, carrier):
    """The decomposition dec of S cut down to the carrier: each component
    that meets it, as its trace on the carrier, numbered by least element."""
    kept = [i for i, comp in enumerate(dec.components) if comp & carrier]
    kept.sort(key=lambda i: min(dec.components[i] & carrier))
    comp_of = [-1] * S.order
    for cid, i in enumerate(kept):
        for a in dec.components[i] & carrier:
            comp_of[a] = cid
    data = [dec.per_component[i] for i in kept]
    return ArchDecomposition(
        components=tuple(dec.components[i] & carrier for i in kept),
        leq=tuple(tuple(dec.leq[i][j] for j in kept) for i in kept),
        per_component=tuple(ComponentData(d.idempotent, d.kernel_group & carrier, d.nil_part & carrier) for d in data),
        comp_of=tuple(comp_of),
    )


def test_decomposition_traces_on_validated_subsemigroups(commutative_le4):
    # each table is decomposed whole; the components of a generated
    # subsemigroup R, decomposed as a fully validated copy of R on its own,
    # must be the traces on R of the components of S, with the same
    # idempotents, order, kernels and nil parts
    checked = 0
    for S in commutative_le4:
        dec = archimedean_decomposition(S)
        carriers = {
            generated_subsemigroup(S, gens)
            for k in (1, 2)
            for gens in itertools.combinations(S.elements, k)
        }
        for carrier in carriers:
            orig, sub = _restriction(S, carrier)
            assert _traced(S, dec, carrier) == _lifted(S, orig, archimedean_decomposition(sub))
            checked += 1
    assert checked == 8929


def test_decomposition_of_family_tables_matches_divisibility_oracle():
    # every 4th (3, 8) family table, glued without validation and
    # decomposed whole, against the divisibility definition on a validated
    # copy
    checked = 0
    for spec in list(enumerate_extremal_specs(max_components=3, max_terms=8))[::4]:
        S, _ = extremal_pair(spec)
        assert archimedean_decomposition(S) == naive_archimedean_decomposition(validate(S.order, S.table)), spec
        checked += 1
    assert checked == 1814


def test_enumerated_corpus_is_valid(corpus_le4):
    assert len(corpus_le4) == 3614
    for S in corpus_le4:
        assert_valid(S)


def test_enumerated_commutative_le5_is_valid(commutative_le5):
    for S in commutative_le5:
        assert_valid(S)
        # the commutative stream marks its tables, so no caller scans them
        assert S._commutative is True and _commutes(S)
    assert [sum(S.order == n for S in commutative_le5) for n in range(1, 6)] == [1, 6, 63, 1140, 30730]
    # the labelled stream leaves the flag for is_commutative to fill
    assert all(S._commutative is None for S in enumerate_semigroups(4))
