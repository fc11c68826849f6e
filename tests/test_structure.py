import itertools

import pytest

from idemfree import (
    GROUP_BY_NIL_EXTENSION,
    MONOGENIC_ONLY,
    InvalidParameters,
    NotArchimedean,
    NotCommutative,
    NotInNilPart,
    WrongLength,
    archimedean_decomposition,
    cyclic_group,
    cyclic_data,
    cyclic_nil,
    divides_power,
    extremal_equivalence,
    extremal_main_form,
    extremal_pair,
    extremal_structure_check,
    ExtremalSpec,
    FiniteSemigroup,
    GroupByNil,
    Monogenic,
    generated_subsemigroup,
    group_nil_chain,
    idempotents,
    is_chain_lower_absorbing,
    is_commutative,
    is_weakly_free,
    kernel_group,
    monogenic,
    partial_hom,
    trivial_ideal_extension,
    zero_element,
)
from oracles import left_zero_semigroup, vee_semilattice


def test_divides_power_examples():
    S = group_nil_chain(2, 2)
    # nil generator is 2, group generator is 0
    assert divides_power(S, 2, 0)
    assert not divides_power(S, 0, 2)
    Z4 = cyclic_group(4)
    for a in Z4.elements:
        for b in Z4.elements:
            assert divides_power(Z4, a, b)


def test_element_arguments_are_checked():
    Z3 = cyclic_group(3)
    with pytest.raises(InvalidParameters, match="element -1 outside"):
        divides_power(Z3, 0, -1)
    with pytest.raises(InvalidParameters, match="element 9 outside"):
        divides_power(Z3, 0, 9)
    with pytest.raises(InvalidParameters, match="element 7 outside"):
        kernel_group(Z3, [7])
    with pytest.raises(InvalidParameters, match="element -1 outside"):
        kernel_group(Z3, [-1])
    with pytest.raises(InvalidParameters, match="element 9 outside"):
        partial_hom(Z3, [9], 0)
    with pytest.raises(InvalidParameters, match="element 1.5 is not an integer"):
        partial_hom(Z3, [0, 1, 2], 1.5)
    with pytest.raises(InvalidParameters, match="element 1.5 is not an integer"):
        cyclic_data(Z3, 1.5)


def test_divides_power_requires_commutative():
    with pytest.raises(NotCommutative):
        divides_power(left_zero_semigroup(2), 0, 1)


def test_divides_power_is_a_preorder(commutative_le4):
    for S in commutative_le4[::5]:
        rel = [[divides_power(S, a, b) for b in S.elements] for a in S.elements]
        for a in S.elements:
            assert rel[a][a]
            for b in S.elements:
                for c in S.elements:
                    if rel[a][b] and rel[b][c]:
                        assert rel[a][c]


def test_decomposition_of_group():
    Z6 = cyclic_group(6)
    dec = archimedean_decomposition(Z6)
    assert len(dec.components) == 1
    assert dec.per_component[0].kernel_group == frozenset(Z6.elements)
    assert dec.per_component[0].nil_part == frozenset()
    # a single component is trivially a lower-absorbing chain
    assert is_chain_lower_absorbing(Z6, dec)


def test_decomposition_of_group_nil_chain():
    S = group_nil_chain(3, 2)
    dec = archimedean_decomposition(S)
    assert len(dec.components) == 2
    group_comp = dec.component_of(0)
    nil_comp = dec.component_of(3)
    assert group_comp != nil_comp
    assert dec.leq[nil_comp][group_comp] and not dec.leq[group_comp][nil_comp]
    assert is_chain_lower_absorbing(S, dec)


def test_decomposition_of_ideal_extension_is_single_component():
    S = trivial_ideal_extension(3, 2)
    dec = archimedean_decomposition(S)
    assert len(dec.components) == 1
    data = dec.per_component[0]
    assert data.kernel_group == frozenset({2, 3})
    assert data.nil_part == frozenset({0, 1})


def test_component_product_rule(commutative_le4):
    for S in commutative_le4[::7]:
        dec = archimedean_decomposition(S)
        for a in S.elements:
            for b in S.elements:
                got = dec.component_of(S.mul(a, b))
                assert got == dec.meet(dec.component_of(a), dec.component_of(b))


def test_chain_check_rejects_vee():
    V = vee_semilattice()
    dec = archimedean_decomposition(V)
    assert len(dec.components) == 3
    assert not dec.is_chain()
    assert not is_chain_lower_absorbing(V, dec)


def test_kernel_group():
    Z5 = cyclic_group(5)
    assert kernel_group(Z5, list(Z5.elements)) == frozenset(Z5.elements)
    nil = cyclic_nil(3)
    assert kernel_group(nil, list(nil.elements)) == {zero_element(nil)}
    E = trivial_ideal_extension(2, 3)
    assert kernel_group(E, list(E.elements)) == frozenset({1, 2, 3})
    with pytest.raises(NotArchimedean):
        kernel_group(group_nil_chain(2, 2), [0, 1, 2, 3])  # two idempotents


def test_partial_hom():
    E = trivial_ideal_extension(3, 2)
    e = max(idempotents(E))
    for a in (0, 1):
        assert partial_hom(E, E.elements, a) == e
    nil = cyclic_nil(3)
    assert partial_hom(nil, nil.elements, 0) == zero_element(nil)
    with pytest.raises(NotInNilPart):
        partial_hom(E, E.elements, e)


def test_certificate_passes_on_cyclic_group():
    Z4 = cyclic_group(4)
    cert = extremal_structure_check(Z4, [0, 0, 0])
    assert cert.passed
    assert cert.component_kinds == (MONOGENIC_ONLY,)
    assert cert.generator_order == (0,)
    assert cert.per_generator[0].multiplicity == 3


def test_certificate_fails_on_monogenic_2_2():
    S = monogenic(2, 2)  # index 2 is not 1 mod 2, so no extremal sequence exists
    for terms in itertools.product(range(3), repeat=2):
        cert = extremal_structure_check(S, terms)
        assert not cert.passed
        assert extremal_equivalence(S, terms)


def test_certificate_wrong_length():
    with pytest.raises(WrongLength):
        extremal_structure_check(cyclic_group(4), [0])
    with pytest.raises(WrongLength):
        extremal_equivalence(cyclic_group(4), [0, 0, 0, 0])


def test_certificate_records_conditions_and_reason():
    S = monogenic(2, 2)
    cert = extremal_structure_check(S, [0, 0])
    assert not cert.passed
    assert cert.fail_reason == cert.conditions[-1][0]
    assert all(ok for _, ok in cert.conditions[:-1])
    d = cert.to_json_dict()
    assert d["verdict"] == "fail"
    assert d["failReason"] == cert.fail_reason


def test_certificate_on_noncommutative_support():
    lz = left_zero_semigroup(3)  # all idempotent, so expected length is 0
    cert = extremal_structure_check(lz, [])
    assert cert.passed
    # a noncommutative generated subsemigroup fails the first condition
    from idemfree import validate
    from idemfree.structure import COND_COMMUTATIVE

    S = validate(4, [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 1, 0]])
    assert not is_commutative(S)
    cert = extremal_structure_check(S, [1, 2, 3])
    assert not cert.passed
    assert cert.fail_reason == COND_COMMUTATIVE
    assert extremal_equivalence(S, [1, 2, 3])


def test_commutative_closure_is_decided_on_generators(corpus_le4):
    # the certificate's first condition checks only pairs of the support:
    # pairwise commuting generators give a commutative generated subsemigroup
    cases = 0
    for S in corpus_le4:
        t = S.table
        for k in range(1, S.order + 1):
            for gens in itertools.combinations(S.elements, k):
                pairwise = all(t[a][b] == t[b][a] for a in gens for b in gens)
                R = generated_subsemigroup(S, gens)
                closed = all(t[a][b] == t[b][a] for a in R for b in R)
                assert pairwise == closed, (S.table, gens)
                cases += 1
    assert cases == 53196


def test_extremal_pair_outputs_certify():
    specs = [
        ExtremalSpec((Monogenic(1, 4),)),
        ExtremalSpec((Monogenic(3, 2),)),
        ExtremalSpec((GroupByNil(2, 2),)),
        ExtremalSpec((Monogenic(1, 3), GroupByNil(3, 2))),
        ExtremalSpec((Monogenic(5, 1), Monogenic(1, 2)), adjoin_identity=True),
    ]
    for spec in specs:
        S, T = extremal_pair(spec)
        cert = extremal_structure_check(S, T)
        assert cert.passed
        assert extremal_main_form(S, T)
        kinds = [
            GROUP_BY_NIL_EXTENSION if isinstance(p, GroupByNil) else MONOGENIC_ONLY
            for p in spec.chain
        ]
        assert list(cert.component_kinds) == kinds


def test_equivalence_sweep_small_over_full_alphabet(corpus_le3):
    # sequences may use idempotent terms too; both sides must still agree
    for S in corpus_le3:
        if not is_commutative(S):
            continue
        length = S.order - len(idempotents(S))
        for terms in itertools.product(range(S.order), repeat=length):
            assert extremal_equivalence(S, terms)


def test_main_form_matches_flat_conditions(commutative_le4):
    for S in commutative_le4[::3]:
        alphabet = [a for a in S.elements if S.mul(a, a) != a]
        for terms in itertools.product(alphabet, repeat=len(alphabet)):
            flat = extremal_structure_check(S, terms).passed
            assert extremal_main_form(S, terms) == flat


def test_certificate_and_freeness_ignore_word_order(commutative_le4):
    # the premise of the multiset sweep in verify._equivalence_case
    for S in commutative_le4:
        alphabet = [a for a in S.elements if S.mul(a, a) != a]
        for multiset in itertools.combinations_with_replacement(alphabet, len(alphabet)):
            first = extremal_structure_check(S, multiset).to_json_dict()
            free = is_weakly_free(S, multiset)
            for word in set(itertools.permutations(multiset)):
                assert extremal_structure_check(S, word).to_json_dict() == first
                assert is_weakly_free(S, word) == free


def test_certificate_memo_is_kept_for_one_table_only(commutative_le4):
    # structure keeps one record per sorted support (R, the prelude failure,
    # the generators' cyclic data and, once asked for, the decomposition of R
    # and the component kinds) for the last table certified; read back table
    # after table, each in a shuffled order over the table and an equal copy
    # of it, with supports that generate different R, they and the main form
    # must match a cold computation
    import random

    from idemfree import structure
    from idemfree.structure import _classified, _component_kind, _decompose, _extremal_prelude

    tables = []
    for S in commutative_le4[::2]:
        length = S.order - len(idempotents(S))
        multisets = list(itertools.combinations_with_replacement(S.elements, length))
        tables.append([(T, terms) for T in (S, FiniteSemigroup(S.table)) for terms in multisets])
    cold = {}
    for T, terms in itertools.chain(*tables):
        structure._memo = (None, {})
        cold[id(T), terms] = extremal_main_form(T, terms)
    rng = random.Random(3)
    for cases in tables:
        rng.shuffle(cases)
        for T, terms in cases:
            _, supp, rec = _extremal_prelude(T, terms)
            cds = {x: cyclic_data(T, x) for x in supp}
            assert rec.R == (generated_subsemigroup(T, supp) if supp else frozenset())
            assert rec.cds == cds
            if rec.failed is None and supp:
                dec, kinds = _classified(T, supp, rec)
                assert dec == rec.dec == _decompose(T, rec.R)
                assert kinds == tuple(
                    _component_kind(T, comp, data, [x for x in supp if dec.comp_of[x] == cid], cds)
                    for cid, (comp, data) in enumerate(zip(dec.components, dec.per_component))
                )
            assert extremal_main_form(T, terms) == cold[id(T), terms]


def test_family_case_decomposes_and_classifies_each_component_once(monkeypatch):
    # the certificate and the main form of one family case read one record:
    # R is decomposed at most once and each of its components classified once
    from idemfree import structure
    from idemfree.verify import _family_case, enumerate_extremal_specs

    real_decompose, real_kind = structure._decompose, structure._component_kind
    counts = {"decompose": 0, "components": 0, "kind": 0}

    def decompose(S, carrier):
        dec = real_decompose(S, carrier)
        counts["decompose"] += 1
        counts["components"] += len(dec.components)
        return dec

    def kind(*args):
        counts["kind"] += 1
        return real_kind(*args)

    monkeypatch.setattr(structure, "_decompose", decompose)
    monkeypatch.setattr(structure, "_component_kind", kind)
    decomposed = 0
    for spec in enumerate_extremal_specs(max_components=3, max_terms=6):
        before = dict(counts)
        assert _family_case(spec)["ok"]
        assert counts["decompose"] - before["decompose"] <= 1
        assert counts["kind"] - before["kind"] == counts["components"] - before["components"]
        decomposed += counts["decompose"] - before["decompose"]
    assert decomposed > 0 and counts["kind"] > decomposed


def test_certificate_records_a_prefix_up_to_the_first_failure(corpus_le4):
    # union-of-cycles and disjoint-nonidempotent-parts never decide. In a
    # commutative R with x_i * x_j = x_j for i < j, a product of the support
    # is a power of its last generator, so R is the union of the cycles; and
    # x_i^a = x_j^b gives x_j^(b+1) = x_i^a * x_j = x_j, so x_j^b is
    # idempotent, the one idempotent of both cycles
    from idemfree.structure import (
        COND_ABSORPTION,
        COND_COMMUTATIVE,
        COND_COMPLEMENT,
        COND_COMPONENTS,
        COND_DISJOINT,
        COND_INDEX,
        COND_MULTIPLICITY,
        COND_UNION,
    )
    from idemfree.verify import enumerate_extremal_specs

    order = (
        COND_COMMUTATIVE,
        COND_COMPLEMENT,
        COND_ABSORPTION,
        COND_UNION,
        COND_DISJOINT,
        COND_INDEX,
        COND_MULTIPLICITY,
        COND_COMPONENTS,
    )
    cases = [
        (S, terms)
        for S in corpus_le4
        for terms in itertools.combinations_with_replacement(S.elements, S.order - len(idempotents(S)))
    ]
    cases += [extremal_pair(spec) for spec in enumerate_extremal_specs(max_components=3, max_terms=8)]
    reasons = set()
    for S, terms in cases:
        cert = extremal_structure_check(S, terms)
        ids = tuple(cid for cid, _ in cert.conditions)
        oks = [ok for _, ok in cert.conditions]
        assert ids == order[: len(ids)]
        assert all(oks[:-1])
        assert cert.passed == oks[-1]
        assert cert.fail_reason == (None if cert.passed else ids[-1])
        assert (cert.component_kinds != ()) == (cert.passed and len(ids) == len(order))
        if (COND_ABSORPTION, True) not in cert.conditions:
            assert cert.generator_order == tuple(sorted(set(terms)))
        reasons.add(cert.fail_reason)
    assert not reasons & {COND_UNION, COND_DISJOINT}
    assert reasons >= {None, COND_COMMUTATIVE, COND_COMPLEMENT, COND_ABSORPTION, COND_INDEX, COND_MULTIPLICITY}


def test_decomposition_data_matches_kernel_group_and_partial_hom(commutative_le4):
    for S in commutative_le4:
        dec = archimedean_decomposition(S)
        for comp, data in zip(dec.components, dec.per_component):
            assert data.kernel_group == kernel_group(S, comp)
            assert data.nil_part == comp - data.kernel_group
            for a in S.elements:
                if a in data.nil_part:
                    assert partial_hom(S, comp, a) == S.table[a][data.idempotent]
                else:
                    with pytest.raises(NotInNilPart):
                        partial_hom(S, comp, a)
