import hashlib
import itertools
import json

import pytest

from idemfree import (
    GROUP_BY_NIL_EXTENSION,
    ArchDecomposition,
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
    unique_cycle_idempotent,
    zero_element,
)
from conftest import slow
from oracles import left_zero_semigroup, naive_archimedean_decomposition, vee_semilattice


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


def test_divides_power_matches_its_definition(commutative_le4):
    # a^m = b*c for some m >= 1 and some c in S, over a's whole power list
    for S in commutative_le4:
        for a in S.elements:
            powers = set(cyclic_data(S, a).powers)
            for b in S.elements:
                want = any(S.table[b][c] in powers for c in S.elements)
                assert divides_power(S, a, b) == want, (S.table, a, b)


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


_BAD_IDS = [
    ("mul", (-1, 0), "element a -1 outside semigroup of order 4"),
    ("mul", (0, 9), "element b 9 outside semigroup of order 4"),
    ("mul", (True, 0), "element a True is not an integer"),
    ("component_of", (-1,), "element a -1 outside semigroup of order 4"),
    ("component_of", (4,), "element a 4 outside semigroup of order 4"),
    ("component_of", (True,), "element a True is not an integer"),
    ("meet", (-1, 0), "component i -1 outside the 2 components"),
    ("meet", (True, 0), "component i True is not an integer"),
    ("meet", (0, 5), "component j 5 outside the 2 components"),
]


@pytest.mark.parametrize("method, args, message", _BAD_IDS, ids=[f"{m}{args}" for m, args, _ in _BAD_IDS])
def test_bad_element_and_component_ids_are_refused_by_name(method, args, message):
    # a negative id would read from the end of a row, and a bool as 0 or 1
    S = group_nil_chain(2, 2)
    owner = S if method == "mul" else archimedean_decomposition(S)
    with pytest.raises(InvalidParameters) as exc:
        getattr(owner, method)(*args)
    assert str(exc.value) == message


def test_meet_refuses_an_order_that_is_not_a_meet_semilattice():
    # a hand-built decomposition: two components, neither below the other
    dec = ArchDecomposition((frozenset({0}), frozenset({1})), ((True, False), (False, True)), (), (0, 1))
    with pytest.raises(InvalidParameters) as exc:
        dec.meet(0, 1)
    assert str(exc.value) == "components 0 and 1 have no meet: the order is not a meet semilattice"
    assert dec.meet(1, 1) == 1


def test_chain_check_rejects_vee():
    V = vee_semilattice()
    dec = archimedean_decomposition(V)
    assert len(dec.components) == 3
    assert not dec.is_chain()
    assert not is_chain_lower_absorbing(V, dec)


@pytest.mark.parametrize("other", [group_nil_chain(3, 2), cyclic_nil(3)], ids=["larger", "same-order"])
def test_chain_check_refuses_a_decomposition_of_another_table(other):
    # a larger table's decomposition used to index past S's rows, and one
    # of a table of S's order gave a verdict about that table
    message = "^dec is not the archimedean decomposition of the semigroup of order 3$"
    with pytest.raises(InvalidParameters, match=message):
        is_chain_lower_absorbing(cyclic_group(3), archimedean_decomposition(other))


def test_chain_check_refuses_a_noncommutative_table():
    with pytest.raises(NotCommutative):
        is_chain_lower_absorbing(left_zero_semigroup(2), archimedean_decomposition(cyclic_group(2)))


def test_decomposition_matches_divisibility_oracle(commutative_le4):
    for S in commutative_le4:
        assert archimedean_decomposition(S) == naive_archimedean_decomposition(S), S.table


@slow
def test_decomposition_matches_divisibility_oracle_order_5(commutative_le5):
    # the divisibility oracle on every commutative order-5 table takes a while
    order5 = [S for S in commutative_le5 if S.order == 5]
    assert len(order5) == 30730
    for S in order5:
        assert archimedean_decomposition(S) == naive_archimedean_decomposition(S), S.table


def test_each_divisibility_class_is_one_idempotent_power(commutative_le4):
    # the lemma behind archimedean_decomposition, on the classes of mutual
    # power divisibility: each holds exactly one idempotent, and that
    # idempotent is among the powers of each of its elements
    for S in commutative_le4 + [group_nil_chain(3, 2), trivial_ideal_extension(3, 2), vee_semilattice()]:
        t = S.table
        for comp in naive_archimedean_decomposition(S).components:
            idems = [x for x in comp if t[x][x] == x]
            assert len(idems) == 1, (S.table, comp)
            for a in comp:
                powers, x = set(), a
                for _ in range(S.order):
                    powers.add(x)
                    x = t[x][a]
                assert [p for p in powers if t[p][p] == p] == idems, (S.table, a)


def test_kernel_group():
    Z5 = cyclic_group(5)
    assert kernel_group(Z5, list(Z5.elements)) == frozenset(Z5.elements)
    nil = cyclic_nil(3)
    assert kernel_group(nil, list(nil.elements)) == {zero_element(nil)}
    E = trivial_ideal_extension(2, 3)
    assert kernel_group(E, list(E.elements)) == frozenset({1, 2, 3})
    with pytest.raises(NotArchimedean, match=r"\[0, 1, 2, 3\] is not an archimedean component"):
        kernel_group(group_nil_chain(2, 2), [0, 1, 2, 3])  # two idempotents
    # one idempotent, but not the elements of one idempotent power
    with pytest.raises(NotArchimedean, match=r"\[1, 2\] is not an archimedean component"):
        kernel_group(group_nil_chain(2, 2), [1, 2])
    # one idempotent power, but not all of its elements
    with pytest.raises(NotArchimedean, match=r"\[0, 2\] is not an archimedean component.*leaves out \[1\]"):
        kernel_group(group_nil_chain(3, 2), [0, 2])
    with pytest.raises(NotArchimedean, match=r"\[\] is not an archimedean component"):
        kernel_group(Z5, [])
    with pytest.raises(NotCommutative):
        kernel_group(left_zero_semigroup(2), [0])


def test_partial_hom():
    E = trivial_ideal_extension(3, 2)
    e = max(idempotents(E))
    for a in (0, 1):
        assert partial_hom(E, E.elements, a) == e
    nil = cyclic_nil(3)
    assert partial_hom(nil, nil.elements, 0) == zero_element(nil)
    with pytest.raises(NotInNilPart):
        partial_hom(E, E.elements, e)
    with pytest.raises(NotArchimedean, match=r"\[1, 2\] is not an archimedean component"):
        partial_hom(group_nil_chain(2, 2), [1, 2], 2)
    with pytest.raises(NotArchimedean, match=r"\[0, 2\] is not an archimedean component"):
        partial_hom(group_nil_chain(3, 2), [0, 2], 0)


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
    # the premise of counting each multiset once per distinct word, in
    # verify._equivalence_case and in the multiset sweep it replaced,
    # oracles.multiset_equivalence_case
    for S in commutative_le4:
        alphabet = [a for a in S.elements if S.mul(a, a) != a]
        for multiset in itertools.combinations_with_replacement(alphabet, len(alphabet)):
            first = extremal_structure_check(S, multiset).to_json_dict()
            free = is_weakly_free(S, multiset)
            for word in set(itertools.permutations(multiset)):
                assert extremal_structure_check(S, word).to_json_dict() == first
                assert is_weakly_free(S, word) == free


def test_passing_certificate_pins_every_count(corpus_le4):
    # the lemma behind the certified set of verify._equivalence_case: a
    # multiset that passes is fixed by its support, each term x repeated
    # index(x) + period(x) - 2 times (so no idempotent is a term)
    passing = 0
    for S in corpus_le4:
        length = S.order - len(idempotents(S))
        for multiset in itertools.combinations_with_replacement(S.elements, length):
            if not extremal_structure_check(S, multiset).passed:
                continue
            passing += 1
            for x in set(multiset):
                cd = cyclic_data(S, x)
                assert multiset.count(x) == cd.index + cd.period - 2
    assert passing > 0


def test_support_record_matches_its_definitions(commutative_le4):
    # the record of a multiset of terms (its sorted support, each
    # generator's multiplicity, R, the prelude failure, each generator's
    # cyclic data, power mask and idempotent power and, once asked for, R
    # grouped by idempotent power with each component's kind) must match the
    # definitions; both verdicts read the record alone, so a record built
    # from the terms in another order gives the same verdicts, and the main
    # form read from a record the certificate has already filled must match
    # one read from a fresh record
    from idemfree.core import _mask_of, _mask_to_set
    from idemfree.structure import (
        _by_idempotent_power,
        _certify,
        _classified,
        _component_kind,
        _main_form,
        _Support,
    )

    for T in commutative_le4[::2]:
        length = T.order - len(idempotents(T))
        for terms in itertools.combinations_with_replacement(T.elements, length):
            rec = _Support(T, terms)
            cert = _certify(T, rec)
            assert cert == extremal_structure_check(T, terms) == _certify(T, _Support(T, terms[::-1]))
            supp = sorted(set(terms))
            assert rec.supp == supp
            assert rec.counts == {x: terms.count(x) for x in supp}
            cds = {x: cyclic_data(T, x) for x in supp}
            assert _mask_to_set(rec.R) == (generated_subsemigroup(T, supp) if supp else frozenset())
            assert rec.cycles == {x: (cd.index, cd.period) for x, cd in cds.items()}
            assert rec.powers == {x: _mask_of(cds[x].powers) for x in supp}
            assert rec.idem == {x: unique_cycle_idempotent(T, x) for x in supp}
            if rec.failed is None and supp:
                comps, kinds = _classified(T, rec)
                # the order counts: it orders the component kinds and the
                # main form's chain
                assert comps is rec.comps
                assert list(comps.items()) == list(_by_idempotent_power(T.table, rec.R, {}).items())
                # R's components are the traces on R of T's components
                dec = archimedean_decomposition(T)
                traces = {d.idempotent: _mask_of(comp) & rec.R for comp, d in zip(dec.components, dec.per_component)}
                assert comps == {e: trace for e, trace in traces.items() if trace}
                assert kinds is rec.kinds and kinds == {
                    e: _component_kind(T.table, e, comp, [x for x in supp if rec.idem[x] == e], rec)
                    for e, comp in comps.items()
                }
            assert _main_form(T, rec) == _main_form(T, _Support(T, terms)) == extremal_main_form(T, terms)


def test_support_reads_each_idempotent_power_from_the_cycle(commutative_le4):
    # _Support reads a generator's idempotent power off the powers of its
    # one cyclic walk; it must be the one the walk to an idempotent finds,
    # on every multiset of every table
    from idemfree.core import _idempotent_power
    from idemfree.structure import _Support

    checked = 0
    for T in commutative_le4:
        length = T.order - len(idempotents(T))
        for terms in itertools.combinations_with_replacement(T.elements, length):
            rec = _Support(T, terms)
            assert rec.idem == {x: _idempotent_power(T.table, x) for x in rec.supp}, (T.table, terms)
            checked += len(rec.supp)
    assert checked > 1000


def test_condition_pass_matches_the_certificate_on_seeded_words(corpus_le4):
    # _conditions is the one condition pass behind the certificate and the
    # bare verdict: on seeded words over every labelled table of order <= 4,
    # noncommutative ones included, its verdict, condition list, generator
    # order and component kinds are the certificate's
    import random

    from idemfree.structure import (
        COND_ABSORPTION,
        COND_COMMUTATIVE,
        COND_COMPLEMENT,
        COND_INDEX,
        COND_MULTIPLICITY,
        _conditions,
        _passes,
        _Support,
    )

    rng = random.Random(45)
    reasons = set()
    for S in corpus_le4:
        length = S.order - len(idempotents(S))
        for _ in range(4):
            terms = tuple(rng.choice(S.elements) for _ in range(length))
            cert = extremal_structure_check(S, terms)
            rec = _Support(S, terms)
            conds, order, kinds = _conditions(S, rec)
            assert _passes(S, rec) == conds[-1][1] == cert.passed, (S.table, terms)
            assert (tuple(conds), order, kinds) == (cert.conditions, cert.generator_order, cert.component_kinds)
            reasons.add(cert.fail_reason)
    assert reasons == {None, COND_COMMUTATIVE, COND_COMPLEMENT, COND_ABSORPTION, COND_INDEX, COND_MULTIPLICITY}


def test_family_case_decomposes_and_classifies_each_component_once(monkeypatch):
    # the certificate and the main form of one spec's verdicts
    # (``verify._spec_verdicts``) read one record: _classified fills its
    # components and kinds at most once, and each of R's components is
    # classified once; the spec's family case passes
    from idemfree import erdos_burgess, ghw_bound, structure
    from idemfree.verify import _family_case, _spec_verdicts, enumerate_extremal_specs

    real_classified, real_kind = structure._classified, structure._component_kind
    counts = {"fill": 0, "components": 0, "kind": 0}

    def classified(S, rec):
        fills = rec.kinds is None
        out = real_classified(S, rec)
        if fills:
            counts["fill"] += 1
            counts["components"] += len(rec.comps)
        return out

    def kind(*args):
        counts["kind"] += 1
        return real_kind(*args)

    monkeypatch.setattr(structure, "_classified", classified)
    monkeypatch.setattr(structure, "_component_kind", kind)
    filled = 0
    for spec in enumerate_extremal_specs(max_components=3, max_terms=6):
        before = dict(counts)
        S, T = extremal_pair(spec)
        verdicts = _spec_verdicts(S, T.terms)
        assert _family_case(spec, len(T), verdicts, erdos_burgess(S).value, ghw_bound(S))["ok"]
        assert counts["fill"] - before["fill"] <= 1
        assert counts["kind"] - before["kind"] == counts["components"] - before["components"]
        filled += counts["fill"] - before["fill"]
    assert filled > 0 and counts["kind"] > filled


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


def test_certificates_and_main_forms_are_pinned(corpus_le4):
    # every (3, 8) family pair, and every multiset over S of length
    # |S \\ E(S)| on the labelled order <= 4 corpus: each table, terms,
    # certificate and main-form verdict, as JSON lines under one sha256
    from idemfree.verify import enumerate_extremal_specs

    def digest(cases):
        h = hashlib.sha256()
        n = 0
        for S, terms in cases:
            cert = extremal_structure_check(S, terms)
            row = [S.table, list(terms), cert.to_json_dict(), extremal_main_form(S, terms)]
            h.update(json.dumps(row).encode() + b"\n")
            n += 1
        return n, h.hexdigest()

    families = (extremal_pair(spec) for spec in enumerate_extremal_specs(max_components=3, max_terms=8))
    assert digest(families) == (7254, "56746bb1ca1087c7bc70fbc1e4d57e352850a3d9874895639e53b4a9d6adda38")
    multisets = (
        (S, terms)
        for S in corpus_le4
        for terms in itertools.combinations_with_replacement(S.elements, S.order - len(idempotents(S)))
    )
    assert digest(multisets) == (24470, "cc40abe7480ad01d6189bc2d9fb2a72520fb8178749ccf8c802f0221761d3c4b")


@pytest.mark.parametrize("check", [extremal_structure_check, extremal_main_form, extremal_equivalence])
@pytest.mark.parametrize(
    "terms, error, message",
    [
        ([0, True, 1], InvalidParameters, "term True is not an integer"),
        ([0, 0.5, 1], InvalidParameters, "term 0.5 is not an integer"),
        ([0, 9, 1], InvalidParameters, "term 9 outside semigroup of order 4"),
        ([0, -1, 1], InvalidParameters, "term -1 outside semigroup of order 4"),
        ([0], WrongLength, r"sequence length 1 != \|S \\ E\(S\)\| = 3"),
        ([0, 0, 0, 0], WrongLength, r"sequence length 4 != \|S \\ E\(S\)\| = 3"),
        # the terms are checked before the length
        ([True], InvalidParameters, "term True is not an integer"),
    ],
)
def test_public_extremal_checks_refuse_bad_terms_before_any_work(check, terms, error, message, monkeypatch):
    from idemfree import structure

    def no_work(*args):
        raise AssertionError("work began on terms that were not checked")

    monkeypatch.setattr(structure, "_Support", no_work)
    monkeypatch.setattr(structure, "_weakly_free", no_work)
    with pytest.raises(error, match=message):
        check(cyclic_group(4), terms)


def test_union_and_disjoint_conditions_decide_once_reached(commutative_le4, monkeypatch):
    # after an absorption order neither condition can fail (see the test
    # above), so they are reached here with the order forced to the sorted
    # support, and each verdict must match its definition on sets
    from idemfree import structure
    from idemfree.structure import COND_DISJOINT, COND_UNION

    monkeypatch.setattr(structure, "_absorption_order", lambda S, supp: tuple(supp))
    seen = set()
    for S in commutative_le4:
        for terms in itertools.combinations_with_replacement(S.elements, S.order - len(idempotents(S))):
            conds = dict(extremal_structure_check(S, terms).conditions)
            supp = sorted(set(terms))
            cycles = [set(cyclic_data(S, x).powers) for x in supp]
            if COND_UNION in conds:
                assert conds[COND_UNION] == (set().union(*cycles) == generated_subsemigroup(S, supp)), (S.table, terms)
                seen.add((COND_UNION, conds[COND_UNION]))
            if COND_DISJOINT in conds:
                parts = [cycle - {unique_cycle_idempotent(S, x)} for cycle, x in zip(cycles, supp)]
                assert conds[COND_DISJOINT] == (sum(map(len, parts)) == len(set().union(*parts))), (S.table, terms)
                seen.add((COND_DISJOINT, conds[COND_DISJOINT]))
    assert seen == {(COND_UNION, True), (COND_UNION, False), (COND_DISJOINT, True), (COND_DISJOINT, False)}


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
