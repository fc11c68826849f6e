import functools
import itertools
import multiprocessing
import random
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from types import SimpleNamespace

import pytest

import oracles
from conftest import slow
from idemfree import (
    FiniteSemigroup,
    InvalidParameters,
    constants,
    core,
    cyclic_data,
    cyclic_group,
    extremal_structure_check,
    format_cayley_table,
    is_commutative,
    structure,
    verify,
)
from idemfree.seqprod import _any_mask


def _order5_sample(commutative_le5, k: int = 150, seed: int = 5):
    return random.Random(seed).sample([S for S in commutative_le5 if S.order == 5], k)


def test_equivalence_case_matches_word_by_word_reference(commutative_le4, commutative_le5):
    for S in commutative_le4 + _order5_sample(commutative_le5):
        assert verify._equivalence_case({}, S) == oracles.reference_equivalence_case(S)


def test_equivalence_case_matches_multiset_sweep(corpus_le4, commutative_le5):
    # the free and certified sets give the row of the sweep over every
    # multiset, on commutative and noncommutative tables alike
    for S in corpus_le4 + _order5_sample(commutative_le5, 500, seed=17):
        assert verify._equivalence_case({}, S) == oracles.multiset_equivalence_case(S)


def test_equivalence_failure_records_match_reference(commutative_le4, monkeypatch):
    # a certificate and product sets that are wrong, but only as functions of
    # the multiset: the certificate flips on every pinned multiset (each
    # count index + period - 2, the only kind it can pass) that holds the
    # first non-idempotent, and the full-length product set loses the last;
    # verify passes its verdict a record, from whose counts the multiset
    # is rebuilt, the oracles pass it the terms, and verify reads its product
    # sets, over letter positions, from F
    from idemfree.structure import _Support

    def flipped(S, seq):
        if isinstance(seq, _Support):
            seq = [x for x, count in seq.counts.items() for _ in range(count)]
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

    monkeypatch.setattr(verify, "_passes", lambda S, rec: flipped(S, rec).passed)
    monkeypatch.setattr(oracles, "extremal_structure_check", flipped)

    def lossy_free(letters, k):
        return {
            seq: mask & ~(1 << k - 1) if len(seq) == k else mask
            for seq, mask in constants._free_masks(letters, k).items()
        }

    monkeypatch.setattr(verify, "_free_masks", lossy_free)
    monkeypatch.setattr(oracles, "_any_mask", lossy(_any_mask))
    monkeypatch.setattr(oracles, "naive_any_order_products", lossy(oracles.naive_any_order_products))
    totals = {"equivalenceFailures": 0, "lambdaFailures": 0, "claimFailures": 0}
    for S in commutative_le4:
        if all(S.table[a][a] == a for a in S.elements):
            continue
        got = verify._equivalence_case({}, S)
        assert got == oracles.reference_equivalence_case(S)
        assert got == oracles.multiset_equivalence_case(S)
        for key in totals:
            totals[key] += got[key]
    assert all(totals.values()), totals


def test_families_and_equivalence_build_no_certificate_records(corpus_le3, monkeypatch):
    # both checks read the certificate's bare verdict: with the certificate,
    # generator and cyclic-data records made to refuse construction, the
    # families check and extremal-equivalence over commutative order <= 3
    # still pass
    from idemfree import core, structure

    def refuse(*args, **kwargs):
        raise AssertionError("a record was built that no check reads")

    for module, name in ((structure, "ExtremalCertificate"), (structure, "GeneratorData"), (core, "CyclicData")):
        monkeypatch.setattr(module, name, refuse)
    with pytest.raises(AssertionError, match="no check reads"):
        extremal_structure_check(cyclic_group(2), [0])
    with pytest.raises(AssertionError, match="no check reads"):
        cyclic_data(cyclic_group(2), 0)
    families = verify.check_extremal_families(max_components=1, max_terms=3)
    assert families["instances"] == families["passed"] > 0
    commutative = [S for S in corpus_le3 if is_commutative(S)]
    equivalence = verify.check_extremal_equivalence(commutative)
    assert equivalence["instances"] == equivalence["passed"] == len(commutative)


def test_equivalence_claim_records_name_each_pair_once_per_word(monkeypatch):
    # F and C patched on Z_4, whose identity is 3, to hold one multiset,
    # 0 0 1 by element ids, whose terms 0 and 1 multiply to 2, neither of
    # them: the pair claim fails once for each of its 3 distinct words, in
    # word order, and no other record is made
    S = cyclic_group(4)
    multiset = (0, 0, 1)  # letter positions, here equal to the element ids
    masks = {(): 0, (0,): 0b001, (0, 0): 0b001, (0, 1): 0b011, multiset: 0b111}
    monkeypatch.setattr(verify, "_free_masks", lambda letters, k: masks)
    monkeypatch.setattr(verify, "_certified_multisets", lambda S, alpha: {multiset})
    got = verify._equivalence_case({}, S)
    flat = [cell for row in S.table for cell in row]
    assert got["failure"] == {
        "table": flat,
        "equivalence": [],
        "lambda": [],
        "claims": [{"table": flat, "seq": seq, "pair": [0, 1]} for seq in ([0, 0, 1], [0, 1, 0], [1, 0, 0])],
    }
    assert (got["ok"], got["claimFailures"], got["freeSequences"]) == (False, 3, 3)


def test_free_masks_are_the_naive_free_sequences(corpus_le4, commutative_le5):
    # F's walk records every nondecreasing sequence of letter positions, of
    # length at most k, whose naive any-order products avoid E(S), with
    # those products as positions; on commutative tables too
    for S in corpus_le4 + _order5_sample(commutative_le5, 100, seed=29):
        alpha, letters = constants._letter_table(S)
        k = len(alpha)
        idem = {e for e in S.elements if S.table[e][e] == e}
        want = {}
        for length in range(k + 1):
            for seq in itertools.combinations_with_replacement(range(k), length):
                products = oracles.naive_any_order_products(S, [alpha[i] for i in seq])
                if not products & idem:
                    want[seq] = sum(1 << alpha.index(p) for p in products)
        assert constants._free_masks(letters, k) == want


_WALKS = ("_memo_walk", "_any_order_walk")
_CORPUS_CHECKS = {
    "ghw-bound": verify.check_ghw_bound,
    "strong-vs-weak": verify.check_strong_weak,
    "extremal-equivalence": verify.check_extremal_equivalence,
}


@pytest.mark.parametrize(
    "check, corpus, walks",
    [
        ("ghw-bound", "commutative_le5", {"_memo_walk": 1057}),
        ("ghw-bound", "corpus_le4", {"_memo_walk": 98}),
        ("strong-vs-weak", "commutative_le5", {"_memo_walk": 2114}),
        ("strong-vs-weak", "corpus_le4", {"_memo_walk": 168, "_any_order_walk": 28}),
        ("extremal-equivalence", "commutative_le5", {"_any_order_walk": 1057}),
        ("extremal-equivalence", "corpus_le4", {"_any_order_walk": 98}),
        ("extremal-families", None, {"_memo_walk": 32}),
    ],
    ids=["ghw-c5", "ghw-l4", "strong-weak-c5", "strong-weak-l4", "equivalence-c5", "equivalence-l4", "families-3-8"],
)
def test_sharing_checks_walk_each_letter_table_once(check, corpus, walks, request, monkeypatch):
    # each sharing check walks once per kind and distinct letter table, and
    # reads no other walk: the 31 940 commutative tables of order <= 5 have
    # 1 057 letter tables, the 3 614 labelled tables of order <= 4 have 98,
    # 28 of them with letters that do not commute, whose I is the any-order
    # walk; the families check reads I from its parts, and walks each of
    # the 32 catalog parts of (3, 8) once
    calls = dict.fromkeys(_WALKS, 0)

    def counting(name, walk):
        def counted(*args):
            calls[name] += 1
            return walk(*args)

        return counted

    for name in _WALKS:
        monkeypatch.setattr(constants, name, counting(name, getattr(constants, name)))
    if corpus is None:
        got = verify.check_extremal_families(max_components=3, max_terms=8)
        assert (got["instances"], got["failed"]) == (7254, 0)
    else:
        tables = request.getfixturevalue(corpus)
        got = _CORPUS_CHECKS[check](tables)
        assert (got["instances"], got["failed"]) == (len(tables), 0)
        distinct = {constants._letter_table(S)[1] for S in tables}
        assert len(distinct) == {"commutative_le5": 1057, "corpus_le4": 98}[corpus]
    assert calls == {**dict.fromkeys(_WALKS, 0), **walks}


def _table_keyed_verdicts(memo: dict, S, terms):
    """``verify._spec_verdicts`` of terms on S, kept in memo under the
    table-level support key ``oracles.support_table`` when the complement
    holds, and that key: Lemma A of the ``verify`` docstring says a key
    fixes the verdicts."""
    key = oracles.support_table(S, terms)
    if key is None:
        return verify._spec_verdicts(S, terms), None
    if key not in memo:
        memo[key] = verify._spec_verdicts(S, terms)
    return memo[key], key


def test_verdicts_on_the_support_table_are_the_tables_verdicts(commutative_le4, corpus_le4):
    # Lemma A: weak freeness, the certificate and the main form, memoized
    # by R's relabelled table and terms when the complement holds: on every
    # multiset of length |S \\ E(S)| over the commutative tables of order
    # <= 4, through one memo, they are the public checks' on S; 8 460 of the
    # multisets fail the complement and 88 have the empty support
    from idemfree import extremal_main_form, is_weakly_free

    memo = {}
    counts = {"multisets": 0, "failed complement": 0, "empty support": 0}
    for S in commutative_le4:
        for terms in itertools.combinations_with_replacement(S.elements, constants.ghw_bound(S) - 1):
            want = (is_weakly_free(S, terms), extremal_structure_check(S, terms).passed, extremal_main_form(S, terms))
            verdicts, key = _table_keyed_verdicts(memo, S, terms)
            assert verdicts == want, (S.table, terms)
            counts["multisets"] += 1
            counts["failed complement"] += key is None
            counts["empty support"] += not terms
    assert counts == {"multisets": 11698, "failed complement": 8460, "empty support": 88}

    # the empty support of a table with non-idempotents fails the
    # complement, which the public checks refuse as a wrong length
    from idemfree.seqprod import _weakly_free
    from idemfree.structure import _main_form, _passes, _Support

    short = [S for S in commutative_le4 if constants.ghw_bound(S) > 1]
    for S in short:
        rec = _Support(S, ())
        want = (_weakly_free(S, ()), _passes(S, rec), _main_form(S, rec))
        assert _table_keyed_verdicts(memo, S, ()) == (want, None)
    assert len(short) == 1210 - 88

    # seeded multisets over the labelled tables of order <= 4 that do not
    # commute, through the same memo: a support that does not commute fails
    # both forms, and weak freeness reads only the terms' products, all in R
    rng = random.Random(46)
    noncommuting = 0
    for S in corpus_le4:
        if is_commutative(S):
            continue
        for _ in range(4):
            terms = tuple(sorted(rng.choices(S.elements, k=constants.ghw_bound(S) - 1)))
            want = (is_weakly_free(S, terms), extremal_structure_check(S, terms).passed, extremal_main_form(S, terms))
            assert _table_keyed_verdicts(memo, S, terms)[0] == want, (S.table, terms)
            noncommuting += any(S.table[a][b] != S.table[b][a] for a in terms for b in terms)
    assert noncommuting == 642


def test_support_table_relabels_in_increasing_order():
    # the table-level key, ``oracles.support_table``, keeps R's elements in
    # their order: Z_3 below an adjoined identity, and Z_2 above a trivial
    # part or above another Z_2, which no product of the upper Z_2 reaches;
    # only the last leaves a non-idempotent outside R, and it gets no key,
    # nor does the empty support of Z_2; the empty support of the trivial
    # semigroup gives the empty table. The key holds
    # R's products by its generators only: Z_3 = {x, x^2, x^3} by x and
    # x^2, Z_2 = {x, x^2} by x
    from idemfree import adjoin_identity
    from idemfree.construct import chain_glue

    z3, z2, trivial = cyclic_group(3), cyclic_group(2), FiniteSemigroup([[0]])
    assert oracles.support_table(adjoin_identity(z3), (1, 0)) == ("\x01\x02\x02\x00\x00\x01", "\x01\x00")
    assert oracles.support_table(chain_glue([trivial, z2]), (1,)) == ("\x01\x00", "\x00")
    assert oracles.support_table(chain_glue([z2, z2]), (2,)) is None
    assert oracles.support_table(z2, ()) is None
    assert oracles.support_table(trivial, ()) == ("", "")


def test_support_keys_past_256_elements_equal_the_small_chains():
    # a spec table of more than 256 elements gives the table-level key of
    # the same chain without the 256 trivial parts glued below it, and the
    # same verdicts, and its pair case passes, each trivial part adding
    # I - 1 = 0 and no term
    from idemfree.construct import ExtremalSpec, GroupByNil, Monogenic, extremal_pair

    for chain in [(Monogenic(3, 2),), (GroupByNil(3, 2), Monogenic(1, 3)), (Monogenic(1, 1), Monogenic(5, 4))]:
        small, T = extremal_pair(ExtremalSpec(chain))
        big_spec = ExtremalSpec((Monogenic(1, 1),) * 256 + chain)
        big, U = extremal_pair(big_spec)
        assert big.order == small.order + 256
        key = oracles.support_table(small, T.terms)
        assert key is not None and oracles.support_table(big, U.terms) == key
        assert verify._spec_verdicts(big, U.terms) == verify._spec_verdicts(small, T.terms)
        pair = (big_spec, ExtremalSpec(big_spec.chain, adjoin_identity=True))
        assert verify._family_pair_case({}, pair) == ({"ok": True, "failure": None},) * 2


def test_families_certify_each_distinct_support_once(monkeypatch):
    # the 7 254 (3, 8) specs have 2 297 support keys, the chains' parts
    # that carry terms, one of them the empty tuple: the check builds one
    # support record for each key, at a key not met before, closes R only
    # in those records, and builds no letter table
    current = []  # the key of the last memo read, under which a record is built
    seen = set()
    counts = {"_Support": 0, "_generated": 0, "_letter_table": 0}
    real_memo, real_support, real_generated, real_letter_table = (
        verify._memo,
        verify._Support,
        core._generated,
        verify._letter_table,
    )

    def memo(memo, key, compute, *args):
        current[:] = [key]
        return real_memo(memo, key, compute, *args)

    def support(S, terms):
        key = current[0]
        assert key[0] == "support" and key not in seen, key
        seen.add(key)
        counts["_Support"] += 1
        return real_support(S, terms)

    def generated(*args):
        counts["_generated"] += 1
        return real_generated(*args)

    def letter_table(S):
        counts["_letter_table"] += 1
        return real_letter_table(S)

    monkeypatch.setattr(verify, "_memo", memo)
    monkeypatch.setattr(verify, "_Support", support)
    monkeypatch.setattr(core, "_generated", generated)
    monkeypatch.setattr(structure, "_generated", generated)
    monkeypatch.setattr(verify, "_letter_table", letter_table)
    got = verify.check_extremal_families(max_components=3, max_terms=8)
    assert (got["instances"], got["failed"]) == (7254, 0)
    assert counts == {"_Support": 2297, "_generated": 2297, "_letter_table": 0}
    assert ("support", ()) in seen


def test_tables_sharing_a_support_key_share_their_relabelled_r(commutative_le4):
    # Lemma A of the ``verify`` docstring: once the complement holds, two
    # tables with one table-level key, ``oracles.support_table``, have one
    # relabelled R table and one verdict triple; on every (3, 8) spec, as
    # the check builds its tables, and every multiset of length
    # |S \ E(S)| over the commutative tables of order <= 4 whose complement
    # holds, all keyed in one dict: 6 109 of the 10 492 share a key met
    # before; each key decodes to R's generator columns and the terms,
    # relabelled here in increasing order
    from idemfree import adjoin_identity, generated_subsemigroup
    from idemfree.construct import extremal_pair

    specs = verify.enumerate_extremal_specs(3, 8)
    cases = []
    for plain in specs[::2]:
        S, T = extremal_pair(plain)
        cases += [(S, T.terms), (adjoin_identity(S), T.terms)]
    for S in commutative_le4:
        cases += [(S, terms) for terms in itertools.combinations_with_replacement(S.elements, constants.ghw_bound(S) - 1)]
    first = {}
    counts = {"tables": 0, "shared": 0}
    for S, terms in cases:
        key = oracles.support_table(S, terms)
        if key is None:
            continue
        columns, r_terms = key
        ids = sorted(generated_subsemigroup(S, set(terms))) if terms else []
        supp = sorted(set(terms))
        assert [ord(c) for c in columns] == [ids.index(S.table[a][g]) for a in ids for g in supp], (S.table, terms)
        assert [ord(c) for c in r_terms] == [ids.index(x) for x in terms], (S.table, terms)
        relabelled = [ids.index(S.table[a][b]) for a in ids for b in ids]
        verdicts = verify._spec_verdicts(S, terms)
        counts["tables"] += 1
        if key in first:
            counts["shared"] += 1
            assert (relabelled, verdicts) == first[key], (S.table, terms)
        else:
            first[key] = relabelled, verdicts
    assert counts == {"tables": 7254 + 3238, "shared": 6109}


@pytest.mark.parametrize(
    "max_components, max_terms, pairs, classes",
    [(3, 8, 3627, 2297), (3, 10, 8071, 5913), pytest.param(4, 10, 53257, 26136, marks=slow)],
)
def test_support_keys_from_the_parts_split_the_specs_as_the_table_keys_do(max_components, max_terms, pairs, classes):
    # Lemma B of the ``verify`` docstring: on every spec the complement
    # holds, and the chain's parts that carry terms fix R's relabelled table
    # and terms, so the families check's key splits the specs into the
    # classes of the table-level key, ``oracles.support_table``; no product
    # of the terms is the adjoined identity, so each identity twin has its
    # plain spec's table key
    from idemfree import adjoin_identity
    from idemfree.construct import ExtremalSpec, extremal_pair

    specs = verify.enumerate_extremal_specs(max_components, max_terms)
    assert len(specs) == 2 * pairs
    by_parts, by_table = {}, {}
    for plain, twin in zip(specs[::2], specs[1::2]):
        assert twin == ExtremalSpec(plain.chain, adjoin_identity=True)
        S, T = extremal_pair(plain)
        key = oracles.support_table(S, T.terms)
        assert key is not None and oracles.support_table(adjoin_identity(S), T.terms) == key, plain
        parts = tuple(part for part in plain.chain if part.term_count)
        assert by_parts.setdefault(parts, key) == key and by_table.setdefault(key, parts) == parts, plain
    assert len(by_parts) == len(by_table) == classes


@pytest.mark.parametrize("max_components, max_terms", [(1, 0), (2, 3), (3, 8), (4, 10)])
def test_specs_by_budget_match_product_and_filter(max_components, max_terms):
    specs = verify.enumerate_extremal_specs(max_components, max_terms)
    reference = oracles.product_extremal_specs(max_components, max_terms)
    assert specs == reference and repr(specs) == repr(reference)
    # the families check pairs each plain spec with the identity twin after it
    for plain, twin in zip(specs[::2], specs[1::2]):
        assert plain.chain is twin.chain and (plain.adjoin_identity, twin.adjoin_identity) == (False, True)


def test_families_check_builds_each_block_once(monkeypatch):
    # a part's rows depend only on the part, its offset and the sum's total
    # order: the 1 268 (3, 6) chains place their parts 3 531 times and the
    # check builds 459 blocks, each at a (part, offset, total) not met
    # before
    from idemfree import construct

    real_block, real_chain_rows = construct._block, verify._chain_rows
    built, placed = [], []

    def block(comp, offset, total):
        built.append((comp.table, offset, total))
        return real_block(comp, offset, total)

    def chain_rows(chain, blocks):
        placed.append(len(chain))
        return real_chain_rows(chain, blocks)

    monkeypatch.setattr(construct, "_block", block)
    monkeypatch.setattr(verify, "_chain_rows", chain_rows)
    result = verify.check_extremal_families(max_components=3, max_terms=6)
    assert result["instances"] == result["passed"] == 2 * len(placed)
    assert (len(placed), sum(placed), len(built), len(set(built))) == (1268, 3531, 459, 459)


def test_families_tables_are_the_glued_tables_and_share_block_rows(monkeypatch):
    # every plain table the (3, 8) check hands ``_family_case`` is the
    # ordinal sum of its spec's part tables, cell by cell, and every twin
    # is that table with an identity adjoined; both are marked commutative.
    # Two tables that place one part at one offset in one total share that
    # block's row objects, the twins' rows included
    from idemfree import adjoin_identity
    from idemfree.construct import ExtremalSpec

    real_case = verify._family_case
    handed = []

    def family_case(memo, spec, S, terms, key, value):
        handed.append((spec, S))
        return real_case(memo, spec, S, terms, key, value)

    monkeypatch.setattr(verify, "_family_case", family_case)
    result = verify.check_extremal_families(max_components=3, max_terms=8)
    assert result["instances"] == result["passed"] == len(handed) == 7254
    first = {}
    shared = 0
    for (plain, S), (twin, T) in zip(handed[::2], handed[1::2]):
        assert twin == ExtremalSpec(plain.chain, adjoin_identity=True)
        assert S.table == oracles.chain_glue_cells([part._table for part in plain.chain]), plain
        assert T == adjoin_identity(S) and S._commutative is T._commutative is True, plain
        # and, cell by cell, S's cells with an identity n below and beside
        n = S.order
        assert [row[:n] for row in T.table[:n]] == list(S.table), plain
        assert [row[n] for row in T.table] == list(range(n + 1)) == list(T.table[n]), plain
        offset = 0
        for part in plain.chain:
            end = offset + part._table.order
            rows = S.table[offset:end] + T.table[offset:end]
            key = part, offset, S.order
            if key in first:
                shared += 1
                assert all(a is b for a, b in zip(rows, first[key], strict=True)), key
            else:
                first[key] = rows
            offset = end
    assert (len(first), shared) == (860, 10363 - 860)


def test_families_failures_come_back_in_spec_order(monkeypatch):
    # the GHW bound is misread on spec tables of odd order whose last
    # element is an identity: identity twins, and plain cyclic groups of
    # odd order. The bound is read on each spec's own table, never through
    # the memo of verdicts. The families check must report
    # the failures that a plain loop over the specs, each building its own
    # pair, memo and search on its own table, reports, in the same
    # order, serially and through the pool
    from idemfree import erdos_burgess
    from idemfree.construct import extremal_pair

    real_bound = verify.ghw_bound

    def ghw_bound(S):
        return real_bound(S) + (S.order % 2 == 1 and S.table[-1] == tuple(S.elements))

    monkeypatch.setattr(verify, "ghw_bound", ghw_bound)
    specs = verify.enumerate_extremal_specs(2, 5)
    reference = []
    for spec in specs:
        S, T = extremal_pair(spec)
        key = tuple(part for part in spec.chain if part.term_count)
        row = verify._family_case({}, spec, S, T.terms, key, erdos_burgess(S).value)
        if not row["ok"]:
            reference.append(row["failure"])
    assert {f["spec"]["adjoinIdentity"] for f in reference} == {False, True} and len(reference) < len(specs)
    assert verify.check_extremal_families(map, 2, 5)["failures"] == reference
    # forked workers see the patched search
    with ProcessPoolExecutor(max_workers=2, mp_context=multiprocessing.get_context("fork")) as executor:
        assert verify.check_extremal_families(verify._PoolMap(executor, 2), 2, 5)["failures"] == reference


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


def _remember(seen: dict, item) -> int:
    seen[item] = True
    return len(seen)


def test_pool_map_keeps_rows_in_order():
    # 21 items over 2 workers make chunks of 2 and a last chunk of 1; each
    # chunk unpickles its own copy of a dict bound to the function, as a
    # check's memo is, so the sizes restart at every chunk, and the
    # parent's dict is never written
    seen = {}
    with ProcessPoolExecutor(max_workers=2) as executor:
        pool_map = verify._PoolMap(executor, 2)
        for items in ([], [5], list(range(-10, 11))):
            assert list(pool_map(abs, items)) == list(map(abs, items))
        assert list(pool_map(functools.partial(_remember, seen), range(21))) == [1, 2] * 10 + [1]
    assert seen == {}


def test_fan_out_starts_at_most_one_process_per_cpu(monkeypatch):
    # the pool forks all its processes at its first task, so a large
    # worker count must not reach it; an in-process stand-in records the
    # size asked for and the chunk size of each map, and the chunks follow
    # the pool's size, not the request: 21 items make chunks of 1, 2 and 5
    # at 3, 2 and 1 processes
    sizes, chunks = [], []

    class InProcessPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables, chunksize=1):
            chunks.append(chunksize)
            return map(fn, *iterables)

    # _fan_out imports the pool class when it opens a pool, so the stand-in
    # replaces it where that import finds it
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", InProcessPool)
    for cpus, workers, size, chunk in ((3, 5000, 3, 1), (3, 2, 2, 2), (None, 5000, 1, 5)):
        monkeypatch.setattr(verify.os, "cpu_count", lambda n=cpus: n)
        with verify._fan_out(workers) as map_fn:
            assert map_fn.workers == size
            assert list(map_fn(abs, range(-10, 11))) == list(map(abs, range(-10, 11)))
        assert sizes.pop() == size
        assert chunks == [chunk]
        chunks.clear()
    monkeypatch.setattr(verify.os, "cpu_count", lambda: 3)
    serial = verify.run_verification(max_order=3, checks=["ghw-bound", "strong-vs-weak"])
    assert verify.run_verification(max_order=3, checks=["ghw-bound", "strong-vs-weak"], workers=5000) == serial
    assert sizes == [3]


_POOL_STACK = ("multiprocessing", "concurrent.futures", "concurrent.futures.process")

_IMPORT_GUARD = f"""
import sys
sys.path.insert(0, sys.argv[1])
import idemfree, idemfree.verify, idemfree.cli
from idemfree.verify import run_verification
slow = sorted({{"dataclasses", "inspect"}} & set(sys.modules))
assert not slow, slow
loaded = lambda: sorted(set({_POOL_STACK!r}) & set(sys.modules))
assert not loaded(), loaded()
checks = ["ghw-bound", "strong-vs-weak"]
serial = run_verification(max_order=3, checks=checks)
assert not loaded(), ("a serial run loaded", loaded())
assert run_verification(max_order=3, checks=checks, workers=2) == serial
assert "concurrent.futures.process" in sys.modules
print("ok")
"""


def test_import_and_serial_run_load_no_pool_stack():
    # the package, the verifier and the command line load neither
    # dataclasses nor inspect; they load neither multiprocessing nor
    # concurrent.futures, and neither does a serial run; the first pooled
    # run imports the pool and logs what the serial run logs. A fresh isolated interpreter, so nothing here preloads it
    src = str(Path(verify.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-I", "-c", _IMPORT_GUARD, src], capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"
    # the command line's cold start, ``python -m idemfree`` through the
    # package's __main__, with no environment but the path: cli loads, and
    # none of the above
    argv = [sys.executable, "-X", "importtime", "-m", "idemfree", "gen", "cyclic-group", "3"]
    proc = subprocess.run(argv, capture_output=True, text=True, env={"PYTHONPATH": src}, timeout=300)
    assert (proc.returncode, proc.stdout) == (0, format_cayley_table(cyclic_group(3))), proc.stderr
    loaded = {line.rpartition("|")[2].strip() for line in proc.stderr.splitlines()}
    assert "idemfree.cli" in loaded and not loaded & {"multiprocessing", _POOL_STACK[2], "dataclasses", "inspect"}


def test_verifier_import_loads_no_typing():
    # without site (-S), whose .pth files may load typing first, importing
    # the verifier and running a check loads neither typing nor the re and
    # enum that typing pulls in
    src = str(Path(verify.__file__).resolve().parents[1])
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import idemfree.verify; "
        "idemfree.verify.run_verification(max_order=2, checks=['ghw-bound', 'extremal-families']); "
        "print(sorted({'typing', 're', 'enum'} & set(sys.modules)))"
    )
    proc = subprocess.run([sys.executable, "-S", "-I", "-c", code, src], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_ghw_bound_check_reports_a_search_past_the_bound(monkeypatch):
    # a strong walk that returned one more than |S \ E(S)| + 1 must become
    # a failure record, not an abort, whether the value the check reads or
    # the walk behind it is past the bound
    real = verify._walk
    S = cyclic_group(3)
    record = [{"table": [v for row in S.table for v in row], "si": 4, "bound": 3}]

    def past_bound(letters, k, kind):
        _, positions, nodes = real(letters, k, kind)
        return k + 2, positions, nodes

    monkeypatch.setattr(verify, "_walk", past_bound)
    got = verify.check_ghw_bound([S])
    assert (got["instances"], got["passed"], got["failed"], got["failures"]) == (1, 0, 1, record)
    monkeypatch.undo()
    real_walk = constants._memo_walk

    def padded(*args):
        length, witness, nodes = real_walk(*args)
        return length + 1, witness + witness[:1], nodes

    monkeypatch.setattr(constants, "_memo_walk", padded)
    assert verify.check_ghw_bound([S])["failures"] == record


def test_strong_weak_check_reports_a_weak_value_above_the_strong_one(monkeypatch):
    # an I value above SI must become a failure record, not an abort,
    # whether the value the check reads or the walk behind it is too large;
    # on this table, whose letters 2 and 3 do not commute, I = SI = 3, and
    # I is read from the any-order walk's free set F
    S = FiniteSemigroup([[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 1, 1]])
    assert S.table[2][3] != S.table[3][2]
    record = [{"table": [v for row in S.table for v in row], "i": 4, "si": 3}]
    real = verify._walk

    def weak_too_large(letters, k, kind):
        value, positions, nodes = real(letters, k, kind)
        return value + (kind == constants.KIND_ERDOS_BURGESS), positions, nodes

    monkeypatch.setattr(verify, "_walk", weak_too_large)
    got = verify.check_strong_weak([S])
    assert (got["instances"], got["passed"], got["failed"], got["failures"]) == (1, 0, 1, record)
    monkeypatch.undo()
    real_walk = constants._any_order_walk

    def padded(*args):
        free = list(real_walk(*args))
        longest = max(free, key=lambda entry: len(entry[0]))[0]
        return iter(free + [(longest + longest[-1:], 0)])

    monkeypatch.setattr(constants, "_any_order_walk", padded)
    assert verify.check_strong_weak([S])["failures"] == record


def test_value_cases_read_the_values_of_the_public_searches(corpus_le3, corpus_le4, monkeypatch):
    # ghw-bound and strong-vs-weak read values through one memo per check,
    # from one letter table per case; each must be the value of the public
    # search on that table
    strong = constants.KIND_STRONG_ERDOS_BURGESS
    real = verify._memo
    read = []

    def spy(memo, key, compute, *args):
        found = real(memo, key, compute, *args)
        read.append((key[0], found[0]))
        return found

    for corpus in (corpus_le3, corpus_le4):
        read.clear()
        monkeypatch.setattr(verify, "_memo", spy)
        assert verify.check_ghw_bound(corpus)["failed"] == 0
        assert verify.check_strong_weak(corpus)["failed"] == 0
        monkeypatch.undo()
        si = [(strong, constants.strong_erdos_burgess(S).value) for S in corpus]
        i = [(constants.KIND_ERDOS_BURGESS, constants.erdos_burgess(S).value) for S in corpus]
        assert read == si + [pair for both in zip(i, si) for pair in both]


def test_families_memo_holds_blocks_part_reports_then_support_verdicts():
    # a families pair case stores its dict of part blocks under "block",
    # here C3's one block at offset 0 in a total of 3: its rows, the rows
    # with the identity column and its terms; then each part's report, the
    # public search's with the plain tree's node count, 5 + 3 on C3, under
    # "part" and the part, then the plain spec's verdicts under its support
    # key, the chain's parts that carry terms, which the twin reads, one of
    # the shared verdict triples
    from idemfree import erdos_burgess
    from idemfree.construct import ExtremalSpec, Monogenic, extremal_pair

    spec = ExtremalSpec((Monogenic(1, 3),))
    c3 = extremal_pair(spec)[0]
    assert c3 == cyclic_group(3)
    memo = {}
    rows = verify._family_pair_case(memo, (spec, ExtremalSpec(spec.chain, adjoin_identity=True)))
    assert rows == ({"ok": True, "failure": None},) * 2
    assert list(memo) == [("block",), ("part", Monogenic(1, 3)), ("support", (Monogenic(1, 3),))]
    column_rows = ((1, 2, 0, 0), (2, 0, 1, 1), (0, 1, 2, 2))
    assert memo["block",] == {(Monogenic(1, 3), 0, 3): (c3.table, column_rows, (0, 0))}
    assert memo["part", Monogenic(1, 3)] == erdos_burgess(c3) and erdos_burgess(c3).nodes_explored == 8
    assert memo["support", (Monogenic(1, 3),)] is verify._VERDICTS[True, True, True]


def test_families_i_is_the_exhaustive_i_of_each_letter_table():
    # the families check reads I as 1 + sum(I(part) - 1) by the ordinal-sum
    # lemma; the exhaustive walk on each distinct letter table of the
    # 3 627 (3, 8) chains, which their identity twins share, must agree
    from idemfree import adjoin_identity, erdos_burgess
    from idemfree.construct import extremal_pair

    kind = constants.KIND_ERDOS_BURGESS
    walked, part_i = {}, {}
    for plain in verify.enumerate_extremal_specs(3, 8)[::2]:
        S, T = extremal_pair(plain)
        alpha, letters = constants._letter_table(S)
        assert constants._letter_table(adjoin_identity(S))[1] == letters
        if letters not in walked:
            walked[letters] = constants._walk(letters, len(alpha), kind)[0]
        for part in plain.chain:
            if part not in part_i:
                part_i[part] = erdos_burgess(part._table).value
        assert walked[letters] == 1 + sum(part_i[part] - 1 for part in plain.chain) == len(T) + 1, plain
    assert (len(walked), len(part_i)) == (1074, 32)


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


def test_build_corpus_checks_its_arguments_at_the_call(monkeypatch):
    # each bad argument is named before any order is enumerated
    def refuse(*args, **kwargs):
        raise AssertionError("enumerated before the arguments were checked")

    monkeypatch.setattr(verify, "enumerate_semigroups", refuse)
    for value in ("3", 2.0, True):
        with pytest.raises(InvalidParameters, match=f"^max_order {value!r} is not an integer$"):
            verify.build_corpus(value)
    for value in (0, -1):
        with pytest.raises(InvalidParameters, match=f"^max_order must be at least 1, got {value}$"):
            verify.build_corpus(value)
    with pytest.raises(InvalidParameters, match="^enum_cap '5' is not an integer$"):
        verify.build_corpus(3, enum_cap="5")
    from idemfree.construct import OrderTooLarge

    with pytest.raises(OrderTooLarge, match=r"^enumeration is capped at order 5$"):
        verify.build_corpus(6, True, 6)
    with pytest.raises(OrderTooLarge, match=r"^order 5 exceeds the configured cap 4; raise enum_cap explicitly$"):
        verify.build_corpus(5, enum_cap=4)
    monkeypatch.undo()
    assert [S.order for S in verify.build_corpus(2)] == [1] + [2] * 8


def test_checks_without_a_corpus_ignore_enum_cap():
    log = verify.run_verification(max_order=5, enum_cap=1, checks=["example-formulas"])
    assert log["corpus"]["semigroups"] == 0 and log["summary"]["allPassed"]
