import random
from types import SimpleNamespace

import pytest

import oracles
from idemfree import InvalidParameters, enumerate_semigroups, extremal_structure_check, verify
from idemfree.seqprod import _any_mask


def _order5_sample(k: int = 150, seed: int = 5):
    tables = list(enumerate_semigroups(5, commutative_only=True, max_order=5))
    return random.Random(seed).sample(tables, k)


def test_equivalence_case_matches_word_by_word_reference(commutative_le4):
    for S in commutative_le4 + _order5_sample():
        assert verify._equivalence_case(S) == oracles.reference_equivalence_case(S)


def test_equivalence_failure_records_match_reference(commutative_le4, monkeypatch):
    # a certificate and product sets that are wrong, but only as functions of
    # the multiset: the certificate flips on every multiset that holds the
    # first non-idempotent, and the full-length product set loses the last
    def flipped(S, seq):
        alphabet = [a for a in S.elements if S.table[a][a] != a]
        return SimpleNamespace(passed=extremal_structure_check(S, seq).passed != (alphabet[0] in seq))

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

    monkeypatch.setattr(verify, "extremal_structure_check", flipped)
    monkeypatch.setattr(oracles, "extremal_structure_check", flipped)
    monkeypatch.setattr(verify, "_any_mask", lossy(_any_mask))
    monkeypatch.setattr(oracles, "naive_any_order_products", lossy(oracles.naive_any_order_products))
    totals = {"equivalenceFailures": 0, "lambdaFailures": 0, "claimFailures": 0}
    for S in commutative_le4:
        if all(S.table[a][a] == a for a in S.elements):
            continue
        got = verify._equivalence_case(S)
        assert got == oracles.reference_equivalence_case(S)
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
