"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criteria 1-5 run through the batch verification driver so that criterion 10
can compare the very same JSON logs across worker counts; 6 reuses the
sweep of criterion 2; 7-9 check monogenic conformance, the nilsemigroup
product lemma and the product-set oracles directly. Everything is exact:
integer equalities, no tolerances.
"""

import json
import random

from idemfree import (
    cyclic_data,
    cyclic_group,
    cyclic_nil,
    chain_glue,
    monogenic,
    natural_order_products,
    any_order_products,
    trivial_ideal_extension,
    unique_cycle_idempotent,
    FiniteSemigroup,
)
from idemfree.verify import check_nil_lemma

from oracles import (
    left_zero_semigroup,
    naive_any_order_products,
    naive_natural_order_products,
    transformation_monogenic_table,
)


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"criterion {criterion:>2}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {criterion} failed: {detail}"


def _check(log: dict, check_id: str) -> dict:
    return next(c for c in log["checks"] if c["id"] == check_id)


def test_criterion_1_ghw_bound(acceptance_logs):
    """No semigroup of order <= 4 admits a strongly free word of length
    |S \\ E(S)| + 1; the exhaustive search never finds one."""
    result = _check(acceptance_logs[0], "ghw-bound")
    ok = result["failed"] == 0 and result["instances"] == 3614
    _report(1, ok, f"{result['passed']}/{result['instances']} semigroups within the bound")


def test_criterion_2_extremal_equivalence(acceptance_logs):
    """Structural certificate matches brute-force weak freeness for every
    commutative semigroup of order <= 4 and every candidate sequence."""
    result = _check(acceptance_logs[0], "extremal-equivalence")
    ok = (
        result["instances"] == 1210
        and result["sequences"] == 9518
        and result["freeSequences"] == 1130
        and result["equivalenceFailures"] == 0
        and result["claimFailures"] == 0
        and result["failed"] == 0
    )
    _report(2, ok, f"{result['sequences']} sequences over {result['instances']} semigroups, "
                   f"{result['freeSequences']} free")


def test_criterion_3_extremal_families(acceptance_logs):
    """Every generated extremal pair (up to 3 components, 10 terms) is free,
    certified, and attains the Erdos-Burgess constant."""
    result = _check(acceptance_logs[0], "extremal-families")
    ok = result["failed"] == 0 and result["instances"] == 16142
    _report(3, ok, f"{result['passed']}/{result['instances']} specs verified")


def test_criterion_4_example_formulas(acceptance_logs):
    """Group-over-nil chains for n1, n2 in [2, 5] hit the closed forms
    I = n1 + n2 - 1 and D = max(n1, n2 + 1) by search."""
    result = _check(acceptance_logs[0], "example-formulas")
    ok = result["failed"] == 0 and result["instances"] == 16
    _report(4, ok, f"{result['passed']}/{result['instances']} parameter pairs")


def test_criterion_5_strong_vs_weak(acceptance_logs):
    """I(S) <= SI(S) for every semigroup of order <= 4, with equality on the
    commutative ones."""
    result = _check(acceptance_logs[0], "strong-vs-weak")
    ok = result["failed"] == 0 and result["instances"] == 3614
    _report(5, ok, f"{result['passed']}/{result['instances']} semigroups")


def test_criterion_6_product_gain_lower_bound(acceptance_logs):
    """Every weakly free sequence met in criterion 2's sweep gains at least
    one product when any of its terms is re-appended."""
    result = _check(acceptance_logs[0], "extremal-equivalence")
    ok = (
        result["lambdaFailures"] == 0
        and result["lambdaChecked"] == 1534
        and result["sequences"] == 9518
        and result["freeSequences"] == 1130
    )
    _report(6, ok, f"{result['lambdaChecked']} term removals checked over "
                   f"{result['freeSequences']} free sequences")


def test_criterion_7_monogenic_conformance():
    """Monogenic tables match an independent transformation-semigroup model
    cell by cell, with round-tripping cyclic data and the idempotent power
    at the unique multiple of the period inside the cycle window."""
    checked = 0
    ok = True
    for i in range(1, 12):
        for p in range(1, 13 - i):
            S = monogenic(i, p)
            model = tuple(tuple(row) for row in transformation_monogenic_table(i, p))
            cd = cyclic_data(S, 0)
            e = unique_cycle_idempotent(S, 0)
            exponent = cd.powers.index(e) + 1
            ok = ok and S.table == model
            ok = ok and (cd.index, cd.period) == (i, p)
            ok = ok and exponent % p == 0 and i <= exponent <= i + p - 1
            checked += 1
    _report(7, ok, f"{checked} (index, period) pairs with i+p-1 <= 12")


def test_criterion_8_nil_product_lemma(commutative_le4):
    """In every commutative nilsemigroup of order <= 4, a*b in {a, b} forces
    a zero factor."""
    result = check_nil_lemma(commutative_le4)
    ok = result["failed"] == 0 and result["instances"] > 0
    _report(8, ok, f"{result['passed']}/{result['instances']} nilsemigroups")


def _order5_pool():
    pool = [
        monogenic(5, 1),
        monogenic(4, 2),
        monogenic(3, 3),
        monogenic(2, 4),
        monogenic(1, 5),
        trivial_ideal_extension(2, 4),
        trivial_ideal_extension(3, 3),
        trivial_ideal_extension(4, 2),
        chain_glue([cyclic_group(2), cyclic_nil(3)]),
        chain_glue([cyclic_group(3), cyclic_group(2)]),
        chain_glue([cyclic_nil(2), cyclic_group(2), cyclic_nil(1)]),
        left_zero_semigroup(5),
        FiniteSemigroup([[b for b in range(5)] for _ in range(5)]),  # right zero
        FiniteSemigroup([[0] * 5 for _ in range(5)]),  # null
    ]
    assert all(S.order == 5 for S in pool)
    return pool


def test_criterion_9_product_set_oracles(corpus_le4):
    """1000 random (S, T) with order <= 5 and |T| <= 6: the DP and the
    incremental closure agree with raw subsequence-and-permutation
    enumeration."""
    pool = corpus_le4 + _order5_pool()
    rng = random.Random(0x5EED)
    ok = True
    for _ in range(1000):
        S = rng.choice(pool)
        terms = tuple(rng.randrange(S.order) for _ in range(rng.randint(0, 6)))
        ok = ok and any_order_products(S, terms) == naive_any_order_products(S, terms)
        ok = ok and natural_order_products(S, terms) == naive_natural_order_products(S, terms)
        if not ok:
            break
    _report(9, ok, "1000 random sequences against both naive enumerations")


def test_criterion_10_determinism(acceptance_logs):
    """Criteria 1-5 produce byte-identical JSON logs with 1 worker and with
    a 3-worker process pool."""
    serial, pooled = acceptance_logs
    same = json.dumps(serial, indent=2) == json.dumps(pooled, indent=2)
    ok = same and serial["summary"]["allPassed"]
    _report(10, ok, "serial and pooled verification logs compared")
