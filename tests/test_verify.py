import functools
import itertools
import multiprocessing
import random
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from pathlib import Path
from types import SimpleNamespace

import pytest

import oracles
from idemfree import (
    FiniteSemigroup,
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
    # first non-idempotent, and the full-length product set loses the last;
    # verify passes the certificate a record, from whose counts the multiset
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

    monkeypatch.setattr(verify, "_certify", flipped)
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
        got = verify._equivalence_case(S)
        assert got == oracles.reference_equivalence_case(S)
        assert got == oracles.multiset_equivalence_case(S)
        for key in totals:
            totals[key] += got[key]
    assert all(totals.values()), totals


def test_free_masks_are_the_naive_free_sequences(corpus_le4):
    # F's walk records every nondecreasing sequence of letter positions, of
    # length at most k, whose naive any-order products avoid E(S), with
    # those products as positions; on commutative tables too
    for S in corpus_le4 + _order5_sample(100, seed=29):
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


def test_equivalence_walks_each_letter_table_once(corpus_le4, monkeypatch):
    # inside the check's scope F is walked once per distinct letter table,
    # and the check reads no other walk
    calls = []
    real = constants._any_order_walk

    def counted(rows, k):
        calls.append(tuple(v for row in rows for v in row))
        return real(rows, k)

    monkeypatch.setattr(constants, "_any_order_walk", counted)
    assert verify.check_extremal_equivalence(corpus_le4)["failed"] == 0
    assert constants._shared is None
    distinct = {constants._letter_table(S)[1] for S in corpus_le4}
    assert len(calls) == len(set(calls)) == len(distinct) < len(corpus_le4)
    assert set(calls) == distinct


@pytest.mark.parametrize("max_components, max_terms", [(1, 0), (2, 3), (3, 8), (4, 10)])
def test_specs_by_budget_match_product_and_filter(max_components, max_terms):
    specs = verify.enumerate_extremal_specs(max_components, max_terms)
    reference = oracles.product_extremal_specs(max_components, max_terms)
    assert specs == reference and repr(specs) == repr(reference)
    # the families check pairs each plain spec with the identity twin after it
    for plain, twin in zip(specs[::2], specs[1::2]):
        assert plain.chain is twin.chain and (plain.adjoin_identity, twin.adjoin_identity) == (False, True)


def test_families_check_glues_each_chain_once(monkeypatch):
    from idemfree import construct

    real_glue = construct.chain_glue
    glued = []

    def glue(components):
        components = list(components)
        glued.append(tuple(comp.table for comp in components))
        return real_glue(components)

    monkeypatch.setattr(construct, "chain_glue", glue)
    specs = verify.enumerate_extremal_specs(3, 6)
    result = verify.check_extremal_families(max_components=3, max_terms=6)
    assert result["instances"] == result["passed"] == len(specs) == 2 * len(glued)
    assert glued == [tuple(part._table.table for part in spec.chain) for spec in specs[::2]]


def test_families_failures_come_back_in_spec_order(monkeypatch):
    # I(S) is misread on tables of odd order whose last element is an
    # identity: identity twins, and plain cyclic groups of odd order. The
    # families check must report the failures that a plain loop over the
    # specs, each building its own pair, reports, in the same order,
    # serially and through the pool
    from idemfree.construct import extremal_pair

    real_weak = verify._weak_value

    def weak(S):
        return real_weak(S) + (S.order % 2 == 1 and S.table[-1] == tuple(S.elements))

    monkeypatch.setattr(verify, "_weak_value", weak)
    specs = verify.enumerate_extremal_specs(2, 5)
    reference = []
    for spec in specs:
        S, T = extremal_pair(spec)
        row = verify._family_case(spec, S, T.terms)
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


def test_sharing_scope_lives_for_one_check(corpus_le3):
    seen = []

    def watching_map(fn, items):
        for item in items:
            seen.append(constants._shared)
            yield fn(item)

    for check in (verify.check_ghw_bound, verify.check_strong_weak, verify.check_extremal_equivalence):
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
            assert list(pool_map(abs, items)) == list(map(abs, items))
        assert list(pool_map(_scope_open, range(21))) == [True] * 21
    # a worker forked while its parent has a scope open starts outside it
    with constants._sharing():
        with ProcessPoolExecutor(max_workers=1) as executor:
            assert executor.submit(_scope_open, 0).result(timeout=60) is False


def test_fan_out_starts_at_most_one_process_per_cpu(monkeypatch):
    # the pool forks all its processes at its first task, so a large
    # worker count must not reach it; an in-process stand-in records the
    # size asked for, and the batches follow that size, not the request
    sizes = []

    class InProcessPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    # _fan_out imports the pool class when it opens a pool, so the stand-in
    # replaces it where that import finds it
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", InProcessPool)
    for cpus, workers, size in ((3, 5000, 3), (3, 2, 2), (None, 5000, 1)):
        monkeypatch.setattr(verify.os, "cpu_count", lambda n=cpus: n)
        with verify._fan_out(workers) as map_fn:
            assert map_fn.workers == size
            assert list(map_fn(abs, range(-10, 11))) == list(map(abs, range(-10, 11)))
        assert sizes.pop() == size
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
    # a strong walk that returned one more than |S \ E(S)| + 1 must become
    # a failure record, not an abort, whether the value the check reads or
    # the walk behind it is past the bound
    real = verify._shared_walk
    S = cyclic_group(3)
    record = [{"table": [v for row in S.table for v in row], "si": 4, "bound": 3}]

    def past_bound(letters, k, kind):
        _, positions, nodes = real(letters, k, kind)
        return k + 2, positions, nodes

    monkeypatch.setattr(verify, "_shared_walk", past_bound)
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
    real = verify._shared_walk

    def weak_too_large(letters, k, kind):
        value, positions, nodes = real(letters, k, kind)
        return value + (kind == constants.KIND_ERDOS_BURGESS), positions, nodes

    monkeypatch.setattr(verify, "_shared_walk", weak_too_large)
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
    # ghw-bound and strong-vs-weak read values inside one sharing scope,
    # from one letter table per case; each must be the value of the public
    # search on that table, run outside any scope
    strong = constants.KIND_STRONG_ERDOS_BURGESS
    real = verify._shared_walk
    read = []

    def spy(letters, k, kind):
        found = real(letters, k, kind)
        read.append((kind, found[0]))
        return found

    for corpus in (corpus_le3, corpus_le4):
        read.clear()
        monkeypatch.setattr(verify, "_shared_walk", spy)
        assert verify.check_ghw_bound(corpus)["failed"] == 0
        assert verify.check_strong_weak(corpus)["failed"] == 0
        monkeypatch.undo()
        assert constants._shared is None
        si = [(strong, constants.strong_erdos_burgess(S).value) for S in corpus]
        i = [(constants.KIND_ERDOS_BURGESS, constants.erdos_burgess(S).value) for S in corpus]
        assert read == si + [pair for both in zip(i, si) for pair in both]


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
