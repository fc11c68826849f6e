"""Batch verification over enumerated corpora and generated families.

Every check maps a pure per-instance function over its inputs, so a worker
pool can fan the work out; results are aggregated in input order and the
resulting logs are byte-identical regardless of worker count. Elapsed time
is deliberately kept out of the log payload. The pool stack
(``concurrent.futures``, ``multiprocessing``) loads on the first pooled
run, in ``_fan_out``: importing this module, and a serial run, never load
it. The pooled map, ``_PoolMap``, returns an iterator like the builtin
map: it submits every batch at the call and hands back one batch of rows
at a time, so the parent never holds all of a check's rows.

The extremal-families check maps one case over each chain's pair of
specs, plain and with an adjoined identity, which the spec enumeration
emits one after the other. The two specs share one glued table: the
twin's is that table with an identity adjoined, which is how
``extremal_pair`` builds it, and the twin has the same terms. Each spec
still gets its own table and all five of its checks, and the two rows are
aggregated in spec order.

The ghw-bound, strong-vs-weak and extremal-families checks share I and SI
searches between tables with the same letter table, and extremal-equivalence
shares its free sets F: each runs its map and aggregation inside one
``constants._sharing`` scope, and a process pool opens one scope per batch
of items in the worker that runs it. A shared report or free set is the one
the walk would return (``constants``), so the logs do not change.

The extremal-families and example-formulas checks read only I's value on
commutative tables, so they call ``constants._weak_value``, whose walk is
cut by the product-set growth bound and stops at the GHW cap. ghw-bound
tests that bound, and strong-vs-weak cross-checks the exhaustive searches,
so both run the exhaustive I and SI walks, through
``constants._shared_walk``, the walk dispatch behind ``erdos_burgess`` and
``strong_erdos_burgess``. The letter table alone picks each walk there, so
no check decides it; strong-vs-weak reads ``is_commutative`` only for its
equality test, when I and SI differ. They read values only: a case builds its table's letter
table once, for both of strong-vs-weak's walks, and no report.

The extremal-equivalence check never visits every word of length
k = |S \\ E(S)|. Freeness and the certificate depend only on the multiset
of terms, and a passing certificate pins each term's count to
index + period - 2, so it compares two small sets of multisets: the free
set F and the certified set C, one multiset per support whose pinned
counts sum to k. F comes from ``constants._free_masks``: the one result of
the any-order walk over the letter table, from which I on letters that do
not commute is read, here on commutative tables too, so there is one path.
That is exact, since a product that reaches an idempotent ends freeness:
a free multiset's products never leave the letters. The walk records every
free nondecreasing sequence of at most k letters with its any-order mask, so
the new-product bound looks up the mask of each multiset less one term,
and the cover claim asks for the full mask. The words of F xor C are its
equivalence failures, and the new-product bound and the claims run on
F & C.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import os

from .constants import (
    KIND_ERDOS_BURGESS,
    KIND_STRONG_ERDOS_BURGESS,
    _free_masks,
    _letter_table,
    _shared_walk,
    _sharing,
    _weak_value,
    davenport,
    ghw_bound,
)
from .construct import (
    ExtremalSpec,
    GroupByNil,
    Monogenic,
    _check_enum_order,
    adjoin_identity,
    enumerate_semigroups,
    extremal_pair,
    group_nil_chain,
)
from .core import (
    FiniteSemigroup,
    InvalidParameters,
    _check_flag,
    _cyclic_data,
    _idem_mask,
    _index,
    is_commutative,
    is_nilsemigroup,
    zero_element,
)
from .seqprod import _weakly_free
from .structure import _certify, _main_form, _support

CHECK_IDS = (
    "ghw-bound",
    "extremal-equivalence",
    "extremal-families",
    "example-formulas",
    "strong-vs-weak",
    "nil-product-lemma",
)


def _orders(max_order, enum_cap) -> tuple[int, int]:
    """max_order and enum_cap as ints, with max_order at least 1."""
    max_order = _index(max_order, "max_order")
    if max_order < 1:
        raise InvalidParameters(f"max_order must be at least 1, got {max_order}")
    return max_order, _index(enum_cap, "enum_cap")


def build_corpus(max_order: int, commutative_only: bool = False, enum_cap: int = 5) -> list[FiniteSemigroup]:
    """Every table of order 1 to max_order, in stream order; the arguments
    are checked before any order is enumerated."""
    max_order, enum_cap = _orders(max_order, enum_cap)
    _check_enum_order(max_order, enum_cap, "enum_cap")
    out: list[FiniteSemigroup] = []
    for n in range(1, max_order + 1):
        out.extend(enumerate_semigroups(n, commutative_only=commutative_only, max_order=enum_cap))
    return out


def _flat(S: FiniteSemigroup) -> list[int]:
    return [v for row in S.table for v in row]


def _aggregate(check_id: str, rows, extra_keys=()) -> dict:
    instances = passed = 0
    failures = []
    extras = {k: 0 for k in extra_keys}
    for row in rows:
        instances += 1
        if row["ok"]:
            passed += 1
        else:
            failures.append(row["failure"])
        for k in extra_keys:
            extras[k] += row.get(k, 0)
    result = {
        "id": check_id,
        "instances": instances,
        "passed": passed,
        "failed": instances - passed,
        "failures": failures,
    }
    result.update(extras)
    return result


def _ghw_case(S: FiniteSemigroup) -> dict:
    alpha, letters = _letter_table(S)
    si = _shared_walk(letters, len(alpha), KIND_STRONG_ERDOS_BURGESS)[0]
    bound = ghw_bound(S)
    ok = si <= bound
    return {
        "ok": ok,
        "failure": None if ok else {"table": _flat(S), "si": si, "bound": bound},
    }


def check_ghw_bound(semigroups, map_fn=map) -> dict:
    """No strongly free word of length |S \\ E(S)| + 1 exists (search exhausts)."""
    with _sharing():
        return _aggregate("ghw-bound", map_fn(_ghw_case, semigroups))


def _word_records(S: FiniteSemigroup, found) -> list[dict]:
    """Failure records, one per distinct word of each failing multiset and
    per finding, sorted by word: over the ascending alphabet that is the
    order in which a word-by-word sweep would have met them."""
    records = [
        {"table": _flat(S), "seq": list(word), **extra}
        for multiset, extras in found
        for word in set(itertools.permutations(multiset))
        for extra in extras
    ]
    records.sort(key=lambda r: r["seq"])
    return records


def _certified_multisets(S: FiniteSemigroup, alpha: list[int]) -> set[tuple[int, ...]]:
    """C: each multiset of len(alpha) terms over the non-idempotents alpha
    that passes the certificate, as a nondecreasing tuple of positions in
    alpha.

    The certificate's multiplicity condition pins the count of each term x
    of a passing multiset to index(x) + period(x) - 2, which is at least 1
    for a non-idempotent. So a passing multiset is fixed by its support:
    only supports whose pinned counts sum to the length are certified, one
    multiset each.
    """
    length = len(alpha)
    cds = [_cyclic_data(S, x) for x in alpha]
    pinned = [cd.index + cd.period - 2 for cd in cds]
    certified = set()
    for size in range(length + 1):
        for supp in itertools.combinations(range(length), size):
            if sum(pinned[i] for i in supp) != length:
                continue
            terms = tuple([alpha[i] for i in supp for _ in range(pinned[i])])
            if _certify(S, _support(S, terms)).passed:
                certified.add(tuple([i for i in supp for _ in range(pinned[i])]))
    return certified


def _equivalence_case(S: FiniteSemigroup) -> dict:
    """Every word of length k = |S \\ E(S)| over the k non-idempotents,
    decided from the free set F and the certified set C: the words of
    F xor C are the equivalence failures, and the bound and the claims are
    checked on F & C. Each multiset counts once per distinct word,
    k! / prod(c_i!) of them, so the counters and failure records are those
    of a sweep over all k^k words.

    F, each sub-multiset's mask and C are over letter positions; a failure
    record names element ids, mapped back through alpha.
    """
    alpha, letters = _letter_table(S)
    length = len(alpha)
    free_masks = _free_masks(letters, length)
    certified = _certified_multisets(S, alpha)
    free = lambda_checked = 0
    eq_found = [(multiset, [{}]) for multiset in certified ^ {m for m in free_masks if len(m) == length}]
    lambda_found = []
    claim_found = []
    for multiset in certified & free_masks.keys():
        mask = free_masks[multiset]
        supp = sorted(set(multiset))
        words = math.factorial(length) // math.prod(math.factorial(multiset.count(x)) for x in supp)
        free += words
        # new-product lower bound: dropping one copy of a term and
        # re-appending it must contribute at least one product; the rest is
        # a free nondecreasing sequence, so F's walk holds its mask
        lambda_checked += words * len(supp)
        gainless = []
        for x in supp:
            j = multiset.index(x)
            if not mask & ~free_masks[multiset[:j] + multiset[j + 1 :]]:
                gainless.append({"term": alpha[x]})
        if gainless:
            lambda_found.append((multiset, gainless))
        # extremal support commutes pairwise into itself, and the products
        # of a free sequence of this length cover all non-idempotents
        claims = []
        for a, b in itertools.combinations(supp, 2):
            ab = letters[a * length + b]
            if ab != letters[b * length + a] or ab not in (a, b):
                claims.append({"pair": [alpha[a], alpha[b]]})
        if mask != (1 << length) - 1:
            claims.append({"pair": None})
        if claims:
            claim_found.append((multiset, claims))
    eq_failures, lambda_failures, claim_failures = (
        _word_records(S, [(tuple([alpha[i] for i in multiset]), extras) for multiset, extras in found])
        for found in (eq_found, lambda_found, claim_found)
    )
    ok = not (eq_failures or lambda_failures or claim_failures)
    return {
        "ok": ok,
        "failure": None
        if ok
        else {"table": _flat(S), "equivalence": eq_failures, "lambda": lambda_failures, "claims": claim_failures},
        "sequences": length**length,
        "freeSequences": free,
        "lambdaChecked": lambda_checked,
        "equivalenceFailures": len(eq_failures),
        "lambdaFailures": len(lambda_failures),
        "claimFailures": len(claim_failures),
    }


def check_extremal_equivalence(commutative_semigroups, map_fn=map) -> dict:
    """Freeness at length |S \\ E(S)| matches the structural certificate, and
    every free sequence found satisfies the new-product lower bound.

    Each table's free multisets F and certified multisets C are built
    separately and compared; no other multiset is visited. The check runs
    in one sharing scope, so F is walked once per distinct letter table.
    The counters are still word counts: sequences is k^k, freeSequences
    and lambdaChecked count the words of F & C, and the failure counts the
    words of each failing multiset."""
    with _sharing():
        return _aggregate(
            "extremal-equivalence",
            map_fn(_equivalence_case, commutative_semigroups),
            extra_keys=(
                "sequences",
                "freeSequences",
                "lambdaChecked",
                "equivalenceFailures",
                "lambdaFailures",
                "claimFailures",
            ),
        )


def _spec_to_json(spec: ExtremalSpec) -> dict:
    parts = []
    for part in spec.chain:
        if isinstance(part, Monogenic):
            parts.append({"kind": "Monogenic", "index": part.index, "period": part.period})
        else:
            parts.append({"kind": "GroupByNil", "nilIndex": part.nil_index, "groupOrder": part.group_order})
    return {"chain": parts, "adjoinIdentity": spec.adjoin_identity}


def _family_case(spec: ExtremalSpec, S: FiniteSemigroup, terms: tuple[int, ...]) -> dict:
    """The five checks of one spec on its table S and its extremal terms,
    element ids of S."""
    expected_len = S.order - _idem_mask(S).bit_count()
    rec = _support(S, terms)  # one record for the certificate and the main form
    cert = _certify(S, rec)
    checks = {
        "length": len(terms) == expected_len,
        "weaklyFree": _weakly_free(S, terms),
        "certificate": cert.passed,
        "mainFormAgrees": _main_form(S, rec) == cert.passed,
        "erdosBurgess": _weak_value(S) == expected_len + 1,
    }
    ok = all(checks.values())
    return {
        "ok": ok,
        "failure": None if ok else {"spec": _spec_to_json(spec), "checks": checks},
    }


def _family_pair_case(pair: tuple[ExtremalSpec, ExtremalSpec]) -> tuple[dict, dict]:
    """The rows of a chain's plain spec and of its identity twin. The
    chain is glued once: the twin's table is the plain table with an
    identity adjoined, as ``extremal_pair`` builds it, and has the same
    terms, since the identity comes last."""
    plain, twin = pair
    S, T = extremal_pair(plain)
    return _family_case(plain, S, T.terms), _family_case(twin, adjoin_identity(S), T.terms)


def enumerate_extremal_specs(max_components: int = 3, max_terms: int = 10) -> list[ExtremalSpec]:
    """Every chain of at most max_components catalog parts whose sequence
    length budget fits, each also with an adjoined identity: the plain spec
    first, then its identity twin. The chains are in the order of
    ``itertools.product`` over the catalog, shortest first, but a chain is
    extended only while its budget allows. Group-by-nil parts have nil index
    and group order at most 4. The chains share the catalog's part objects,
    so each part's table is built once for all the specs, and once per
    batch when a process pool pickles them."""
    max_components = _index(max_components, "max_components")
    max_terms = _index(max_terms, "max_terms")
    if max_components < 1:
        raise InvalidParameters(f"max_components must be at least 1, got {max_components}")
    if max_terms < 0:
        raise InvalidParameters(f"max_terms must be at least 0, got {max_terms}")
    catalog: list[Monogenic | GroupByNil] = []
    for period in range(1, max_terms + 2):
        for index in range(1, max_terms + 3 - period):
            if (index - 1) % period == 0 and index + period - 2 <= max_terms:
                catalog.append(Monogenic(index, period))
    for nil_index in range(2, 5):
        for group_order in range(2, 5):
            if nil_index + group_order - 2 <= max_terms:
                catalog.append(GroupByNil(nil_index, group_order))

    costs = [(part, part.term_count) for part in catalog]
    specs: list[ExtremalSpec] = []
    # every part costs at least 0 terms, so a chain over budget has no
    # extension within it; extending each chain in catalog order keeps
    # each length's chains in lexicographic order
    chains: list[tuple[tuple, int]] = [((), 0)]
    for _length in range(max_components):
        chains = [
            (chain + (part,), used + cost)
            for chain, used in chains
            for part, cost in costs
            if used + cost <= max_terms
        ]
        for chain, _used in chains:
            specs.append(ExtremalSpec(chain))
            specs.append(ExtremalSpec(chain, adjoin_identity=True))
    return specs


def check_extremal_families(map_fn=map, max_components: int = 3, max_terms: int = 10) -> dict:
    """Every generated extremal pair is free, certified, and search-extremal."""
    specs = enumerate_extremal_specs(max_components=max_components, max_terms=max_terms)
    pairs = list(zip(specs[::2], specs[1::2]))
    with _sharing():
        return _aggregate("extremal-families", itertools.chain.from_iterable(map_fn(_family_pair_case, pairs)))


def _formula_case(params: tuple[int, int]) -> dict:
    n1, n2 = params
    S = group_nil_chain(n1, n2)
    got_i = _weak_value(S)
    got_d = davenport(S).value
    want_i = (n1 - 1) + (n2 - 1) + 1
    want_d = max(n1, n2 + 1)
    ok = got_i == want_i and got_d == want_d
    return {
        "ok": ok,
        "failure": None
        if ok
        else {"n1": n1, "n2": n2, "erdosBurgess": [got_i, want_i], "davenport": [got_d, want_d]},
    }


def check_example_formulas(map_fn=map) -> dict:
    """Group-over-nil chains, 2 <= n1, n2 <= 5, match the closed-form
    constants via search."""
    params = [(n1, n2) for n1 in range(2, 6) for n2 in range(2, 6)]
    return _aggregate("example-formulas", map_fn(_formula_case, params))


def _strong_weak_case(S: FiniteSemigroup) -> dict:
    alpha, letters = _letter_table(S)
    k = len(alpha)
    weak = _shared_walk(letters, k, KIND_ERDOS_BURGESS)[0]
    strong = _shared_walk(letters, k, KIND_STRONG_ERDOS_BURGESS)[0]
    ok = weak <= strong and (weak == strong or not is_commutative(S))
    return {
        "ok": ok,
        "failure": None if ok else {"table": _flat(S), "i": weak, "si": strong},
    }


def check_strong_weak(semigroups, map_fn=map) -> dict:
    """I(S) <= SI(S) always, with equality on commutative semigroups."""
    with _sharing():
        return _aggregate("strong-vs-weak", map_fn(_strong_weak_case, semigroups))


def _nil_case(S: FiniteSemigroup) -> dict:
    z = zero_element(S)
    bad = [
        (a, b)
        for a in S.elements
        for b in S.elements
        if S.table[a][b] in (a, b) and a != z and b != z
    ]
    return {
        "ok": not bad,
        "failure": None if not bad else {"table": _flat(S), "pairs": [list(p) for p in bad]},
    }


def check_nil_lemma(commutative_semigroups, map_fn=map) -> dict:
    """In a commutative nilsemigroup a*b in {a, b} forces a zero factor."""
    nils = [S for S in commutative_semigroups if is_nilsemigroup(S)]
    return _aggregate("nil-product-lemma", map_fn(_nil_case, nils))


def _batch(fn, items) -> list:
    """One pool task: fn over a batch of items inside one sharing scope."""
    with _sharing():
        return [fn(item) for item in items]


class _PoolMap:
    """Order-preserving map over a process pool, in batches of consecutive
    items, each run inside its own sharing scope. Like the builtin map, it
    returns an iterator: every batch is submitted at the call, and the rows
    come back one batch at a time as they are read."""

    def __init__(self, executor: ProcessPoolExecutor, workers: int):
        self.executor = executor
        self.workers = workers

    def __call__(self, fn, items):
        items = list(items)
        chunk = max(1, len(items) // (self.workers * 4))
        batches = [items[i:i + chunk] for i in range(0, len(items), chunk)]
        return itertools.chain.from_iterable(self.executor.map(_batch, [fn] * len(batches), batches))


def _processes(workers: int) -> int:
    """The processes a run at `workers` workers uses: at most one per CPU,
    since a pool starts all its processes at its first task."""
    return min(workers, os.cpu_count() or 1)


@contextlib.contextmanager
def _fan_out(workers: int):
    """An order-preserving map for `workers` workers: the builtin map at one
    worker, otherwise a _PoolMap over a fresh pool of _processes(workers)
    processes, batched for the processes the pool has. The batches decide
    only which tables share a scope, and a shared result is the one a fresh
    search returns, so the log is the same at every worker count. Only a
    pooled run imports the pool stack."""
    workers = _index(workers, "workers")
    if workers < 1:
        raise InvalidParameters(f"workers must be at least 1, got {workers}")
    if workers == 1:
        yield map
        return
    from concurrent.futures import ProcessPoolExecutor

    processes = _processes(workers)
    with ProcessPoolExecutor(max_workers=processes) as executor:
        yield _PoolMap(executor, processes)


def run_verification(
    max_order: int = 4,
    commutative_only: bool = False,
    checks=CHECK_IDS,
    workers: int = 1,
    enum_cap: int = 5,
) -> dict:
    """Run the selected checks and return a deterministic JSON-ready log."""
    max_order, enum_cap = _orders(max_order, enum_cap)
    _check_flag(commutative_only, "commutative_only")
    # a string would iterate as letters, and a set in an order that follows
    # the hash seed, which would make the log's check order vary
    if isinstance(checks, str):
        raise InvalidParameters(f"checks must be a list of check ids, not the string {checks!r}")
    if isinstance(checks, (set, frozenset)):
        raise InvalidParameters(f"checks must be a list of check ids, not a {type(checks).__name__}, whose order is not fixed")
    try:
        selected = list(checks)
    except TypeError:
        raise InvalidParameters(f"checks must be a list of check ids, got {checks!r}") from None
    if not selected:
        raise InvalidParameters(f"no checks selected; available: {list(CHECK_IDS)}")
    unknown = [c for c in selected if c not in CHECK_IDS]
    if unknown:
        raise InvalidParameters(f"unknown checks: {unknown}; available: {list(CHECK_IDS)}")
    repeated = sorted({c for c in selected if selected.count(c) > 1})
    if repeated:
        raise InvalidParameters(f"repeated checks: {repeated}; name each check once")
    needs_corpus = bool({"ghw-bound", "extremal-equivalence", "strong-vs-weak", "nil-product-lemma"} & set(selected))
    if needs_corpus:
        _check_enum_order(max_order, enum_cap, "enum_cap")

    with _fan_out(workers) as map_fn:
        corpus: list[FiniteSemigroup] = []
        commutative: list[FiniteSemigroup] = []
        if needs_corpus:
            corpus = build_corpus(max_order, commutative_only=commutative_only, enum_cap=enum_cap)
            commutative = [S for S in corpus if is_commutative(S)]
        runs = {
            "ghw-bound": lambda: check_ghw_bound(corpus, map_fn),
            "extremal-equivalence": lambda: check_extremal_equivalence(commutative, map_fn),
            "extremal-families": lambda: check_extremal_families(map_fn),
            "example-formulas": lambda: check_example_formulas(map_fn),
            "strong-vs-weak": lambda: check_strong_weak(corpus, map_fn),
            "nil-product-lemma": lambda: check_nil_lemma(commutative, map_fn),
        }
        check_results = [runs[check]() for check in selected]

    instances = sum(r["instances"] for r in check_results)
    passed = sum(r["passed"] for r in check_results)
    return {
        "corpus": {
            "maxOrder": max_order,
            "commutativeOnly": commutative_only,
            "semigroups": len(corpus),
        },
        "requestedChecks": selected,
        "checks": check_results,
        "summary": {
            "instances": instances,
            "passed": passed,
            "failed": instances - passed,
            "allPassed": passed == instances,
        },
    }
