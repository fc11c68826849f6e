"""Batch verification over enumerated corpora and generated families.

Every check maps a pure per-instance function over its inputs, so a worker
pool can fan the work out; results are aggregated in input order and the
resulting logs are byte-identical regardless of worker count. Elapsed time
is deliberately kept out of the log payload.

The ghw-bound, strong-vs-weak and extremal-families checks share I and SI
searches between tables with the same letter table: each runs its map and
aggregation inside one ``constants._sharing`` scope, and a process pool
opens one scope per batch of items in the worker that runs it. A shared
report is the report the search would return (``constants``), so the logs
do not change.

The extremal-families and example-formulas checks read only I's value on
commutative tables, so they call ``constants._weak_value``, whose walk is
cut by the product-set growth bound and stops at the GHW cap. ghw-bound
tests that bound, and strong-vs-weak cross-checks the exhaustive searches,
so both keep ``erdos_burgess`` and ``strong_erdos_burgess``.

The extremal-equivalence check never visits every word of length
k = |S \\ E(S)|. Freeness and the certificate depend only on the multiset
of terms, and a passing certificate pins each term's count to
index + period - 2, so it compares two small sets of multisets: the free
set F, from a walk over nondecreasing sequences cut at the first
idempotent product, and the certified set C, one multiset per support
whose pinned counts sum to k. The words of F xor C are its equivalence
failures, and the new-product bound and the claims run on F & C.
"""

from __future__ import annotations

import contextlib
import itertools
import math
from concurrent.futures import ProcessPoolExecutor

from .constants import _sharing, _weak_value, davenport, erdos_burgess, ghw_bound, strong_erdos_burgess
from .construct import (
    ExtremalSpec,
    GroupByNil,
    Monogenic,
    _check_enum_order,
    enumerate_semigroups,
    extremal_pair,
    group_nil_chain,
)
from .core import (
    FiniteSemigroup,
    InvalidParameters,
    _check_flag,
    _cyclic_data,
    _index,
    idempotents,
    is_commutative,
    is_nilsemigroup,
    zero_element,
)
from .seqprod import _any_mask, _idem_mask, _weakly_free
from .structure import _certify, _main_form

CHECK_IDS = (
    "ghw-bound",
    "extremal-equivalence",
    "extremal-families",
    "example-formulas",
    "strong-vs-weak",
    "nil-product-lemma",
)


def build_corpus(max_order: int, commutative_only: bool = False, enum_cap: int = 5) -> list[FiniteSemigroup]:
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
    report = strong_erdos_burgess(S)
    bound = ghw_bound(S)
    ok = report.value <= bound
    return {
        "ok": ok,
        "failure": None if ok else {"table": _flat(S), "si": report.value, "bound": bound},
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


def _free_multisets(S: FiniteSemigroup, alphabet: list[int], idem: int) -> dict[tuple[int, ...], int]:
    """F: each weakly free multiset of len(alphabet) terms over the
    alphabet, as a nondecreasing tuple, with its any-order product mask;
    idem is the mask of the idempotents.

    A depth-first walk over nondecreasing prefixes; the any-order set of a
    sub-multiset lies inside that of the multiset, so a prefix with an
    idempotent product has no free extension and its subtree is cut.
    """
    length = len(alphabet)
    found: dict[tuple[int, ...], int] = {}

    def walk(prefix: tuple[int, ...], start: int) -> None:
        mask = _any_mask(S, prefix)
        if mask & idem:
            return
        if len(prefix) == length:
            found[prefix] = mask
            return
        for i in range(start, length):
            walk(prefix + (alphabet[i],), i)

    walk((), 0)
    return found


def _certified_multisets(S: FiniteSemigroup, alphabet: list[int]) -> set[tuple[int, ...]]:
    """C: each multiset of len(alphabet) terms over the alphabet that passes
    the certificate, as a nondecreasing tuple.

    The certificate's multiplicity condition pins the count of each term x
    of a passing multiset to index(x) + period(x) - 2, which is at least 1
    for a non-idempotent. So a passing multiset is fixed by its support:
    only supports whose pinned counts sum to the length are certified, one
    multiset each.
    """
    length = len(alphabet)
    cds = {x: _cyclic_data(S, x) for x in alphabet}
    pinned = {x: cds[x].index + cds[x].period - 2 for x in alphabet}
    certified = set()
    for size in range(length + 1):
        for supp in itertools.combinations(alphabet, size):
            if sum(pinned[x] for x in supp) != length:
                continue
            multiset = tuple(x for x in supp for _ in range(pinned[x]))
            if _certify(S, multiset).passed:
                certified.add(multiset)
    return certified


def _equivalence_case(S: FiniteSemigroup) -> dict:
    """Every word of length k = |S \\ E(S)| over the k non-idempotents,
    decided from the free set F and the certified set C: the words of
    F xor C are the equivalence failures, and the bound and the claims are
    checked on F & C. Each multiset counts once per distinct word,
    k! / prod(c_i!) of them, so the counters and failure records are those
    of a sweep over all k^k words.
    """
    idem = _idem_mask(S)
    alphabet = [a for a in S.elements if not idem >> a & 1]
    length = len(alphabet)
    free_masks = _free_multisets(S, alphabet, idem)
    certified = _certified_multisets(S, alphabet)
    nonidem = ((1 << S.order) - 1) ^ idem
    free = lambda_checked = 0
    eq_found = [(multiset, [{}]) for multiset in free_masks.keys() ^ certified]
    lambda_found = []
    claim_found = []
    for multiset, mask in free_masks.items():
        if multiset not in certified:
            continue
        supp = sorted(set(multiset))
        words = math.factorial(length) // math.prod(math.factorial(multiset.count(x)) for x in supp)
        free += words
        # new-product lower bound: dropping one copy of a term and
        # re-appending it must contribute at least one product; the grown
        # sequence has the same multiset, so its any-order set is mask
        lambda_checked += words * len(supp)
        gainless = []
        for x in supp:
            rest = list(multiset)
            rest.remove(x)
            if not (mask & ~_any_mask(S, tuple(rest))):
                gainless.append({"term": x})
        if gainless:
            lambda_found.append((multiset, gainless))
        # extremal support commutes pairwise into itself, and the products
        # of a free sequence of this length cover all non-idempotents
        claims = []
        for i, a in enumerate(supp):
            for b in supp[i + 1:]:
                if S.table[a][b] != S.table[b][a] or S.table[a][b] not in (a, b):
                    claims.append({"pair": [a, b]})
        if mask != nonidem:
            claims.append({"pair": None})
        if claims:
            claim_found.append((multiset, claims))
    eq_failures = _word_records(S, eq_found)
    lambda_failures = _word_records(S, lambda_found)
    claim_failures = _word_records(S, claim_found)
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
    separately and compared; no other multiset is visited. The counters
    are still word counts: sequences is k^k, freeSequences and
    lambdaChecked count the words of F & C, and the failure counts the
    words of each failing multiset."""
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


def _family_case(spec: ExtremalSpec) -> dict:
    S, T = extremal_pair(spec)
    terms = T.terms  # element ids of S, built by extremal_pair
    expected_len = S.order - len(idempotents(S))
    cert = _certify(S, terms)
    checks = {
        "length": len(terms) == expected_len,
        "weaklyFree": _weakly_free(S, terms),
        "certificate": cert.passed,
        "mainFormAgrees": _main_form(S, terms) == cert.passed,
        "erdosBurgess": _weak_value(S) == expected_len + 1,
    }
    ok = all(checks.values())
    return {
        "ok": ok,
        "failure": None if ok else {"spec": _spec_to_json(spec), "checks": checks},
    }


def enumerate_extremal_specs(max_components: int = 3, max_terms: int = 10) -> list[ExtremalSpec]:
    """Every chain of at most max_components catalog parts whose sequence
    length budget fits, each also with an adjoined identity. Group-by-nil
    parts have nil index and group order at most 4. The chains share the
    catalog's part objects, so each part's table is built once for all the
    specs, and once per batch when a process pool pickles them."""
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

    specs: list[ExtremalSpec] = []
    for length in range(1, max_components + 1):
        for chain in itertools.product(catalog, repeat=length):
            if sum(part.term_count for part in chain) > max_terms:
                continue
            specs.append(ExtremalSpec(chain))
            specs.append(ExtremalSpec(chain, adjoin_identity=True))
    return specs


def check_extremal_families(map_fn=map, max_components: int = 3, max_terms: int = 10) -> dict:
    """Every generated extremal pair is free, certified, and search-extremal."""
    specs = enumerate_extremal_specs(max_components=max_components, max_terms=max_terms)
    with _sharing():
        return _aggregate("extremal-families", map_fn(_family_case, specs))


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
    weak = erdos_burgess(S).value
    strong = strong_erdos_burgess(S).value
    ok = weak <= strong and (not is_commutative(S) or weak == strong)
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
    items, each run inside its own sharing scope."""

    def __init__(self, executor: ProcessPoolExecutor, workers: int):
        self.executor = executor
        self.workers = workers

    def __call__(self, fn, items):
        items = list(items)
        chunk = max(1, len(items) // (self.workers * 4))
        batches = [items[i:i + chunk] for i in range(0, len(items), chunk)]
        return [row for rows in self.executor.map(_batch, [fn] * len(batches), batches) for row in rows]


@contextlib.contextmanager
def _fan_out(workers: int):
    """An order-preserving map over `workers` processes: the builtin map at
    one worker, a _PoolMap over a fresh pool otherwise."""
    workers = _index(workers, "workers")
    if workers < 1:
        raise InvalidParameters(f"workers must be at least 1, got {workers}")
    if workers == 1:
        yield map
        return
    with ProcessPoolExecutor(max_workers=workers) as executor:
        yield _PoolMap(executor, workers)


def run_verification(
    max_order: int = 4,
    commutative_only: bool = False,
    checks=CHECK_IDS,
    workers: int = 1,
    enum_cap: int = 5,
) -> dict:
    """Run the selected checks and return a deterministic JSON-ready log."""
    max_order = _index(max_order, "max_order")
    if max_order < 1:
        raise InvalidParameters(f"max_order must be at least 1, got {max_order}")
    enum_cap = _index(enum_cap, "enum_cap")
    _check_flag(commutative_only, "commutative_only")
    if isinstance(checks, str):
        raise InvalidParameters(f"checks must be a list of check ids, not the string {checks!r}")
    selected = list(checks)
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
