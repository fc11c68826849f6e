"""Batch verification over enumerated corpora and generated families.

Every check maps a pure per-instance function over its inputs, so a worker
pool can fan the work out; results are aggregated in input order and the
resulting logs are byte-identical regardless of worker count. Elapsed time
is deliberately kept out of the log payload. The pool stack
(``concurrent.futures``, ``multiprocessing``) loads on the first pooled
run, in ``_fan_out``: importing this module, and a serial run, never load
it. The pooled map, ``_PoolMap``, is the executor's own map in chunks of
consecutive items. Like the builtin map it returns an iterator: it submits
every chunk at the call and hands back one chunk of rows at a time, so the
parent never holds all of a check's rows.

The extremal-families check maps one case over each chain's pair of
specs, plain and with an adjoined identity, which the spec enumeration
emits one after the other. The two specs share one glued table: the
twin's is that table with an identity adjoined, which is how
``extremal_pair`` builds it, and the twin has the same terms. Each spec
still gets its own table and all five of its checks, and the two rows are
aggregated in spec order. A spec's three verdicts, weak freeness, the
certificate's bare verdict (``structure._passes``) and the main form, are
read on its own table, from one certificate record (``structure._Support``):
the check reports only whether the certificate passed, so no
``ExtremalCertificate`` is built.

When the complement holds, the three verdicts are kept in the check's memo
under the key that ``_support_table`` returns: the products of R =
<support> by its generators and the terms, both relabelled in increasing
element order, one character per id. That is exact. Every element r of R
is a left-nested product g1 ... gk of generators (``core._generated``),
so a r = ((a g1) ...) gk is read off the generator columns alone, and two
spec tables with one key have isomorphic R under the increasing relabel,
with equal relabelled tables. Once the complement holds, every verdict
reads only products inside R and which of R's elements are idempotent, so
the two tables have equal verdicts. No product of the terms is the
adjoined identity, so every identity twin has its plain spec's R and key,
and a pair case keys the plain spec once for both rows. Chains that differ
only by trivial parts have one R, so the 7 254 specs at (3, 8) read 2 297
keys, the empty support among them. A spec whose complement fails gets no
key and is not memoized: its certificate reads S outside R.

The check reads I from the chain's parts, by the ordinal-sum lemma. Let B
be an ideal of S, and A = S \\ B a subsemigroup whose every element is a
two-sided identity on B: ``chain_glue`` makes each part so on every later
part, and ``adjoin_identity`` puts {e} above S. A subsequence with a term
in B multiplies, in any order, to the product of its B-terms in their
order, and one with no term in B multiplies inside A. So a sequence is
weakly (strongly) free exactly when its A-terms and its B-terms are, and
I(S) = I(A) + I(B) - 1, SI(S) likewise. By induction along the chain, a
spec's I is 1 plus the sum of I(part) - 1 over its parts, and an adjoined
identity adds I({e}) - 1 = 0. Each part's I is the exhaustive
``erdos_burgess`` on its table, and a pair case reads the sum once for
both rows. So the value is exact at both ends: it tests I <= k + 1 as well
as I >= k + 1, and rests neither on the freeness column nor on the growth
lemma behind the GHW bound, which ghw-bound tests on the corpus.

I, SI and F depend on a table only through its letter table
(``constants``): the 31 940 commutative tables of order <= 5 have 1 057
between them. So the ghw-bound, strong-vs-weak, extremal-equivalence and
extremal-families checks bind a fresh dict to their case's first
argument with ``functools.partial``, and ``_memo`` keeps each walk's
result there under its kind and letter table, each part's I report under
"part" and the part, and each support's verdicts under "support" and its
key. Parts hash by their fields, so a copy unpickled in a worker finds its
entry. A stored result is the one a fresh computation would return, so
the logs do not change. A serial check fills one memo; a pool pickles the
case with each chunk, so each chunk fills its own copy.

ghw-bound and strong-vs-weak run the exhaustive I and SI walks through
``constants._walk``, the walk dispatch behind ``erdos_burgess`` and
``strong_erdos_burgess``. The letter table alone picks each walk there, so
no check decides it; strong-vs-weak reads ``is_commutative`` only for its
equality test, when I and SI differ. They read values only: a case builds
its table's letter table once, for both of strong-vs-weak's walks, and no
report.

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
and the cover claim asks for the full mask. C reads each letter's pinned
count off its one cycle walk (``core._cycle``) and each candidate's bare
verdict (``structure._passes``). The words of F xor C are its
equivalence failures, and the new-product bound and the claims run on
F & C.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
import os

from .constants import (
    KIND_ERDOS_BURGESS,
    KIND_STRONG_ERDOS_BURGESS,
    _free_masks,
    _letter_table,
    _walk,
    davenport,
    erdos_burgess,
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
    _cycle,
    _generated,
    _idem_mask,
    _index,
    is_commutative,
    is_nilsemigroup,
    zero_element,
)
from .seqprod import _weakly_free
from .structure import _main_form, _passes, _Support

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


def _memo(memo: dict, key: tuple, compute, *args):
    """compute(*args), looked up under key in memo first and stored there
    on a miss (module docstring)."""
    found = memo.get(key)
    if found is None:
        found = memo[key] = compute(*args)
    return found


def _ghw_case(memo: dict, S: FiniteSemigroup) -> dict:
    alpha, letters = _letter_table(S)
    kind = KIND_STRONG_ERDOS_BURGESS
    si = _memo(memo, (kind, letters), _walk, letters, len(alpha), kind)[0]
    bound = ghw_bound(S)
    ok = si <= bound
    return {
        "ok": ok,
        "failure": None if ok else {"table": _flat(S), "si": si, "bound": bound},
    }


def check_ghw_bound(semigroups, map_fn=map) -> dict:
    """No strongly free word of length |S \\ E(S)| + 1 exists (search exhausts)."""
    return _aggregate("ghw-bound", map_fn(functools.partial(_ghw_case, {}), semigroups))


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
    multiset each. A cycle walk finds index + period - 1 distinct powers,
    so the pinned count is one less than their number.
    """
    length = len(alpha)
    pinned = [len(_cycle(S.table, x)[0]) - 1 for x in alpha]
    certified = set()
    for size in range(length + 1):
        for supp in itertools.combinations(range(length), size):
            if sum(pinned[i] for i in supp) != length:
                continue
            terms = tuple([alpha[i] for i in supp for _ in range(pinned[i])])
            if _passes(S, _Support(S, terms)):
                certified.add(tuple([i for i in supp for _ in range(pinned[i])]))
    return certified


def _equivalence_case(memo: dict, S: FiniteSemigroup) -> dict:
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
    free_masks = _memo(memo, ("free", letters), _free_masks, letters, length)
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
    separately and compared; no other multiset is visited. F is walked
    once per distinct letter table (module docstring).
    The counters are still word counts: sequences is k^k, freeSequences
    and lambdaChecked count the words of F & C, and the failure counts the
    words of each failing multiset."""
    return _aggregate(
        "extremal-equivalence",
        map_fn(functools.partial(_equivalence_case, {}), commutative_semigroups),
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


def _spec_verdicts(S: FiniteSemigroup, terms: tuple[int, ...]) -> tuple[bool, bool, bool]:
    """Weak freeness, the certificate's bare verdict and the main form of
    terms, element ids of S, all on S's own table."""
    rec = _Support(S, terms)  # one record for the certificate and the main form
    return _weakly_free(S, terms), _passes(S, rec), _main_form(S, rec)


def _support_table(S: FiniteSemigroup, terms: tuple[int, ...]) -> tuple[str, str] | None:
    """None when terms, element ids of S, fail the complement-idempotent
    condition R | E(S) = S, for R the subsemigroup their support generates:
    the one test of the certificate that reads S (``structure``'s module
    docstring). Otherwise the products a g of each a in R by each generator
    g, relabelled in increasing element order and flattened row by row, and
    the terms in R's ids, each a string of one character per id: the memo
    key for the verdicts, which then read only R (module docstring). The
    generator columns fix all of R's table: the terms name the generators,
    and each a r, r = g1 ... gk, is ((a g1) ...) gk, so two tables with one
    key have one relabelled R. The empty support gives the empty table.
    """
    t = S.table
    supp = sorted(set(terms))
    R = _generated(t, supp)
    if R | _idem_mask(S) != (1 << S.order) - 1:
        return None
    ids = [a for a in range(S.order) if R >> a & 1]
    name = [""] * S.order
    for i, a in enumerate(ids):
        name[a] = chr(i)
    return "".join([name[t[a][g]] for a in ids for g in supp]), "".join([name[x] for x in terms])


def _family_verdicts(memo: dict, S: FiniteSemigroup, terms: tuple[int, ...], key) -> tuple[bool, bool, bool]:
    """``_spec_verdicts`` of terms, element ids of S, kept in the memo under
    key, ``_support_table``'s key of terms on S, when the complement holds
    (module docstring)."""
    if key is None:
        return _spec_verdicts(S, terms)
    return _memo(memo, ("support", *key), _spec_verdicts, S, terms)


def _family_case(memo: dict, spec: ExtremalSpec, S: FiniteSemigroup, terms: tuple[int, ...], key, value: int) -> dict:
    """The five checks of one spec on its table S and its extremal terms,
    element ids of S, given the terms' ``_support_table`` key on S and
    I(S)."""
    bound = ghw_bound(S)
    free, passed, main = _family_verdicts(memo, S, terms, key)
    checks = {
        "length": len(terms) == bound - 1,
        "weaklyFree": free,
        "certificate": passed,
        "mainFormAgrees": main == passed,
        "erdosBurgess": value == bound,
    }
    ok = all(checks.values())
    return {
        "ok": ok,
        "failure": None if ok else {"spec": _spec_to_json(spec), "checks": checks},
    }


def _family_pair_case(memo: dict, pair: tuple[ExtremalSpec, ExtremalSpec]) -> tuple[dict, dict]:
    """The rows of a chain's plain spec and of its identity twin. The
    chain is glued once: the twin's table is the plain table with an
    identity adjoined, as ``extremal_pair`` builds it, and has the same
    terms, since the identity comes last. No product of the terms is the
    identity, so the twin has the plain spec's R and key. Both have the
    plain spec's I, 1 plus the sum of I(part) - 1 over the chain by the
    ordinal-sum lemma, with each part's I read through the memo (module
    docstring)."""
    plain, twin = pair
    S, T = extremal_pair(plain)
    key = _support_table(S, T.terms)
    value = 1 + sum(_memo(memo, ("part", part), erdos_burgess, part._table).value - 1 for part in plain.chain)
    return (
        _family_case(memo, plain, S, T.terms, key, value),
        _family_case(memo, twin, adjoin_identity(S), T.terms, key, value),
    )


def enumerate_extremal_specs(max_components: int = 3, max_terms: int = 10) -> list[ExtremalSpec]:
    """Every chain of at most max_components catalog parts whose sequence
    length budget fits, each also with an adjoined identity: the plain spec
    first, then its identity twin. The chains are in the order of
    ``itertools.product`` over the catalog, shortest first, but a chain is
    extended only while its budget allows. Group-by-nil parts have nil index
    and group order at most 4. The chains share the catalog's part objects,
    so each part's table is built once for all the specs, and again once
    per chunk when a process pool unpickles them."""
    max_components = _index(max_components, "max_components")
    max_terms = _index(max_terms, "max_terms")
    if max_components < 1:
        raise InvalidParameters(f"max_components must be at least 1, got {max_components}")
    if max_terms < 0:
        raise InvalidParameters(f"max_terms must be at least 0, got {max_terms}")
    catalog: list[Monogenic | GroupByNil] = []
    for period in range(1, max_terms + 2):
        # index <= max_terms + 2 - period: the part's terms fit the budget
        for index in range(1, max_terms + 3 - period):
            if (index - 1) % period == 0:
                catalog.append(Monogenic(index, period))
    for nil_index in range(2, 5):
        for group_order in range(2, 5):
            if nil_index + group_order - 2 <= max_terms:
                catalog.append(GroupByNil(nil_index, group_order))

    specs: list[ExtremalSpec] = []
    # every part costs at least 0 terms, so a chain over budget has no
    # extension within it; extending each chain in catalog order keeps
    # each length's chains in lexicographic order
    chains: list[tuple[tuple, int]] = [((), 0)]
    for _length in range(max_components):
        chains = [
            (chain + (part,), used + part.term_count)
            for chain, used in chains
            for part in catalog
            if used + part.term_count <= max_terms
        ]
        for chain, _used in chains:
            specs.append(ExtremalSpec(chain))
            specs.append(ExtremalSpec(chain, adjoin_identity=True))
    return specs


def check_extremal_families(map_fn=map, max_components: int = 3, max_terms: int = 10) -> dict:
    """Every generated extremal pair is free, certified, and search-extremal."""
    specs = enumerate_extremal_specs(max_components=max_components, max_terms=max_terms)
    pairs = list(zip(specs[::2], specs[1::2]))
    rows = map_fn(functools.partial(_family_pair_case, {}), pairs)
    return _aggregate("extremal-families", itertools.chain.from_iterable(rows))


def _formula_case(params: tuple[int, int]) -> dict:
    n1, n2 = params
    S = group_nil_chain(n1, n2)
    got_i = erdos_burgess(S).value
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
    constants via the exhaustive I and D searches."""
    params = [(n1, n2) for n1 in range(2, 6) for n2 in range(2, 6)]
    return _aggregate("example-formulas", map_fn(_formula_case, params))


def _strong_weak_case(memo: dict, S: FiniteSemigroup) -> dict:
    alpha, letters = _letter_table(S)
    k = len(alpha)
    weak, strong = [
        _memo(memo, (kind, letters), _walk, letters, k, kind)[0]
        for kind in (KIND_ERDOS_BURGESS, KIND_STRONG_ERDOS_BURGESS)
    ]
    ok = weak <= strong and (weak == strong or not is_commutative(S))
    return {
        "ok": ok,
        "failure": None if ok else {"table": _flat(S), "i": weak, "si": strong},
    }


def check_strong_weak(semigroups, map_fn=map) -> dict:
    """I(S) <= SI(S) always, with equality on commutative semigroups."""
    return _aggregate("strong-vs-weak", map_fn(functools.partial(_strong_weak_case, {}), semigroups))


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


class _PoolMap:
    """Order-preserving map over a process pool: the executor's own map, in
    chunks of consecutive items. Each chunk unpickles its own copy of fn,
    and of any memo bound to it (module docstring). Like the builtin map, it
    returns an iterator: every chunk is submitted at the call, and the rows
    come back one chunk at a time as they are read."""

    def __init__(self, executor, workers: int):
        self.executor = executor
        self.workers = workers

    def __call__(self, fn, items):
        items = list(items)
        return self.executor.map(fn, items, chunksize=max(1, len(items) // (self.workers * 4)))


# each check's tables: the corpus, its commutative tables, or None for a
# check that builds its own inputs
_CHECKS = {
    "ghw-bound": ("corpus", check_ghw_bound),
    "extremal-equivalence": ("commutative", check_extremal_equivalence),
    "extremal-families": (None, check_extremal_families),
    "example-formulas": (None, check_example_formulas),
    "strong-vs-weak": ("corpus", check_strong_weak),
    "nil-product-lemma": ("commutative", check_nil_lemma),
}
CHECK_IDS = tuple(_CHECKS)


def _processes(workers: int) -> int:
    """The processes a run at `workers` workers uses: at most one per CPU,
    since a pool starts all its processes at its first task."""
    return min(workers, os.cpu_count() or 1)


@contextlib.contextmanager
def _fan_out(workers: int):
    """An order-preserving map for `workers` workers: the builtin map at one
    worker, otherwise a _PoolMap over a fresh pool of _processes(workers)
    processes, chunked for the processes the pool has. The chunks decide
    only which tables share a memo, and a stored result is the one a fresh
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
    needs_corpus = any(_CHECKS[c][0] for c in selected)
    if needs_corpus:
        _check_enum_order(max_order, enum_cap, "enum_cap")

    with _fan_out(workers) as map_fn:
        corpus: list[FiniteSemigroup] = []
        inputs = {}
        if needs_corpus:
            corpus = build_corpus(max_order, commutative_only=commutative_only, enum_cap=enum_cap)
            inputs = {"corpus": corpus, "commutative": [S for S in corpus if is_commutative(S)]}
        check_results = []
        for check in selected:
            tables, run = _CHECKS[check]
            check_results.append(run(map_fn) if tables is None else run(inputs[tables], map_fn))

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
