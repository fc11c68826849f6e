"""Independent brute-force references used only by the tests.

Nothing here shares code with the package's product-set DP, searches or
constructors; these are the slow, obviously-correct versions. The one
package call is the extremal certificate in the reference equivalence case,
which is the thing that case compares freeness against. The exception is
multiset_equivalence_case, an earlier route of the package's own
extremal-equivalence sweep kept to check the route that replaced it; it
uses the package's any-order DP and failure records. Likewise
naive_archimedean_decomposition, the divisibility route that the
idempotent-power decomposition replaced, takes each class's kernel and nil
part from the package's _component_data.
"""

from __future__ import annotations

import itertools
import math
import random

from idemfree import ExtremalSpec, FiniteSemigroup, GroupByNil, Monogenic, extremal_structure_check, identity_element
from idemfree.seqprod import _any_mask, _idem_mask
from idemfree.structure import ArchDecomposition, _component_data
from idemfree.verify import _word_records


def fold(S: FiniteSemigroup, terms) -> int:
    acc = terms[0]
    for x in terms[1:]:
        acc = S.table[acc][x]
    return acc


def naive_any_order_products(S: FiniteSemigroup, terms) -> frozenset[int]:
    """All nonempty subsequences, all permutations, folded."""
    out = set()
    idxs = range(len(terms))
    for r in range(1, len(terms) + 1):
        for combo in itertools.combinations(idxs, r):
            chosen = [terms[i] for i in combo]
            for perm in itertools.permutations(chosen):
                out.add(fold(S, perm))
    return frozenset(out)


def naive_natural_order_products(S: FiniteSemigroup, terms) -> frozenset[int]:
    """All nonempty subsequences folded in their order within the sequence."""
    out = set()
    idxs = range(len(terms))
    for r in range(1, len(terms) + 1):
        for combo in itertools.combinations(idxs, r):
            out.add(fold(S, [terms[i] for i in combo]))
    return frozenset(out)


def naive_is_weakly_free(S: FiniteSemigroup, terms) -> bool:
    idem = {e for e in S.elements if S.table[e][e] == e}
    return not (naive_any_order_products(S, terms) & idem)


def naive_is_strongly_free(S: FiniteSemigroup, terms) -> bool:
    idem = {e for e in S.elements if S.table[e][e] == e}
    return not (naive_natural_order_products(S, terms) & idem)


def reference_equivalence_case(S: FiniteSemigroup) -> dict:
    """The extremal-equivalence row of one table, word by word: every word
    of length |S \\ E(S)| over the non-idempotents in product order, with
    freeness and every product set taken from the naive oracles."""
    alphabet = [a for a in S.elements if S.table[a][a] != a]
    flat = [v for row in S.table for v in row]
    sequences = free = lambda_checked = 0
    eq_failures, lambda_failures, claim_failures = [], [], []
    for word in itertools.product(alphabet, repeat=len(alphabet)):
        sequences += 1
        weakly = naive_is_weakly_free(S, word)
        if weakly != extremal_structure_check(S, word).passed:
            eq_failures.append({"table": flat, "seq": list(word)})
            continue
        if not weakly:
            continue
        free += 1
        products = naive_any_order_products(S, word)
        for x in sorted(set(word)):
            rest = list(word)
            rest.remove(x)
            lambda_checked += 1
            if not products - naive_any_order_products(S, rest):
                lambda_failures.append({"table": flat, "seq": list(word), "term": x})
        supp = sorted(set(word))
        for i, a in enumerate(supp):
            for b in supp[i + 1:]:
                if S.table[a][b] != S.table[b][a] or S.table[a][b] not in (a, b):
                    claim_failures.append({"table": flat, "seq": list(word), "pair": [a, b]})
        if products != frozenset(alphabet):
            claim_failures.append({"table": flat, "seq": list(word), "pair": None})
    ok = not (eq_failures or lambda_failures or claim_failures)
    return {
        "ok": ok,
        "failure": None
        if ok
        else {"table": flat, "equivalence": eq_failures, "lambda": lambda_failures, "claims": claim_failures},
        "sequences": sequences,
        "freeSequences": free,
        "lambdaChecked": lambda_checked,
        "equivalenceFailures": len(eq_failures),
        "lambdaFailures": len(lambda_failures),
        "claimFailures": len(claim_failures),
    }


def multiset_equivalence_case(S: FiniteSemigroup) -> dict:
    """The extremal-equivalence row of one table, one multiset at a time:
    every one of the C(2k - 1, k) multisets of length k = |S \\ E(S)| over
    the non-idempotents gets its any-order mask and its certificate, and is
    counted once per distinct word, k! / prod(c_i!) of them."""
    alphabet = [a for a in S.elements if S.table[a][a] != a]
    length = len(alphabet)
    sequences = free = lambda_checked = 0
    eq_found = []
    lambda_found = []
    claim_found = []
    idem = _idem_mask(S)
    nonidem = sum(1 << a for a in alphabet)
    for multiset in itertools.combinations_with_replacement(alphabet, length):
        supp = sorted(set(multiset))
        words = math.factorial(length) // math.prod(math.factorial(multiset.count(x)) for x in supp)
        sequences += words
        mask = _any_mask(S, multiset)
        weakly = not (mask & idem)
        if weakly != extremal_structure_check(S, multiset).passed:
            eq_found.append((multiset, [{}]))
            continue
        if not weakly:
            continue
        free += words
        lambda_checked += words * len(supp)
        gainless = []
        for x in supp:
            rest = list(multiset)
            rest.remove(x)
            if not (mask & ~_any_mask(S, tuple(rest))):
                gainless.append({"term": x})
        if gainless:
            lambda_found.append((multiset, gainless))
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
    flat = [v for row in S.table for v in row]
    return {
        "ok": ok,
        "failure": None
        if ok
        else {"table": flat, "equivalence": eq_failures, "lambda": lambda_failures, "claims": claim_failures},
        "sequences": sequences,
        "freeSequences": free,
        "lambdaChecked": lambda_checked,
        "equivalenceFailures": len(eq_failures),
        "lambdaFailures": len(lambda_failures),
        "claimFailures": len(claim_failures),
    }


def naive_erdos_burgess(S: FiniteSemigroup) -> int:
    """Least length at which no sequence is weakly free, by raw enumeration."""
    length = 1
    while True:
        if all(
            not naive_is_weakly_free(S, terms)
            for terms in itertools.combinations_with_replacement(S.elements, length)
        ):
            return length
        length += 1


def naive_strong_erdos_burgess(S: FiniteSemigroup) -> int:
    length = 1
    while True:
        if all(
            not naive_is_strongly_free(S, terms)
            for terms in itertools.product(S.elements, repeat=length)
        ):
            return length
        length += 1


def naive_is_irreducible(S: FiniteSemigroup, terms) -> bool:
    """No proper subsequence multiplies to the full product; the empty
    subsequence counts when S has an identity (its product being it)."""
    if not terms:
        return True
    total = fold(S, terms)
    ident = identity_element(S)
    if ident is not None and total == ident:
        return False
    idxs = range(len(terms))
    for r in range(1, len(terms)):
        for combo in itertools.combinations(idxs, r):
            if fold(S, [terms[i] for i in combo]) == total:
                return False
    return True


def naive_davenport(S: FiniteSemigroup) -> int:
    length = 1
    while True:
        if all(
            not naive_is_irreducible(S, terms)
            for terms in itertools.combinations_with_replacement(S.elements, length)
        ):
            return length
        length += 1


def naive_generated_subsemigroup(S: FiniteSemigroup, generators) -> frozenset[int]:
    """Closure of the generators under products on both sides: each round
    multiplies every new element by every element found so far, both ways."""
    t = S.table
    closure = set(generators)
    frontier = list(closure)
    while frontier:
        fresh = []
        for a in frontier:
            for b in list(closure):
                for v in (t[a][b], t[b][a]):
                    if v not in closure:
                        closure.add(v)
                        fresh.append(v)
        frontier = fresh
    return frozenset(closure)


def naive_is_nilsemigroup(S: FiniteSemigroup) -> bool:
    """S has a zero, found by scanning every element, and it is the only
    idempotent."""
    t = S.table
    zeros = [z for z in S.elements if all(t[z][x] == z == t[x][z] for x in S.elements)]
    idem = {e for e in S.elements if t[e][e] == e}
    return bool(zeros) and idem == {zeros[0]}


def naive_archimedean_decomposition(S: FiniteSemigroup) -> ArchDecomposition:
    """The archimedean decomposition of a commutative S by its definition.

    b divides a power of a when a^m = b*c for some m >= 1 and some c in S
    (no identity adjoined), scanning a, a^2, ..., a^n. The components are
    the classes of mutual divisibility, numbered by their least elements;
    component i lies below j when j's least element divides a power of
    i's. Divisibility must be a class invariant, and each class must hold
    exactly one idempotent, at which _component_data reads its kernel.
    """
    t = S.table
    powers = []
    for a in S.elements:
        seen, x = set(), a
        for _ in range(S.order):
            seen.add(x)
            x = t[x][a]
        powers.append(seen)
    # div[a][b]: b divides a power of a
    div = [[any(t[b][c] in powers[a] for c in S.elements) for b in S.elements] for a in S.elements]
    classes: list[frozenset[int]] = []
    for a in S.elements:
        if not any(a in cls for cls in classes):
            classes.append(frozenset(b for b in S.elements if div[a][b] and div[b][a]))
    assert sum(map(len, classes)) == S.order, "mutual divisibility classes overlap"
    comp_of = tuple(next(i for i, cls in enumerate(classes) if a in cls) for a in S.elements)
    reps = [min(cls) for cls in classes]
    leq = tuple(tuple(div[r][s] for s in reps) for r in reps)
    for a in S.elements:
        for b in S.elements:
            assert div[a][b] == leq[comp_of[a]][comp_of[b]], "divisibility is not a class invariant"
    per_component = []
    for cls in classes:
        (e,) = [x for x in cls if t[x][x] == x]
        per_component.append(_component_data(S, cls, e))
    return ArchDecomposition(tuple(classes), leq, tuple(per_component), comp_of)


def naive_associative_tables(n: int) -> list[tuple[tuple[int, ...], ...]]:
    """Filter all n^(n*n) tables by associativity; feasible for n <= 3."""
    out = []
    for cells in itertools.product(range(n), repeat=n * n):
        t = [cells[i * n : (i + 1) * n] for i in range(n)]
        if all(
            t[t[a][b]][c] == t[a][t[b][c]]
            for a in range(n)
            for b in range(n)
            for c in range(n)
        ):
            out.append(tuple(t))
    return out


def transformation_monogenic_table(index: int, period: int) -> list[list[int]]:
    """The cyclic semigroup of the shift-with-tail map, built by composing
    concrete functions; an independent model of monogenic multiplication."""
    states = index + period
    f = tuple(q + 1 if q < states - 1 else index for q in range(states))

    def compose(g, h):
        return tuple(g[h[s]] for s in range(states))

    powers = [f]
    seen = {f: 0}
    while True:
        nxt = compose(powers[-1], f)
        if nxt in seen:
            break
        seen[nxt] = len(powers)
        powers.append(nxt)
    return [[seen[compose(a, b)] for b in powers] for a in powers]


def chain_glue_cells(components: list[FiniteSemigroup]) -> tuple[tuple[int, ...], ...]:
    """The ordinal sum's table cell by cell: a product within one component
    is that component's, shifted by its offset, and a product across two
    components is the factor from the later one."""
    offsets, owner = [], []
    for k, comp in enumerate(components):
        offsets.append(len(owner))
        owner += [k] * comp.order
    total = len(owner)
    table = [[0] * total for _ in range(total)]
    for a in range(total):
        for b in range(total):
            i, j = owner[a], owner[b]
            if i == j:
                table[a][b] = offsets[i] + components[i].table[a - offsets[i]][b - offsets[i]]
            else:
                table[a][b] = a if i > j else b
    return tuple(tuple(row) for row in table)


def product_extremal_specs(max_components: int, max_terms: int) -> list[ExtremalSpec]:
    """The extremal family specs by product and filter: every tuple of at
    most max_components catalog parts, shortest first and in
    ``itertools.product`` order, kept when its parts' term counts sum to at
    most max_terms; each kept chain plain, then with an adjoined identity.
    The route ``verify.enumerate_extremal_specs`` took before it extended
    chains by budget."""
    catalog: list[Monogenic | GroupByNil] = []
    for period in range(1, max_terms + 2):
        for index in range(1, max_terms + 3 - period):
            if (index - 1) % period == 0 and index + period - 2 <= max_terms:
                catalog.append(Monogenic(index, period))
    for nil_index in range(2, 5):
        for group_order in range(2, 5):
            if nil_index + group_order - 2 <= max_terms:
                catalog.append(GroupByNil(nil_index, group_order))
    specs = []
    for length in range(1, max_components + 1):
        for chain in itertools.product(catalog, repeat=length):
            if sum(part.term_count for part in chain) <= max_terms:
                specs.append(ExtremalSpec(chain))
                specs.append(ExtremalSpec(chain, adjoin_identity=True))
    return specs


def left_zero_semigroup(n: int) -> FiniteSemigroup:
    return FiniteSemigroup([[a] * n for a in range(n)])


def dihedral(n: int) -> FiniteSemigroup:
    """D_2n, n >= 3, as the maps i -> s*i + k of Z_n (s = 1 or -1), with
    a*b meaning "apply a, then b"."""
    maps = [(s, k) for s in (1, -1) for k in range(n)]
    index = {m: j for j, m in enumerate(maps)}
    # i -> t*(s*i + k) + l
    return FiniteSemigroup([[index[(s * t, (t * k + l) % n)] for t, l in maps] for s, k in maps])


def relabel(S: FiniteSemigroup, seed: int) -> FiniteSemigroup:
    """An isomorphic copy of S under a seeded permutation of its elements."""
    perm = list(S.elements)
    random.Random(seed).shuffle(perm)
    return relabel_by(S, perm)


def relabel_by(S: FiniteSemigroup, perm) -> FiniteSemigroup:
    """The isomorphic copy of S in which each element a is named perm[a]."""
    table = [[0] * S.order for _ in S.elements]
    for a in S.elements:
        for b in S.elements:
            table[perm[a]][perm[b]] = perm[S.table[a][b]]
    return FiniteSemigroup(table)


def vee_semilattice() -> FiniteSemigroup:
    """Two incomparable idempotents over a common bottom: a*b = bottom."""
    # elements: 0 = a, 1 = b, 2 = bottom
    return FiniteSemigroup([[0, 2, 2], [2, 1, 2], [2, 2, 2]])


def reference_search(kind: str, S: FiniteSemigroup, states: set | None = None) -> tuple[int, tuple[int, ...], int]:
    """I, SI or D by the plain depth-first search, as (value, witness, nodes).

    Every node translates its parent's whole product set with Python sets.
    The tree is the package's: the one-term sequences in increasing order
    below the empty sequence, the same children in the same order, the
    lexicographically least longest witness, and one node for each one-term
    sequence and each child tried. Noncommutative weak freeness comes from
    ``naive_any_order_products``.

    Given a set, the walk adds to it the state of every child it walks
    (``distinct_child_states``).
    """
    t = S.table
    idem = {e for e in S.elements if t[e][e] == e}
    alpha = [a for a in S.elements if a not in idem]
    commutative = all(t[a][b] == t[b][a] for a in S.elements for b in S.elements)
    ident = identity_element(S)
    nodes = 0
    best: tuple[int, ...] = ()

    def right(A, x):
        return {t[a][x] for a in A}

    def note(cand):
        nonlocal best
        if len(cand) > len(best):
            best = cand

    def weak(seq, A, start):
        nonlocal nodes
        for j in range(start, len(alpha)):
            x = alpha[j]
            nodes += 1
            cand = seq + (x,)
            grown = A | {x} | right(A, x) if commutative else naive_any_order_products(S, cand)
            if grown & idem:
                continue
            note(cand)
            if states is not None:
                states.add((x, frozenset(grown)))
            weak(cand, grown, j)

    def strong(seq, A):
        nonlocal nodes
        for x in alpha:
            nodes += 1
            grown = A | {x} | right(A, x)
            if grown & idem:
                continue
            cand = seq + (x,)
            note(cand)
            if states is not None:
                states.add(frozenset(grown))
            strong(cand, grown)

    def irreducible(seq, pi, P, Q, start):
        # P: products of every nonempty subsequence; Q: of every proper one
        nonlocal nodes
        for x in range(start, S.order):
            nodes += 1
            new_pi = t[pi][x]
            new_q = P | right(Q, x) | {x}
            if new_pi in new_q or new_pi == ident:
                continue
            cand = seq + (x,)
            note(cand)
            if states is not None:
                states.add((new_pi, frozenset(new_q), x))
            irreducible(cand, new_pi, P | {x} | right(P, x), new_q, x)

    if kind == "I":
        weak((), set(), 0)
    elif kind == "SI":
        strong((), set())
    elif kind == "D":
        assert commutative
        for first in S.elements:
            nodes += 1
            if first != ident:
                note((first,))
                irreducible((first,), first, {first}, set(), first)
    else:
        raise ValueError(kind)
    return len(best) + 1, best, nodes


def distinct_child_states(kind: str, S: FiniteSemigroup) -> int:
    """The number of distinct states among the children the plain tree of
    ``reference_search`` walks, the nodes that keep the property: (last
    term, product set) for I, the product set for SI, and (product, proper
    products, last term) for D. The I and SI children include the one-term
    sequences, which hang below the empty sequence; D's one-term sequences
    are the roots of its walk, so its children have two terms or more."""
    states = set()
    reference_search(kind, S, states)
    return len(states)
