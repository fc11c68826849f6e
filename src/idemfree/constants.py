"""Exhaustive search for the Erdos-Burgess constants I(S), SI(S) and the Davenport constant D(S).

Each constant is 1 plus the maximum length of a sequence with the defining
property, found by depth-first enumeration with antitone pruning: once a
prefix loses the property no extension can regain it, so the subtree is
closed. Search spaces are partitioned by first term so runs can fan out
over a worker pool and still merge deterministically.

On a commutative semigroup the any-order product set of a sequence equals
its natural-order set, so SI and commutative I share one natural-order walk,
``_natural_task``: SI walks all words, and I walks nondecreasing sequences,
since weak freeness depends only on the multiset of terms. Noncommutative I
walks nondecreasing sequences too, in ``_any_order_task``, which carries the
any-order sub-multiset DP down the path: a child computes only the products
of the sub-multisets that use its new term. Davenport irreducibility also
depends only on the multiset, so the D search walks nondecreasing sequences.

The natural-order and Davenport product sets only grow along a path, so
those walks carry each set's right translates packed into one integer (the
layout of ``seqprod._packed_rows``): a child reads its translate with one
shift and mask, and pays a table lookup only for the bits it adds. The rows
are built once per search and shared by its tasks. The natural-order rows
also pack the letters whose translate meets an idempotent, so a node reads
its pruned children in one shift; D carries only the proper products.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import FiniteSemigroup, NotCommutative, identity_element, idempotents, is_commutative
from .seqprod import Seq, _fill_slab, _grow, _packed_rows, _top_links

KIND_ERDOS_BURGESS = "ErdosBurgess"
KIND_STRONG_ERDOS_BURGESS = "StrongErdosBurgess"
KIND_DAVENPORT = "Davenport"


@dataclass(frozen=True)
class ConstantReport:
    kind: str
    value: int
    witness: Seq
    nodes_explored: int

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "value": self.value,
            "witness": list(self.witness.terms),
            "nodesExplored": self.nodes_explored,
        }


def ghw_bound(S: FiniteSemigroup) -> int:
    """|S \\ E(S)| + 1, the universal bound on free sequence length plus one."""
    return S.order - len(idempotents(S)) + 1


def _natural_task(args) -> tuple[int, tuple[int, ...], int]:
    """Longest sequence starting with the letter first whose natural-order
    products miss the idempotents.

    A node with last term x tries the letters of allows[x]: those from x on
    walk nondecreasing sequences (commutative I), all of them walk words
    (SI). A free set A plus a non-idempotent c stays free exactly when A*c
    misses the idempotents, the stop of the rows, so field n of A's packed
    translates holds the letters pruned and the node walks only the rest.
    """
    n, rows, allows, first = args
    full = (1 << n) - 1
    top = n * n
    nodes = 1  # the root candidate (first,)
    path = [first]
    best = (first,)

    def rec(mask: int, vec: int, allow: int) -> None:
        nonlocal nodes, best
        nodes += allow.bit_count()
        live = allow & ~(vec >> top)
        while live:
            low = live & -live
            live ^= low
            x = low.bit_length() - 1
            grown = mask | low | ((vec >> x * n) & full)
            path.append(x)
            if len(path) > len(best):
                best = tuple(path)
            rec(grown, _grow(rows, vec, grown & ~mask), allows[x])
            path.pop()

    rec(1 << first, rows[first], allows[first])
    return len(best), best, nodes


def _any_order_task(args) -> tuple[int, tuple[int, ...], int]:
    """Longest weakly free nondecreasing sequence with least term alpha[first]
    in a noncommutative S.

    The path carries the any-order DP of ``seqprod._fill_slab``: one mask per
    sub-multiset of the path, the largest letter most significant. A child
    appends the slab of sub-multisets that use its new term, stopping at the
    first idempotent product, and drops it on return. A repeat of the top
    letter reuses its digit links; a new top letter builds them once per
    node.
    """
    S, alpha, idem, first = args
    table = S.table
    nodes = 1
    best_len = 1
    best = (alpha[first],)
    reach = [0]
    root_links = [()]

    def rec(seq: tuple[int, ...], mask: int, links: list, width: int, start: int) -> None:
        nonlocal nodes, best_len, best
        top_links = None
        for idx in range(start, len(alpha)):
            x = alpha[idx]
            nodes += 1
            base = len(reach)
            if idx == start:
                lk, w = links, width
            else:
                if top_links is None:
                    top_links = _top_links(links, width, alpha[start], base)
                lk, w = top_links, base
            grown = mask | _fill_slab(table, reach, lk, x, w, idem)
            if not grown & idem:
                cand = seq + (x,)
                if len(cand) > best_len:
                    best_len, best = len(cand), cand
                rec(cand, grown, lk, w, idx)
            del reach[base:]

    rec(best, _fill_slab(table, reach, root_links, best[0], 1), root_links, 1, first)
    return best_len, best, nodes


def _davenport_task(args) -> tuple[int, tuple[int, ...], int]:
    """Longest product-irreducible nondecreasing sequence with fixed least term.

    A sequence is reducible when some proper subsequence multiplies to the
    full product; the empty subsequence counts as a witness exactly when S
    has an identity element, the bit of ident_mask.
    """
    table, rows, ident_mask, first = args
    n = len(table)
    full = (1 << n) - 1
    if (1 << first) & ident_mask:
        return 0, (), 1
    nodes = 1
    path = [first]
    best = (first,)

    def rec(pi: int, proper: int, proper_vec: int, start: int) -> None:
        nonlocal nodes, best
        nodes += n - start
        pi_mask = proper | (1 << pi)
        row = table[pi]
        for x in range(start, n):
            new_pi = row[x]
            # proper products of T.x: all sub-multiset products of T,
            # proper products of T translated by x, and x itself; they
            # include the old proper products, so the mask only grows
            new_proper = pi_mask | ((proper_vec >> x * n) & full) | (1 << x)
            if (1 << new_pi) & (new_proper | ident_mask):
                continue
            path.append(x)
            if len(path) > len(best):
                best = tuple(path)
            rec(new_pi, new_proper, _grow(rows, proper_vec, new_proper & ~proper), x)
            path.pop()

    rec(first, 0, 0, first)
    return len(best), best, nodes


def _merge(results) -> tuple[int, tuple[int, ...], int]:
    """Deterministic merge: max length, first (lex least) witness, summed nodes."""
    best_len, best, nodes = 0, (), 0
    for length, witness, explored in results:
        nodes += explored
        if length > best_len:
            best_len, best = length, witness
    return best_len, best, nodes


def _free_search(S: FiniteSemigroup, kind: str, map_fn) -> ConstantReport:
    """I(S) or SI(S), one task per first letter over the non-idempotents."""
    alpha, idem = [], 0
    for a, row in enumerate(S.table):
        if row[a] == a:
            idem |= 1 << a
        else:
            alpha.append(a)
    letters = ((1 << S.order) - 1) ^ idem
    weak = kind == KIND_ERDOS_BURGESS
    if weak and not is_commutative(S):
        task, tasks = _any_order_task, [(S, alpha, idem, i) for i in range(len(alpha))]
    else:
        rows = _packed_rows(S.table, alpha, idem)
        allows = [letters >> x << x for x in S.elements] if weak else [letters] * S.order
        task, tasks = _natural_task, [(S.order, rows, allows, x) for x in alpha]
    best_len, best, nodes = _merge(map_fn(task, tasks))
    value = best_len + 1
    assert value <= len(alpha) + 1  # the GHW bound
    return ConstantReport(kind, value, Seq(best), nodes)


def erdos_burgess(S: FiniteSemigroup, map_fn=map) -> ConstantReport:
    """I(S): least length forcing an idempotent subsequence product in some order."""
    return _free_search(S, KIND_ERDOS_BURGESS, map_fn)


def strong_erdos_burgess(S: FiniteSemigroup, map_fn=map) -> ConstantReport:
    """SI(S): least length forcing an idempotent natural-order subsequence product."""
    return _free_search(S, KIND_STRONG_ERDOS_BURGESS, map_fn)


def davenport(S: FiniteSemigroup, map_fn=map) -> ConstantReport:
    """D(S): least length past which every sequence has a proper subsequence
    with the same total product. Defined for commutative semigroups only."""
    if not is_commutative(S):
        raise NotCommutative("the Davenport constant is defined for commutative semigroups")
    rows = _packed_rows(S.table, S.elements)
    ident = identity_element(S)
    ident_mask = 0 if ident is None else 1 << ident
    tasks = [(S.table, rows, ident_mask, x) for x in S.elements]
    best_len, best, nodes = _merge(map_fn(_davenport_task, tasks))
    return ConstantReport(KIND_DAVENPORT, best_len + 1, Seq(best), nodes)
