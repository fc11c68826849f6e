"""Exhaustive search for the Erdos-Burgess constants I(S), SI(S) and the Davenport constant D(S).

Each constant is 1 plus the maximum length of a sequence with the defining
property, found by depth-first enumeration with antitone pruning: once a
prefix loses the property no extension can regain it, so the subtree is
closed. Weak freeness and Davenport irreducibility depend only on the
multiset of terms, so those searches walk nondecreasing sequences; the
strong search walks words. Search spaces are partitioned by first term so
runs can fan out over a worker pool and still merge deterministically.

The product sets these searches keep only grow along a path, so each one
carries its set's right translates packed into one integer (the layout of
``seqprod._packed_rows``): a child reads its translate with one shift and
mask, and pays a table lookup only for the bits it adds. The rows are built
once per search and shared by its tasks. The noncommutative weak search
rebuilds the any-order set per node and needs none.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import FiniteSemigroup, NotCommutative, identity_element, idempotents, is_commutative
from .seqprod import Seq, _any_mask, _grow, _idem_mask, _packed_rows

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


def _nonidempotents(S: FiniteSemigroup) -> list[int]:
    t = S.table
    return [a for a in S.elements if t[a][a] != a]


def _weak_task(args) -> tuple[int, tuple[int, ...], int]:
    """Longest weakly free nondecreasing sequence whose least term is fixed."""
    S, rows, first = args
    idem = _idem_mask(S)
    alpha = _nonidempotents(S)
    nodes = 1  # the root candidate (first,)
    best_len = 1
    best = (first,)

    def note(cand: tuple[int, ...]) -> None:
        nonlocal best_len, best
        if len(cand) > best_len:
            best_len, best = len(cand), cand

    if is_commutative(S):
        n = S.order
        full = (1 << n) - 1

        def rec(seq: tuple[int, ...], mask: int, vec: int, start: int) -> None:
            nonlocal nodes
            for idx in range(start, len(alpha)):
                x = alpha[idx]
                nodes += 1
                grown = mask | (1 << x) | ((vec >> x * n) & full)
                if grown & idem:
                    continue
                cand = seq + (x,)
                note(cand)
                rec(cand, grown, _grow(rows, vec, grown & ~mask), idx)

        rec((first,), 1 << first, rows[first], alpha.index(first))
    else:

        def rec(seq: tuple[int, ...], start: int) -> None:
            nonlocal nodes
            for idx in range(start, len(alpha)):
                x = alpha[idx]
                nodes += 1
                cand = seq + (x,)
                if _any_mask(S, cand) & idem:
                    continue
                note(cand)
                rec(cand, idx)

        rec((first,), alpha.index(first))
    return best_len, best, nodes


def _strong_task(args) -> tuple[int, tuple[int, ...], int]:
    """Longest strongly free word starting with a fixed letter."""
    S, rows, first = args
    n = S.order
    full = (1 << n) - 1
    idem = _idem_mask(S)
    alpha = _nonidempotents(S)
    nodes = 1
    best_len = 1
    best = (first,)

    def rec(seq: tuple[int, ...], amask: int, vec: int) -> None:
        nonlocal nodes, best_len, best
        for x in alpha:
            nodes += 1
            grown = amask | (1 << x) | ((vec >> x * n) & full)
            if grown & idem:
                continue
            cand = seq + (x,)
            if len(cand) > best_len:
                best_len, best = len(cand), cand
            rec(cand, grown, _grow(rows, vec, grown & ~amask))

    rec((first,), 1 << first, rows[first])
    return best_len, best, nodes


def _davenport_task(args) -> tuple[int, tuple[int, ...], int]:
    """Longest product-irreducible nondecreasing sequence with fixed least term.

    A sequence is reducible when some proper subsequence multiplies to the
    full product; the empty subsequence counts as a witness exactly when S
    has an identity element (its product being that identity).
    """
    S, rows, first = args
    n = S.order
    full = (1 << n) - 1
    table = S.table
    ident = identity_element(S)
    ident_mask = 0 if ident is None else 1 << ident
    if (1 << first) & ident_mask:
        return 0, (), 1
    nodes = 1
    best_len = 1
    best = (first,)

    def rec(
        seq: tuple[int, ...], pi: int, pi_mask: int, pi_vec: int, proper: int, proper_vec: int, start: int
    ) -> None:
        nonlocal nodes, best_len, best
        for x in range(start, n):
            nodes += 1
            new_pi = table[pi][x]
            shift = x * n
            # proper products of T.x: all sub-multiset products of T,
            # proper products of T translated by x, and x itself; they
            # include the old proper products, so both masks only grow
            new_proper = pi_mask | ((proper_vec >> shift) & full) | (1 << x)
            if (1 << new_pi) & (new_proper | ident_mask):
                continue
            new_pi_mask = pi_mask | (1 << x) | ((pi_vec >> shift) & full)
            cand = seq + (x,)
            if len(cand) > best_len:
                best_len, best = len(cand), cand
            rec(
                cand,
                new_pi,
                new_pi_mask,
                _grow(rows, pi_vec, new_pi_mask & ~pi_mask),
                new_proper,
                _grow(rows, proper_vec, new_proper & ~proper),
                x,
            )

    rec((first,), first, 1 << first, rows[first], 0, 0, first)
    return best_len, best, nodes


def _merge(results) -> tuple[int, tuple[int, ...], int]:
    """Deterministic merge: max length, first (lex least) witness, summed nodes."""
    best_len, best, nodes = 0, (), 0
    for length, witness, explored in results:
        nodes += explored
        if length > best_len:
            best_len, best = length, witness
    return best_len, best, nodes


def erdos_burgess(S: FiniteSemigroup, map_fn=map) -> ConstantReport:
    """I(S): least length forcing an idempotent subsequence product in some order."""
    alpha = _nonidempotents(S)
    rows = _packed_rows(S.table, alpha) if is_commutative(S) else None
    tasks = [(S, rows, x) for x in alpha]
    best_len, best, nodes = _merge(map_fn(_weak_task, tasks))
    value = best_len + 1
    assert value <= ghw_bound(S)
    return ConstantReport(KIND_ERDOS_BURGESS, value, Seq(best), nodes)


def strong_erdos_burgess(S: FiniteSemigroup, map_fn=map) -> ConstantReport:
    """SI(S): least length forcing an idempotent natural-order subsequence product."""
    alpha = _nonidempotents(S)
    rows = _packed_rows(S.table, alpha)
    tasks = [(S, rows, x) for x in alpha]
    best_len, best, nodes = _merge(map_fn(_strong_task, tasks))
    value = best_len + 1
    assert value <= ghw_bound(S)
    return ConstantReport(KIND_STRONG_ERDOS_BURGESS, value, Seq(best), nodes)


def davenport(S: FiniteSemigroup, map_fn=map) -> ConstantReport:
    """D(S): least length past which every sequence has a proper subsequence
    with the same total product. Defined for commutative semigroups only."""
    if not is_commutative(S):
        raise NotCommutative("the Davenport constant is defined for commutative semigroups")
    rows = _packed_rows(S.table, S.elements)
    tasks = [(S, rows, x) for x in S.elements]
    best_len, best, nodes = _merge(map_fn(_davenport_task, tasks))
    return ConstantReport(KIND_DAVENPORT, best_len + 1, Seq(best), nodes)
