"""Exhaustive search for the Erdos-Burgess constants I(S), SI(S) and the Davenport constant D(S).

Each constant is 1 plus the maximum length of a sequence with the defining
property, found by depth-first enumeration with antitone pruning: once a
prefix loses the property no extension can regain it, so the subtree is
closed. Each search is one walk from the empty sequence, whose children
are the one-term sequences, so the longest sequence it meets first is the
lex-least longest one.

Weak freeness depends only on the multiset of terms, so I walks
nondecreasing sequences; SI walks all words. The letter table (below)
alone picks I's walk. Where its letters commute, SI and I share one
natural-order walk, ``_memo_walk``. That is exact for I: if the letters
commute and every natural-order product of a nondecreasing sequence is a
letter, then by induction on adjacent swaps every any-order product is a
letter equal to the sorted one, since each partial product is a natural
product of a sub-multiset. So both walks have the same tree, value,
lex-least witness and nodesExplored. I on letters that do not commute is
read from F as ``_any_order_walk`` yields it: every free nonempty
nondecreasing sequence, in walk order, with its any-order mask. That walk
carries the any-order sub-multiset DP down the path: a child computes only
the products of the sub-multisets that use its new term. The value is 1
plus the longest sequence's length, the witness the first longest one,
since walk order is lex order, and nodesExplored k plus k - x for each
free sequence with last term x: the root tries k letters, a free node the
letters from its last term on. The read keeps only the best sequence and
the count, so the walk holds only its path. Davenport irreducibility also
depends only on the multiset, so the D search walks nondecreasing
sequences.

The natural-order and Davenport product sets only grow along a path, so
those walks carry each set's right translates packed into one integer (the
layout of ``seqprod._packed_rows``): a child reads its translate with one
shift and mask, and pays lookups only for the bits it adds. The rows are
built once per search and cut into the byte-sliced tables of
``seqprod._slices``, so ``_grow`` ORs one table entry per byte of the
added bits, not one row per bit. The natural-order rows also pack the
letters whose translate meets an idempotent, so a node reads its pruned
children in one shift; D carries only the proper products. The
any-order walk reads each translate of its slab fill from per-letter
column slices in the same way, built once per search. The I and SI rows
and slices cover the k letters of the letter table (below), the D rows
the n elements of S.

Below a node, the D walk depends only on the state (pi, proper-products
mask, start index), and the natural-order walk only on the letters the
node may append and its product mask: every letter for SI, the letters
from the last term on for I. ``_davenport_walk`` and
``_memo_walk`` are DPs over those states: one memo per search maps each
walked state to one integer. A state with a child stores count << 2b |
height << b | letter, with b the bit length of k for the natural-order
walk and of n for D: the node count of its
subtree, its height, and its first child letter of greatest height. A leaf
stores 0, which CPython caches, so its entry costs only its key; its
height is 0 and its node count, the children it tries, follows from its
key. A repeated state, a leaf too, adds its subtree's node count to
nodes, so nodesExplored is still the size of the plain tree, no state is
walked twice, and the witness follows the stored letters from the root, so it is
still the lex-least longest sequence. One memo spans the search's whole
tree, so a state reached under two first terms is walked once: SI(C24)
takes about 0.15 s, against 0.7 s with one memo per first term. SI, and
I on letters that commute, take the memo walk. On C24 it walks I in well
under half the time of a plain walk; on the small tables of the order <= 5
corpus, where few states repeat, an I or SI search costs about 15% more
than a plain walk, its leaf entries included, too little to move a corpus
check. I on letters that do not commute has the whole multiset as its
state, so it streams F instead.

A check that reads only I's value on a table that is commutative by
construction, the extremal-families check of ``verify``, calls
``_bounded_value``, which walks the I tree under a bound. Appending a term c
to a free sequence T, with Tc free, adds at least one non-idempotent to the
product set: if c and P(T)c lay in P(T), every power of c would, the
idempotent one too. This lemma gives the Gillam-Hall-Williams bound
|S \\ E(S)| + 1, and it bounds a node of path length L and product mask m:
no free extension is longer than L + k - popcount(m), with k = |S \\ E(S)|.
``_bounded_walk`` is one depth-first walk from the empty sequence that
skips a child whose bound is at most the best length so far and stops once
the best length reaches the cap k. It keeps only that length. It reads
the packed rows themselves: a child ORs in the row of each bit it adds, so
the walk builds no slice table, which would cost more than its few nodes
(about six grows per family table). A cut tree
has no fixed size, so the public reports keep the exhaustive walk, whose
nodesExplored the tests pin as the size of the plain tree; ghw-bound checks
the lemma, so it must not assume it; strong-vs-weak cross-checks the two
exhaustive searches; and example-formulas reads I from ``erdos_burgess``,
so its closed form does not rest on the lemma either.

A free search reads only the letter table of ``_letter_table``: the
k * k products among the k non-idempotents alpha, each written as its
position in alpha, or as the marker k when it is idempotent. That table is
the whole input of the I and SI walks, so their rows, slices and memo keys
grow with k, not with |S|: a table whose idempotents outnumber its letters
many times over costs what its letters cost. A walk returns its witness
as letter positions, which every search maps back through alpha. The
walks visit letters in increasing order and consult the idempotents only
to prune, and the letter table picks the walk, so two tables with the same
letter table have the same tree up to the order-keeping map between their
letters: the same value, the witness mapped letter for letter, and the
same nodesExplored. So a caller that keeps the result of ``_walk``,
which picks the walk, under its letter table can map it back through the
alpha of any table with that letter table instead of searching again:
``verify`` keeps one memo per check (its docstring), and the public
searches keep nothing and run on every call. ``_free_masks`` is F as a
dict, on commutative tables too: the free set of the extremal-equivalence
check, the one caller that keeps F. ``_bounded_value`` is the bounded
walk's value over a letter table whose letters commute, with no witness or
node count; its caller vouches that they commute. D walks S itself:
irreducibility reads the products with idempotents too.

Each walk is a recursive closure, which refers to itself through its own
cell. A walk drops that reference when it ends, on a refusal too, so
the closure, its lists and its memo are freed by reference count and a
search leaves nothing for the cycle collector.
"""

from __future__ import annotations

from collections.abc import Iterator

from .core import FiniteSemigroup, NotCommutative, _idem_mask, _Record, identity_element, is_commutative
from .seqprod import Seq, _column_slices, _fill_slab, _grow, _packed_rows, _slices, _top_links

KIND_ERDOS_BURGESS = "ErdosBurgess"
KIND_STRONG_ERDOS_BURGESS = "StrongErdosBurgess"
KIND_DAVENPORT = "Davenport"

class ConstantReport(_Record):
    __slots__ = _fields = ("kind", "value", "witness", "nodes_explored")

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "value": self.value,
            "witness": list(self.witness.terms),
            "nodesExplored": self.nodes_explored,
        }


def ghw_bound(S: FiniteSemigroup) -> int:
    """|S \\ E(S)| + 1, the universal bound on free sequence length plus one."""
    return S.order - _idem_mask(S).bit_count() + 1


def _bounded_walk(n: int, rows: list[int]) -> int:
    """The length of the longest free nondecreasing sequence over the n
    letters of a letter table, given its packed rows: the commutative I
    walk of ``_memo_walk``, for the value only, without its memo.

    A child of path length L and product mask grown has no free extension
    longer than L + n - popcount(grown), so a child whose bound does not
    beat the best length is not walked, and the walk stops as soon as the
    best length reaches the cap n (module docstring). It counts no nodes.
    A child ORs in the rows of the bits it adds, one read per bit, so the
    walk builds no slice tables.
    """
    full = (1 << n) - 1
    top = n * n
    best = 0

    def rec(mask: int, vec: int, allow: int, length: int) -> bool:
        nonlocal best
        reach = length + n
        live = allow & ~(vec >> top)
        while live:
            low = live & -live
            live ^= low
            x = low.bit_length() - 1
            grown = mask | low | ((vec >> x * n) & full)
            if reach - grown.bit_count() <= best:
                continue
            if length > best:
                best = length
                if length == n:
                    return True
            add, child = grown & ~mask, vec
            while add:
                child |= rows[(add & -add).bit_length() - 1]
                add &= add - 1
            if rec(grown, child, full >> x << x, length + 1):
                return True
        return False

    try:
        rec(0, 0, full, 1)
    finally:
        rec = None  # break the closure's self-reference (module docstring)
    return best


def _memo_walk(n: int, slices: list[list[int]], allows: list[int]) -> tuple[int, tuple[int, ...], int]:
    """The longest sequence over the n letters of a letter table whose
    natural-order products miss the idempotents, as a DP over the walk's
    states from the empty sequence.

    A node with last term x tries the letters of allows[x]: those from x on
    walk nondecreasing sequences (commutative I), all of them walk words
    (SI); the empty sequence tries every letter. A free set A plus a
    non-idempotent c stays free exactly when A*c misses the idempotents, the
    marker n and the stop of the rows, so field n of A's packed translates
    holds the letters pruned and the node walks only the rest.

    The subtree below a node depends only on the letters it may append and
    its product mask, so a state's key packs allows[x] << n | mask; the
    empty sequence is the one state with an empty mask, every letter << n. Each
    state with a child stores its subtree's node count, its height and its
    first child letter of greatest height (the layout in the module
    docstring), and a repeat adds the stored count to nodes instead of
    walking it again. A leaf stores 0, and a repeated leaf adds the letters
    it tries, the popcount of the allowed letters in its key. Every walked
    state is stored, so the witness follows stored entries down to a leaf.
    The memo is freed by reference count with the walk (module docstring).
    """
    full = (1 << n) - 1
    top = n * n
    bits = n.bit_length()
    low_bits = (1 << bits) - 1
    nodes = 0
    memo = {}

    def rec(mask: int, vec: int, allow: int, key: int) -> int:
        nonlocal nodes
        before = nodes
        nodes += allow.bit_count()
        live = allow & ~(vec >> top)
        height = 0
        while live:
            low = live & -live
            live ^= low
            x = low.bit_length() - 1
            grown = mask | low | ((vec >> x * n) & full)
            child_allow = allows[x]
            child = child_allow << n | grown
            hit = memo.get(child)
            if hit is None:
                h = rec(grown, _grow(slices, vec, grown & ~mask), child_allow, child)
            elif hit:
                h = hit >> bits & low_bits
                nodes += hit >> 2 * bits
            else:
                h = 0
                nodes += child_allow.bit_count()
            if h >= height:
                height, best = h + 1, x
        memo[key] = ((nodes - before) << bits | height) << bits | best if height else 0
        return height

    mask, vec, key = 0, 0, full << n
    try:
        rec(mask, vec, full, key)
    finally:
        rec = None  # break the closure's self-reference (module docstring)
    path = []
    while memo[key]:
        x = memo[key] & low_bits
        grown = mask | (1 << x) | ((vec >> x * n) & full)
        mask, vec = grown, _grow(slices, vec, grown & ~mask)
        key = allows[x] << n | mask
        path.append(x)
    return len(path), tuple(path), nodes


def _any_order_walk(rows: list, k: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """F: every weakly free nonempty nondecreasing sequence over the k
    letters of a letter table, given its k rows, as letter positions, with
    its any-order product mask over positions, yielded in walk order, so in
    lex order. The walk holds only its path; a reader keeps what it needs.

    The path carries the any-order DP of ``seqprod._fill_slab``: one mask per
    sub-multiset of the path, the largest letter most significant, from the
    empty multiset's entry 0 at the root. A child appends the slab of
    sub-multisets that use its new term, stopping at the first product that
    is the idempotent marker k, and drops it on return. A repeat of the top
    letter reuses its digit links; a new top letter builds them once per
    node.
    """
    cols = _column_slices(rows, range(k))
    stop = 1 << k
    reach = [0]

    def rec(seq: tuple[int, ...], mask: int, links: list, width: int, start: int) -> Iterator[tuple]:
        top_links = None
        for x in range(start, k):
            base = len(reach)
            if x == start:
                lk, w = links, width
            else:
                if top_links is None:
                    top_links = _top_links(links, width, start, base)
                lk, w = top_links, base
            grown = mask | _fill_slab(cols, reach, lk, x, w, stop)
            if not grown & stop:
                cand = seq + (x,)
                yield cand, grown
                yield from rec(cand, grown, lk, w, x)
            del reach[base:]

    try:
        yield from rec((), 0, [()], 1, 0)
    finally:
        rec = None


def _davenport_walk(table, slices: list[list[int]], ident_mask: int) -> tuple[int, tuple[int, ...], int]:
    """The longest product-irreducible nondecreasing sequence.

    A sequence is reducible when some proper subsequence multiplies to the
    full product; the empty subsequence counts as a witness exactly when S
    has an identity element, the bit of ident_mask, so the identity alone
    is reducible and has no children.

    The subtree below a node depends only on its state: the product pi, the
    proper-products mask and the start index. So the walk is a DP over
    states, on every table: each state with a child stores its subtree's
    node count, its height and its first child letter of greatest height
    (the layout in the module docstring), and a repeat adds the stored count
    to nodes instead of walking it again, so nodesExplored is still the size
    of the plain tree. A state's key packs proper << 2b | pi << b | start;
    only the one-term sequences have no proper products. A leaf stores 0,
    and a repeated leaf adds the n - start letters it tries. Every walked
    state is stored, so the witness follows stored entries down to a leaf.
    The memo is freed by reference count with the walk (module docstring).
    """
    n = len(table)
    full = (1 << n) - 1
    bits = n.bit_length()
    low_bits = (1 << bits) - 1
    nodes = n  # every one-term sequence, the identity's too
    memo = {}

    def rec(pi: int, proper: int, proper_vec: int, start: int, key: int) -> int:
        nonlocal nodes
        before = nodes
        nodes += n - start
        pi_mask = proper | (1 << pi)
        dead = pi_mask | ident_mask
        row = table[pi]
        height = 0
        for x in range(start, n):
            new_pi = row[x]
            # proper products of T.x: all sub-multiset products of T,
            # proper products of T translated by x, and x itself; they
            # include the old proper products, so the mask only grows. The
            # child is dead when new_pi is one of them or the identity,
            # which reads only their bit new_pi
            if new_pi == x or dead >> new_pi & 1 or proper_vec >> (x * n + new_pi) & 1:
                continue
            new_proper = pi_mask | ((proper_vec >> x * n) & full) | (1 << x)
            child = (new_proper << bits | new_pi) << bits | x
            hit = memo.get(child)
            if hit is None:
                h = rec(new_pi, new_proper, _grow(slices, proper_vec, new_proper & ~proper), x, child)
            elif hit:
                h = hit >> bits & low_bits
                nodes += hit >> 2 * bits
            else:
                h = 0
                nodes += n - x
            if h >= height:
                height, best = h + 1, x
        memo[key] = ((nodes - before) << bits | height) << bits | best if height else 0
        return height

    height, first = -1, None
    try:
        for x in range(n):
            if not ident_mask >> x & 1:
                h = rec(x, 0, 0, x, x << bits | x)
                if h > height:
                    height, first = h, x
    finally:
        rec = None
    if first is None:
        return 0, (), nodes
    pi, proper, proper_vec, key = first, 0, 0, first << bits | first
    path = [first]
    while memo[key]:
        x = memo[key] & low_bits
        new_proper = proper | (1 << pi) | ((proper_vec >> x * n) & full) | (1 << x)
        proper_vec = _grow(slices, proper_vec, new_proper & ~proper)
        pi, proper = table[pi][x], new_proper
        key = (proper << bits | pi) << bits | x
        path.append(x)
    return len(path), tuple(path), nodes


def _letter_table(S: FiniteSemigroup) -> tuple[list[int], tuple[int, ...]]:
    """The non-idempotents alpha of S in increasing order, and the k * k
    products among them, row by row, each as its position in alpha, or k
    when it is idempotent."""
    alpha = [a for a, row in enumerate(S.table) if row[a] != a]
    k = len(alpha)
    position = [k] * S.order
    for i, a in enumerate(alpha):
        position[a] = i
    return alpha, tuple([position[S.table[a][b]] for a in alpha for b in alpha])


def _letter_rows(letters: tuple[int, ...], k: int) -> list[tuple[int, ...]]:
    """The k rows of a flat letter table."""
    return [letters[i * k : (i + 1) * k] for i in range(k)]


def _walk(letters: tuple[int, ...], k: int, kind: str) -> tuple[int, tuple[int, ...], int]:
    """The I or SI walk over a letter table of k letters (module docstring):
    ``_memo_walk`` for SI and for I on letters that commute, and for I on
    letters that do not, the value, lex-least witness and nodesExplored
    read from F as ``_any_order_walk`` yields it. The root tries k letters,
    and a free node with last term x the k - x letters from x on."""
    rows = _letter_rows(letters, k)
    if kind == KIND_ERDOS_BURGESS and rows != list(zip(*rows)):
        best, nodes = (), k
        for seq, _ in _any_order_walk(rows, k):
            nodes += k - seq[-1]
            if len(seq) > len(best):
                best = seq  # the first longest
        return len(best) + 1, best, nodes
    full = (1 << k) - 1
    allows = [full >> x << x for x in range(k)] if kind == KIND_ERDOS_BURGESS else [full] * k
    best_len, best, nodes = _memo_walk(k, _slices(_packed_rows(rows, 1 << k)), allows)
    return best_len + 1, best, nodes


def _free_masks(letters: tuple[int, ...], k: int) -> dict[tuple[int, ...], int]:
    """F of ``_any_order_walk`` over a letter table of k letters as a dict
    in walk order, the empty sequence's mask 0 first, on commutative
    tables too."""
    free = {(): 0}
    free.update(_any_order_walk(_letter_rows(letters, k), k))
    return free


def _free_search(S: FiniteSemigroup, kind: str) -> ConstantReport:
    """I(S) or SI(S), one walk over the letter table of S, with the witness
    mapped back from letter positions through alpha."""
    alpha, letters = _letter_table(S)
    value, positions, nodes = _walk(letters, len(alpha), kind)
    return ConstantReport(kind, value, Seq(tuple([alpha[i] for i in positions])), nodes)


def _bounded_value(letters: tuple[int, ...], k: int) -> int:
    return _bounded_walk(k, _packed_rows(_letter_rows(letters, k), 1 << k)) + 1


def erdos_burgess(S: FiniteSemigroup) -> ConstantReport:
    """I(S): least length forcing an idempotent subsequence product in some order."""
    return _free_search(S, KIND_ERDOS_BURGESS)


def strong_erdos_burgess(S: FiniteSemigroup) -> ConstantReport:
    """SI(S): least length forcing an idempotent natural-order subsequence product."""
    return _free_search(S, KIND_STRONG_ERDOS_BURGESS)


def davenport(S: FiniteSemigroup) -> ConstantReport:
    """D(S): least length past which every sequence has a proper subsequence
    with the same total product. Defined for commutative semigroups only."""
    if not is_commutative(S):
        raise NotCommutative("the Davenport constant is defined for commutative semigroups")
    ident = identity_element(S)
    ident_mask = 0 if ident is None else 1 << ident
    slices = _slices(_packed_rows(S.table))
    best_len, best, nodes = _davenport_walk(S.table, slices, ident_mask)
    return ConstantReport(KIND_DAVENPORT, best_len + 1, Seq(best), nodes)
