"""Sequences over a semigroup and their subsequence-product sets.

Two product sets matter here. The any-order set collects the products of
every nonempty sub-multiset of the sequence under every ordering of its
terms; the natural-order set only folds subsequences left to right. Both
are computed on integer bit masks of width n, since the inner loops are
set unions and table-indexed translations.

The searches in ``constants`` instead carry, for a product set A that only
grows along a path, every right translate A*c packed into one integer; the
layout is defined in ``_packed_rows`` and extended by ``_grow``. One more
field packs the letters whose translate of A meets a stop mask, so a search
reads all of a node's pruned children in one shift. The noncommutative
any-order set is a DP over sub-multisets, filled one slab per appended term
by ``_fill_slab``; ``_any_mask_general`` and the any-order walk of
``constants`` share it.

``_grow`` and ``_fill_slab`` read byte-sliced lookup tables, built by
``_slices`` once per search (or per any-order call), after the method of
Four Russians: the n bits of a mask are cut into bytes, ceil(n/8) slices of
8 bits with the last one possibly narrower, and entry b of slice k is the OR
of the rows of the bits 8*k + i with i in b. A union over a mask is then one
table read per byte instead of one row read per set bit, and both kernels
cut a mask with & 255 and >> 8, whatever the size of their tables. A walk
that adds few bits per node and ends after few nodes, such as the bounded
value walk of ``constants``, ORs the rows themselves and builds no tables.
``_translate`` keeps the per-bit loop, which builds no tables either: the
one-shot ``_natural_mask`` behind the public product-set calls uses it.
"""

from __future__ import annotations

import math
from collections import Counter

from .core import (
    ElementId,
    FiniteSemigroup,
    InvalidParameters,
    SemigroupError,
    _element,
    _idem_mask,
    _index,
    _iterable,
    _mask_to_set,
    _plain_int,
    _Record,
    is_commutative,
)


class EmptySequence(SemigroupError):
    pass


class SequenceTooLong(SemigroupError):
    """The any-order product-set DP would need more states than its bound."""


# sub-multiset states the general any-order DP may visit; a sequence of at
# most 24 terms never needs more, since prod(c_i + 1) <= 2^(sum c_i)
_MAX_DP_STATES = 1 << 24


class Seq(_Record):
    """Ordered finite sequence of element indices, with a multiset view.

    ``Seq(terms)`` keeps the terms of any iterable as a tuple, unchecked
    (a tuple is kept as it is); ``Seq.of`` also checks that each term is an
    integer, and the functions that take a sequence check each term as an
    element of their semigroup."""

    __slots__ = _fields = ("terms",)

    def __init__(self, terms: tuple[ElementId, ...]):
        if terms.__class__ is not tuple:
            terms = tuple(_iterable(terms, "sequence"))
        object.__setattr__(self, "terms", terms)

    @classmethod
    def of(cls, terms) -> "Seq":
        return cls(tuple(_index(t, "term") for t in _iterable(terms, "sequence")))

    def __len__(self) -> int:
        return len(self.terms)

    def __iter__(self):
        return iter(self.terms)

    def multiplicity(self, x: ElementId) -> int:
        return self.terms.count(x)

    def support(self) -> frozenset[ElementId]:
        return frozenset(self.terms)

    @classmethod
    def parse(cls, text: str) -> "Seq":
        """One line of space-separated indices. Blank lines and lines starting
        with '#' are skipped; text without a data line is the empty sequence."""
        lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln and not ln.startswith("#")]
        if len(lines) > 1:
            raise InvalidParameters(f"a sequence is one line of indices, got {len(lines)} data lines")
        terms = []
        for tok in lines[0].split() if lines else ():
            try:
                terms.append(_plain_int(tok))
            except ValueError:
                raise InvalidParameters(f"sequence term {tok!r} is not an integer") from None
        return cls(tuple(terms))

    def format(self) -> str:
        return " ".join(str(t) for t in self.terms) + "\n"


def _terms(S: FiniteSemigroup, seq) -> tuple[int, ...]:
    """The terms of seq, a Seq or any iterable, each checked as an element of S."""
    return tuple(_element(S, t, "term") for t in _iterable(seq, "sequence"))


def _translate(table, mask: int, x: int) -> int:
    """Right-translate a product set: {a*x : a in mask} as a mask."""
    out = 0
    while mask:
        low = mask & -mask
        out |= 1 << table[low.bit_length() - 1][x]
        mask ^= low
    return out


def _packed_rows(table, stop: int = 0) -> list[int]:
    """One packed integer per row a of an n-row table: field c, bits c*n to
    c*n + n - 1, holds the translate {a}*c, the single bit 1 << (a*c), and
    field n, bits n*n to n*n + n - 1, holds the columns c with a*c in the
    mask stop. A product in stop sets only its bit of field n, so stop may
    name values past n - 1: the letter tables of ``constants`` write an
    idempotent product as the marker n and pass stop = 1 << n.

    Right translation distributes over union, (A | D)*c = A*c | D*c, so the
    OR of the rows of A's elements packs every translate of A, and A*x is
    (vec >> x*n) & ((1 << n) - 1), less the products in stop; field n is the
    set of columns c whose translate A*c meets stop. A search ORs the rows
    of the bits a set gains: through their ``_slices``, one precomputed
    union per byte, in ``_grow``, or row by row in the bounded value walk.
    """
    n = len(table)
    top = n * n
    rows = []
    for row in table:
        packed = 0
        for c, v in enumerate(row):
            packed |= 1 << (top + c) if stop >> v & 1 else 1 << (v + c * n)
        rows.append(packed)
    return rows


def _slices(rows: list[int]) -> list[list[int]]:
    """Byte-sliced lookup tables over rows, one integer per bit of a mask.

    The n rows are cut into slices of 8, the last one possibly narrower, so
    n < 8 gives one slice of 2^n entries; entry b of slice k is the OR of
    rows[8*k + i] over the set bits i of b, so the OR of the rows of a
    mask's bits is the OR of one entry per byte of the mask. Each slice is
    built by doubling, one row at a time.
    """
    out = []
    for k in range(0, len(rows), 8):
        t = [0]
        for r in rows[k : k + 8]:
            t += [v | r for v in t]
        out.append(t)
    return out


def _grow(slices: list[list[int]], vec: int, new: int) -> int:
    """The packed translates of A | new, given vec packing those of A and
    the ``_slices`` of the packed rows: one table read per byte of new, up
    to its highest set bit; field n is ORed like any other."""
    for t in slices:
        if not new:
            break
        vec |= t[new & 255]
        new >>= 8
    return vec


def _column_slices(table, letters) -> dict[int, list[list[int]]]:
    """For each letter x, the ``_slices`` of the singleton masks 1 << a*x, so
    that a right translate A*x is one table read per slice of A."""
    return {x: _slices([1 << row[x] for row in table]) for x in letters}


def _natural_mask(S: FiniteSemigroup, terms: tuple[int, ...]) -> int:
    """Incremental closure A_k = A_(k-1) | {a_k} | A_(k-1)*a_k."""
    table = S.table
    acc = 0
    for x in terms:
        acc |= (1 << x) | _translate(table, acc, x)
    return acc


def _check_states(states: int) -> None:
    if states > _MAX_DP_STATES:
        raise SequenceTooLong(f"{states} sub-multiset states exceed the any-order DP bound of {_MAX_DP_STATES}")


def _top_links(links: list, width: int, top: int, size: int) -> list:
    """Digit links for a new top letter.

    The array holds size states; its current top letter, top, has digit
    weight width and digit links links. Entry u of the result lists
    (w_i, s_i) for each nonzero lower digit of u: the offset w_i back to the
    sub-multiset with one s_i fewer, and s_i. The new letter's own digit
    has weight size.
    """
    lifted = [link + ((width, top),) for link in links]
    return links + lifted * (size // width - 1)


def _fill_slab(cols: dict, reach: list, links: list, x: int, width: int, stop: int = 0) -> int:
    """Append to reach the slab of sub-multisets that use one more x, the
    top letter, and return the OR of their any-order product masks.

    reach holds one mask per sub-multiset, indexed in mixed radix with the
    largest letter most significant; entry 0 is the empty multiset. x has
    digit weight width and links from ``_top_links``. A product in some
    order ends with some term: entry v is reach[v - width]*x (or {x} when
    v - width is empty) together with reach[v - w_i]*s_i for each lower
    letter s_i that v uses. Each translate is read from the column slices
    cols of its letter (``_column_slices``), one table read per byte of
    the mask, inline. The fill stops early at the first mask that meets
    stop, leaving the slab partial. An array past _MAX_DP_STATES is refused
    before the slab is allocated.
    """
    base = len(reach)
    _check_states(base + width)
    col = cols[x]
    out = 0
    for v, lower in enumerate(links, base):
        a = reach[v - width]
        if a:
            m = 0
            for t in col:
                m |= t[a & 255]
                a >>= 8
                if not a:
                    break
        else:
            m = 1 << x
        # every lower entry is nonempty: v uses x, and v - w_i keeps it
        for w, s in lower:
            a = reach[v - w]
            for t in cols[s]:
                m |= t[a & 255]
                a >>= 8
                if not a:
                    break
        reach.append(m)
        out |= m
        if m & stop:
            break
    return out


def _any_mask_general(S: FiniteSemigroup, terms: tuple[int, ...]) -> int:
    """The sub-multiset DP of ``_fill_slab``, one slab per term in sorted order.

    Visits one state per sub-multiset count vector, prod(c_i + 1) in all;
    an input over _MAX_DP_STATES is refused before any work.
    """
    counts = Counter(terms)
    _check_states(math.prod(c + 1 for c in counts.values()))
    cols = _column_slices(S.table, counts)
    # only the empty multiset so far: the first letter gets weight 1 and no links
    reach, links, width, top = [0], [()], 1, -1
    out = 0
    for x in sorted(counts):
        links, width, top = _top_links(links, width, top, len(reach)), len(reach), x
        for _ in range(counts[x]):
            out |= _fill_slab(cols, reach, links, x, width)
    return out


def _any_mask(S: FiniteSemigroup, terms: tuple[int, ...]) -> int:
    if not terms:
        return 0
    if is_commutative(S):
        # with commutativity every product can put its last factor last,
        # so the natural-order closure already yields the full set
        return _natural_mask(S, terms)
    return _any_mask_general(S, terms)


def ordered_product(S: FiniteSemigroup, seq) -> ElementId:
    """Left-to-right product of all terms; the sequence must be nonempty."""
    terms = _terms(S, seq)
    if not terms:
        raise EmptySequence("the product of an empty sequence is undefined")
    table = S.table
    acc = terms[0]
    for x in terms[1:]:
        acc = table[acc][x]
    return acc


def any_order_products(S: FiniteSemigroup, seq) -> frozenset[ElementId]:
    """Products of every nonempty subsequence of T, over all term orders."""
    terms = _terms(S, seq)
    return _mask_to_set(_any_mask(S, terms))


def natural_order_products(S: FiniteSemigroup, seq) -> frozenset[ElementId]:
    """Products of nonempty subsequences folded in their order within T."""
    terms = _terms(S, seq)
    return _mask_to_set(_natural_mask(S, terms))


class ProductSets(_Record):
    __slots__ = _fields = ("any_order", "natural_order")


def product_sets(S: FiniteSemigroup, seq) -> ProductSets:
    terms = _terms(S, seq)
    return ProductSets(
        any_order=_mask_to_set(_any_mask(S, terms)),
        natural_order=_mask_to_set(_natural_mask(S, terms)),
    )


def is_weakly_free(S: FiniteSemigroup, seq) -> bool:
    """No nonempty subsequence multiplies to an idempotent in any order."""
    return _weakly_free(S, _terms(S, seq))


def _weakly_free(S: FiniteSemigroup, terms: tuple[int, ...]) -> bool:
    """``is_weakly_free`` of terms that are already element ids of S."""
    return not (_any_mask(S, terms) & _idem_mask(S))


def is_strongly_free(S: FiniteSemigroup, seq) -> bool:
    """No nonempty subsequence multiplies to an idempotent in natural order."""
    terms = _terms(S, seq)
    return not (_natural_mask(S, terms) & _idem_mask(S))


def product_gain(S: FiniteSemigroup, seq, x: ElementId) -> int:
    """How many new any-order products appending x contributes."""
    terms = _terms(S, seq)
    longer = (*terms, _element(S, x, "term"))
    base = _any_mask(S, terms)
    grown = _any_mask(S, longer)
    return (grown & ~base).bit_count()
