"""Sequences over a semigroup and their subsequence-product sets.

Two product sets matter here. The any-order set collects the products of
every nonempty sub-multiset of the sequence under every ordering of its
terms; the natural-order set only folds subsequences left to right. Both
are computed on integer bit masks of width n, since the inner loops are
set unions and table-indexed translations.

The searches in ``constants`` instead carry, for a product set A that only
grows along a path, every right translate A*c packed into one integer; the
layout is defined in ``_packed_rows`` and extended by ``_grow``.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass

from .core import (
    ElementId,
    FiniteSemigroup,
    SemigroupError,
    _element,
    _index,
    idempotents,
    is_commutative,
)


class EmptySequence(SemigroupError):
    pass


class SequenceTooLong(SemigroupError):
    """The any-order product-set DP would need more states than its bound."""


# sub-multiset states the general any-order DP may visit; a sequence of at
# most 24 terms never needs more, since prod(c_i + 1) <= 2^(sum c_i)
_MAX_DP_STATES = 1 << 24


@dataclass(frozen=True)
class Seq:
    """Ordered finite sequence of element indices, with a multiset view."""

    terms: tuple[ElementId, ...]

    @classmethod
    def of(cls, terms) -> "Seq":
        return cls(tuple(_index(t, "term") for t in terms))

    def __len__(self) -> int:
        return len(self.terms)

    def __iter__(self):
        return iter(self.terms)

    def multiplicity(self, x: ElementId) -> int:
        return self.terms.count(x)

    def support(self) -> frozenset[ElementId]:
        return frozenset(self.terms)

    def counts(self) -> Counter:
        return Counter(self.terms)

    @classmethod
    def parse(cls, text: str) -> "Seq":
        """One line of space-separated indices; an empty line is the empty sequence."""
        for raw in text.splitlines() or [""]:
            line = raw.strip()
            if line.startswith("#"):
                continue
            if not line:
                return cls(())
            return cls(tuple(int(tok) for tok in line.split()))
        return cls(())

    def format(self) -> str:
        return " ".join(str(t) for t in self.terms) + "\n"


def _terms(S: FiniteSemigroup, seq) -> tuple[int, ...]:
    """The terms of seq, a Seq or any iterable, each checked as an element of S."""
    return tuple(_element(S, t, "term") for t in seq)


def _idem_mask(S: FiniteSemigroup) -> int:
    m = 0
    for e in idempotents(S):
        m |= 1 << e
    return m


def _translate(table, mask: int, x: int) -> int:
    """Right-translate a product set: {a*x : a in mask} as a mask."""
    out = 0
    while mask:
        low = mask & -mask
        out |= 1 << table[low.bit_length() - 1][x]
        mask ^= low
    return out


def _packed_rows(table, columns) -> list[int]:
    """One packed integer per element a: for each c in columns, field c,
    bits c*n to c*n + n - 1, holds the translate {a}*c, the single bit
    1 << (a*c). The fields of other columns stay empty.

    Right translation distributes over union, (A | D)*c = A*c | D*c, so the
    OR of the rows of A's elements packs every translate of A, and A*x is
    (vec >> x*n) & ((1 << n) - 1). A search fills only the columns it
    appends.
    """
    n = len(table)
    rows = []
    for row in table:
        packed = 0
        for c in columns:
            packed |= 1 << (row[c] + c * n)
        rows.append(packed)
    return rows


def _grow(rows: list[int], vec: int, new: int) -> int:
    """The packed translates of A | new, given vec packing those of A."""
    while new:
        low = new & -new
        vec |= rows[low.bit_length() - 1]
        new ^= low
    return vec


def _mask_to_set(mask: int) -> frozenset[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return frozenset(out)


def _natural_mask(S: FiniteSemigroup, terms: tuple[int, ...]) -> int:
    """Incremental closure A_k = A_(k-1) | {a_k} | A_(k-1)*a_k."""
    table = S.table
    acc = 0
    for x in terms:
        acc |= (1 << x) | _translate(table, acc, x)
    return acc


def _any_mask_general(S: FiniteSemigroup, terms: tuple[int, ...]) -> int:
    """Last-factor recursion over sub-multisets, memoized per call.

    Visits one state per sub-multiset count vector, prod(c_i + 1) in all;
    an input over _MAX_DP_STATES is refused before any work.
    """
    support = sorted(set(terms))
    k = len(support)
    counts = tuple(terms.count(x) for x in support)
    states = math.prod(c + 1 for c in counts)
    if states > _MAX_DP_STATES:
        raise SequenceTooLong(f"{states} sub-multiset states exceed the any-order DP bound of {_MAX_DP_STATES}")
    table = S.table
    memo: dict[tuple[int, ...], int] = {}

    def reach(vec: tuple[int, ...]) -> int:
        got = memo.get(vec)
        if got is not None:
            return got
        if sum(vec) == 1:
            m = 1 << support[vec.index(1)]
        else:
            m = 0
            for i in range(k):
                if vec[i]:
                    sub = vec[:i] + (vec[i] - 1,) + vec[i + 1:]
                    m |= _translate(table, reach(sub), support[i])
        memo[vec] = m
        return m

    out = 0
    for vec in itertools.product(*(range(c + 1) for c in counts)):
        if any(vec):
            out |= reach(vec)
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


@dataclass(frozen=True)
class ProductSets:
    any_order: frozenset[ElementId]
    natural_order: frozenset[ElementId]


def product_sets(S: FiniteSemigroup, seq) -> ProductSets:
    terms = _terms(S, seq)
    return ProductSets(
        any_order=_mask_to_set(_any_mask(S, terms)),
        natural_order=_mask_to_set(_natural_mask(S, terms)),
    )


def is_weakly_free(S: FiniteSemigroup, seq) -> bool:
    """No nonempty subsequence multiplies to an idempotent in any order."""
    terms = _terms(S, seq)
    return not (_any_mask(S, terms) & _idem_mask(S))


def is_strongly_free(S: FiniteSemigroup, seq) -> bool:
    """No nonempty subsequence multiplies to an idempotent in natural order."""
    terms = _terms(S, seq)
    return not (_natural_mask(S, terms) & _idem_mask(S))


def product_gain(S: FiniteSemigroup, seq, x: ElementId) -> int:
    """How many new any-order products appending x contributes."""
    longer = _terms(S, (*seq, x))
    base = _any_mask(S, longer[:-1])
    grown = _any_mask(S, longer)
    return (grown & ~base).bit_count()
