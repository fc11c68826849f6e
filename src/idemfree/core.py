"""Finite semigroups as validated Cayley tables over dense 0-based indices.

The table is the whole structure: ``table[a][b]`` is the product ``a*b``.
Validation happens once, at the boundary: ``FiniteSemigroup(table)``,
``validate`` and ``parse_cayley_table`` check integer cells, closure and
associativity eagerly, so any instance in hand is a genuine semigroup and
everything downstream can index straight into the table without re-checking.

Tables that are associative by construction from already validated input
skip the O(n^3) check through the private ``FiniteSemigroup._trusted``:
``monogenic``; ``chain_glue``, ``adjoin_identity``,
``trivial_ideal_extension`` and the enumerator in ``construct``.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

ElementId = int


class SemigroupError(ValueError):
    """Base class for construction and argument errors."""


class NotClosed(SemigroupError):
    """A table cell lies outside [0, n)."""

    def __init__(self, row: int, col: int, value: object):
        self.cell = (row, col)
        self.value = value
        super().__init__(f"table[{row}][{col}] = {value!r} is not an element index")


class NotAssociative(SemigroupError):
    """A triple violates (a*b)*c = a*(b*c)."""

    def __init__(self, a: int, b: int, c: int):
        self.triple = (a, b, c)
        super().__init__(f"(a*b)*c != a*(b*c) at (a, b, c) = ({a}, {b}, {c})")


class InvalidParameters(SemigroupError):
    pass


class EmptyGeneratorSet(SemigroupError):
    pass


class NotCommutative(SemigroupError):
    pass


class FiniteSemigroup:
    """Immutable finite semigroup on elements 0..n-1.

    Instances are safely shareable across threads and processes: the table
    is a tuple of tuples and derived data is cached, never mutated.
    """

    def __init__(self, table):
        rows = _integer_rows(table)
        n = len(rows)
        if n == 0:
            raise InvalidParameters("a semigroup needs at least one element")
        for a, row in enumerate(rows):
            if len(row) != n:
                raise InvalidParameters(f"row {a} has {len(row)} entries, expected {n}")
            for b, v in enumerate(row):
                if not 0 <= v < n:
                    raise NotClosed(a, b, v)
        # first violating triple in lexicographic (a, b, c) order
        for a in range(n):
            ra = rows[a]
            for b in range(n):
                rb = rows[b]
                rab = rows[ra[b]]
                for c in range(n):
                    if rab[c] != ra[rb[c]]:
                        raise NotAssociative(a, b, c)
        self._adopt(rows)

    @classmethod
    def _trusted(cls, rows) -> FiniteSemigroup:
        """Wrap integer rows already known to form a semigroup, unchecked."""
        S = cls.__new__(cls)
        S._adopt(tuple(tuple(row) for row in rows))
        return S

    def _adopt(self, rows: tuple[tuple[int, ...], ...]) -> None:
        self.order = len(rows)
        self.table = rows
        self._idempotents: frozenset[int] | None = None
        self._commutative: bool | None = None
        self._cyclic: dict[int, CyclicData] = {}

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    @property
    def elements(self) -> range:
        return range(self.order)

    def __eq__(self, other):
        return isinstance(other, FiniteSemigroup) and self.table == other.table

    def __hash__(self):
        return hash(self.table)

    def __repr__(self):
        return f"FiniteSemigroup(order={self.order})"


def _integer_rows(table) -> tuple[tuple[int, ...], ...]:
    """The table as tuples of ints; a cell that is not an integer, or is a
    bool, is rejected."""
    try:
        table_rows = enumerate(table)
    except TypeError:
        raise InvalidParameters(f"table = {table!r} is not a sequence of rows") from None
    rows = []
    for a, row in table_rows:
        try:
            items = enumerate(row)
        except TypeError:
            raise InvalidParameters(f"table[{a}] = {row!r} is not a row of cells") from None
        cells = []
        for b, v in items:
            # a bool passes operator.index as 0 or 1, but is no element
            if v.__class__ is bool:
                raise InvalidParameters(f"table[{a}][{b}] = {v!r} is not an integer")
            try:
                cells.append(operator.index(v))
            except TypeError:
                raise InvalidParameters(f"table[{a}][{b}] = {v!r} is not an integer") from None
        rows.append(tuple(cells))
    return tuple(rows)


def validate(order: int, table) -> FiniteSemigroup:
    """Build a semigroup from an n x n table, rejecting bad cells and triples."""
    rows = _integer_rows(table)
    if len(rows) != order:
        raise InvalidParameters(f"declared order {order} but table has {len(rows)} rows")
    return FiniteSemigroup(rows)


def idempotents(S: FiniteSemigroup) -> frozenset[ElementId]:
    """All e with e*e = e; nonempty for every finite semigroup."""
    if S._idempotents is None:
        found = frozenset(e for e in S.elements if S.table[e][e] == e)
        assert found, "finite semigroup without idempotent"
        S._idempotents = found
    return S._idempotents


def is_commutative(S: FiniteSemigroup) -> bool:
    if S._commutative is None:
        t = S.table
        S._commutative = all(
            t[a][b] == t[b][a] for a in S.elements for b in range(a + 1, S.order)
        )
    return S._commutative


def zero_element(S: FiniteSemigroup) -> ElementId | None:
    """The unique z with z*x = x*z = z for all x, if present."""
    t = S.table
    for z in S.elements:
        if all(t[z][x] == z and t[x][z] == z for x in S.elements):
            return z
    return None


def identity_element(S: FiniteSemigroup) -> ElementId | None:
    """The unique e with e*x = x*e = x for all x, if present."""
    t = S.table
    for e in S.elements:
        if all(t[e][x] == x and t[x][e] == x for x in S.elements):
            return e
    return None


def is_nilsemigroup(S: FiniteSemigroup) -> bool:
    """True iff S has a zero and every element has some power equal to it.

    Every element has an idempotent power, so this holds exactly when S has
    one idempotent and that idempotent is a zero; only that one candidate
    is tested.
    """
    ids = idempotents(S)
    if len(ids) != 1:
        return False
    (z,) = ids
    t, row = S.table, S.table[z]
    return all(row[x] == z and t[x][z] == z for x in S.elements)


def _index(value, what: str) -> int:
    """value as an int; a float, string, bool or other non-integer is rejected."""
    # a bool passes operator.index as 0 or 1, but is no index or size
    if value.__class__ is bool:
        raise InvalidParameters(f"{what} {value!r} is not an integer")
    try:
        return operator.index(value)
    except TypeError:
        raise InvalidParameters(f"{what} {value!r} is not an integer") from None


def _check_flag(value, what: str) -> None:
    """Refuse a flag that is not True or False, rather than read it by its
    truth value (the string 'no' is true)."""
    if not isinstance(value, bool):
        raise InvalidParameters(f"{what} must be True or False, got {value!r}")


def _element(S: FiniteSemigroup, value, what: str = "element") -> ElementId:
    """value as an element index of S, rejected unless an integer in [0, n)."""
    x = _index(value, what)
    if not 0 <= x < S.order:
        raise InvalidParameters(f"{what} {x} outside semigroup of order {S.order}")
    return x


def generated_subsemigroup(S: FiniteSemigroup, generators) -> frozenset[ElementId]:
    """Least subset containing the generators and closed under the table."""
    gens = list({_element(S, g, "generator") for g in generators})
    if not gens:
        raise EmptyGeneratorSet("generator set must be nonempty")
    return _mask_to_set(_generated(S.table, gens))


def _generated(t, gens: list[int]) -> int:
    """The subsemigroup of the table t generated by the distinct element ids
    gens, as a bit mask.

    Every element of the subsemigroup is a product g1 g2 ... gk of
    generators, and so the left-nested ((g1 g2) ...) gk: a breadth-first
    closure that multiplies on the right by generators only reaches all of
    it, in O(|closure| |generators|) lookups, on any table.
    """
    seen = 0
    for g in gens:
        seen |= 1 << g
    closure = list(gens)
    for a in closure:  # the list grows as new products are found
        row = t[a]
        for g in gens:
            v = row[g]
            if not seen >> v & 1:
                seen |= 1 << v
                closure.append(v)
    return seen


def _mask_to_set(mask: int) -> frozenset[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return frozenset(out)


@dataclass(frozen=True)
class CyclicData:
    """Index I(x), period P(x), and the distinct powers x, x^2, ..., x^(I+P-1)."""

    index: int
    period: int
    powers: tuple[ElementId, ...]

    def power(self, k: int) -> ElementId:
        """The element x^k for any exponent k >= 1."""
        if k < 1:
            raise InvalidParameters("powers start at exponent 1")
        if k <= len(self.powers):
            return self.powers[k - 1]
        return self.powers[self.index - 1 + (k - self.index) % self.period]


def cyclic_data(S: FiniteSemigroup, x: ElementId) -> CyclicData:
    """Index, period and power list of x; terminates within n steps."""
    return _cyclic_data(S, _element(S, x))


def _cyclic_data(S: FiniteSemigroup, x: int) -> CyclicData:
    """``cyclic_data`` of an element id x of S that is already checked; the
    result is kept in S._cyclic."""
    cached = S._cyclic.get(x)
    if cached is not None:
        return cached
    t = S.table
    powers = [x]
    seen = 1 << x
    cur = t[x][x]
    while not seen >> cur & 1:
        seen |= 1 << cur
        powers.append(cur)
        cur = t[cur][x]
    # cur = x^(len(powers) + 1) is the first repeated power, x^index
    index = powers.index(cur) + 1
    data = S._cyclic[x] = CyclicData(index=index, period=len(powers) + 1 - index, powers=tuple(powers))
    return data


def _idempotent_power(t, a: int) -> int:
    """The one idempotent among the powers of a: a, a^2, ... until one
    squares to itself. A power before the index is not idempotent, so the
    walk stops at the one in the cycle, within n steps."""
    row, e = t[a], a
    while t[e][e] != e:
        e = row[e]
    return e


def unique_cycle_idempotent(S: FiniteSemigroup, x: ElementId) -> ElementId:
    """The single idempotent power x^l, with l in [I, I+P-1] and l = 0 mod P."""
    return _idempotent_power(S.table, _element(S, x))


def monogenic(index: int, period: int) -> FiniteSemigroup:
    """The cyclic semigroup on powers x^1..x^(i+p-1) with index i and period p.

    Products follow the standard reduction: x^a * x^b = x^(a+b) while the
    exponent stays below i+p, and otherwise folds back into [i, i+p-1]
    congruent to a+b mod p.
    """
    i, p = _index(index, "index"), _index(period, "period")
    if i < 1 or p < 1:
        raise InvalidParameters(f"index and period must be >= 1, got ({index}, {period})")
    n = i + p - 1

    def prod(a: int, b: int) -> int:
        s = a + b + 2  # exponents are positions + 1
        if s <= n:
            return s - 1
        return i + (s - i) % p - 1

    return FiniteSemigroup._trusted([[prod(a, b) for b in range(n)] for a in range(n)])


def parse_cayley_table(text: str) -> FiniteSemigroup:
    """Read the table text format: order line, then n rows of n indices.

    Lines starting with '#' are comments and blank lines are skipped.
    """
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln and not ln.startswith("#")]
    if not lines:
        raise InvalidParameters("empty table file")
    try:
        n = int(lines[0])
    except ValueError:
        raise InvalidParameters(f"first line must be the order, got {lines[0]!r}") from None
    if n < 1:
        raise InvalidParameters(f"order must be at least 1, got {n}")
    if len(lines) != n + 1:
        raise InvalidParameters(f"expected {n} rows after the order line, got {len(lines) - 1}")
    rows = []
    for k, line in enumerate(lines[1:]):
        parts = line.split()
        if len(parts) != n:
            raise InvalidParameters(f"row {k} has {len(parts)} entries, expected {n}")
        try:
            rows.append([int(v) for v in parts])
        except ValueError:
            raise InvalidParameters(f"row {k} contains a non-integer entry") from None
    return validate(n, rows)


def format_cayley_table(S: FiniteSemigroup) -> str:
    """Canonical text form of the table; bit-exact for fixtures."""
    body = "\n".join(" ".join(str(v) for v in row) for row in S.table)
    return f"{S.order}\n{body}\n"
