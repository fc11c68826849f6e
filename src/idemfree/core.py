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

The package's value classes (``CyclicData`` here, and those of ``seqprod``,
``constants``, ``construct`` and ``structure``) are plain immutable classes
on the private base ``_Record``, which gives the constructor, equality,
hashing, repr, immutability and pickling from a class-level tuple of field
names, so no class is generated at import. Only the classes that convert,
check or default a field write their own constructor.
"""

from __future__ import annotations

import operator

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

    ``table`` is a tuple of row tuples. ``_trusted`` keeps the row tuples it
    is handed, and the enumerator in ``construct`` hands the tables of one
    stream one shared object per distinct row, so such a table is its outer
    tuple plus pointers. The glued tables of one families check share rows
    too: each part's block of rows is built once per memo
    (``construct._chain_rows``). Tuples never change, so sharing is safe.

    The instance has slots and no ``__dict__``: ``order``, ``table`` and
    two caches of derived data, filled on first use.
    - ``_idempotents``: the idempotents as one bit mask (``_idem_mask``),
      or None; ``idempotents`` builds its frozenset from it.
    - ``_commutative``: True, False or None, unknown.

    Instances are safely shareable across threads and processes. Derived
    data is stored whole and never changed once stored; two threads that
    fill one cache at once store equal data, so losing either store is
    harmless. Slots pickle.
    """

    __slots__ = ("order", "table", "_idempotents", "_commutative")

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
        # first violating triple in lexicographic (a, b, c) order: row (a*b)
        # against row a read at the cells of row b, scanned for c only on a
        # mismatch; order 1 is associative once closed (and itemgetter with
        # one index would return a cell, not a row)
        if n > 1:
            at = [operator.itemgetter(*rb) for rb in rows]
            for a, ra in enumerate(rows):
                for b, row_b_of in enumerate(at):
                    if rows[ra[b]] != row_b_of(ra):
                        rab, rb = rows[ra[b]], rows[b]
                        raise NotAssociative(a, b, next(c for c in range(n) if rab[c] != ra[rb[c]]))
        self._adopt(rows)

    @classmethod
    def _trusted(cls, rows) -> FiniteSemigroup:
        """Wrap integer rows already known to form a semigroup, unchecked.
        A row that is already a tuple is kept as it is (``tuple(t) is t``),
        so rows shared among tables stay shared."""
        S = cls.__new__(cls)
        S._adopt(tuple(map(tuple, rows)))
        return S

    def _adopt(self, rows: tuple[tuple[int, ...], ...]) -> None:
        self.order = len(rows)
        self.table = rows
        self._idempotents: int | None = None
        self._commutative: bool | None = None

    def mul(self, a: int, b: int) -> int:
        return self.table[_element(self, a, "element a")][_element(self, b, "element b")]

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
    order = _index(order, "order")
    rows = _integer_rows(table)
    if len(rows) != order:
        raise InvalidParameters(f"declared order {order} but table has {len(rows)} rows")
    return FiniteSemigroup(rows)


def idempotents(S: FiniteSemigroup) -> frozenset[ElementId]:
    """All e with e*e = e; nonempty for every finite semigroup."""
    return _mask_to_set(_idem_mask(S))


def _idem_mask(S: FiniteSemigroup) -> int:
    """The idempotents of S as a bit mask, scanned once and kept on S."""
    mask = S._idempotents
    if mask is None:
        mask = 0
        for e, row in enumerate(S.table):
            if row[e] == e:
                mask |= 1 << e
        assert mask, "finite semigroup without idempotent"
        S._idempotents = mask
    return mask


def is_commutative(S: FiniteSemigroup) -> bool:
    if S._commutative is None:
        S._commutative = S.table == tuple(zip(*S.table))
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
    ids = _idem_mask(S)
    if ids & (ids - 1):
        return False
    z = ids.bit_length() - 1
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


def _iterable(value, what: str):
    """An iterator over value; a value that is not iterable is rejected by name."""
    try:
        return iter(value)
    except TypeError:
        raise InvalidParameters(f"{what} {value!r} is not iterable") from None


def _check_flag(value, what: str) -> None:
    """Refuse a flag that is not True or False, rather than read it by its
    truth value (the string 'no' is true)."""
    if not isinstance(value, bool):
        raise InvalidParameters(f"{what} must be True or False, got {value!r}")


def _below(value, n: int, what: str, where: str) -> int:
    """value as an int in [0, n); otherwise refused by what, and by where,
    a format of n."""
    x = _index(value, what)
    if not 0 <= x < n:
        raise InvalidParameters(f"{what} {x} outside " + where.format(n=n))
    return x


def _element(S: FiniteSemigroup, value, what: str = "element") -> ElementId:
    """value as an element index of S, rejected unless an integer in [0, n)."""
    return _below(value, S.order, what, "semigroup of order {n}")


def generated_subsemigroup(S: FiniteSemigroup, generators) -> frozenset[ElementId]:
    """Least subset containing the generators and closed under the table."""
    gens = list({_element(S, g, "generator") for g in _iterable(generators, "generators")})
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
    seen = _mask_of(gens)
    closure = list(gens)
    for a in closure:  # the list grows as new products are found
        row = t[a]
        for g in gens:
            v = row[g]
            if not seen >> v & 1:
                seen |= 1 << v
                closure.append(v)
    return seen


def _mask_of(elements) -> int:
    """The bit mask of element ids; ``_mask_to_set`` is its inverse."""
    mask = 0
    for a in elements:
        mask |= 1 << a
    return mask


def _mask_to_set(mask: int) -> frozenset[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return frozenset(out)


class _Record:
    """Base of an immutable value class.

    A subclass names its fields, in order, in ``_fields`` and in its
    ``__slots__``. The base constructor takes the fields positionally in
    ``_fields`` order or by name, and stores each once through
    ``object.__setattr__``; it raises TypeError, naming the class, for more
    positional arguments than fields, an unknown name, a field given twice
    or a missing field. The four subclasses that convert, check or default
    a field write their own ``__init__``: ``Seq`` makes its terms a tuple,
    ``Monogenic``, ``GroupByNil`` and ``ExtremalSpec`` refuse a bad value
    with their own message, and ``adjoin_identity`` defaults to False.
    They are also the records built by the thousand, ``Seq`` and
    ``ExtremalSpec`` in every families check, where the generic
    constructor, about twice the cost of a hand-written one, would show.
    From ``_fields`` alone the base also gives:
    - ``==`` holds only between instances of one class with equal fields;
      against any other object it returns NotImplemented;
    - ``hash`` is the hash of the tuple of fields;
    - the repr reads ``Name(field=value!r, ...)``;
    - assigning or deleting an attribute raises AttributeError;
    - a pickle or copy calls the constructor with the fields and restores
      nothing else, so whatever else a subclass holds (``construct``'s
      parts hold their tables) its constructor builds again.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init__(self, *args, **kwargs):
        fields, name = self._fields, self.__class__.__qualname__
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} fields, got {len(args)} positional arguments")
        values = dict(zip(fields, args))
        for field, value in kwargs.items():
            if field not in fields:
                raise TypeError(f"{name}() has no field {field!r}")
            if field in values:
                raise TypeError(f"{name}() got field {field!r} twice")
            values[field] = value
        if len(values) < len(fields):
            raise TypeError(f"{name}() is missing fields {[field for field in fields if field not in values]}")
        for field, value in values.items():
            object.__setattr__(self, field, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._values()


class CyclicData(_Record):
    """Index I(x), period P(x), and the distinct powers x, x^2, ..., x^(I+P-1)."""

    __slots__ = _fields = ("index", "period", "powers")

    def power(self, k: int) -> ElementId:
        """The element x^k for any exponent k >= 1."""
        k = _index(k, "exponent")
        if k < 1:
            raise InvalidParameters("powers start at exponent 1")
        if k <= len(self.powers):
            return self.powers[k - 1]
        return self.powers[self.index - 1 + (k - self.index) % self.period]


def cyclic_data(S: FiniteSemigroup, x: ElementId) -> CyclicData:
    """Index, period and power list of x, from one ``_cycle`` walk, afresh
    on each call; terminates within n steps."""
    powers, _, index = _cycle(S.table, _element(S, x))
    return CyclicData(index=index, period=len(powers) + 1 - index, powers=tuple(powers))


def _cycle(t, x: int) -> tuple[list[int], int, int]:
    """The powers x, x^2, ... of x in the table t up to the first repeat,
    their bit mask, built during the walk, and x's index: at most n
    products. There are index + period - 1 powers, so the period is their
    count plus 1 less the index."""
    powers = [x]
    seen = 1 << x
    cur = t[x][x]
    while not seen >> cur & 1:
        seen |= 1 << cur
        powers.append(cur)
        cur = t[cur][x]
    # cur = x^(len(powers) + 1) is the first repeated power, x^index
    return powers, seen, powers.index(cur) + 1


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


def _plain_int(token: str) -> int:
    """int(token) for a token of the text formats, which write ASCII digits
    only: a non-ASCII digit or a '_', both of which int() accepts, raises
    ValueError as int() does on any other non-integer."""
    if not token.isascii() or "_" in token:
        raise ValueError(token)
    return int(token)


def parse_cayley_table(text: str) -> FiniteSemigroup:
    """Read the table text format: order line, then n rows of n indices.

    Lines starting with '#' are comments and blank lines are skipped.
    """
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln and not ln.startswith("#")]
    if not lines:
        raise InvalidParameters("empty table file")
    try:
        n = _plain_int(lines[0])
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
            rows.append([_plain_int(v) for v in parts])
        except ValueError:
            raise InvalidParameters(f"row {k} contains a non-integer entry") from None
    return validate(n, rows)


def format_cayley_table(S: FiniteSemigroup) -> str:
    """Canonical text form of the table; bit-exact for fixtures."""
    body = "\n".join(" ".join(str(v) for v in row) for row in S.table)
    return f"{S.order}\n{body}\n"
