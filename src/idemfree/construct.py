"""Constructors for chained cyclic families and a small-order table enumerator.

The extremal generator builds semigroups component by component along a
chain where later components absorb cross products, pairing each with the
longest weakly free sequence the structure admits. A catalog part builds its
table when it is constructed and keeps it (``_table``): the specs of one
catalog share their part objects, so each part is built once however many
chains it sits in, and the tables die with the specs. Glued and adjoined
tables are built as row tuples, which ``_trusted`` keeps as they are, and
carry their commutativity, known from their parts, so no later caller
scans them for it. An ordinal sum's rows are its parts' blocks: one rule
(``_block``) places a part's rows at an offset in a sum of a given total
order, and one rule (``_identity_column``) extends rows by an adjoined
identity's column. ``chain_glue``, ``adjoin_identity`` and
``extremal_pair`` build their rows by these two rules alone, and
``_chain_rows`` keeps a chain's blocks in a dict under (part, offset,
total), so the sums that share the dict share each block's rows. The
enumerator streams every associative table of a given small order, in
lexicographic order of the flattened rows, by cell-wise backtracking with
partial associativity pruning and forward checking. One generator frame
walks the cells on an explicit stack and yields each table from that
frame; ``enumerate_semigroups`` shows that each triple is checked once.
For commutative tables it walks only the upper cells a <= b, fills each
with its mirror and marks every table it emits as commutative. The
tables of one stream share their rows: the walk keeps one tuple per
distinct row it has emitted, in a dict of its own frame, so a table costs
its outer tuple and its instance, and two streams share nothing. Every
table built here is associative by construction, so it is wrapped
without the full re-check.
"""

from __future__ import annotations

import itertools

from .core import (
    FiniteSemigroup,
    InvalidParameters,
    SemigroupError,
    _check_flag,
    _index,
    _iterable,
    _Record,
    is_commutative,
    monogenic,
)
from .seqprod import Seq


class OrderTooLarge(SemigroupError):
    """An enumeration order above a cap. ``cap`` is the configured cap that
    refused ``order``, or None when the order is past HARD_ENUM_CAP."""

    def __init__(self, message: str, order: int | None = None, cap: int | None = None):
        super().__init__(message)
        self.order = order
        self.cap = cap


HARD_ENUM_CAP = 5
DEFAULT_ENUM_ORDER_CAP = 4


def cyclic_group(p: int) -> FiniteSemigroup:
    """The cyclic group of order p (index 1, period p)."""
    p = _index(p, "group order")
    if p < 1:
        raise InvalidParameters(f"group order must be >= 1, got {p}")
    return monogenic(1, p)


def cyclic_nil(n: int) -> FiniteSemigroup:
    """The cyclic nilsemigroup of index n; the top power is the zero."""
    n = _index(n, "nil index")
    if n < 1:
        raise InvalidParameters(f"nil index must be >= 1, got {n}")
    return monogenic(n, 1)


def trivial_ideal_extension(nil_index: int, group_order: int) -> FiniteSemigroup:
    """A cyclic group reached by a nilpotent generator with trivial gluing map.

    Carrier: x^1..x^(n-1) followed by the p group elements; nil products
    overflow onto the group identity and nil elements act as identities on
    the group, which makes the whole thing one archimedean component.
    """
    n, p = _index(nil_index, "nil index"), _index(group_order, "group order")
    if n < 2 or p < 2:
        raise InvalidParameters(f"need nil index >= 2 and group order >= 2, got ({n}, {p})")
    off = n - 1
    g = monogenic(1, p).table
    e_g = off + p - 1  # x2^p, the group identity

    def prod(a: int, b: int) -> int:
        a_nil, b_nil = a < off, b < off
        if a_nil and b_nil:
            s = a + b + 2
            return s - 1 if s <= n - 1 else e_g
        if a_nil:
            return b
        if b_nil:
            return a
        return off + g[a - off][b - off]

    size = off + p
    return FiniteSemigroup._trusted([[prod(a, b) for b in range(size)] for a in range(size)])


def _block(comp: FiniteSemigroup, offset: int, total: int) -> tuple[tuple[int, ...], ...]:
    """comp's rows in an ordinal sum of total elements, comp at offset: a
    product inside comp is comp's, shifted by offset, and a product across
    components is the factor from the later component. This is the one
    ordinal-sum row rule; a sum is associative whenever its parts are, and
    commutative whenever they are, so comp must be commutative.
    """
    if not is_commutative(comp):
        raise InvalidParameters("chain components must be commutative")
    later = tuple(range(offset + comp.order, total))
    # a times an earlier element is a, times a later one is that element
    return tuple([(a,) * offset + tuple([offset + v for v in row]) + later for a, row in enumerate(comp.table, offset)])


def _glued(rows) -> FiniteSemigroup:
    """The ordinal sum whose rows are rows, each from a ``_block``, marked
    commutative without a scan: ``_block`` refuses a part that is not."""
    S = FiniteSemigroup._trusted(rows)
    S._commutative = True
    return S


def chain_glue(components) -> FiniteSemigroup:
    """Disjoint union of commutative semigroups; cross products fall to the
    element from the later component in the list.

    This is an ordinal sum: its rows are each component's ``_block`` in
    turn, so the result is associative and commutative by construction
    and marked commutative without a scan. components may be any
    iterable; it is read once.
    """
    components = list(_iterable(components, "components"))
    if not components:
        raise InvalidParameters("need at least one component")
    for comp in components:
        if not isinstance(comp, FiniteSemigroup):
            raise InvalidParameters(f"chain component {comp!r} is not a FiniteSemigroup")
    total = sum(comp.order for comp in components)
    table = []
    offset = 0
    for comp in components:
        table += _block(comp, offset, total)
        offset += comp.order
    return _glued(table)


def group_nil_chain(n1: int, n2: int) -> FiniteSemigroup:
    """A cyclic group of order n1 over a cyclic nilsemigroup with n2 elements."""
    n1, n2 = _index(n1, "group order"), _index(n2, "nil index")
    if n1 < 2 or n2 < 2:
        raise InvalidParameters(f"need n1 >= 2 and n2 >= 2, got ({n1}, {n2})")
    return chain_glue([cyclic_group(n1), cyclic_nil(n2)])


def _identity_column(rows, start: int) -> tuple[tuple[int, ...], ...]:
    """rows, those of elements start, start + 1, ..., each with the column
    of an identity adjoined after the last element: a times it is a. This
    is the one identity-column rule."""
    return tuple([row + (a,) for a, row in enumerate(rows, start)])


def _adjoined(column_rows, commutative: bool | None) -> FiniteSemigroup:
    """The table whose rows are column_rows, a table's rows with the
    identity column (``_identity_column``), then the identity's own row;
    commutative is the table's flag, which the identity keeps."""
    T = FiniteSemigroup._trusted([*column_rows, tuple(range(len(column_rows) + 1))])
    T._commutative = commutative
    return T


def adjoin_identity(S: FiniteSemigroup) -> FiniteSemigroup:
    """S with a fresh identity element appended as the last index.

    Each row gains the identity column (``_identity_column``), and the
    identity's row comes last. The identity commutes with everything, so
    the result is commutative exactly when S is; whatever S already knows
    of that is copied.
    """
    return _adjoined(_identity_column(S.table, 0), S._commutative)


# a catalog part's slots besides its fields, each set once by _build
_PART_SLOTS = ("term_count", "_terms", "_table", "_hash")


def _build(part, terms: tuple[int, ...], table: FiniteSemigroup) -> None:
    """Set a catalog part's ``term_count``, ``_terms``, the extremal
    sequence in the part's own ids, ``_table`` and ``_hash``, the hash of
    its fields. They are not fields, so not in ==, hash or repr. The
    families check keys its memo by parts once per part placement, so
    their hash is read there (``_stored_hash``), not recomputed."""
    object.__setattr__(part, "term_count", len(terms))
    object.__setattr__(part, "_terms", terms)
    object.__setattr__(part, "_table", table)
    object.__setattr__(part, "_hash", hash(part._values()))


def _stored_hash(part) -> int:
    return part._hash


class Monogenic(_Record):
    """A single-cycle component; index must be congruent to 1 mod period."""

    _fields = ("index", "period")
    __slots__ = (*_fields, *_PART_SLOTS)
    __hash__ = _stored_hash

    def __init__(self, index: int, period: int):
        object.__setattr__(self, "index", _index(index, "index"))
        object.__setattr__(self, "period", _index(period, "period"))
        if self.index < 1 or self.period < 1:
            raise InvalidParameters(f"need index, period >= 1, got {self}")
        if (self.index - 1) % self.period != 0:
            raise InvalidParameters(f"index must be 1 mod period, got {self}")
        # the generator, repeated
        _build(self, (0,) * (self.index + self.period - 2), monogenic(self.index, self.period))


class GroupByNil(_Record):
    """A nontrivial cyclic group under a nontrivial cyclic nil generator."""

    _fields = ("nil_index", "group_order")
    __slots__ = (*_fields, *_PART_SLOTS)
    __hash__ = _stored_hash

    def __init__(self, nil_index: int, group_order: int):
        object.__setattr__(self, "nil_index", _index(nil_index, "nil index"))
        object.__setattr__(self, "group_order", _index(group_order, "group order"))
        if self.nil_index < 2 or self.group_order < 2:
            raise InvalidParameters(f"need nil index >= 2 and group order >= 2, got {self}")
        # the nil generator first, then the group generator
        terms = (0,) * (self.nil_index - 1) + (self.nil_index - 1,) * (self.group_order - 1)
        _build(self, terms, trivial_ideal_extension(self.nil_index, self.group_order))


class ExtremalSpec(_Record):
    __slots__ = _fields = ("chain", "adjoin_identity")

    def __init__(self, chain: tuple[Monogenic | GroupByNil, ...], adjoin_identity: bool = False):
        try:
            parts = tuple(chain)
        except TypeError:
            raise InvalidParameters(f"extremal spec chain {chain!r} is not a sequence of parts") from None
        if not parts:
            raise InvalidParameters("extremal spec needs at least one component")
        for part in parts:
            if not isinstance(part, (Monogenic, GroupByNil)):
                raise InvalidParameters(f"extremal spec part {part!r} is not a Monogenic or GroupByNil")
        _check_flag(adjoin_identity, "adjoin_identity")
        object.__setattr__(self, "chain", parts)
        object.__setattr__(self, "adjoin_identity", adjoin_identity)


def _chain_rows(chain, blocks: dict) -> tuple[list, list, tuple[int, ...]]:
    """The rows of the ordinal sum of the chain's part tables, the same rows
    with the identity column, and the chain's extremal terms in the sum's
    ids, gathered part by part.

    A part's block depends only on the part, its offset and the sum's total
    order, so blocks keeps it under (part, offset, total): the part's
    ``_block``, those rows' ``_identity_column`` and its terms shifted by
    the offset. A block missing from blocks is built and stored there, so
    sums that share a dict share each block's row tuples.
    """
    total = sum(part._table.order for part in chain)
    rows, column_rows, terms = [], [], []
    offset = 0
    for part in chain:
        key = part, offset, total
        block = blocks.get(key)
        if block is None:
            placed = _block(part._table, offset, total)
            block = blocks[key] = placed, _identity_column(placed, offset), tuple([offset + x for x in part._terms])
        rows += block[0]
        column_rows += block[1]
        terms += block[2]
        offset += part._table.order
    return rows, column_rows, tuple(terms)


def extremal_pair(spec: ExtremalSpec) -> tuple[FiniteSemigroup, Seq]:
    """Build the described semigroup and its longest weakly free sequence.

    Each generator x appears index(x) + period(x) - 2 times, so the total
    length is exactly |S \\ E(S)|. The table is ``chain_glue`` of the
    parts' tables, with the identity adjoined when the spec asks, built
    from the parts' blocks (``_chain_rows``) in a dict of this call's own.
    The parts' tables are their ``_table``, built with the part, so specs
    that share a part object share it.
    """
    rows, column_rows, terms = _chain_rows(spec.chain, {})
    S = _adjoined(column_rows, True) if spec.adjoin_identity else _glued(rows)
    return S, Seq(terms)


def canonical_form(S: FiniteSemigroup) -> tuple[int, ...]:
    """Lexicographically least flattened table over all element relabelings."""
    n = S.order
    best = tuple(v for row in S.table for v in row)
    for perm in itertools.permutations(range(n)):
        rel = [0] * (n * n)
        for a in range(n):
            pa = perm[a] * n
            row = S.table[a]
            for b in range(n):
                rel[pa + perm[b]] = perm[row[b]]
        cand = tuple(rel)
        if cand < best:
            best = cand
    return best


def _is_canonical(S: FiniteSemigroup) -> bool:
    return canonical_form(S) == tuple(v for row in S.table for v in row)


def _check_enum_order(n: int, cap: int, name: str) -> None:
    """Refuse an enumeration order n past HARD_ENUM_CAP or past cap, the
    value of the caller's parameter called name."""
    if n > HARD_ENUM_CAP:
        raise OrderTooLarge(f"enumeration is capped at order {HARD_ENUM_CAP}")
    if n > cap:
        raise OrderTooLarge(f"order {n} exceeds the configured cap {cap}; raise {name} explicitly", order=n, cap=cap)


def enumerate_semigroups(
    order: int,
    commutative_only: bool = False,
    dedup_iso: bool = False,
    resume_from=None,
    max_order: int = DEFAULT_ENUM_ORDER_CAP,
):
    """Stream every associative table of the given order, lexicographically.

    One generator frame fills the cells in row-major order, keeping for
    each walked cell the next value to try, the end of its value range and
    whether the cells before it equal the resume prefix. Every triple
    (xy)z = x(yz) whose four cells are all assigned and one of which is the
    new cell (a, b) is checked once, so a full table is associative. The
    triples where (a, b) is xy or yz are checked after the assignment, in
    two O(n) scans, the xy scan over z and the yz scan over x. Those where
    it is the outer product, (xy)b with xy = a or a(yz) with yz = b, are
    settled before it by the forward check below; pre[v], a stack of the
    assigned cells (x, y) with xy = v, finds them without a scan of the
    whole table. With commutative_only, the walk fills only the upper cells
    (a, b), a <= b, in row-major order, and one with a < b sets its mirror
    (b, a) to the same value. The walk never visits a lower cell: while it
    is still on the resume prefix's boundary, it compares each lower cell
    it passes with the prefix, and past the boundary it does not read them.
    One check covers the pair: mirror cells are always set together, so the
    triple (x, y, z) is determined exactly when (z, y, x) is, and by
    commutativity (zy)x = z(yx) is the equation x(yz) = (xy)z. The triples
    through (b, a) are the mirrors of those through (a, b). On a diagonal
    cell (a, a) the yz scan is skipped: its triple (x, a, a) is, by
    commutativity, a(ax) = (aa)x, the xy scan's triple at z = x, and as
    mirror cells are set together both read the same set cells. On a cell
    with a < b the partial table is symmetric, so the yz scan's triple
    (za)b = z(ab) reads b(az) = vz through the mirrors, and both scans run
    in one pass over z.

    Before values are tried in an unset cell (a, b), the stacks pre[a] and
    pre[b] are walked once: a triple (xy)b = x(yb) with xy = a, or
    a(yz) = (ay)z with yz = b, whose other cells are all set forces the
    cell to the value of its other side. Two different forced values end the subtree;
    one forced value w is the only one tried, if it is at least the resume
    bound. Filling (a, b) and its mirror only sets cells that were unset,
    so a forcing triple keeps both of its sides: every value but w breaks
    it, and w keeps every forcing triple.

    Walking the stacks again after the assignment would find nothing new.
    It could meet a triple the forward check did not settle in two ways
    only: by reading a cell the assignment set, (a, b) or its mirror
    (b, a), or by visiting a stack entry the assignment pushed, which
    happens when v = a or v = b. ((y, b) or (a, y) can be the mirror only
    if a = b, and a cell on the diagonal has none.) Each such triple is
    either one of the two scans' equations or reads v on both sides:
    - in pre[a], (x, a) with xa = a reads (a, b) as yb: xv = v, the yz
      scan at x;
    - in pre[a], an entry (x, y) whose cell x(yb) is (a, b) or (b, a)
      reads v on both sides;
    - v = a pushes (a, b) to pre[a]: a(bb) = v, the xy scan at z = b;
      and its mirror (b, a): b(ab) = ba = v;
    - in pre[b], (b, z) with bz = b reads (a, b) as ay: vz = v, the xy
      scan at z;
    - in pre[b], an entry (y, z) whose cell (ay)z is (a, b) or (b, a)
      reads v on both sides;
    - v = b pushes (a, b) to pre[b]: (aa)b = v, the yz scan at x = a;
      and its mirror (b, a): (ab)a = ba = v.
    So the scans do not read the stacks, and a cell is pushed only once the
    walk moves past it. The stream is unchanged, and so is resume_from;
    dedup_iso keeps only the tables that are their own canonical form. With
    commutative_only every table emitted is marked commutative, so
    is_commutative does not scan it.

    Order 5 must be requested explicitly via max_order=5 (the README gives
    its running time); nothing beyond 5 is supported. resume_from restarts
    the stream at a flattened row-major prefix (inclusive), a sequence of
    cells; None, the default, starts at the first table.
    Every argument is checked at the call, before a generator of the
    stream is returned.
    """
    n = _index(order, "order")
    max_order = _index(max_order, "max_order")
    _check_flag(commutative_only, "commutative_only")
    _check_flag(dedup_iso, "dedup_iso")
    if n < 1:
        raise InvalidParameters("order must be >= 1")
    _check_enum_order(n, max_order, "max_order")
    try:
        cells = () if resume_from is None else tuple(resume_from)
    except TypeError:
        raise InvalidParameters(f"resume_from must be a sequence of cells or None, got {resume_from!r}") from None
    prefix = tuple(_index(v, "resume cell") for v in cells)
    if len(prefix) > n * n:
        raise InvalidParameters(f"resume prefix has {len(prefix)} cells, more than the {n * n} of order {n}")
    for v in prefix:
        if not 0 <= v < n:
            raise InvalidParameters(f"resume cell {v} is not in [0, {n})")
    stream = _walk(n, commutative_only, prefix)
    # a generator, not filter(), so the stream keeps its close()
    return (S for S in stream if _is_canonical(S)) if dedup_iso else stream


def _walk(n: int, commutative_only: bool, prefix: tuple[int, ...]):
    """The stream of ``enumerate_semigroups`` for checked arguments."""
    table = [[-1] * n for _ in range(n)]
    # pre[v] holds the assigned cells (x, y) with x*y = v; only the forward
    # check reads it, so a cell is pushed once the walk moves past it and
    # popped on backtracking, and each list is a stack
    pre: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    # the walked cells, every cell or with commutative_only the upper ones,
    # as (flat index, a, b, mirror?, row a, row b, pre[a], pre[b]); passed[i]
    # lists the prefix's lower cells between walked cells i - 1 and i, which
    # earlier mirrors have set, so they are only compared with the prefix
    cells, passed, start = [], [], 0
    for d in range(n * n):
        a, b = divmod(d, n)
        if not commutative_only or a <= b:
            passed.append([(e, *divmod(e, n)) for e in range(start, min(d, len(prefix)))])
            cells.append((d, a, b, commutative_only and a < b, table[a], table[b], pre[a], pre[b]))
            start = d + 1
    # per walked cell: the next value, the end of its range, on the boundary?
    nxt, ends, bound = [0] * len(cells), [0] * len(cells), [True] * len(cells)
    # one tuple per distinct row this stream has emitted, which every table
    # with that row points to; _trusted keeps a tuple as it is
    rows: dict[tuple[int, ...], tuple[int, ...]] = {}
    i, last, entering = 0, len(cells) - 1, True
    while True:
        d, a, b, mirror, ta, tb, pa, pb = cells[i]
        if entering:
            v, end = 0, n
            if bound[i]:
                # a passed cell below its prefix value ends the subtree, one
                # above it leaves the boundary
                for e, x, y in passed[i]:
                    u = table[x][y]
                    if u != prefix[e]:
                        end = n if u > prefix[e] else 0
                        bound[i] = False
                        break
                if bound[i] and d < len(prefix):
                    v = prefix[d]
            # forward check: a triple through (a, b) as the outer product
            # whose other cells are all set forces the cell's value; (a, b)
            # and its mirror are unset, so no forcing triple reads them
            w = -1
            for x, y in pa if end else ():
                yb = table[y][b]
                if yb >= 0:
                    f = table[x][yb]
                    if f >= 0 and f != w:
                        if w >= 0:
                            end = 0
                            break
                        w = f
            for y, z in pb if end else ():
                ay = ta[y]
                if ay >= 0:
                    f = table[ay][z]
                    if f >= 0 and f != w:
                        if w >= 0:
                            end = 0
                            break
                        w = f
            if w >= 0 and end:
                v, end = w, w + 1 if w >= v else 0
        else:
            # back from the cell after this one: take back this cell's value
            v, end = nxt[i], ends[i]
            stack = pre[ta[b]]
            stack.pop()
            if mirror:
                stack.pop()
        entering = True
        while v < end:
            ta[b] = v
            if mirror:
                tb[a] = v
            # the triples with (a, b) as xy, (ab)z = a(bz), and as yz,
            # (za)b = z(ab): a mirror cell reads the second as b(az) = vz
            # in the same pass over z, the commutative diagonal skips it,
            # and the labelled walk scans the rows for it
            tv = table[v]
            for az, bz, vz in zip(ta, tb, tv) if mirror else ():
                if vz >= 0:
                    if bz >= 0:
                        right = ta[bz]
                        if right >= 0 and vz != right:
                            break
                    if az >= 0:
                        left = tb[az]
                        if left >= 0 and left != vz:
                            break
            else:
                for bz, left in () if mirror else zip(tb, tv):
                    if bz >= 0 and left >= 0:
                        right = ta[bz]
                        if right >= 0 and left != right:
                            break
                else:
                    for tx in () if commutative_only else table:
                        xa = tx[a]
                        if xa >= 0:
                            left, right = table[xa][b], tx[v]
                            if left >= 0 and right >= 0 and left != right:
                                break
                    else:
                        # every triple through the cell holds: descend, or emit
                        if i < last:
                            stack = pre[v]
                            stack.append((a, b))
                            if mirror:
                                stack.append((b, a))
                            nxt[i], ends[i] = v + 1, end
                            bound[i + 1] = bound[i] and d < len(prefix) and v == prefix[d]
                            i += 1
                            break
                        S = FiniteSemigroup._trusted([rows.setdefault(r, r) for r in map(tuple, table)])
                        if commutative_only:
                            # every cell was set together with its mirror
                            S._commutative = True
                        yield S
            v += 1
        else:
            ta[b] = -1
            if mirror:
                tb[a] = -1
            if not i:
                return
            i -= 1
            entering = False
