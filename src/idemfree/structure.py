"""Commutative structure theory and the extremal-sequence certificate.

For a commutative semigroup the mutual power-divisibility relation
partitions the elements into archimedean components ordered by a lower
semilattice. In a finite one, a and b are mutually divisible exactly when
they have the same idempotent power, so there is one component per
idempotent e, the elements whose idempotent power is e, and the component
of e lies below that of f exactly when e * f = e (_decompose gives the
proof). Each component is an ideal extension of an abelian group (its
kernel e * S_e) by a nilsemigroup, glued by the partial homomorphism
a -> a * e.

The certificate checker decides whether a sequence of length |S \\ E(S)|
has the structure that characterizes weak freeness at that length: a
commutative generated subsemigroup covering everything but idempotents,
a total absorption order on the support, cycles that tile the subsemigroup
with disjoint non-idempotent parts, index congruent to 1 mod period, and
multiplicities pinned to index + period - 2.

Each extremal check has two entries. The public ``extremal_structure_check``
and ``extremal_main_form`` check their terms once (``_checked_terms``: each
an element of S, |S \\ E(S)| of them) and call ``_certify`` and
``_main_form``, which take checked element ids; the families and
equivalence checks of ``verify`` call those directly. Both read one record
per sorted support (``_Support``) whose sets are bit masks over S's element
ids: R, each generator's powers, and R grouped by idempotent power
(``_by_idempotent_power``, the grouping ``_decompose`` builds the
archimedean decomposition from). So the complement, union and disjointness
conditions, the component kinds and the main form's lower-absorbing chain
are tests on ints.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    CyclicData,
    ElementId,
    FiniteSemigroup,
    NotCommutative,
    SemigroupError,
    _cyclic_data,
    _element,
    _generated,
    _idempotent_power,
    _mask_to_set,
    idempotents,
    is_commutative,
    unique_cycle_idempotent,
)
from .seqprod import _idem_mask, _terms, _weakly_free


class NotArchimedean(SemigroupError):
    pass


class NotInNilPart(SemigroupError):
    pass


class WrongLength(SemigroupError):
    pass


MONOGENIC_ONLY = "MonogenicOnly"
GROUP_BY_NIL_EXTENSION = "GroupByNilExtension"

# certificate condition ids, in evaluation order
COND_COMMUTATIVE = "commutative-closure"
COND_COMPLEMENT = "complement-idempotent"
COND_ABSORPTION = "absorption-order"
COND_UNION = "union-of-cycles"
COND_DISJOINT = "disjoint-nonidempotent-parts"
COND_INDEX = "index-congruence"
COND_MULTIPLICITY = "multiplicity"
COND_COMPONENTS = "component-structure"


def _require_commutative(S: FiniteSemigroup) -> None:
    if not is_commutative(S):
        raise NotCommutative("operation requires a commutative semigroup")


def divides_power(S: FiniteSemigroup, a: ElementId, b: ElementId) -> bool:
    """True iff a^m = b*c for some m >= 1 and some c in S: exactly when
    e_b * e_a = e_a, with e_x the idempotent power of x (``_decompose``
    gives the proof).
    """
    _require_commutative(S)
    e_a = unique_cycle_idempotent(S, a)
    e_b = unique_cycle_idempotent(S, b)
    return S.table[e_b][e_a] == e_a


@dataclass(frozen=True)
class ComponentData:
    idempotent: ElementId
    kernel_group: frozenset[ElementId]
    nil_part: frozenset[ElementId]


@dataclass(frozen=True)
class ArchDecomposition:
    components: tuple[frozenset[ElementId], ...]
    leq: tuple[tuple[bool, ...], ...]  # leq[i][j]: component i below-or-equal j
    per_component: tuple[ComponentData, ...]
    comp_of: tuple[int, ...]

    def component_of(self, a: ElementId) -> int:
        return self.comp_of[a]

    def is_chain(self) -> bool:
        k = len(self.components)
        return all(self.leq[i][j] or self.leq[j][i] for i in range(k) for j in range(i + 1, k))

    def meet(self, i: int, j: int) -> int:
        below = [k for k in range(len(self.components)) if self.leq[k][i] and self.leq[k][j]]
        tops = [k for k in below if all(self.leq[m][k] for m in below)]
        assert len(tops) == 1, "component order is not a meet semilattice"
        return tops[0]


def archimedean_decomposition(S: FiniteSemigroup) -> ArchDecomposition:
    """Partition a commutative semigroup into archimedean components.

    Components are classes of mutual power divisibility, ordered by the
    induced relation; each carries its unique idempotent, kernel group and
    nil part.
    """
    _require_commutative(S)
    return _decompose(S, S.elements)


def _mask_of(elements) -> int:
    mask = 0
    for a in elements:
        mask |= 1 << a
    return mask


def _by_idempotent_power(t, carrier: int) -> dict[int, int]:
    """The elements of the carrier mask grouped by idempotent power: each
    idempotent power with the mask of the carrier elements that have it,
    in the order of the groups' least elements."""
    groups: dict[int, int] = {}
    m = carrier
    while m:
        low = m & -m
        e = _idempotent_power(t, low.bit_length() - 1)
        groups[e] = groups.get(e, 0) | low
        m ^= low
    return groups


def _decompose(S: FiniteSemigroup, carrier) -> ArchDecomposition:
    """The archimedean decomposition of a closed carrier on which S commutes.

    Works in S's own element ids: b divides a power of a when a^m = b*c for
    some m >= 1 and some c in the carrier (no identity is adjoined), and
    comp_of is -1 outside the carrier. With e_a the idempotent power of a,
    b divides a power of a exactly when e_b * e_a = e_a:

    - if e_b * e_a = e_a and e_b = b^l, then the power e_a of a is
      b * (b^(l-1) * e_a), or b * e_a when l = 1, a witness in the carrier;
    - if a^m = b*c, raising both sides to a k with a^(mk) = e_a and
      b^k = e_b gives e_a = e_b * c^k, so e_b * e_a = e_a.

    So the classes of mutual divisibility are the sets of elements with one
    idempotent power (``_by_idempotent_power``), and component i lies below
    component j exactly when e_i * e_j = e_i. Components are numbered in
    the order of their least elements.
    """
    t = S.table
    groups = _by_idempotent_power(t, _mask_of(carrier))
    comp_of = [-1] * S.order
    components = tuple(map(_mask_to_set, groups.values()))
    for cid, comp in enumerate(components):
        for a in comp:
            comp_of[a] = cid
    return ArchDecomposition(
        components=components,
        leq=tuple(tuple(t[e][f] == e for f in groups) for e in groups),
        per_component=tuple(_component_data(S, comp, e) for comp, e in zip(components, groups)),
        comp_of=tuple(comp_of),
    )


def is_chain_lower_absorbing(S: FiniteSemigroup, dec: ArchDecomposition) -> bool:
    """Components form a chain and every strictly lower element absorbs: g*h = g."""
    comps = {data.idempotent: _mask_of(comp) for comp, data in zip(dec.components, dec.per_component)}
    return _absorbing_chain(S.table, comps)


def _absorbing_chain(t, comps: dict[int, int]) -> bool:
    """The components comps, each an idempotent with the mask of its
    component, form a chain under e <= f when e*f = e, and g*h = g for every
    g of a strictly lower component and h of a higher one."""
    items = list(comps.items())
    for i, (e, cm) in enumerate(items):
        for f, dm in items[i + 1:]:
            e_below, f_below = t[e][f] == e, t[f][e] == f
            if e_below == f_below:
                if e_below:  # each below the other: neither is strictly lower
                    continue
                return False
            lower, upper = (cm, dm) if e_below else (dm, cm)
            hs = []
            while upper:
                low = upper & -upper
                hs.append(low.bit_length() - 1)
                upper ^= low
            while lower:
                low = lower & -lower
                g = low.bit_length() - 1
                row = t[g]
                for h in hs:
                    if row[h] != g:
                        return False
                lower ^= low
    return True


def _kernel(row_e, comp: int) -> int:
    """The kernel e * comp of a component mask, with row_e the row of its
    idempotent e."""
    kernel = 0
    while comp:
        low = comp & -comp
        kernel |= 1 << row_e[low.bit_length() - 1]
        comp ^= low
    return kernel


def _component_data(S: FiniteSemigroup, comp, e: int) -> ComponentData:
    """The data of an archimedean component with idempotent e: its kernel
    e * comp and the nil part comp minus the kernel."""
    members = _mask_of(comp)
    kernel = _kernel(S.table[e], members)
    return ComponentData(idempotent=e, kernel_group=_mask_to_set(kernel), nil_part=_mask_to_set(members & ~kernel))


def _archimedean_component(S: FiniteSemigroup, component) -> ComponentData:
    """The data of component, once it is checked to be an archimedean
    component of S: all of its elements, and no element outside it, have
    one idempotent power."""
    _require_commutative(S)
    comp = frozenset(_element(S, a) for a in component)
    t = S.table
    powers = {_idempotent_power(t, a) for a in comp}
    if len(powers) != 1:
        raise NotArchimedean(
            f"{sorted(comp)} is not an archimedean component: "
            f"its elements have {len(powers)} idempotent powers {sorted(powers)}, expected exactly 1"
        )
    (e,) = powers
    missing = [a for a in S.elements if a not in comp and _idempotent_power(t, a) == e]
    if missing:
        raise NotArchimedean(
            f"{sorted(comp)} is not an archimedean component: "
            f"it leaves out {missing}, whose idempotent power is also {e}"
        )
    return _component_data(S, comp, e)


def kernel_group(S: FiniteSemigroup, component) -> frozenset[ElementId]:
    """The group e * component sitting inside an archimedean component.

    Raises NotArchimedean, naming the set, unless component is an
    archimedean component of the commutative S.
    """
    data = _archimedean_component(S, component)
    e, kernel = data.idempotent, data.kernel_group
    t = S.table
    assert all(t[e][g] == g for g in kernel), "idempotent is not an identity on the kernel"
    assert all(t[g][h] in kernel for g in kernel for h in kernel), "kernel not closed"
    assert all(any(t[g][h] == e for h in kernel) for g in kernel), "kernel element without inverse"
    return kernel


def partial_hom(S: FiniteSemigroup, component, a: ElementId) -> ElementId:
    """Map a nil-part element into the kernel group: a -> a * e.

    Raises NotArchimedean, naming the set, unless component is an
    archimedean component of the commutative S.
    """
    data = _archimedean_component(S, component)
    a = _element(S, a)
    if a not in data.nil_part:
        raise NotInNilPart(f"element {a} is not in the nil part of the component")
    image = S.table[a][data.idempotent]
    assert image in data.kernel_group
    return image


@dataclass(frozen=True)
class GeneratorData:
    element: ElementId
    index: int
    period: int
    multiplicity: int


@dataclass(frozen=True)
class ExtremalCertificate:
    passed: bool
    fail_reason: str | None
    generator_order: tuple[ElementId, ...]
    per_generator: tuple[GeneratorData, ...]
    component_kinds: tuple[str, ...]
    conditions: tuple[tuple[str, bool], ...]

    def to_json_dict(self) -> dict:
        return {
            "verdict": "pass" if self.passed else "fail",
            "failReason": self.fail_reason,
            "generatorOrder": list(self.generator_order),
            "perGenerator": [
                {
                    "element": g.element,
                    "index": g.index,
                    "period": g.period,
                    "multiplicity": g.multiplicity,
                }
                for g in self.per_generator
            ],
            "componentKind": list(self.component_kinds),
            "conditions": [{"id": cid, "ok": ok} for cid, ok in self.conditions],
        }


def _absorption_order(S: FiniteSemigroup, supp: list[int]) -> tuple[int, ...] | None:
    """An ordering x_1..x_k with x_i * x_j = x_j for i < j, if one exists."""
    t = S.table
    wins = {x: 0 for x in supp}
    for i, a in enumerate(supp):
        for b in supp[i + 1:]:
            p = t[a][b]
            if p == b:
                wins[a] += 1
            elif p == a:
                wins[b] += 1
            else:
                return None
    order = sorted(supp, key=lambda x: (-wins[x], x))
    for i, a in enumerate(order):
        for b in order[i + 1:]:
            if t[a][b] != b:
                return None
    return tuple(order)


def _component_kind(t, e: int, comp: int, gens: list[int], rec: "_Support") -> str | None:
    """The kind of one archimedean component, with idempotent e and member
    mask comp, from the generators gens inside it.

    Either one generator whose cycle is the whole component, with index
    congruent to 1 mod period; or a kernel generator whose cycle is the
    (nontrivial) group plus a nil generator whose cycle is the (nonempty)
    nil part and the idempotent, with trivial partial homomorphism. rec
    holds each generator's cyclic data and power mask.
    """
    powers = rec.powers
    if len(gens) == 1:
        cd = rec.cds[gens[0]]
        ok = powers[gens[0]] == comp and (cd.index - 1) % cd.period == 0
        return MONOGENIC_ONLY if ok else None
    if len(gens) != 2:
        return None
    kernel = _kernel(t[e], comp)
    in_kernel = [g for g in gens if kernel >> g & 1]
    if len(in_kernel) != 1:
        return None
    x2 = in_kernel[0]
    x1 = gens[0] if gens[1] == x2 else gens[1]
    nil = comp & ~kernel
    ok = (
        kernel.bit_count() >= 2
        and nil != 0
        and powers[x2] == kernel
        and powers[x1] == nil | 1 << e
        and t[x1][e] == e  # trivial partial homomorphism
    )
    return GROUP_BY_NIL_EXTENSION if ok else None


@dataclass
class _Support:
    """What both extremal checks read about one sorted support of a table,
    with every set as a bit mask over S's element ids."""

    R: int  # the subsemigroup the support generates
    failed: str | None  # the first failed condition among commutative closure and complement-idempotent
    cds: dict[int, CyclicData]  # each generator's cyclic data,
    powers: dict[int, int]  # the mask of its powers
    idem: dict[int, int]  # and its idempotent power
    comps: dict[int, int] | None = None  # R grouped by idempotent power, once _classified asks for it,
    kinds: dict[int, str | None] | None = None  # and each component's kind, both keyed by idempotent


# One _Support per sorted support, for the last table certified. A sweep
# certifies many multisets of one table, and the families check runs
# _main_form after _certify on the same sequence; both read the record, whose
# sets are ints, not frozensets. Only one table's records are kept, so a
# corpus held in memory does not hold a record for every table (records on
# every table measured +5% peak RSS on the corpus benchmark). Threads that
# race here only recompute: each tuple pairs a table with its own dict, and a
# table's records depend on nothing else.
_memo: tuple = (None, {})


def _checked_terms(S: FiniteSemigroup, seq) -> tuple[int, ...]:
    """The terms of seq, checked once: each an element of S, and
    |S \\ E(S)| of them."""
    terms = _terms(S, seq)
    expected = S.order - len(idempotents(S))
    if len(terms) != expected:
        raise WrongLength(f"sequence length {len(terms)} != |S \\ E(S)| = {expected}")
    return terms


def _support(S: FiniteSemigroup, terms: tuple[int, ...]) -> tuple[list[int], _Support]:
    """The sorted support of checked terms and its record, built on the
    first call for that support.

    For the empty sequence R is empty and both prelude conditions hold,
    since its length says every element is idempotent.
    """
    global _memo
    supp = sorted(set(terms))
    memo = _memo
    if memo[0] is not S:
        memo = _memo = (S, {})
    key = tuple(supp)
    rec = memo[1].get(key)
    if rec is None:
        t = S.table
        R = _generated(t, supp)
        failed = None
        # a semigroup generated by pairwise commuting elements is commutative;
        # the pairs need no look when S is already known to be
        if not (S._commutative or all(t[a][b] == t[b][a] for i, a in enumerate(supp) for b in supp[i + 1:])):
            failed = COND_COMMUTATIVE
        elif R | _idem_mask(S) != (1 << S.order) - 1:
            failed = COND_COMPLEMENT
        cds, powers, idem = {}, {}, {}
        for x in supp:
            cd = cds[x] = _cyclic_data(S, x)
            powers[x] = _mask_of(cd.powers)
            idem[x] = _idempotent_power(t, x)
        rec = memo[1][key] = _Support(R, failed, cds, powers, idem)
    return supp, rec


def _classified(S: FiniteSemigroup, supp: list[int], rec: _Support) -> tuple[dict[int, int], dict]:
    """The components of the commutative R and their kinds, both keyed by
    idempotent in the order of the components' least elements, filled into
    rec on the first call: a kind is None for a component that holds no
    generator or fails ``_component_kind``."""
    if rec.kinds is None:
        t = S.table
        comps = _by_idempotent_power(t, rec.R)
        gens: dict[int, list[int]] = {e: [] for e in comps}
        for x in supp:
            gens[rec.idem[x]].append(x)
        rec.comps = comps
        # kinds last: a thread that sees them set also sees comps
        rec.kinds = {e: _component_kind(t, e, comp, gens[e], rec) for e, comp in comps.items()}
    return rec.comps, rec.kinds


def extremal_structure_check(S: FiniteSemigroup, seq) -> ExtremalCertificate:
    """Check the structural characterization of weak freeness at length |S \\ E(S)|.

    Conditions are evaluated in a fixed order and the first failure decides
    the verdict; every condition that was evaluated is recorded.
    """
    return _certify(S, _checked_terms(S, seq))


def _certify(S: FiniteSemigroup, terms: tuple[int, ...]) -> ExtremalCertificate:
    """``extremal_structure_check`` of terms that are already element ids of
    S, |S \\ E(S)| of them."""
    supp, rec = _support(S, terms)
    cds, powers = rec.cds, rec.powers
    counts = {x: terms.count(x) for x in supp}
    gen_order: tuple[int, ...] = tuple(supp)
    kinds: tuple[str, ...] = ()

    def conditions():
        nonlocal gen_order, kinds
        yield COND_COMMUTATIVE, rec.failed != COND_COMMUTATIVE
        yield COND_COMPLEMENT, rec.failed is None
        if not supp:
            return
        order = _absorption_order(S, supp)
        yield COND_ABSORPTION, order is not None
        gen_order = order
        union = parts = sizes = 0
        for x in supp:
            union |= powers[x]
            part = powers[x] & ~(1 << rec.idem[x])
            parts |= part
            sizes += part.bit_count()
        yield COND_UNION, union == rec.R
        yield COND_DISJOINT, sizes == parts.bit_count()
        yield COND_INDEX, all((cds[x].index - 1) % cds[x].period == 0 for x in supp)
        yield COND_MULTIPLICITY, all(counts[x] == cds[x].index + cds[x].period - 2 for x in supp)
        by_idem = _classified(S, supp, rec)[1]
        yield COND_COMPONENTS, None not in by_idem.values()
        # each component's kind, ordered by its first generator in gen_order
        kinds = tuple(by_idem[e] for e in dict.fromkeys(rec.idem[x] for x in gen_order))

    # the first failure ends the walk, so a later condition is never evaluated
    # and gen_order and kinds keep their defaults unless their condition held
    conds: list[tuple[str, bool]] = []
    for cond in conditions():
        conds.append(cond)
        if not cond[1]:
            break
    passed = conds[-1][1]
    return ExtremalCertificate(
        passed=passed,
        fail_reason=None if passed else conds[-1][0],
        generator_order=gen_order,
        per_generator=tuple(GeneratorData(x, cds[x].index, cds[x].period, counts[x]) for x in gen_order),
        component_kinds=kinds,
        conditions=tuple(conds),
    )


def extremal_main_form(S: FiniteSemigroup, seq) -> bool:
    """The same characterization decided through the archimedean machinery.

    Serves as a cross-check for the flat condition list: the component
    kinds come from the shared record, but the total order is decided by
    the archimedean components as a lower-absorbing chain instead of the
    flat absorption order, and multiplicities are pinned afresh.
    """
    return _main_form(S, _checked_terms(S, seq))


def _main_form(S: FiniteSemigroup, terms: tuple[int, ...]) -> bool:
    """``extremal_main_form`` of terms that are already element ids of S,
    |S \\ E(S)| of them."""
    supp, rec = _support(S, terms)
    if rec.failed is not None:
        return False
    if not supp:
        return True
    comps, kinds = _classified(S, supp, rec)
    if None in kinds.values() or not _absorbing_chain(S.table, comps):
        return False
    return all(terms.count(x) == rec.cds[x].index + rec.cds[x].period - 2 for x in supp)


def extremal_equivalence(S: FiniteSemigroup, seq) -> bool:
    """Brute-force weak freeness agrees with the structural certificate."""
    terms = _checked_terms(S, seq)
    return _weakly_free(S, terms) == _certify(S, terms).passed
