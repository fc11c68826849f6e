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
an element of S, |S \\ E(S)| of them), build the record of their multiset
(``_support``) and pass it to ``_certify`` or ``_main_form``, which read
nothing else; the families and equivalence checks of ``verify`` build one
record per multiset and call those directly. The record holds the sorted
support, each generator's multiplicity, cyclic data and idempotent power,
and its sets as bit masks over S's element ids: R, each generator's powers,
and, once a verdict asks for it, R grouped by idempotent power with each
component's kind. Each generator's power mask and idempotent power come
from its one cyclic walk. A power of a generator has the generator's
idempotent power, so the grouping ORs the generators' power masks by
idempotent power and walks only the elements of R outside them
(``_by_idempotent_power``, the grouping ``_decompose`` builds the
archimedean decomposition from); once union-of-cycles holds there are
none. So the complement, union and disjointness conditions, the component
kinds and the main form's lower-absorbing chain are tests on ints.
"""

from __future__ import annotations

from .core import (
    CyclicData,
    ElementId,
    FiniteSemigroup,
    NotCommutative,
    SemigroupError,
    _cyclic_data,
    _element,
    _generated,
    _idem_mask,
    _idempotent_power,
    _mask_of,
    _mask_to_set,
    _Record,
    is_commutative,
    unique_cycle_idempotent,
)
from .seqprod import _terms, _translate, _weakly_free


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


class ComponentData(_Record):
    __slots__ = _fields = ("idempotent", "kernel_group", "nil_part")

    def __init__(self, idempotent: ElementId, kernel_group: frozenset[ElementId], nil_part: frozenset[ElementId]):
        object.__setattr__(self, "idempotent", idempotent)
        object.__setattr__(self, "kernel_group", kernel_group)
        object.__setattr__(self, "nil_part", nil_part)


class ArchDecomposition(_Record):
    __slots__ = _fields = ("components", "leq", "per_component", "comp_of")

    def __init__(
        self,
        components: tuple[frozenset[ElementId], ...],
        leq: tuple[tuple[bool, ...], ...],  # leq[i][j]: component i below-or-equal j
        per_component: tuple[ComponentData, ...],
        comp_of: tuple[int, ...],
    ):
        object.__setattr__(self, "components", components)
        object.__setattr__(self, "leq", leq)
        object.__setattr__(self, "per_component", per_component)
        object.__setattr__(self, "comp_of", comp_of)

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
            hs = _mask_to_set(upper)
            for g in _mask_to_set(lower):
                row = t[g]
                for h in hs:
                    if row[h] != g:
                        return False
    return True


def _component_data(S: FiniteSemigroup, comp, e: int) -> ComponentData:
    """The data of an archimedean component with idempotent e: its kernel
    e * comp, the translate comp * e since S commutes, and the nil part
    comp minus the kernel."""
    members = _mask_of(comp)
    kernel = _translate(S.table, members, e)
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


class GeneratorData(_Record):
    __slots__ = _fields = ("element", "index", "period", "multiplicity")

    def __init__(self, element: ElementId, index: int, period: int, multiplicity: int):
        object.__setattr__(self, "element", element)
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "period", period)
        object.__setattr__(self, "multiplicity", multiplicity)


class ExtremalCertificate(_Record):
    __slots__ = _fields = (
        "passed",
        "fail_reason",
        "generator_order",
        "per_generator",
        "component_kinds",
        "conditions",
    )

    def __init__(
        self,
        passed: bool,
        fail_reason: str | None,
        generator_order: tuple[ElementId, ...],
        per_generator: tuple[GeneratorData, ...],
        component_kinds: tuple[str, ...],
        conditions: tuple[tuple[str, bool], ...],
    ):
        object.__setattr__(self, "passed", passed)
        object.__setattr__(self, "fail_reason", fail_reason)
        object.__setattr__(self, "generator_order", generator_order)
        object.__setattr__(self, "per_generator", per_generator)
        object.__setattr__(self, "component_kinds", component_kinds)
        object.__setattr__(self, "conditions", conditions)

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
    holds each generator's cyclic data and power mask. The component lies
    in the commutative R, so its kernel e * comp is the translate comp * e.
    """
    powers = rec.powers
    if len(gens) == 1:
        cd = rec.cds[gens[0]]
        ok = powers[gens[0]] == comp and (cd.index - 1) % cd.period == 0
        return MONOGENIC_ONLY if ok else None
    if len(gens) != 2:
        return None
    kernel = _translate(t, comp, e)
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


class _Support:
    """What both extremal checks read about the multiset of checked terms,
    with every set as a bit mask over S's element ids. Mutable: ``comps``
    and ``kinds`` are filled in by ``_classified``."""

    __slots__ = ("supp", "counts", "R", "failed", "cds", "powers", "idem", "comps", "kinds")

    def __init__(
        self,
        supp: list[int],  # the sorted support
        counts: dict[int, int],  # each generator's multiplicity
        R: int,  # the subsemigroup it generates
        failed: str | None,  # the first failed condition among commutative closure and complement-idempotent
        cds: dict[int, CyclicData],  # each generator's cyclic data,
        powers: dict[int, int],  # the mask of its powers
        idem: dict[int, int],  # and its idempotent power
        comps: dict[int, int] | None = None,  # R grouped by idempotent power, once _classified asks for it,
        kinds: dict[int, str | None] | None = None,  # and each component's kind, both keyed by idempotent
    ):
        self.supp = supp
        self.counts = counts
        self.R = R
        self.failed = failed
        self.cds = cds
        self.powers = powers
        self.idem = idem
        self.comps = comps
        self.kinds = kinds


def _checked_terms(S: FiniteSemigroup, seq) -> tuple[int, ...]:
    """The terms of seq, checked once: each an element of S, and
    |S \\ E(S)| of them."""
    terms = _terms(S, seq)
    expected = S.order - _idem_mask(S).bit_count()
    if len(terms) != expected:
        raise WrongLength(f"sequence length {len(terms)} != |S \\ E(S)| = {expected}")
    return terms


def _support(S: FiniteSemigroup, terms: tuple[int, ...]) -> _Support:
    """The record of the multiset of checked terms.

    For the empty sequence R is empty and both prelude conditions hold,
    since its length says every element is idempotent.
    """
    supp = sorted(set(terms))
    counts = {x: terms.count(x) for x in supp}
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
        # x^l with l = 0 mod period in [index, index + period)
        idem[x] = cd.powers[cd.index - 1 + (-cd.index) % cd.period]
    return _Support(supp, counts, R, failed, cds, powers, idem)


def _classified(S: FiniteSemigroup, rec: _Support) -> tuple[dict[int, int], dict]:
    """The components of the commutative R and their kinds, both keyed by
    idempotent in the order of the components' least elements, filled into
    rec on the first call: a kind is None for a component that holds no
    generator or fails ``_component_kind``.

    A power of a generator has the generator's idempotent power, so each
    generator's power mask joins the group of its idempotent power, and
    only the elements of R outside every power mask are walked
    (``_by_idempotent_power``): none once union-of-cycles holds. The groups
    are disjoint, so ordering them by lowest bit orders them by least
    element."""
    if rec.kinds is None:
        t = S.table
        groups: dict[int, int] = {}
        covered = 0
        for x in rec.supp:
            e, p = rec.idem[x], rec.powers[x]
            groups[e] = groups.get(e, 0) | p
            covered |= p
        for e, m in _by_idempotent_power(t, rec.R & ~covered).items():
            groups[e] = groups.get(e, 0) | m
        comps = rec.comps = dict(sorted(groups.items(), key=lambda item: item[1] & -item[1]))
        gens: dict[int, list[int]] = {e: [] for e in comps}
        for x in rec.supp:
            gens[rec.idem[x]].append(x)
        rec.kinds = {e: _component_kind(t, e, comp, gens[e], rec) for e, comp in comps.items()}
    return rec.comps, rec.kinds


def extremal_structure_check(S: FiniteSemigroup, seq) -> ExtremalCertificate:
    """Check the structural characterization of weak freeness at length |S \\ E(S)|.

    Conditions are evaluated in a fixed order and the first failure decides
    the verdict; every condition that was evaluated is recorded.
    """
    return _certify(S, _support(S, _checked_terms(S, seq)))


def _certify(S: FiniteSemigroup, rec: _Support) -> ExtremalCertificate:
    """``extremal_structure_check`` of rec, the record of terms that are
    already element ids of S, |S \\ E(S)| of them."""
    supp, counts, cds, powers = rec.supp, rec.counts, rec.cds, rec.powers
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
        by_idem = _classified(S, rec)[1]
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
    kinds are classified as for the certificate, but the total order is
    decided by the archimedean components as a lower-absorbing chain
    instead of the flat absorption order, and multiplicities are pinned
    afresh.
    """
    return _main_form(S, _support(S, _checked_terms(S, seq)))


def _main_form(S: FiniteSemigroup, rec: _Support) -> bool:
    """``extremal_main_form`` of rec, the record of terms that are already
    element ids of S, |S \\ E(S)| of them."""
    if rec.failed is not None:
        return False
    if not rec.supp:
        return True
    comps, kinds = _classified(S, rec)
    if None in kinds.values() or not _absorbing_chain(S.table, comps):
        return False
    return all(rec.counts[x] == rec.cds[x].index + rec.cds[x].period - 2 for x in rec.supp)


def extremal_equivalence(S: FiniteSemigroup, seq) -> bool:
    """Brute-force weak freeness agrees with the structural certificate."""
    terms = _checked_terms(S, seq)
    return _weakly_free(S, terms) == _certify(S, _support(S, terms)).passed
