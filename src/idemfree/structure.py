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
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    CyclicData,
    ElementId,
    FiniteSemigroup,
    NotCommutative,
    SemigroupError,
    _element,
    _idempotent_power,
    cyclic_data,
    generated_subsemigroup,
    idempotents,
    is_commutative,
    unique_cycle_idempotent,
)
from .seqprod import _terms, is_weakly_free


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
    idempotent power, and component i lies below component j exactly when
    e_i * e_j = e_i. Components are numbered as their idempotents are first
    reached over the sorted carrier, that is in the order of their least
    elements.
    """
    t = S.table
    comp_of = [-1] * S.order
    cid_of: dict[int, int] = {}  # idempotent -> component id, in id order
    members: list[list[int]] = []
    for a in sorted(carrier):
        e = _idempotent_power(t, a)
        cid = cid_of.get(e)
        if cid is None:
            cid = cid_of[e] = len(members)
            members.append([])
        comp_of[a] = cid
        members[cid].append(a)
    components = tuple(map(frozenset, members))
    return ArchDecomposition(
        components=components,
        leq=tuple(tuple(t[e][f] == e for f in cid_of) for e in cid_of),
        per_component=tuple(_component_data(S, comp, e) for comp, e in zip(components, cid_of)),
        comp_of=tuple(comp_of),
    )


def is_chain_lower_absorbing(S: FiniteSemigroup, dec: ArchDecomposition) -> bool:
    """Components form a chain and every strictly lower element absorbs: g*h = g."""
    if not dec.is_chain():
        return False
    t = S.table
    k = len(dec.components)
    for i in range(k):
        for j in range(k):
            if i == j or not dec.leq[i][j] or dec.leq[j][i]:
                continue
            for g in dec.components[i]:
                for h in dec.components[j]:
                    if t[g][h] != g:
                        return False
    return True


def _component_data(S: FiniteSemigroup, comp: frozenset[int], e: int) -> ComponentData:
    """The data of an archimedean component with idempotent e: its kernel
    e * comp and the nil part comp minus the kernel."""
    row = S.table[e]
    kernel = frozenset(row[a] for a in comp)
    return ComponentData(idempotent=e, kernel_group=kernel, nil_part=comp - kernel)


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


def _component_kind(S: FiniteSemigroup, comp: frozenset[int], data: ComponentData, gens, cds) -> str | None:
    """The kind of one archimedean component from the generators gens inside it.

    Either one generator whose cycle is the whole component, with index
    congruent to 1 mod period; or a kernel generator whose cycle is the
    (nontrivial) group plus a nil generator whose cycle is the (nonempty)
    nil part and the idempotent, with trivial partial homomorphism. cds maps
    each generator to its cyclic data.
    """
    if len(gens) == 1:
        cd = cds[gens[0]]
        ok = frozenset(cd.powers) == comp and (cd.index - 1) % cd.period == 0
        return MONOGENIC_ONLY if ok else None
    if len(gens) != 2:
        return None
    in_kernel = [g for g in gens if g in data.kernel_group]
    if len(in_kernel) != 1:
        return None
    x2 = in_kernel[0]
    x1 = gens[0] if gens[1] == x2 else gens[1]
    e = data.idempotent
    ok = (
        len(data.kernel_group) >= 2
        and len(data.nil_part) >= 1
        and frozenset(cds[x2].powers) == data.kernel_group
        and frozenset(cds[x1].powers) == data.nil_part | {e}
        and S.table[x1][e] == e  # trivial partial homomorphism
    )
    return GROUP_BY_NIL_EXTENSION if ok else None


@dataclass
class _Support:
    """What both extremal checks read about one sorted support of a table."""

    R: frozenset[int]  # the subsemigroup the support generates
    failed: str | None  # the first failed condition among commutative closure and complement-idempotent
    cds: dict[int, CyclicData]  # each generator's cyclic data
    dec: ArchDecomposition | None = None  # R's decomposition, once _classified asks for it,
    kinds: tuple[str | None, ...] = ()  # and each component's kind by component id


# One _Support per sorted support, for the last table certified. A sweep
# certifies many multisets of one table, and the families check runs
# extremal_main_form after extremal_structure_check on the same sequence;
# both read the record. Only one table's records are kept, so a corpus held
# in memory does not hold a decomposition for every table (records on every
# table measured +5% peak RSS on the corpus benchmark). Threads that race
# here only recompute: each tuple pairs a table with its own dict, and a
# table's records depend on nothing else.
_memo: tuple = (None, {})


def _extremal_prelude(S: FiniteSemigroup, seq) -> tuple[tuple[int, ...], list[int], _Support]:
    """The start shared by both extremal checks: the terms, their sorted
    support and its record, built on the first call for that support.

    For the empty sequence R is empty and both prelude conditions hold,
    since the length check already says every element is idempotent.
    """
    global _memo
    terms = _terms(S, seq)
    expected = S.order - len(idempotents(S))
    if len(terms) != expected:
        raise WrongLength(f"sequence length {len(terms)} != |S \\ E(S)| = {expected}")
    supp = sorted(set(terms))
    memo = _memo
    if memo[0] is not S:
        memo = _memo = (S, {})
    rec = memo[1].get(tuple(supp))
    if rec is None:
        R = generated_subsemigroup(S, supp) if supp else frozenset()
        t = S.table
        failed = None
        # a semigroup generated by pairwise commuting elements is commutative
        if not all(t[a][b] == t[b][a] for i, a in enumerate(supp) for b in supp[i + 1:]):
            failed = COND_COMMUTATIVE
        elif not all(t[s][s] == s for s in S.elements if s not in R):
            failed = COND_COMPLEMENT
        rec = memo[1][tuple(supp)] = _Support(R, failed, {x: cyclic_data(S, x) for x in supp})
    return terms, supp, rec


def _classified(S: FiniteSemigroup, supp: list[int], rec: _Support) -> tuple[ArchDecomposition, tuple]:
    """The decomposition of the commutative R and each component's kind,
    filled into rec on the first call: None for a component that holds no
    generator or fails ``_component_kind``."""
    if rec.dec is None:
        dec = _decompose(S, rec.R)
        comp_gens: list[list[int]] = [[] for _ in dec.components]
        for x in supp:
            comp_gens[dec.comp_of[x]].append(x)
        # kinds first: a thread that sees dec set also sees them
        rec.kinds = tuple(
            _component_kind(S, comp, data, gens, rec.cds)
            for comp, data, gens in zip(dec.components, dec.per_component, comp_gens)
        )
        rec.dec = dec
    return rec.dec, rec.kinds


def extremal_structure_check(S: FiniteSemigroup, seq) -> ExtremalCertificate:
    """Check the structural characterization of weak freeness at length |S \\ E(S)|.

    Conditions are evaluated in a fixed order and the first failure decides
    the verdict; every condition that was evaluated is recorded.
    """
    terms, supp, rec = _extremal_prelude(S, seq)
    cds = rec.cds
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
        yield COND_UNION, set().union(*(cds[x].powers for x in supp)) == rec.R
        parts = [set(cds[x].powers) - {_idempotent_power(S.table, x)} for x in supp]
        yield COND_DISJOINT, sum(map(len, parts)) == len(set().union(*parts))
        yield COND_INDEX, all((cds[x].index - 1) % cds[x].period == 0 for x in supp)
        yield COND_MULTIPLICITY, all(counts[x] == cds[x].index + cds[x].period - 2 for x in supp)
        dec, by_id = _classified(S, supp, rec)
        yield COND_COMPONENTS, None not in by_id
        # each component's kind, ordered by its first generator in gen_order
        kinds = tuple(by_id[cid] for cid in dict.fromkeys(dec.comp_of[x] for x in gen_order))

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
    the archimedean decomposition as a lower-absorbing chain instead of the
    flat absorption order, and multiplicities are pinned afresh.
    """
    terms, supp, rec = _extremal_prelude(S, seq)
    if rec.failed is not None:
        return False
    if not supp:
        return True
    dec, by_id = _classified(S, supp, rec)
    if None in by_id or not is_chain_lower_absorbing(S, dec):
        return False
    return all(terms.count(x) == rec.cds[x].index + rec.cds[x].period - 2 for x in supp)


def extremal_equivalence(S: FiniteSemigroup, seq) -> bool:
    """Brute-force weak freeness agrees with the structural certificate."""
    return is_weakly_free(S, seq) == extremal_structure_check(S, seq).passed
