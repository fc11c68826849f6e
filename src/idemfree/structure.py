"""Commutative structure theory and the extremal-sequence certificate.

For a commutative semigroup the mutual power-divisibility relation
partitions the elements into archimedean components ordered by a lower
semilattice. Each finite commutative archimedean component is an ideal
extension of an abelian group (its kernel) by a nilsemigroup, glued by the
partial homomorphism a -> a * e.

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
    ElementId,
    FiniteSemigroup,
    NotCommutative,
    SemigroupError,
    _element,
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
    """True iff a^m = b*c for some m >= 1 and some c in S.

    Scanning one full power cycle of a suffices since higher powers repeat.
    """
    _require_commutative(S)
    powers = set(cyclic_data(S, a).powers)
    row = S.table[_element(S, b)]
    return any(row[c] in powers for c in S.elements)


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

    Works in S's own element ids: the witnesses c in a^m = b*c are drawn
    from the carrier, and comp_of is -1 outside it. The relation is kept as
    bit masks: one pass over carrier x carrier gives div_of[y], the b with
    y in b*carrier, and a's row, the b with a^m in b*carrier, is the OR of
    div_of over a's powers, stepped along a's row of the table.
    """
    t = S.table
    elems = sorted(carrier)
    div_of = [0] * S.order
    for b in elems:
        row, bit = t[b], 1 << b
        for c in elems:
            div_of[row[c]] |= bit
    rel = [0] * S.order
    for a in elems:
        row = t[a]
        seen = rm = 0
        cur = a
        while not seen >> cur & 1:
            seen |= 1 << cur
            rm |= div_of[cur]
            cur = row[cur]
        rel[a] = rm

    comp_of = [-1] * S.order
    components: list[frozenset[int]] = []
    comp_masks = []
    placed = 0
    for a in elems:
        if comp_of[a] >= 0:
            continue
        cid = len(components)
        members = [b for b in elems if rel[a] >> b & 1 and rel[b] >> a & 1]
        mask = sum(1 << b for b in members)
        assert not placed & mask, "mutual divisibility classes overlap"
        placed |= mask
        for b in members:
            comp_of[b] = cid
        components.append(frozenset(members))
        comp_masks.append(mask)

    reps = [min(comp) for comp in components]
    k = len(components)
    leq = tuple(tuple(bool(rel[reps[i]] >> reps[j] & 1) for j in range(k)) for i in range(k))
    # the relation must be constant on classes (it descends to the quotient)
    class_rows = [sum(comp_masks[j] for j in range(k) if leq[i][j]) for i in range(k)]
    for a in elems:
        assert rel[a] == class_rows[comp_of[a]], "divisibility is not a class invariant"

    return ArchDecomposition(
        components=tuple(components),
        leq=leq,
        per_component=tuple(_component_data(S, comp) for comp in components),
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


def _component_data(S: FiniteSemigroup, comp: frozenset[int]) -> ComponentData:
    """The unique idempotent e of an archimedean component, its kernel e * comp
    and the nil part comp minus the kernel."""
    t = S.table
    ids = [e for e in comp if t[e][e] == e]
    if len(ids) != 1:
        raise NotArchimedean(f"component has {len(ids)} idempotents, expected exactly 1")
    e = ids[0]
    kernel = frozenset(t[e][a] for a in comp)
    return ComponentData(idempotent=e, kernel_group=kernel, nil_part=comp - kernel)


def kernel_group(S: FiniteSemigroup, component) -> frozenset[ElementId]:
    """The group e * component sitting inside an archimedean component."""
    data = _component_data(S, frozenset(_element(S, a) for a in component))
    e, kernel = data.idempotent, data.kernel_group
    t = S.table
    assert all(t[e][g] == g for g in kernel), "idempotent is not an identity on the kernel"
    assert all(t[g][h] in kernel for g in kernel for h in kernel), "kernel not closed"
    assert all(any(t[g][h] == e for h in kernel) for g in kernel), "kernel element without inverse"
    return kernel


def partial_hom(S: FiniteSemigroup, component, a: ElementId) -> ElementId:
    """Map a nil-part element into the kernel group: a -> a * e."""
    comp = frozenset(_element(S, x) for x in component)
    a = _element(S, a)
    data = _component_data(S, comp)
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


def _component_kind(S: FiniteSemigroup, comp: frozenset[int], data: ComponentData, gens: list[int]) -> str | None:
    """The kind of one archimedean component from the generators inside it.

    Either one generator whose cycle is the whole component, with index
    congruent to 1 mod period; or a kernel generator whose cycle is the
    (nontrivial) group plus a nil generator whose cycle is the (nonempty)
    nil part and the idempotent, with trivial partial homomorphism.
    """
    if len(gens) == 1:
        cd = cyclic_data(S, gens[0])
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
        and frozenset(cyclic_data(S, x2).powers) == data.kernel_group
        and frozenset(cyclic_data(S, x1).powers) == data.nil_part | {e}
        and S.table[x1][e] == e  # trivial partial homomorphism
    )
    return GROUP_BY_NIL_EXTENSION if ok else None


# The subsemigroup R per sorted support and the decomposition per R, for the
# last table certified. A sweep certifies many multisets of one table, and
# the families check runs extremal_main_form after extremal_structure_check
# on the same sequence; both reuse them. Only one table's are kept, so a
# corpus held in memory does not hold a decomposition for every table.
# Threads that race here only recompute: each tuple pairs a table with its
# own dicts, and a table's entries depend on nothing else.
_memo: tuple = (None, {}, {})


def _table_memo(S: FiniteSemigroup) -> tuple:
    global _memo
    if _memo[0] is not S:
        _memo = (S, {}, {})
    return _memo


def _classify_components(
    S: FiniteSemigroup, R: frozenset[int], gens
) -> tuple[tuple[str, ...] | None, ArchDecomposition]:
    """Decompose the commutative subsemigroup R generated by gens, inside S.

    Returns the kind of each archimedean component, ordered by its first
    generator in gens (None if a component has no generator or fails
    ``_component_kind``), together with the decomposition of R.
    """
    decompositions = _table_memo(S)[2]
    dec = decompositions.get(R)
    if dec is None:
        dec = decompositions[R] = _decompose(S, R)
    comp_gens: dict[int, list[int]] = {}
    for x in gens:
        comp_gens.setdefault(dec.comp_of[x], []).append(x)
    if len(comp_gens) != len(dec.components):
        return None, dec
    kinds = []
    for cid, cgens in comp_gens.items():
        kind = _component_kind(S, dec.components[cid], dec.per_component[cid], cgens)
        if kind is None:
            return None, dec
        kinds.append(kind)
    return tuple(kinds), dec


def _extremal_prelude(S: FiniteSemigroup, seq) -> tuple[tuple[int, ...], list[int], frozenset[int], str | None]:
    """The start shared by both extremal checks.

    Returns the terms, their sorted support, the subsemigroup R they
    generate, and the first failed condition among commutative closure of R
    and idempotence of everything outside R (None if both hold). For the
    empty sequence R is empty and both hold, since the length check already
    says every element is idempotent.
    """
    terms = _terms(S, seq)
    expected = S.order - len(idempotents(S))
    if len(terms) != expected:
        raise WrongLength(f"sequence length {len(terms)} != |S \\ E(S)| = {expected}")
    supp = sorted(set(terms))
    generated = _table_memo(S)[1]
    R = generated.get(tuple(supp))
    if R is None:
        R = generated[tuple(supp)] = generated_subsemigroup(S, supp) if supp else frozenset()
    t = S.table
    # a semigroup generated by pairwise commuting elements is commutative
    if not all(t[a][b] == t[b][a] for i, a in enumerate(supp) for b in supp[i + 1:]):
        return terms, supp, R, COND_COMMUTATIVE
    if not all(t[s][s] == s for s in S.elements if s not in R):
        return terms, supp, R, COND_COMPLEMENT
    return terms, supp, R, None


def extremal_structure_check(S: FiniteSemigroup, seq) -> ExtremalCertificate:
    """Check the structural characterization of weak freeness at length |S \\ E(S)|.

    Conditions are evaluated in a fixed order and the first failure decides
    the verdict; every condition that was evaluated is recorded.
    """
    terms, supp, R, failed = _extremal_prelude(S, seq)
    cds = {x: cyclic_data(S, x) for x in supp}
    counts = {x: terms.count(x) for x in supp}
    gen_order: tuple[int, ...] = tuple(supp)
    kinds: tuple[str, ...] = ()

    def conditions():
        nonlocal gen_order, kinds
        yield COND_COMMUTATIVE, failed != COND_COMMUTATIVE
        yield COND_COMPLEMENT, failed is None
        if not supp:
            return
        order = _absorption_order(S, supp)
        yield COND_ABSORPTION, order is not None
        gen_order = order
        yield COND_UNION, set().union(*(cds[x].powers for x in supp)) == R
        parts = [set(cds[x].powers) - {unique_cycle_idempotent(S, x)} for x in supp]
        yield COND_DISJOINT, sum(map(len, parts)) == len(set().union(*parts))
        yield COND_INDEX, all((cds[x].index - 1) % cds[x].period == 0 for x in supp)
        yield COND_MULTIPLICITY, all(counts[x] == cds[x].index + cds[x].period - 2 for x in supp)
        found, _ = _classify_components(S, R, gen_order)
        yield COND_COMPONENTS, found is not None
        kinds = found

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
    kinds come from the shared classifier, but the total order is decided
    by the archimedean decomposition as a lower-absorbing chain instead of
    the flat absorption order, and multiplicities are pinned afresh.
    """
    terms, supp, R, failed = _extremal_prelude(S, seq)
    if failed is not None:
        return False
    if not supp:
        return True
    kinds, dec = _classify_components(S, R, supp)
    if kinds is None or not is_chain_lower_absorbing(S, dec):
        return False
    for x in supp:
        cd = cyclic_data(S, x)
        if terms.count(x) != cd.index + cd.period - 2:
            return False
    return True


def extremal_equivalence(S: FiniteSemigroup, seq) -> bool:
    """Brute-force weak freeness agrees with the structural certificate."""
    return is_weakly_free(S, seq) == extremal_structure_check(S, seq).passed
