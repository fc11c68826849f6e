"""Commutative structure theory and the extremal-sequence certificate.

For a commutative semigroup the mutual power-divisibility relation
partitions the elements into archimedean components ordered by a lower
semilattice. In a finite one, a and b are mutually divisible exactly when
they have the same idempotent power, so there is one component per
idempotent e, the elements whose idempotent power is e, and the component
of e lies below that of f exactly when e * f = e
(``archimedean_decomposition`` gives the proof). Each component is an
ideal extension of an abelian group (its kernel e * S_e) by a
nilsemigroup, glued by the partial homomorphism a -> a * e.

The certificate checker decides whether a sequence of length |S \\ E(S)|
has the structure that characterizes weak freeness at that length: a
commutative generated subsemigroup covering everything but idempotents,
a total absorption order on the support, cycles that tile the subsemigroup
with disjoint non-idempotent parts, index congruent to 1 mod period, and
multiplicities pinned to index + period - 2.

Each extremal check has two entries. The public ``extremal_structure_check``
and ``extremal_main_form`` check their terms once (``_checked_terms``: each
an element of S, |S \\ E(S)| of them), build the record of their multiset
(``_Support(S, terms)``) and pass it to ``_certify`` or ``_main_form``,
which read nothing else; the families and equivalence checks of ``verify``
build one record per multiset and call the private entries directly. The
record holds the sorted support, each generator's multiplicity, its
(index, period) pair and its idempotent power, and its sets as bit masks
over S's element ids: R, each generator's powers, and, once a verdict asks
for it, R grouped by idempotent power with each component's kind. A
generator's pair, power mask and idempotent power all come from its one
``_cycle`` walk. A power of a generator has the generator's idempotent
power, so the grouping starts from the generators' power masks and walks
only the elements of R outside them (``_by_idempotent_power``, the grouping
``archimedean_decomposition`` is built from); once union-of-cycles holds
there are none. So the complement, union and disjointness conditions, the
component kinds and the main form's lower-absorbing chain are tests on ints.

The conditions are evaluated once, by ``_conditions``, up to the first
failure. It has two readers: ``_certify`` wraps its result in an
``ExtremalCertificate``, and ``_passes`` returns the bare verdict, the last
condition's flag. The verdict is all that ``extremal_equivalence`` and
verify's families and equivalence checks read, so they build no
certificate.

The complement condition, R | E(S) = S, is the one test that reads S;
every other condition and the main form read only products inside R and
which of its elements are idempotent.
"""

from __future__ import annotations

from .constants import ghw_bound
from .core import (
    ElementId,
    FiniteSemigroup,
    InvalidParameters,
    NotCommutative,
    SemigroupError,
    _below,
    _cycle,
    _element,
    _generated,
    _idem_mask,
    _idempotent_power,
    _iterable,
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
    e_b * e_a = e_a, with e_x the idempotent power of x
    (``archimedean_decomposition`` gives the proof).
    """
    _require_commutative(S)
    e_a = unique_cycle_idempotent(S, a)
    e_b = unique_cycle_idempotent(S, b)
    return S.table[e_b][e_a] == e_a


class ComponentData(_Record):
    __slots__ = _fields = ("idempotent", "kernel_group", "nil_part")


class ArchDecomposition(_Record):
    """``leq[i][j]``: component i is below or equal to component j."""

    __slots__ = _fields = ("components", "leq", "per_component", "comp_of")

    def component_of(self, a: ElementId) -> int:
        return self.comp_of[_below(a, len(self.comp_of), "element a", "semigroup of order {n}")]

    def is_chain(self) -> bool:
        k = len(self.components)
        return all(self.leq[i][j] or self.leq[j][i] for i in range(k) for j in range(i + 1, k))

    def meet(self, i: int, j: int) -> int:
        count = len(self.components)
        i = _below(i, count, "component i", "the {n} components")
        j = _below(j, count, "component j", "the {n} components")
        below = [k for k in range(count) if self.leq[k][i] and self.leq[k][j]]
        tops = [k for k in below if all(self.leq[m][k] for m in below)]
        if len(tops) != 1:
            raise InvalidParameters(f"components {i} and {j} have no meet: the order is not a meet semilattice")
        return tops[0]


def archimedean_decomposition(S: FiniteSemigroup) -> ArchDecomposition:
    """Partition a commutative semigroup into archimedean components.

    Components are classes of mutual power divisibility, ordered by the
    induced relation; each carries its unique idempotent, kernel group and
    nil part. b divides a power of a when a^m = b*c for some m >= 1 and
    some c in S (no identity is adjoined). With e_a the idempotent power of
    a, b divides a power of a exactly when e_b * e_a = e_a:

    - if e_b * e_a = e_a and e_b = b^l, then the power e_a of a is
      b * (b^(l-1) * e_a), or b * e_a when l = 1, a witness in S;
    - if a^m = b*c, raising both sides to a k with a^(mk) = e_a and
      b^k = e_b gives e_a = e_b * c^k, so e_b * e_a = e_a.

    So the classes of mutual divisibility are the sets of elements with one
    idempotent power (``_by_idempotent_power``), and component i lies below
    component j exactly when e_i * e_j = e_i. Components are numbered in
    the order of their least elements.
    """
    _require_commutative(S)
    t = S.table
    groups = _by_idempotent_power(t, (1 << S.order) - 1, {})
    comp_of = [0] * S.order
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


def _by_idempotent_power(t, carrier: int, groups: dict[int, int]) -> dict[int, int]:
    """groups, each idempotent power with a mask of elements that have it,
    extended by the elements of the carrier mask, in the order of the
    groups' least elements. The groups are disjoint, so ordering them by
    lowest bit orders them by least element."""
    m = carrier
    while m:
        low = m & -m
        e = _idempotent_power(t, low.bit_length() - 1)
        groups[e] = groups.get(e, 0) | low
        m ^= low
    return dict(sorted(groups.items(), key=lambda item: item[1] & -item[1]))


def is_chain_lower_absorbing(S: FiniteSemigroup, dec: ArchDecomposition) -> bool:
    """Components form a chain and every strictly lower element absorbs: g*h = g.

    dec must be the archimedean decomposition of S; a decomposition of
    another table raises InvalidParameters, and a noncommutative S raises
    NotCommutative, as ``archimedean_decomposition`` does.
    """
    if dec != archimedean_decomposition(S):
        raise InvalidParameters(f"dec is not the archimedean decomposition of the semigroup of order {S.order}")
    comps = {data.idempotent: _mask_of(comp) for comp, data in zip(dec.components, dec.per_component)}
    return _absorbing_chain(S.table, comps)


def _absorbing_chain(t, comps: dict[int, int]) -> bool:
    """The components comps of a commutative table, each an idempotent with
    the mask of its component, form a chain under e <= f when e*f = e, and
    g*h = g for every g of a strictly lower component and h of a higher one.
    Two distinct idempotents are never each below the other, since
    e = ef = fe = f."""
    items = list(comps.items())
    for i, (e, cm) in enumerate(items):
        for f, dm in items[i + 1:]:
            e_below = t[e][f] == e
            if e_below == (t[f][e] == f):  # neither below the other
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
    comp = frozenset(_element(S, a) for a in _iterable(component, "component"))
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


class ExtremalCertificate(_Record):
    __slots__ = _fields = (
        "passed",
        "fail_reason",
        "generator_order",
        "per_generator",
        "component_kinds",
        "conditions",
    )

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
    """An ordering x_1..x_k with x_i * x_j = x_j for i < j, if one exists.

    ``_certify`` asks only once commutative closure holds, so the terms
    commute pairwise. If every product of two of them is one of them, then
    "a before b when ab = b" is a strict linear order: ab = b and ba = a
    give a = b, since ab = ba; and ab = b with bc = c gives
    ac = a(bc) = (ab)c = c. So each term precedes a different number of
    others, and those counts rank the terms with no ties.
    """
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
    return tuple(sorted(supp, key=wins.__getitem__, reverse=True))


def _component_kind(t, e: int, comp: int, gens: list[int], rec: _Support) -> str | None:
    """The kind of one archimedean component, with idempotent e and member
    mask comp, from the generators gens inside it.

    Either one generator whose cycle is the whole component, with index
    congruent to 1 mod period; or a kernel generator whose cycle is the
    (nontrivial) group plus a nil generator whose cycle is the (nonempty)
    nil part and the idempotent, with trivial partial homomorphism. rec
    holds each generator's index, period and power mask. The component
    lies in the commutative R, so its kernel e * comp is the translate
    comp * e.
    """
    powers = rec.powers
    if len(gens) == 1:
        index, period = rec.cycles[gens[0]]
        ok = powers[gens[0]] == comp and (index - 1) % period == 0
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
    """The record of a multiset of checked terms that both extremal checks
    read, with every set as a bit mask over S's element ids:

    - ``supp``, the sorted support, and ``counts``, each generator's
      multiplicity;
    - ``R``, the subsemigroup the support generates;
    - ``failed``, the first failed condition among commutative closure and
      complement-idempotent, or None;
    - ``cycles``, ``powers`` and ``idem``: each generator's
      (index, period) pair, the mask of its powers and its idempotent
      power, all from its one ``_cycle`` walk, with no ``CyclicData``
      built;
    - ``comps`` and ``kinds``: R grouped by idempotent power and each
      component's kind, both keyed by idempotent, None until
      ``_classified`` fills them in (the record is mutable for this).

    For the empty sequence R is empty and both prelude conditions hold,
    since its length says every element is idempotent. ``_conditions``
    reads the record for both the certificate and the bare verdict, and
    ``_main_form`` reads the same record.
    """

    __slots__ = ("supp", "counts", "R", "failed", "cycles", "powers", "idem", "comps", "kinds")

    def __init__(self, S: FiniteSemigroup, terms: tuple[int, ...]):
        supp = self.supp = sorted(set(terms))
        self.counts = {x: terms.count(x) for x in supp}
        t = S.table
        R = self.R = _generated(t, supp)
        self.failed = None
        # a semigroup generated by pairwise commuting elements is commutative;
        # the pairs need no look when S is already known to be
        if not (S._commutative or all(t[a][b] == t[b][a] for i, a in enumerate(supp) for b in supp[i + 1:])):
            self.failed = COND_COMMUTATIVE
        elif R | _idem_mask(S) != (1 << S.order) - 1:
            self.failed = COND_COMPLEMENT
        cycles, powers, idem = {}, {}, {}
        for x in supp:
            xs, powers[x], index = _cycle(t, x)
            period = len(xs) + 1 - index
            cycles[x] = index, period
            # x^l with l = 0 mod period in [index, index + period)
            idem[x] = xs[index - 1 + (-index) % period]
        self.cycles, self.powers, self.idem = cycles, powers, idem
        self.comps = self.kinds = None


def _checked_terms(S: FiniteSemigroup, seq) -> tuple[int, ...]:
    """The terms of seq, checked once: each an element of S, and
    |S \\ E(S)| of them."""
    terms = _terms(S, seq)
    expected = ghw_bound(S) - 1
    if len(terms) != expected:
        raise WrongLength(f"sequence length {len(terms)} != |S \\ E(S)| = {expected}")
    return terms


def _classified(S: FiniteSemigroup, rec: _Support) -> tuple[dict[int, int], dict]:
    """The components of the commutative R and their kinds, both keyed by
    idempotent in the order of the components' least elements, filled into
    rec on the first call: a kind is None for a component that holds no
    generator or fails ``_component_kind``.

    A power of a generator has the generator's idempotent power, so each
    generator's power mask joins the group of its idempotent power, and
    only the elements of R outside every power mask are walked
    (``_by_idempotent_power``): none once union-of-cycles holds."""
    if rec.kinds is None:
        t = S.table
        groups: dict[int, int] = {}
        covered = 0
        for x in rec.supp:
            e, p = rec.idem[x], rec.powers[x]
            groups[e] = groups.get(e, 0) | p
            covered |= p
        comps = rec.comps = _by_idempotent_power(t, rec.R & ~covered, groups)
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
    return _certify(S, _Support(S, _checked_terms(S, seq)))


def _certify(S: FiniteSemigroup, rec: _Support) -> ExtremalCertificate:
    """``extremal_structure_check`` of rec, the record of terms that are
    already element ids of S, |S \\ E(S)| of them."""
    conds, order, kinds = _conditions(S, rec)
    passed = conds[-1][1]
    cycles, counts = rec.cycles, rec.counts
    return ExtremalCertificate(
        passed=passed,
        fail_reason=None if passed else conds[-1][0],
        generator_order=order,
        per_generator=tuple(GeneratorData(x, *cycles[x], counts[x]) for x in order),
        component_kinds=kinds,
        conditions=tuple(conds),
    )


def _passes(S: FiniteSemigroup, rec: _Support) -> bool:
    """The verdict of ``_certify`` on rec, the flag of the last condition
    evaluated, with no certificate built."""
    return _conditions(S, rec)[0][-1][1]


def _conditions(
    S: FiniteSemigroup, rec: _Support
) -> tuple[list[tuple[str, bool]], tuple[int, ...], tuple[str, ...]]:
    """The certificate's conditions on rec, each id with its flag, in
    evaluation order up to and including the first failure, which decides
    the verdict; then the generator order and the component kinds.

    The generator order is the sorted support unless an absorption order
    was found, and the kinds, each component's ordered by its first
    generator in that order, are empty unless every condition held.
    """
    supp = rec.supp
    order: tuple[int, ...] = tuple(supp)
    if rec.failed == COND_COMMUTATIVE:
        return [(COND_COMMUTATIVE, False)], order, ()
    conds = [(COND_COMMUTATIVE, True), (COND_COMPLEMENT, rec.failed is None)]
    if rec.failed is not None or not supp:
        return conds, order, ()
    absorbed = _absorption_order(S, supp)
    conds.append((COND_ABSORPTION, absorbed is not None))
    if absorbed is None:
        return conds, order, ()
    order = absorbed
    powers, idem, cycles = rec.powers, rec.idem, rec.cycles
    union = parts = sizes = 0
    for x in supp:
        union |= powers[x]
        part = powers[x] & ~(1 << idem[x])
        parts |= part
        sizes += part.bit_count()
    # these four flags are cheap and pure, so all are computed; only the
    # prefix up to the first failure is recorded
    for cond in (
        (COND_UNION, union == rec.R),
        (COND_DISJOINT, sizes == parts.bit_count()),
        (COND_INDEX, all((index - 1) % period == 0 for index, period in cycles.values())),
        (COND_MULTIPLICITY, all(rec.counts[x] == index + period - 2 for x, (index, period) in cycles.items())),
    ):
        conds.append(cond)
        if not cond[1]:
            return conds, order, ()
    by_idem = _classified(S, rec)[1]
    ok = None not in by_idem.values()
    conds.append((COND_COMPONENTS, ok))
    if not ok:
        return conds, order, ()
    return conds, order, tuple(by_idem[e] for e in dict.fromkeys(idem[x] for x in order))


def extremal_main_form(S: FiniteSemigroup, seq) -> bool:
    """The same characterization decided through the archimedean machinery.

    Serves as a cross-check for the flat condition list: the component
    kinds are classified as for the certificate, but the total order is
    decided by the archimedean components as a lower-absorbing chain
    instead of the flat absorption order, and multiplicities are pinned
    afresh.
    """
    return _main_form(S, _Support(S, _checked_terms(S, seq)))


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
    return all(rec.counts[x] == index + period - 2 for x, (index, period) in rec.cycles.items())


def extremal_equivalence(S: FiniteSemigroup, seq) -> bool:
    """Brute-force weak freeness agrees with the structural certificate."""
    terms = _checked_terms(S, seq)
    return _weakly_free(S, terms) == _passes(S, _Support(S, terms))
