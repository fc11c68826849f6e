"""Correctness gate. Each function returns a list of misses; the benchmark
counts every miss as one failure and exits nonzero when there is any."""

from __future__ import annotations

import itertools
import json

from idemfree import FiniteSemigroup, identity_element, is_strongly_free, is_weakly_free

from workloads import SEARCHES

# labelled semigroups (OEIS A023814) and commutative ones (A023815) of order 1..5
LABELLED = (1, 8, 113, 3492, 183732)
COMMUTATIVE = (1, 6, 63, 1140, 30730)

# extremal family specs for (max_components, max_terms)
FAMILY_SPECS = {(3, 8): 7254, (1, 3): 22}

# Panel constants, invariant under relabelling. Closed forms:
#   I(D_2n) = d(D_2n) + 1 = n + 1 (small Davenport constant, Olson and White 1977)
#   I(C_n) = D(C_n) = n
#   group_nil_chain(n1, n2): I = n1 + n2 - 1, D = max(n1, n2 + 1)
#   SI = |S \ E(S)| + 1 on monogenic(11, 5), whose one idempotent leaves 14
# The remaining values (SI on the dihedral and cyclic groups, D on the
# monogenic semigroups) are pinned as measured.
PANEL_VALUES = {
    "dihedral-3": {"I": 3 + 1, "SI": 4},
    "dihedral-7": {"I": 7 + 1, "SI": 8},
    "dihedral-8": {"I": 8 + 1},
    "cyclic-3": {"I": 3, "SI": 3, "D": 3},
    "cyclic-24": {"I": 24, "D": 24},
    "monogenic-11-5": {"SI": 15 - 1 + 1, "D": 16},
    "group-nil-chain-10-10": {"I": 10 + 10 - 1, "D": max(10, 10 + 1)},
    "monogenic-13-12": {"D": 25},
}


def canonical(result: dict) -> str:
    return json.dumps(result, sort_keys=True)


def check_failures(result: dict) -> int:
    """Failed instances across the checks of one pass."""
    return sum(c["failed"] for c in result.get("checks", ()))


def families_misses(result: dict, sizes) -> list[str]:
    """The check result must serialize to the same JSON at any worker count:
    every spec passes, so it is pinned by the spec count alone."""
    n = FAMILY_SPECS[(sizes.family_components, sizes.family_terms)]
    want = {"id": "extremal-families", "instances": n, "passed": n, "failed": 0, "failures": []}
    got = result["checks"]
    if len(got) != 1 or canonical(got[0]) != canonical(want):
        return [f"extremal-families: got {canonical(got[0]) if got else None}, want {canonical(want)}"]
    return []


def corpus_misses(result: dict, sizes) -> list[str]:
    misses = []
    tables = result["tables"]
    want_comm = {str(k): COMMUTATIVE[k - 1] for k in range(1, sizes.corpus_order + 1)}
    want_lab = {str(k): LABELLED[k - 1] for k in range(1, sizes.labelled_order + 1)}
    if tables["commutative"] != want_comm:
        misses.append(f"commutative tables per order {tables['commutative']}, want {want_comm}")
    if tables["labelled"] != want_lab:
        misses.append(f"labelled tables per order {tables['labelled']}, want {want_lab}")
    ids = [c["id"] for c in result["checks"]]
    want_ids = ["ghw-bound", "strong-vs-weak", "nil-product-lemma", "extremal-equivalence", "ghw-bound", "strong-vs-weak"]
    if ids != want_ids:
        misses.append(f"checks {ids}, want {want_ids}")
    sample = min(sizes.equivalence_sample, sum(want_comm.values()))
    if result["checks"][3]["instances"] != sample:
        misses.append(f"extremal-equivalence ran on {result['checks'][3]['instances']} tables, want {sample}")
    return misses


def davenport_irreducible(S, terms) -> bool:
    """No proper sub-multiset (the empty one only when S has an identity)
    has the full product; walks count vectors, not subsets."""
    table = S.table
    support = sorted(set(terms))
    counts = [terms.count(x) for x in support]
    full = tuple(counts)

    def product(vec):
        acc = None
        for x, k in zip(support, vec):
            for _ in range(k):
                acc = x if acc is None else table[acc][x]
        return acc

    total = product(full)
    ident = identity_element(S)
    for vec in itertools.product(*(range(c + 1) for c in counts)):
        if vec == full:
            continue
        p = product(vec) if any(vec) else ident
        if p is not None and p == total:
            return False
    return True


def search_misses(result: dict, panel: list) -> list[str]:
    """Values against closed forms and pinned values; every witness
    re-checked at length value - 1."""
    misses = []
    by_name = {name: (S, kinds) for name, S, kinds in panel}
    want_rows = [(name, kind) for name, _S, kinds in panel for kind in kinds]
    got_rows = [(r["entry"], r["search"]) for r in result["constants"]]
    if got_rows != want_rows:
        return [f"constants computed {got_rows}, want {want_rows}"]
    for row in result["constants"]:
        name, kind, value, witness = row["entry"], row["search"], row["value"], row["witness"]
        S, _kinds = by_name[name]
        want = PANEL_VALUES[name][kind]
        if value != want:
            misses.append(f"{kind}({name}) = {value}, want {want}")
        if len(witness) != value - 1:
            misses.append(f"{kind}({name}) witness has length {len(witness)}, want {value - 1}")
        free = {"I": is_weakly_free, "SI": is_strongly_free, "D": davenport_irreducible}[kind](S, witness)
        if not free:
            misses.append(f"{kind}({name}) witness {witness} fails its re-check")
    return misses


def result_misses(workload: str, result: dict, sizes, panel) -> list[str]:
    if workload in ("families", "families-pool"):
        return families_misses(result, sizes)
    if workload == "corpus":
        return corpus_misses(result, sizes)
    return search_misses(result, panel)


def node_misses(searches: list) -> list[str]:
    """Re-run each recorded search untraced: value, witness and
    nodes_explored must all match what the traced run recorded."""
    misses = []
    for kind, table, rep in searches:
        again = SEARCHES[kind](FiniteSemigroup(table))
        if again != rep:
            misses.append(f"{kind} on {table}: traced {rep}, untraced {again}")
    return misses
