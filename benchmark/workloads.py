"""The four benchmark workloads: their inputs, their untraced passes through
the public idemfree checks, and a traced replay that makes each check's
per-instance layer calls itself, in the same order, inside spans.

Why these workloads (see also BENCHMARK.json):

- ``families``: deep commutative I(S) searches on tables built by
  ``construct``, plus the certificate and main form; no enumeration.
- ``families-pool``: the same check through ``verify._PoolMap`` over a
  process pool created inside the timed region; the only workload in which
  the pool does any work.
- ``corpus``: enumeration plus tens of thousands of tiny searches, where
  per-call overhead dominates.
- ``search``: a fixed panel of deep I, SI and D searches on seeded
  relabellings; per-node cost dominates, and it is the only workload that
  runs the Davenport search and the noncommutative weak path at depth.
"""

from __future__ import annotations

import itertools
import random
import signal
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from statistics import fmean, median
from time import perf_counter, thread_time

from idemfree import (
    FiniteSemigroup,
    cyclic_group,
    davenport,
    erdos_burgess,
    extremal_main_form,
    extremal_pair,
    extremal_structure_check,
    ghw_bound,
    group_nil_chain,
    idempotents,
    is_commutative,
    is_weakly_free,
    monogenic,
    strong_erdos_burgess,
)
from idemfree import verify
from idemfree.seqprod import _translate, any_order_products, product_gain

from spans import Tracer

WORKLOADS = ("families", "families-pool", "corpus", "search")
WORKERS = 2  # pool size of families-pool: nproc on the 2-core reference box
SEARCHES = {"I": erdos_burgess, "SI": strong_erdos_burgess, "D": davenport}


def permutation_group(n: int, generators) -> FiniteSemigroup:
    """The group of permutations of range(n) generated by ``generators``,
    elements sorted, with a*b meaning "apply a, then b"."""
    ident = tuple(range(n))
    seen = {ident}
    frontier = [ident]
    while frontier:
        fresh = []
        for p in frontier:
            for g in generators:
                q = tuple(g[p[i]] for i in range(n))
                if q not in seen:
                    seen.add(q)
                    fresh.append(q)
        frontier = fresh
    elems = sorted(seen)
    index = {p: k for k, p in enumerate(elems)}
    return FiniteSemigroup([[index[tuple(b[a[i]] for i in range(n))] for b in elems] for a in elems])


def dihedral(n: int) -> FiniteSemigroup:
    """D_2n, the symmetries of the n-gon, as permutations of its vertices."""
    rotation = tuple((i + 1) % n for i in range(n))
    reflection = tuple((-i) % n for i in range(n))
    return permutation_group(n, (rotation, reflection))


def relabel(S: FiniteSemigroup, rng: random.Random) -> FiniteSemigroup:
    """An isomorphic copy of S under a random permutation of its elements."""
    n = S.order
    perm = list(range(n))
    rng.shuffle(perm)
    table = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            table[perm[a]][perm[b]] = perm[S.table[a][b]]
    return FiniteSemigroup(table)


# (entry name, constructor, constants computed on it)
FULL_PANEL = (
    ("dihedral-7", lambda: dihedral(7), ("I", "SI")),
    ("dihedral-8", lambda: dihedral(8), ("I",)),
    ("cyclic-24", lambda: cyclic_group(24), ("I", "D")),
    ("monogenic-11-5", lambda: monogenic(11, 5), ("SI", "D")),
    ("group-nil-chain-10-10", lambda: group_nil_chain(10, 10), ("I", "D")),
    ("monogenic-13-12", lambda: monogenic(13, 12), ("D",)),
)
TINY_PANEL = (
    ("dihedral-3", lambda: dihedral(3), ("I", "SI")),
    ("cyclic-3", lambda: cyclic_group(3), ("I", "SI", "D")),
)


@dataclass(frozen=True)
class Sizes:
    family_components: int
    family_terms: int
    corpus_order: int  # commutative corpus, orders 1..corpus_order
    labelled_order: int  # labelled corpus, orders 1..labelled_order
    equivalence_sample: int
    panel: tuple
    kernel_cases: int  # (table, mask, x) cases per panel table
    kernel_rounds: int  # times the kernel probe repeats its cases


FULL = Sizes(3, 8, 5, 4, 2000, FULL_PANEL, 400, 100)
TINY = Sizes(1, 3, 2, 2, 2, TINY_PANEL, 20, 5)


@dataclass
class Inputs:
    seed: int
    sizes: Sizes
    panel: list = None  # (name, relabelled semigroup, kinds)


def make_inputs(workload: str, seed: int, sizes: Sizes) -> Inputs:
    """Everything a pass needs that can be built before it is timed."""
    inp = Inputs(seed, sizes)
    if workload == "search":
        inp.panel = build_panel(seed, sizes)
    return inp


def build_panel(seed: int, sizes: Sizes) -> list:
    rng = random.Random(seed)
    return [(name, relabel(build(), rng), kinds) for name, build, kinds in sizes.panel]


def draw_sample(tables: list, seed: int, k: int) -> list:
    """A seeded sample of k tables, kept in corpus order."""
    picks = sorted(random.Random(seed).sample(range(len(tables)), min(k, len(tables))))
    return [tables[i] for i in picks]


def order_counts(tables) -> dict:
    return dict(Counter(str(S.order) for S in tables))


def report_row(name: str, kind: str, rep) -> dict:
    return {"entry": name, "search": kind, **rep.to_json_dict()}


# ---------------------------------------------------------------- untraced


@dataclass
class PassResult:
    """What one pass produced: JSON-ready results, the instance count, and
    the tables and searches the traced replay recorded (empty untraced)."""

    result: dict
    instances: int
    tables: list  # Cayley tables, as tuples of rows
    searches: list  # (kind, Cayley table, report)
    worker_rss_kb: int = 0  # summed peak resident set of pool workers


def _instances(result: dict) -> int:
    return sum(c["instances"] for c in result.get("checks", ())) + len(result.get("constants", ()))


# Seconds calibrate() takes on a 2-vCPU x86 VM with Python 3.11 in its
# usual state. Timed units are scaled to this speed.
CAL_REF_S = 0.031
CAL_ROUNDS = 20000
_CAL_TABLE = tuple(tuple((3 * a + 5 * b + a * b) % 12 for b in range(12)) for a in range(12))


def calibrate(rounds: int = CAL_ROUNDS) -> float:
    """Seconds this host takes now for a fixed piece of pure-Python work of
    the kind the searches do (table lookups, bit masks, a dict). It calls
    no idemfree code, so no change to idemfree changes it. The time is the
    thread's CPU time, so that a calibration made while pool workers keep
    both CPUs busy does not count the time it waited for a CPU."""
    table = _CAL_TABLE
    start = thread_time()
    seen: dict = {}
    for r in range(rounds):
        m = (r * 2654435761) & 0xFFF
        out = a = 0
        while m:
            if m & 1:
                out |= 1 << table[a][r % 12]
            m >>= 1
            a += 1
        seen[out & 63] = seen.get(out & 63, 0) + 1
    return thread_time() - start


class UnitTimer:
    """Times the units of repeated untraced passes, scaled to a reference
    host speed.

    The speed of the host this runs on drifts by up to half, for all code
    roughly alike, in spells of seconds to minutes. So the host's slowness
    (calibration time over CAL_REF_S) is measured with calibrate() at each
    unit boundary, and with a short calibration every SAMPLE_S seconds
    inside a unit, run from a SIGALRM handler. A unit's scaled time is its
    wall time, less the time its samples took, over the mean slowness of
    the calibrations before, inside and after it. ``wall`` sums, over the
    units of a pass, the mean scaled time of the repeats of each unit;
    ``raw_wall`` does the same with the unscaled wall times. The units of
    one pass cover all of its timed calls.
    """

    # a calibration that ended less than this many seconds before a unit
    # starts serves as the unit's "before" calibration
    REUSE_S = 0.01
    SAMPLE_S = 0.2
    SAMPLE_ROUNDS = CAL_ROUNDS // 10

    def __init__(self):
        self.units: dict = {}  # key: [(scaled seconds, wall seconds), ...]
        self.slowness: list[float] = []  # of every boundary calibration
        self._last = None  # (end, slowness) of the latest boundary calibration
        self._samples: list[tuple[float, float]] = []  # (seconds taken, slowness)

    def calibrate(self) -> float:
        slow = calibrate() / CAL_REF_S
        self.slowness.append(slow)
        self._last = (perf_counter(), slow)
        return slow

    def _sample(self, _signum, _frame) -> None:
        start = perf_counter()
        seconds = calibrate(self.SAMPLE_ROUNDS)
        slow = seconds * CAL_ROUNDS / self.SAMPLE_ROUNDS / CAL_REF_S
        self._samples.append((perf_counter() - start, slow))

    def record(self, key, seconds: float, slowness: float) -> None:
        self.units.setdefault(key, []).append((seconds / slowness, seconds))

    def time(self, key, fn, *args):
        fresh = self._last is not None and perf_counter() - self._last[0] < self.REUSE_S
        before = self._last[1] if fresh else self.calibrate()
        self._samples = []
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.SAMPLE_S, self.SAMPLE_S)
        start = perf_counter()
        try:
            out = fn(*args)
        finally:
            seconds = perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        samples = self._samples
        seconds -= sum(taken for taken, _slow in samples)
        slows = [before, *(slow for _taken, slow in samples), self.calibrate()]
        self.record(key, seconds, fmean(slows))
        return out

    def wall(self) -> float:
        return sum(fmean(scaled for scaled, _s in reps) for reps in self.units.values())

    def raw_wall(self) -> float:
        return sum(fmean(seconds for _c, seconds in reps) for reps in self.units.values())


# the families check is timed in this many chunks of specs
FAMILY_CHUNKS = 16


def _map_list(fn, items) -> list:
    return list(map(fn, items))


def _chunked_map(timer: UnitTimer):
    """A map_fn for the verify checks that times consecutive chunks of the
    instances as separate units; returns the map_fn and the times at which
    it was entered and left."""
    marks: dict[str, float] = {}

    def map_fn(fn, items):
        marks["enter"] = perf_counter()
        items = list(items)
        bounds = [len(items) * i // FAMILY_CHUNKS for i in range(FAMILY_CHUNKS + 1)]
        rows = []
        for i in range(FAMILY_CHUNKS):
            rows.extend(timer.time(("chunk", i), _map_list, fn, items[bounds[i]:bounds[i + 1]]))
        marks["exit"] = perf_counter()
        return rows

    return map_fn, marks


def peak_rss_kb(pid: int) -> int:
    """Peak resident set (VmHWM) of a live process, in KiB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError(f"no VmHWM for process {pid}")


def _pooled_families(sz: Sizes) -> tuple[list, int]:
    """The families check through the pool; also returns the summed peak
    resident set of the pool's workers, read before they exit."""
    with ProcessPoolExecutor(max_workers=WORKERS) as executor:
        check = verify.check_extremal_families(
            verify._PoolMap(executor, WORKERS),
            max_components=sz.family_components,
            max_terms=sz.family_terms,
        )
        return [check], sum(peak_rss_kb(pid) for pid in executor._processes)


def _corpus_checks(inp: Inputs, timer: UnitTimer) -> dict:
    sz = inp.sizes
    comm = timer.time("enumerate-commutative", verify.build_corpus, sz.corpus_order, True, 5)
    checks = [
        timer.time(("commutative", check.__name__), check, comm)
        for check in (verify.check_ghw_bound, verify.check_strong_weak, verify.check_nil_lemma)
    ]
    sample = draw_sample(comm, inp.seed, sz.equivalence_sample)
    checks.append(timer.time("equivalence", verify.check_extremal_equivalence, sample))
    labelled = timer.time("enumerate-labelled", verify.build_corpus, sz.labelled_order)
    checks += [
        timer.time(("labelled", check.__name__), check, labelled)
        for check in (verify.check_ghw_bound, verify.check_strong_weak)
    ]
    return {"checks": checks, "tables": {"commutative": order_counts(comm), "labelled": order_counts(labelled)}}


def untraced_pass(workload: str, inp: Inputs, timer: UnitTimer) -> PassResult:
    """One pass through the public checks and searches, its units timed."""
    sz = inp.sizes
    worker_kb = 0
    if workload == "families":
        map_fn, marks = _chunked_map(timer)
        start = perf_counter()
        checks = [
            verify.check_extremal_families(map_fn, max_components=sz.family_components, max_terms=sz.family_terms)
        ]
        # spec enumeration and aggregation, scaled by the run's calibrations
        outside = marks["enter"] - start + perf_counter() - marks["exit"]
        timer.record("outside-chunks", outside, median(timer.slowness))
        result = {"checks": checks}
    elif workload == "families-pool":
        checks, worker_kb = timer.time("pass", _pooled_families, sz)
        result = {"checks": checks}
    elif workload == "corpus":
        result = _corpus_checks(inp, timer)
    elif workload == "search":
        rows = []
        for name, S, kinds in inp.panel:
            for kind in kinds:
                rows.append(report_row(name, kind, timer.time((name, kind), SEARCHES[kind], S)))
        result = {"constants": rows}
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return PassResult(result, _instances(result), [], [], worker_kb)


# ------------------------------------------------------------------ traced


def search_layer(kind: str, S: FiniteSemigroup) -> str:
    if kind == "I":
        return "constants.weak_comm" if is_commutative(S) else "constants.weak_general"
    return {"SI": "constants.strong", "D": "constants.davenport"}[kind]


def traced_search(tr: Tracer, searches: list, kind: str, S: FiniteSemigroup):
    layer = search_layer(kind, S)
    rep = tr.call(layer, SEARCHES[kind], S)
    tr.count(layer + "_nodes", rep.nodes_explored)
    searches.append((kind, S.table, rep))
    return rep


def replay_family_case(tr: Tracer, searches: list, spec) -> tuple[dict, tuple]:
    """verify._family_case, one layer call at a time; returns the check row
    and the Cayley table built."""
    S, T = tr.call("construct.extremal_pair", extremal_pair, spec)
    tr.count("construct.extremal_pair_calls")
    expected_len = S.order - len(idempotents(S))
    cert = tr.call("structure.certificate", extremal_structure_check, S, T)
    tr.count("structure.certificate_calls")
    weakly = tr.call("seqprod.weakly_free", is_weakly_free, S, T)
    tr.count("seqprod.weakly_free_calls")
    main = tr.call("structure.main_form", extremal_main_form, S, T)
    rep = traced_search(tr, searches, "I", S)
    checks = {
        "length": len(T) == expected_len,
        "weaklyFree": weakly,
        "certificate": cert.passed,
        "mainFormAgrees": main == cert.passed,
        "erdosBurgess": rep.value == expected_len + 1,
    }
    ok = all(checks.values())
    row = {"ok": ok, "failure": None if ok else {"spec": verify._spec_to_json(spec), "checks": checks}}
    return row, S.table


def traced_family_worker(args):
    """Pool task: replay one family case under a worker-local tracer and
    return its row, busy seconds, spans, counts and searches."""
    spec, run_id = args
    tr = Tracer(run_id)
    searches: list = []
    start = perf_counter()
    row, table = replay_family_case(tr, searches, spec)
    busy = perf_counter() - start
    return row, busy, tr.spans, dict(tr.counts), table, searches


def _noop(_):
    return None


def _replay_families(tr: Tracer, inp: Inputs, pooled: bool) -> PassResult:
    sz = inp.sizes
    searches: list = []
    tables: list = []
    with tr.span("verify.families"):
        start = perf_counter()
        specs = verify.enumerate_extremal_specs(max_components=sz.family_components, max_terms=sz.family_terms)
        if not pooled:
            rows = []
            for spec in specs:
                row, table = replay_family_case(tr, searches, spec)
                rows.append(row)
                tables.append(table)
        else:
            with ProcessPoolExecutor(max_workers=WORKERS) as executor:
                with tr.span("verify.pool_start"):
                    list(executor.map(_noop, range(WORKERS)))
                outs = verify._PoolMap(executor, WORKERS)(traced_family_worker, [(s, tr.run_id) for s in specs])
            wall = perf_counter() - start
            rows = []
            busy = 0.0
            for row, seconds, spans, counts, table, found in outs:
                rows.append(row)
                busy += seconds
                tr.adopt(spans, counts)
                tables.append(table)
                searches.extend(found)
            tr.count("verify.pool_busy_s", busy)
            tr.count("verify.pool_worker_s", WORKERS * wall)
        result = {"checks": [verify._aggregate("extremal-families", rows)]}
    return PassResult(result, _instances(result), tables, searches)


def _replay_ghw(tr: Tracer, searches: list, tables: list) -> dict:
    rows = []
    with tr.span("verify.ghw"):
        for S in tables:
            rep = traced_search(tr, searches, "SI", S)
            bound = ghw_bound(S)
            ok = rep.value <= bound
            rows.append({"ok": ok, "failure": None if ok else {"table": verify._flat(S), "si": rep.value, "bound": bound}})
        return verify._aggregate("ghw-bound", rows)


def _replay_strong_weak(tr: Tracer, searches: list, tables: list) -> dict:
    rows = []
    with tr.span("verify.strong_weak"):
        for S in tables:
            weak = traced_search(tr, searches, "I", S).value
            strong = traced_search(tr, searches, "SI", S).value
            ok = weak <= strong and (not is_commutative(S) or weak == strong)
            rows.append({"ok": ok, "failure": None if ok else {"table": verify._flat(S), "i": weak, "si": strong}})
        return verify._aggregate("strong-vs-weak", rows)


def _replay_equivalence_case(tr: Tracer, S: FiniteSemigroup) -> dict:
    """verify._equivalence_case, with extremal_equivalence split into its
    freeness test and its certificate."""
    alphabet = [a for a in S.elements if S.table[a][a] != a]
    length = len(alphabet)
    sequences = free = lambda_checked = 0
    eq_failures, lambda_failures, claim_failures = [], [], []
    nonidem = frozenset(alphabet)
    for tup in itertools.product(alphabet, repeat=length):
        sequences += 1
        weakly = tr.call("seqprod.weakly_free", is_weakly_free, S, tup)
        cert = tr.call("structure.certificate", extremal_structure_check, S, tup)
        if weakly != cert.passed:
            eq_failures.append({"table": verify._flat(S), "seq": list(tup)})
            continue
        if not tr.call("seqprod.weakly_free", is_weakly_free, S, tup):
            continue
        free += 1
        for x in sorted(set(tup)):
            rest = list(tup)
            rest.remove(x)
            lambda_checked += 1
            if product_gain(S, rest, x) < 1:
                lambda_failures.append({"table": verify._flat(S), "seq": list(tup), "term": x})
        supp = sorted(set(tup))
        for i, a in enumerate(supp):
            for b in supp[i + 1:]:
                if S.table[a][b] != S.table[b][a] or S.table[a][b] not in (a, b):
                    claim_failures.append({"table": verify._flat(S), "seq": list(tup), "pair": [a, b]})
        if any_order_products(S, tup) != nonidem:
            claim_failures.append({"table": verify._flat(S), "seq": list(tup), "pair": None})
    weakly_calls = sequences - len(eq_failures) + sequences
    tr.count("seqprod.weakly_free_calls", weakly_calls)
    tr.count("structure.certificate_calls", sequences)
    tr.count("structure.equivalence_calls", sequences)
    tr.count("structure.free_sequences", free)
    ok = not (eq_failures or lambda_failures or claim_failures)
    return {
        "ok": ok,
        "failure": None
        if ok
        else {"table": verify._flat(S), "equivalence": eq_failures, "lambda": lambda_failures, "claims": claim_failures},
        "sequences": sequences,
        "freeSequences": free,
        "lambdaChecked": lambda_checked,
        "equivalenceFailures": len(eq_failures),
        "lambdaFailures": len(lambda_failures),
        "claimFailures": len(claim_failures),
    }


def _replay_equivalence(tr: Tracer, tables: list) -> dict:
    with tr.span("verify.equivalence"):
        rows = [_replay_equivalence_case(tr, S) for S in tables]
        return verify._aggregate(
            "extremal-equivalence",
            rows,
            extra_keys=(
                "sequences",
                "freeSequences",
                "lambdaChecked",
                "equivalenceFailures",
                "lambdaFailures",
                "claimFailures",
            ),
        )


def _replay_corpus(tr: Tracer, inp: Inputs) -> PassResult:
    sz = inp.sizes
    searches: list = []
    with tr.span("construct.enumerate"):
        comm = verify.build_corpus(sz.corpus_order, commutative_only=True, enum_cap=5)
    tr.count("construct.tables_emitted", len(comm))
    checks = [_replay_ghw(tr, searches, comm), _replay_strong_weak(tr, searches, comm)]
    with tr.span("verify.nil"):
        checks.append(verify.check_nil_lemma(comm))
    checks.append(_replay_equivalence(tr, draw_sample(comm, inp.seed, sz.equivalence_sample)))
    with tr.span("construct.enumerate"):
        labelled = verify.build_corpus(sz.labelled_order)
    tr.count("construct.tables_emitted", len(labelled))
    checks += [_replay_ghw(tr, searches, labelled), _replay_strong_weak(tr, searches, labelled)]
    result = {"checks": checks, "tables": {"commutative": order_counts(comm), "labelled": order_counts(labelled)}}
    return PassResult(result, _instances(result), [S.table for S in comm + labelled], searches)


def _replay_search(tr: Tracer, inp: Inputs) -> PassResult:
    searches: list = []
    rows = []
    for name, S, kinds in inp.panel:
        for kind in kinds:
            rows.append(report_row(name, kind, traced_search(tr, searches, kind, S)))
    result = {"constants": rows}
    return PassResult(result, _instances(result), [S.table for _n, S, _k in inp.panel], searches)


def traced_pass(workload: str, inp: Inputs, tr: Tracer) -> PassResult:
    if workload in ("families", "families-pool"):
        return _replay_families(tr, inp, pooled=workload == "families-pool")
    if workload == "corpus":
        return _replay_corpus(tr, inp)
    if workload == "search":
        return _replay_search(tr, inp)
    raise ValueError(f"unknown workload {workload!r}")


def revalidate(tr: Tracer, tables) -> None:
    """The validation layer's cost: one FiniteSemigroup(table) per table the
    pass built, measured after the pass so that it stays out of the traced
    wall time."""
    for table in tables:
        tr.call("core.validate", FiniteSemigroup, table)
    tr.count("core.validate_calls", len(tables))


# ------------------------------------------------------------ kernel probe


def kernel_cases(panel: list, seed: int, per_table: int) -> list:
    """(table, mask, x) cases for seqprod._translate drawn from the panel:
    masks are natural-order product sets of random short words over the
    table's non-idempotents, as the strong search builds them."""
    rng = random.Random(seed)
    cases = []
    for _name, S, _kinds in panel:
        alpha = [a for a in S.elements if S.table[a][a] != a]
        for _ in range(per_table):
            mask = 0
            for x in rng.choices(alpha, k=rng.randint(1, 6)):
                mask |= (1 << x) | _translate(S.table, mask, x)
            cases.append((S.table, mask, rng.choice(alpha)))
    return cases


def kernel_mismatches(cases: list) -> int:
    """Cases on which _translate disagrees with the set definition."""
    bad = 0
    for table, mask, x in cases:
        want = 0
        for a in range(len(table)):
            if mask >> a & 1:
                want |= 1 << table[a][x]
        bad += _translate(table, mask, x) != want
    return bad


def kernel_probe(tr: Tracer, cases: list, rounds: int) -> None:
    """Time rounds x len(cases) calls of _translate. Its work count,
    seqprod.translate_bits, is the number of set bits it translates."""
    with tr.span("seqprod.translate"):
        for _ in range(rounds):
            for table, mask, x in cases:
                _translate(table, mask, x)
    tr.count("seqprod.translate_bits", rounds * sum(mask.bit_count() for _t, mask, _x in cases))
