"""The idemfree benchmark.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; idemfree is imported from its
``src/`` directory. Workloads: families, families-pool, corpus, search (see
workloads.py for why each exists).

With ``--trace 0`` the run sets up its inputs several times (setup_s is the
median), then makes about ``--seconds`` worth of full passes of the
workload through the public ``idemfree.verify`` checks and constant
searches, and reports the end-to-end metrics. Each pass is timed in units
(chunks of the family specs, single checks of the corpus, single constant
searches, or the whole pooled pass). Times are scaled to a reference host
speed: a fixed pure-Python calibration loop, which calls no idemfree code,
is timed at every unit boundary and sampled inside each unit, and each
unit's wall time is divided by the host's slowness against CAL_REF_S over
those calibrations (see workloads.UnitTimer). wall_s sums, over the units,
the mean scaled time of their repeats, and instances_per_s is one pass's
instances over wall_s. setup_s is scaled the same way. The report line also
gives the unscaled raw_wall_s and each unit's scaled times.

With ``--trace 1`` it makes untraced passes alternating with traced
replays of the same layer calls, asserts that both give identical results
and node counts, measures the validation layer and the
``seqprod._translate`` kernel probe, and reports the per-layer metrics from
the fastest traced pass. trace.overhead_s is the fastest traced pass minus
the fastest untraced one, both unscaled wall times. To give every
layer metric a value on every workload, the traced run also replays all
four workloads at the smoke-test size; on a workload that does not use a
layer, its metric shows only that small floor. Spans are written to
``benchmark/out/`` at the end.

Every output is checked (gate.py). The last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it is a JSON report with the run environment, per-pass times and,
when traced, each layer's self time. Any miss makes the exit status 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import traceback
from statistics import median
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_REPS = 7

IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import idemfree, idemfree.verify; print(time.perf_counter() - t)"
)


def import_idemfree() -> None:
    """Import idemfree from this checkout's src/, and from nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "idemfree", "__init__.py")):
        raise SystemExit(f"benchmark: no idemfree sources under {SRC}")
    sys.path.insert(0, SRC)
    import idemfree

    if os.path.dirname(os.path.dirname(os.path.abspath(idemfree.__file__))) != SRC:
        raise SystemExit(f"benchmark: imported idemfree from {idemfree.__file__}, not {SRC}")


def loadavg():
    try:
        with open("/proc/loadavg") as fh:
            return fh.read().split()[:3]
    except OSError:
        return None


def git_commit():
    """HEAD of the checkout's own git repository, or None outside one."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)}
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def peak_rss_mb(worker_kb: int = 0) -> float:
    """Peak resident set of this process plus ``worker_kb``, the summed
    peaks of the pool workers of a pass (pages a worker inherited by fork
    count in it too). The import probes of setup are not counted."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return (own + worker_kb) / 1024.0


def timed_import() -> float:
    """Seconds a fresh interpreter spends importing idemfree."""
    out = subprocess.run(
        [sys.executable, "-I", "-c", IMPORT_PROBE, SRC], capture_output=True, text=True, check=True, timeout=120
    )
    return float(out.stdout)


class Tally:
    """Attempts and misses of one run; every miss counts as one failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.misses: list[str] = []

    def miss(self, messages) -> None:
        for m in messages:
            self.failed += 1
            self.misses.append(m)

    def judge(self, workload, res, sizes, panel) -> None:
        """Count one pass: its instances, failed instances, and gate misses."""
        import gate

        self.attempted += res.instances
        failed = gate.check_failures(res.result)
        if failed:
            self.failed += failed
            self.misses.append(f"{workload}: {failed} failed instances")
        self.miss(gate.result_misses(workload, res.result, sizes, panel))


# Rough seconds of one untraced pass of each workload, calibrations
# included, at the reference speed of workloads.CAL_REF_S. A run makes
# seconds // NOMINAL_PASS_S passes (at least one): the count depends on
# --seconds only, never on measured time, so every run of a workload
# averages the same number of repeats.
NOMINAL_PASS_S = {"families": 9, "families-pool": 4.5, "corpus": 25, "search": 10}


def rounds(workload: str, seconds: float) -> int:
    return max(1, int(seconds // NOMINAL_PASS_S[workload]))


# Seconds of untraced plus traced passes a traced run spends on measuring
# the tracing overhead; at least one pair of passes is always made.
OVERHEAD_BUDGET_S = 40


def overhead_pairs(workload: str) -> int:
    return max(1, int(OVERHEAD_BUDGET_S // (2 * NOMINAL_PASS_S[workload])))


def run_untraced(workload, seed, seconds, sizes, tally) -> tuple[dict, dict]:
    import gate
    import workloads as wl

    setups = []
    for _ in range(SETUP_REPS):
        before = wl.calibrate()
        start = perf_counter()
        inp = wl.make_inputs(workload, seed, sizes)
        spent = perf_counter() - start + timed_import()
        setups.append(spent * wl.CAL_REF_S * 2 / (before + wl.calibrate()))

    timer = wl.UnitTimer()
    times, first, worker_kb = [], None, 0
    for k in range(rounds(workload, seconds)):
        start = perf_counter()
        res = wl.untraced_pass(workload, inp, timer)
        times.append(perf_counter() - start)
        worker_kb = max(worker_kb, res.worker_rss_kb)
        tally.judge(workload, res, sizes, inp.panel)
        text = gate.canonical(res.result)
        if first is None:
            first = text
        elif text != first:
            tally.miss([f"{workload}: pass {k + 1} differs from pass 1"])
    wall = timer.wall()
    metrics = {
        "wall_s": wall,
        "instances_per_s": res.instances / wall,
        "setup_s": median(setups),
        "peak_rss_mb": peak_rss_mb(worker_kb),
    }
    report = {
        "raw_wall_s": timer.raw_wall(),
        "slowness": median(timer.slowness),
        "unit_s": {str(key): [scaled for scaled, _s in reps] for key, reps in timer.units.items()},
        "pass_s": times,
        "setup_reps_s": setups,
    }
    return metrics, report


def run_traced(workload, seed, sizes, tally) -> tuple[dict, dict]:
    import gate
    import metrics as mx
    import workloads as wl
    from spans import Tracer

    inp = wl.make_inputs(workload, seed, sizes)
    run_id = f"{workload}-{seed}-{os.getpid()}-{int(perf_counter() * 1e6)}"
    # untraced and traced passes alternate; the overhead is the fastest
    # traced pass minus the fastest untraced one, both unscaled (the traced
    # pass takes no calibration samples, which would land inside its spans),
    # and the layer metrics come from the tracer of the fastest traced pass
    untraced_walls, traced_walls, tr, traced = [], [], None, None
    for _ in range(overhead_pairs(workload)):
        timer = wl.UnitTimer()
        plain = wl.untraced_pass(workload, inp, timer)
        untraced_walls.append(timer.raw_wall())
        tally.judge(workload, plain, sizes, inp.panel)

        pass_tr = Tracer(run_id)
        start = perf_counter()
        pass_res = wl.traced_pass(workload, inp, pass_tr)
        traced_walls.append(perf_counter() - start)
        tally.judge(workload, pass_res, sizes, inp.panel)
        if gate.canonical(pass_res.result) != gate.canonical(plain.result):
            tally.miss([f"{workload}: traced results differ from untraced results"])
        if traced_walls[-1] == min(traced_walls):
            tr, traced = pass_tr, pass_res
    # search results carry nodesExplored already; the checks hide theirs
    if workload != "search":
        tally.miss(gate.node_misses(traced.searches))
    wl.revalidate(tr, traced.tables)

    panel = inp.panel if inp.panel is not None else wl.build_panel(seed, sizes)
    cases = wl.kernel_cases(panel, seed, sizes.kernel_cases)
    bad = wl.kernel_mismatches(cases)
    if bad:
        tally.miss([f"_translate wrong on {bad} kernel cases"])
    wl.kernel_probe(tr, cases, sizes.kernel_rounds)

    tiny = wl.TINY
    for other in wl.WORKLOADS:
        tiny_inp = wl.make_inputs(other, seed, tiny)
        floor = wl.traced_pass(other, tiny_inp, tr)
        tally.judge(other, floor, tiny, tiny_inp.panel)
        wl.revalidate(tr, floor.tables)

    values = mx.layer_metrics(tr, min(traced_walls) - min(untraced_walls))
    path = os.path.join(OUT, f"trace-{workload}-{seed}.jsonl.gz")
    tr.write(path)
    report = {
        "run": run_id,
        "untraced_wall_s": untraced_walls,
        "traced_wall_s": traced_walls,
        "self_s": tr.self_times(),
        "spans": len(tr.spans),
        "trace_file": os.path.relpath(path, ROOT),
        "moves": {name: moves for name, (_u, _b, moves) in mx.PER_LAYER.items()},
    }
    return values, report


def main(argv=None, sizes=None) -> int:
    parser = argparse.ArgumentParser(description="idemfree benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_idemfree()
    sys.path.insert(0, HERE)
    import metrics as mx
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {list(wl.WORKLOADS)}")
    sizes = sizes or wl.FULL
    env = {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg_start": loadavg(),
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }

    tally = Tally()
    try:
        if args.trace:
            values, report = run_traced(args.workload, args.seed, sizes, tally)
            units = {name: unit for name, (unit, _b, _m) in mx.PER_LAYER.items()}
        else:
            values, report = run_untraced(args.workload, args.seed, args.seconds, sizes, tally)
            units = {name: unit for name, (unit, _b) in mx.END_TO_END.items()}
    except Exception:
        # an exception is a failed run: report it, print no result
        traceback.print_exc()
        tally.miss(["exception: " + traceback.format_exc(limit=1).strip().splitlines()[-1]])
        values, report = None, {}
    env["loadavg_end"] = loadavg()

    report = {"env": env, "fail_ratio": tally.failed / max(tally.attempted, 1), "misses": tally.misses[:50], **report}
    print(json.dumps(report))
    if values is None:
        return 1
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result), flush=True)
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
