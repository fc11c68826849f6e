"""Every metric the benchmark reports: unit, direction, and (for per-layer
metrics) the end-to-end metric and workload it should move.

BENCHMARK.json registers the same names and units; test_smoke.py checks
that the two agree.
"""

END_TO_END = {
    "wall_s": ("s", "lower"),
    "instances_per_s": ("1/s", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

# name: (unit, better, what it should move)
PER_LAYER = {
    "construct.enumerate_s": ("s", "lower", "corpus wall_s only"),
    "construct.tables_emitted": ("count", "lower", "corpus wall_s only"),
    "construct.extremal_pair_s": ("s", "lower", "families wall_s; corpus a little"),
    "construct.extremal_pair_calls": ("count", "lower", "families wall_s; corpus a little"),
    "core.validate_s": ("s", "lower", "families wall_s; corpus a little"),
    "core.validate_calls": ("count", "lower", "families wall_s; corpus a little"),
    "constants.weak_comm_s": ("s", "lower", "families wall_s (about 60% of it) and search wall_s"),
    "constants.weak_comm_nodes": ("count", "lower", "families wall_s and search wall_s"),
    "constants.weak_general_s": ("s", "lower", "search wall_s; corpus a little"),
    "constants.weak_general_nodes": ("count", "lower", "search wall_s; corpus a little"),
    "constants.strong_s": ("s", "lower", "search and corpus wall_s; not families"),
    "constants.strong_nodes": ("count", "lower", "search and corpus wall_s; not families"),
    "constants.davenport_s": ("s", "lower", "search wall_s only"),
    "constants.davenport_nodes": ("count", "lower", "search wall_s only"),
    "structure.certificate_s": ("s", "lower", "families wall_s"),
    "structure.certificate_calls": ("count", "lower", "families wall_s"),
    "structure.main_form_s": ("s", "lower", "families wall_s"),
    "structure.equivalence_calls": ("count", "lower", "corpus wall_s"),
    "structure.free_ratio": ("ratio", "higher", "corpus wall_s; base is structure.equivalence_calls"),
    "verify.equivalence_s": ("s", "lower", "corpus wall_s"),
    "seqprod.weakly_free_s": ("s", "lower", "families wall_s"),
    "seqprod.weakly_free_calls": ("count", "lower", "families wall_s"),
    "seqprod.translate_s": ("s", "lower", "the kernel: every workload, search most"),
    "seqprod.translate_bits": ("count", "lower", "the kernel: every workload, search most"),
    "verify.ghw_s": ("s", "lower", "corpus wall_s"),
    "verify.strong_weak_s": ("s", "lower", "corpus wall_s"),
    "verify.nil_s": ("s", "lower", "corpus wall_s"),
    "verify.families_s": ("s", "lower", "families and families-pool wall_s"),
    "verify.pool_start_s": ("s", "lower", "families-pool wall_s only"),
    "verify.pool_busy_frac": ("ratio", "higher", "families-pool wall_s only"),
    "trace.overhead_s": ("s", "lower", "none: traced wall_s minus untraced wall_s"),
}

# per-layer time metrics and the span they total
SPAN_TIMES = {
    name: name[: -len("_s")]
    for name, (unit, _b, _m) in PER_LAYER.items()
    if unit == "s" and not name.startswith("trace.")
}


def layer_metrics(tracer, overhead_s: float) -> dict:
    """Per-layer metric values from a finished tracer."""
    c = tracer.counts
    totals = tracer.totals()
    values = {name: totals[span] for name, span in SPAN_TIMES.items()}
    for name, (unit, _b, _m) in PER_LAYER.items():
        if unit == "count":
            values[name] = c[name]
    values["structure.free_ratio"] = c["structure.free_sequences"] / c["structure.equivalence_calls"]
    values["verify.pool_busy_frac"] = c["verify.pool_busy_s"] / c["verify.pool_worker_s"]
    values["trace.overhead_s"] = overhead_s
    return {name: values[name] for name in PER_LAYER}
