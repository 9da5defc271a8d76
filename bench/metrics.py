"""Metric names and units, as BENCHMARK.json lists them.

End-to-end metrics come from untraced runs; per-layer metrics from the
traced run only.
"""

import statistics

from tracer import LAYERS

END_TO_END = {
    "pass_s": "s",        # one pass over the workload's operations
    "setup_s": "s",       # import of fracspec.cli plus input generation
    "peak_rss_mb": "MB",  # peak resident memory of the worker process
    "ops_ok_frac": "ratio",  # operations matching the reference / attempted
}

# Public functions whose self time and call count are reported: every one a
# workload calls, except discretize.riesz_constant and
# fracpow.riesz_power_constant, which only return a number. BENCHMARK.json
# allows at most 128 per-layer metrics; the span file has every function.
TRACED_FUNCTIONS = (
    "cli.build", "cli.verify", "cli.main",
    "diagnostics.numerical_range", "diagnostics.refit_sector",
    "diagnostics.maccretive_check", "diagnostics.realpart_resolvent_check",
    "diagnostics.verify_H1_H2", "diagnostics.sectorial_factorize",
    "diagnostics.order_estimate", "diagnostics.schatten_classify", "diagnostics.schatten_sum",
    "diagnostics.asymptotics_check", "diagnostics.completeness_criterion",
    "numcore.inverse", "numcore.singular_values", "numcore.general_eigen",
    "numcore.herm_power", "numcore.op_norm", "numcore.hermitian_eigen",
    "numcore.hermitian_part", "numcore.skew_part", "numcore.hermitian_defect",
    "numcore.adjoint", "numcore.asmatrix",
    "transform.build_kipriyanov_1d", "transform.build_riesz_model",
    "transform.build_difference_model", "transform.check_class",
    "discretize.sample_coefficient", "discretize.rl_integral_left",
    "discretize.marchaud_right_derivative", "discretize.axis_kernel_both",
    "discretize.one_sided_potential", "discretize.riesz_potential",
    "discretize.elliptic_1d", "discretize.fourth_order_weighted",
    "discretize.weighted_h2_matrix", "discretize.second_derivative",
    "discretize.first_difference", "discretize.multiply",
    "fracpow.balakrishnan_power", "fracpow.negative_power", "fracpow.balakrishnan_apply",
    "fracpow.gl_coefficients", "fracpow.gl_coefficients_alt", "fracpow.gl_abs_sum",
    "fracpow.gl_partial_sum", "fracpow.gl_power_matrix", "fracpow.lemma_constant",
    "semigroup.verify_axioms", "semigroup.yosida_resolvent",
    "semigroup.generator_matrix", "semigroup.apply",
)

PER_LAYER = {}
for _name in TRACED_FUNCTIONS:
    PER_LAYER[f"{_name}.self_s"] = "s"
    PER_LAYER[f"{_name}.calls"] = "count"
for _layer in LAYERS:
    PER_LAYER[f"{_layer}.self_s"] = "s"
    PER_LAYER[f"{_layer}.errors"] = "count"
# The two phases of a pass. They are per-layer, with no bound, because the
# same-code spread of make_s over runs on pipeline-n256 went past the 0.25
# bound on a shared 2-vCPU VM: builds are interpreter-bound, and the
# interpreter's speed there drifts most from minute to minute.
PER_LAYER["make_s"] = "s"                 # builds; or balakrishnan_power + negative_power
PER_LAYER["use_s"] = "s"                  # verifies; or balakrishnan_apply
PER_LAYER["cli.artifact_mb"] = "MB"       # artifact bytes written per pass
PER_LAYER["trace.overhead_s"] = "s"       # spans times the cost of one span
PER_LAYER["trace.spans"] = "count"


def phases(ops, times):
    """Per phase, the sum over its operations of each one's median wall time
    in the run."""
    out = {"make_s": 0.0, "use_s": 0.0}
    for op in ops:
        out[f"{op.phase}_s"] += statistics.median(times[op.name])
    return out


def end_to_end(ops, times, peak_mb, attempted, failed):
    """pass_s is the sum of the two phases; setup_s is added by run.py."""
    return {"pass_s": sum(phases(ops, times).values()),
            "peak_rss_mb": peak_mb, "ops_ok_frac": 1.0 - failed / attempted}


def per_layer(tracer, ops, times, artifact_bytes, span_cost_s):
    """The phases of the traced pass; self times, calls and errors from its
    spans; the bytes of the artifacts it wrote; and the tracing overhead:
    its span count times the cost of one span, measured in the same run
    (``tracer.span_cost``)."""
    summary = tracer.summary()
    out = phases(ops, times)
    for name in TRACED_FUNCTIONS:
        row = summary.get(name, {"self_s": 0.0, "calls": 0})
        out[f"{name}.self_s"] = row["self_s"]
        out[f"{name}.calls"] = row["calls"]
    for layer in LAYERS:
        rows = [row for name, row in summary.items() if name.startswith(layer + ".")]
        out[f"{layer}.self_s"] = sum(row["self_s"] for row in rows)
        out[f"{layer}.errors"] = sum(row["errors"] for row in rows)
    out["cli.artifact_mb"] = artifact_bytes / 1e6
    out["trace.overhead_s"] = len(tracer.spans) * span_cost_s
    out["trace.spans"] = len(tracer.spans)
    return out
