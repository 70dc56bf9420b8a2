"""The package's layers as the traced run sees them.

``HOOKS`` names the public functions wrapped in the traced child, one span
name per layer boundary, with the counters taken at the same place.
``METRICS`` lists the per-layer metrics the driver reports: a ``*_s``
metric is the self time of its span, the rest are counters.
"""

from __future__ import annotations

import os

import numpy as np

from spans import Hook, self_times


def _calls(counter):
    def count(tracer, sid, args, kwargs, result):
        tracer.add(counter, 1)

    return count


def _sum(counter, measure):
    def count(tracer, sid, args, kwargs, result):
        tracer.add(counter, int(measure(args, kwargs, result)))

    return count


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _file_size(args, kwargs, result):
    return os.path.getsize(_arg(args, kwargs, 0, "path"))


def _resolve_outcome(tracer, sid, args, kwargs, result):
    # every span recorded after this one ran inside resolve_table
    names = {span[0] for span in tracer.spans[sid:]}
    if "coeffs.eta" in names:
        tracer.add("cli.eta_rebuilds", 1)
    elif "coeffs.load" in names:
        tracer.add("cli.cache_hits", 1)


HOOKS = (
    # tables: eta engine, 6.6.a.a combination, file I/O, ingest, normalization
    Hook(
        "satotate.coeffs:eta_product_qexpansion",
        "coeffs.eta",
        (_calls("coeffs.eta_calls"), _sum("coeffs.eta_terms", lambda a, k, r: len(r))),
    ),
    Hook("satotate.bundled:build_6_6_a_a", "bundled.build66"),
    Hook(
        "satotate.coeffs:write_coefficient_file",
        "coeffs.write",
        (_sum("coeffs.write_bytes", _file_size),),
    ),
    Hook(
        "satotate.coeffs:load_coefficient_file",
        "coeffs.load",
        (_sum("coeffs.load_bytes", _file_size),),
    ),
    Hook("satotate.coeffs:CoefficientTable.__init__", "coeffs.table"),
    Hook(
        "satotate.coeffs:CoefficientTable.normalized_values",
        "coeffs.normalize",
        (_sum("coeffs.normalize_primes", lambda a, k, r: np.size(_arg(a, k, 1, "primes"))),),
    ),
    Hook("satotate.cli:resolve_table", "cli.resolve", (_resolve_outcome,)),
    # counting: sieve, series, exact fallbacks, lifts
    Hook(
        "satotate.counting:sieve",
        "counting.sieve",
        (_calls("counting.sieve_calls"), _sum("counting.sieve_n", lambda a, k, r: _arg(a, k, 0, "bound"))),
    ),
    Hook(
        "satotate.counting:sign_density_series",
        "counting.sign_series",
        (_calls("counting.sign_series_calls"),),
    ),
    Hook(
        "satotate.counting:dominance_density_series",
        "counting.dominance_series",
        (_calls("counting.dominance_series_calls"),),
    ),
    Hook("satotate.counting:exact_lift_sign", None, (_calls("counting.exact_lifts"),)),
    Hook(
        "satotate.chebyshev:eval_u",
        "chebyshev.eval_u",
        (_sum("chebyshev.eval_u_points", lambda a, k, r: np.size(_arg(a, k, 1, "u"))),),
    ),
    # regions: sympy factoring, curve tracing, composition, float evaluation
    Hook("satotate.region:poly_positive", "region.poly_positive"),
    Hook("satotate.region:trace_boundary", "region.trace", (_calls("region.trace_calls"),)),
    Hook("satotate.counting:dominance_prediction", "counting.prediction"),
    Hook("satotate.bipoly:compose_bivariate", "bipoly.compose"),
    Hook(
        "satotate.bipoly:Poly2.eval_float",
        "bipoly.eval_float",
        (
            _sum(
                "bipoly.eval_float_points",
                lambda a, k, r: np.broadcast(_arg(a, k, 1, "u"), _arg(a, k, 2, "v")).size,
            ),
        ),
    ),
    # measures: quadtree and 1-D partitions over interval enclosures
    Hook("satotate.measures:mu_jst_region", "measures.region", (_calls("measures.region_calls"),)),
    Hook(
        "satotate.measures:leaf_statuses",
        None,
        (_sum("measures.cells", lambda a, k, r: np.broadcast(*a[1:5]).size),),
    ),
    Hook(
        "satotate.bipoly:Poly2.interval_enclosure_cells",
        "bipoly.interval_cells",
        skip_under="bipoly.interval_grid",
    ),
    # grid brackets: classification, boundary count, strip merge
    Hook(
        "satotate.region:classify_boxes",
        "region.classify",
        (_sum("region.classify_boxes", lambda a, k, r: _arg(a, k, 1, "m") ** 2),),
    ),
    Hook("satotate.bipoly:Poly2.interval_eval_grid", "bipoly.interval_grid"),
    Hook("satotate.region:boundary_bound_check", "region.bound_check"),
    Hook("satotate.region:strip_merge", "region.strip_merge"),
    # envelopes (pi(x) sieves nest inside when the caller passes no pi_x)
    Hook("satotate.region:error_envelope", "region.envelope", (_calls("region.envelope_calls"),)),
    # charts
    Hook("satotate.charts:render_svg", "charts.svg"),
    Hook("satotate.charts:write_multi_series_csv", "charts.csv"),
    Hook(
        "satotate.charts:render_png",
        None,
        (_sum("charts.png_skipped", lambda a, k, r: r is False),),
    ),
)

#: (metric, unit, span): self time of ``span`` when given, else a counter.
METRICS = (
    ("coeffs.eta_s", "s", "coeffs.eta"),
    ("coeffs.eta_calls", "count", None),
    ("coeffs.eta_terms", "count", None),
    ("bundled.build66_self_s", "s", "bundled.build66"),
    ("coeffs.write_s", "s", "coeffs.write"),
    ("coeffs.write_bytes", "bytes", None),
    ("coeffs.load_s", "s", "coeffs.load"),
    ("coeffs.load_bytes", "bytes", None),
    ("coeffs.table_s", "s", "coeffs.table"),
    ("coeffs.normalize_s", "s", "coeffs.normalize"),
    ("coeffs.normalize_primes", "count", None),
    ("cli.resolve_s", "s", "cli.resolve"),
    ("cli.cache_hits", "count", None),
    ("cli.eta_rebuilds", "count", None),
    ("counting.sieve_s", "s", "counting.sieve"),
    ("counting.sieve_calls", "count", None),
    ("counting.sieve_n", "count", None),
    ("counting.sign_series_s", "s", "counting.sign_series"),
    ("counting.sign_series_calls", "count", None),
    ("counting.dominance_series_s", "s", "counting.dominance_series"),
    ("counting.dominance_series_calls", "count", None),
    ("counting.exact_lifts", "count", None),
    ("chebyshev.eval_u_s", "s", "chebyshev.eval_u"),
    ("chebyshev.eval_u_points", "count", None),
    ("region.poly_positive_s", "s", "region.poly_positive"),
    ("region.trace_s", "s", "region.trace"),
    ("region.trace_calls", "count", None),
    ("counting.prediction_s", "s", "counting.prediction"),
    ("bipoly.compose_s", "s", "bipoly.compose"),
    ("bipoly.eval_float_s", "s", "bipoly.eval_float"),
    ("bipoly.eval_float_points", "count", None),
    ("measures.region_s", "s", "measures.region"),
    ("measures.region_calls", "count", None),
    ("measures.cells", "count", None),
    ("bipoly.interval_cells_s", "s", "bipoly.interval_cells"),
    ("region.classify_s", "s", "region.classify"),
    ("region.classify_boxes", "count", None),
    ("bipoly.interval_grid_s", "s", "bipoly.interval_grid"),
    ("region.bound_check_s", "s", "region.bound_check"),
    ("region.strip_merge_s", "s", "region.strip_merge"),
    ("region.envelope_s", "s", "region.envelope"),
    ("region.envelope_calls", "count", None),
    ("charts.svg_s", "s", "charts.svg"),
    ("charts.csv_s", "s", "charts.csv"),
    ("charts.png_skipped", "count", None),
)


def layer_values(spans, counts):
    """Every per-layer metric of one traced child, zero where a layer idled."""
    selfs = self_times(spans)
    return {
        name: selfs.get(span, 0.0) if span else counts.get(name, 0)
        for name, _, span in METRICS
    }
