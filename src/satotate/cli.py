"""Command-line interface.

Verbs: expand, fetch, measure, density, dominance, figures, first-sign,
bracket.  Global flags: --config (key = value file; command-line flags win),
--cache-dir, --out.  An empty value counts as given, and every flag refuses
it.  Runs are single-process and deterministic.

Exit codes: 0 success, else the ``exit_code`` of the package error raised
(``errors``): 2 usage/config error, 3 data or coverage error, 4 numerical
budget exhausted.
"""

from __future__ import annotations

import argparse
import math
import operator
import re
import sys
from functools import partial
from pathlib import Path

from . import bundled, charts, chebyshev, coeffs, counting, measures, primes, region
from .errors import ConfigError, DomainError, InvariantError, RecipeError, SatotateError

_D22_FLAG = (
    "note: the (2,2) density is 0.523761 by both the closed form and certified "
    "quadrature; the sometimes-quoted figure 0.534 matches neither route and is "
    "treated as a misprint."
)


class RunConfig:
    """Run settings; file values are overridden by explicit CLI flags.  The
    annotated class attributes are the config keys and their defaults; an
    instance reads a default until a key or flag sets its own value."""

    f: str = "5.4.a.a"
    fp: str = "6.6.a.a"
    x_max: int = 100_000
    checkpoints: int = 20
    cache_dir: str | None = None
    base_url: str = coeffs.DEFAULT_BASE_URL
    out: str = "."
    png: bool = True
    mn: tuple = ((1, 1),)


def _make_dir(path):
    """Create a directory and its parents, as outputs need; ConfigError when
    that fails (a file in the way, no permission)."""
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {path}: {exc.strerror}") from None


def _output_file(path, flag):
    """The path of an output file flag, its directory created; refused when it names no file."""
    file = Path(path)
    if not file.name or file.is_dir():
        raise ConfigError(f"{flag}: expected a file path, got {path!r}")
    _make_dir(file.parent)
    return file


def _derived_file(out, name):
    """The output file ``name`` of the --out directory; refused when a
    directory stands in its place."""
    file = Path(out) / name
    if file.is_dir():
        raise ConfigError(f"output file {file}: Is a directory")
    return file


# -- settings: one parser per value flag and config key -----------------------------
#
# A parser takes a value's text and the name of its source (``--x-max``, or
# ``run.cfg:3: x_max`` for a config key), and returns the value or raises
# ConfigError naming that source.  ``load_config`` parses every key and
# ``main`` every flag given, both through ``_PARSERS``, before a command runs.
# Each range and label rule is checked by its parser alone.


def _parse_numbers(text, name, convert, count=None):
    """Comma-separated numbers; empty items are ignored.  ``convert`` (int
    or float) reads an item stripped and refuses a space inside it."""
    try:
        values = [convert(t) for t in text.split(",") if t.strip()]
    except ValueError:
        values = None
    if not values:
        raise ConfigError(f"{name}: expected comma-separated numbers, got {text!r}")
    if any(v != v for v in values):  # NaN, the one value unequal to itself
        raise ConfigError(f"{name}: NaN is not a number here, got {text!r}")
    if count is not None and len(values) != count:
        raise ConfigError(f"{name}: expected {count} comma-separated numbers, got {text!r}")
    return values


def _number(convert, ok=lambda value: True, expected=""):
    """The parser of one number for which ``ok`` holds."""

    def parse(text, name):
        (value,) = _parse_numbers(text, name, convert, count=1)
        if not ok(value):
            raise ConfigError(f"{name}: expected {expected}, got {value}")
        return value

    return parse


def _path(text, name):
    if not text:
        raise ConfigError(f"{name}: expected a path, got ''")
    return text


def _boolean(text, name):
    if text.lower() in ("1", "true", "yes", "on", "0", "false", "no", "off"):
        return text.lower() in ("1", "true", "yes", "on")
    raise ConfigError(f"{name}: expected a boolean value, got {text!r}")


def _lift_pair(text, name):
    """m,n: a pair of lift degrees, as ``chebyshev.check_pair`` allows."""
    m, n = _parse_numbers(text, name, int, count=2)
    try:
        chebyshev.check_pair(m, n)
    except DomainError as exc:
        raise ConfigError(f"{name}: {exc}") from None
    return m, n


def _parse_mn(text, name):
    """``_lift_pair`` pairs separated by ';'."""
    pairs = tuple(_lift_pair(chunk, name) for chunk in text.split(";") if chunk.strip())
    if not pairs:
        raise ConfigError(f"{name}: no (m,n) pairs supplied")
    return pairs


def _eta_recipe(text, name):
    """The (divisor, exponent) pairs of a recipe; its weight, half the exponent sum, must be whole."""
    try:
        recipe = tuple((int(d), int(e)) for d, e in (pair.split(":") for pair in text.split(",")))
    except ValueError:
        raise ConfigError(f"{name}: expected divisor:exponent pairs, got {text!r}") from None
    exponents = sum(e for _, e in recipe)
    if exponents % 2:
        raise ConfigError(f"{name}: the exponents sum to {exponents}, which is odd; the weight is half the sum")
    return recipe


def _graded_lex_poly(text, name):
    try:
        return region.graded_lex_poly(text.split(","))
    except ValueError as exc:
        raise ConfigError(f"{name}: {exc}") from None


def _interval(text, name):
    """lo,hi; an empty end is infinite."""
    try:
        lo, hi = text.split(",")
        ends = float(lo or "-inf"), float(hi or "inf")
    except ValueError:
        raise ConfigError(f"{name}: expected lo,hi, got {text!r}") from None
    return measures.Interval(*ends)


#: A table label: <level>.<weight>, then dot-separated parts of ASCII
#: letters and digits.  A label names a cache file and a URL path, so
#: nothing else may reach either.
_LABEL_PATTERN = r"[0-9]+\.[0-9]+(\.[A-Za-z0-9]+)*"


def _check_label(label, name):
    """``label``; ConfigError unless all of it matches ``_LABEL_PATTERN``."""
    if not re.fullmatch(_LABEL_PATTERN, label, re.ASCII):
        raise ConfigError(
            f"{name}: expected a label <level>.<weight>[.<part>...] of ASCII letters and digits, got {label!r}"
        )
    return label


#: The parser of each config key (the fields of RunConfig) and of each value
#: flag, by its argparse dest.  Absent here: --config, read first through
#: ``_path``, and the files that a command opens or writes, --region-file,
#: --out-file and --out-csv.
_PARSERS = {
    **dict.fromkeys(("f", "fp", "label"), _check_label),
    "base_url": lambda text, name: text,
    **dict.fromkeys(("cache_dir", "out"), _path),
    "x_max": _number(int, lambda x: 2 <= x <= primes.SIEVE_MAX, "a value in [2, 1e8]"),
    # a table past the sieve's bound could never be checked on ingest
    "n": _number(int, lambda n: 1 <= n <= primes.SIEVE_MAX, "a value in [1, 1e8]"),
    "checkpoints": _number(int, lambda count: count >= 1, "at least 1"),
    "level": _number(int),
    "png": _boolean,
    "mn": _parse_mn,
    "eta": _eta_recipe,
    **dict.fromkeys(("target", "disk"), _number(float)),
    "d": _number(float, lambda d: 0 < d < math.inf, "a finite, positive envelope constant"),
    "m": partial(_parse_numbers, convert=int),
    "rect": partial(_parse_numbers, convert=float, count=4),
    **dict.fromkeys(("sign_product", "lift"), _lift_pair),
    "poly_interval": _graded_lex_poly,
    "interval": _interval,
}
_KEYS = tuple(RunConfig.__annotations__)


def _flag(dest):
    return "--" + dest.replace("_", "-")


def load_config(path):
    """Parse a ``key = value`` configuration file (# starts a comment)."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config file {path}: {getattr(exc, 'strerror', 'not UTF-8 text')}") from None
    cfg = RunConfig()
    for lineno, rawline in enumerate(text.splitlines(), 1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, val = (part.strip() for part in line.partition("="))
        if key not in _KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        setattr(cfg, key, _PARSERS[key](val, f"{path}:{lineno}: {key}"))
    return cfg


def resolve_table(label, n_max, cache_dir=None, base_url=coeffs.DEFAULT_BASE_URL):
    """Obtain a coefficient table, the same way for every label: the cache
    file when it holds n_max coefficients, else the bundled constructor,
    else the remote fetcher.  The cache's one reader and one writer: what
    it builds or downloads is cached for the next run.  A corrupt cache file
    raises (exit 3), never skipped or overwritten.  A label outside
    ``_LABEL_PATTERN`` is refused (exit 2) before any path or URL is built."""
    _check_label(label, "label")
    table = coeffs.cached_table(label, n_max, cache_dir)
    if table is not None:
        return table
    if label in bundled.BUNDLED_FORMS:
        table = bundled.bundled_table(label, n_max)
    else:
        table = coeffs.download_table(label, n_max, base_url)
    path = coeffs.cache_file(label, cache_dir)
    _make_dir(path.parent)
    coeffs.write_coefficient_file(path, table)
    return table


# -- region flags ------------------------------------------------------------------


def _add_region_flags(sub):
    sub.add_argument("--rect", help="u_lo,u_hi,v_lo,v_hi")
    sub.add_argument("--sign-product", help="m,n")
    sub.add_argument("--disk", nargs="?", const="1", help="radius (default 1)")
    sub.add_argument(
        "--poly-interval",
        help="graded-lex coefficients of P, e.g. '0,0,0,0,1,0' for uv; combine with --interval lo,hi and --lift m,n",
    )
    sub.add_argument("--interval", help="interval for --poly-interval, default 0,inf")
    sub.add_argument("--lift", help="symmetric-power indices for --poly-interval, default 1,1")
    sub.add_argument("--region-file", help="constraint file (see docs)")


_REGION_FLAGS = ("rect", "sign_product", "disk", "poly_interval", "region_file")


def _region_from_args(args):
    given = [name for name in _REGION_FLAGS if getattr(args, name) is not None]
    if len(given) > 1:
        raise ConfigError(f"one region flag at most, got {' '.join(map(_flag, given))}")
    if args.poly_interval is None and (args.interval, args.lift) != (None, None):
        raise ConfigError("--interval and --lift apply only to --poly-interval")
    if args.rect is not None:
        return region.rect(*args.rect)
    if args.sign_product is not None:
        return region.sign_product(*args.sign_product)
    if args.disk is not None:
        return region.disk(args.disk)
    if args.poly_interval is not None:
        interval = measures.Interval(0.0, math.inf) if args.interval is None else args.interval
        m, n = (1, 1) if args.lift is None else args.lift
        return region.region_from_poly_interval(args.poly_interval, interval, m, n)
    if args.region_file is not None:
        return region.parse_region_file(args.region_file)
    raise ConfigError("no region specified")


# -- commands ----------------------------------------------------------------------


def cmd_expand(cfg, args):
    if args.eta is None and args.level is not None:
        raise ConfigError("--level applies only to --eta")
    if args.eta is not None:
        recipe = args.eta
        # --label only names the recipe, bundled or not
        try:
            descriptor = coeffs.NewformDescriptor(
                label=f"eta.{','.join(f'{d}:{e}' for d, e in recipe)}" if args.label is None else args.label,
                weight=sum(e for _, e in recipe) // 2,
                level=max(d for d, _ in recipe) if args.level is None else args.level,
                eta_recipe=recipe,
            )
        # every check here reads only the --eta and --level flags
        except (InvariantError, RecipeError) as exc:
            raise ConfigError(f"expand: {exc}") from None
        table = coeffs.expand_eta_quotient(descriptor, args.n)
    elif args.label is not None:
        table = resolve_table(args.label, args.n, cfg.cache_dir, cfg.base_url)
    else:
        raise ConfigError("expand requires --eta or --label")
    if args.out_file is not None:
        coeffs.write_coefficient_file(_output_file(args.out_file, "--out-file"), table)
        print(f"wrote {table.bound} coefficients to {args.out_file}")
    else:
        sys.stdout.writelines(coeffs.coefficient_file_blocks(table))
    return 0


def cmd_fetch(cfg, args):
    if args.seed_bundled:
        if args.label is not None:
            raise ConfigError("--seed-bundled seeds the default pair and takes no --label")
        for label in (RunConfig.f, RunConfig.fp):
            resolve_table(label, args.n, cfg.cache_dir, cfg.base_url)
            print(f"seeded {coeffs.cache_file(label, cfg.cache_dir)}")
        return 0
    if args.label is None:
        raise ConfigError("fetch requires --label (or --seed-bundled)")
    table = resolve_table(args.label, args.n, cfg.cache_dir, cfg.base_url)
    cache_dir = coeffs.cache_file(args.label, cfg.cache_dir).parent
    print(f"{table.descriptor.label}: {table.bound} coefficients cached under {cache_dir}")
    return 0


def cmd_measure(cfg, args):
    reg = _region_from_args(args)
    mv = measures.mu_jst_region(reg, args.target, **({"budget": None} if args.seedless else {}))
    print(f"region: {reg.label}")
    print(f"measure = {mv.value:.9f}  (certified +- {mv.abs_error:.3g})")
    if args.rect is not None:
        u_lo, u_hi, v_lo, v_hi = args.rect
        closed = measures.mu_jst_rect(measures.Interval(u_lo, u_hi), measures.Interval(v_lo, v_hi)).value
        print(f"closed form (product of 1-D measures) = {closed:.9f}")
    if args.sign_product is not None:
        m, n = args.sign_product
        closed = measures.d_mn(m, n)
        print(f"closed form d({m},{n}) = {closed:.9f}   |difference| = {abs(closed - mv.value):.2e}")
        if (m, n) == (2, 2):
            print(_D22_FLAG)
    if args.out_csv is not None:
        path = _output_file(args.out_csv, "--out-csv")
        charts.write_csv(path, ["region", "value", "abs_error"], [[reg.label, mv.value, mv.abs_error]])
    return 0


def _pair_frame(cfg):
    """Resolve the command's two tables and checkpoint grid, and build its one
    pair frame; every series of the command reduces this frame."""
    tables = [resolve_table(label, cfg.x_max, cfg.cache_dir, cfg.base_url) for label in (cfg.f, cfg.fp)]
    checkpoints = counting.default_checkpoints(cfg.x_max, cfg.checkpoints)
    return counting.pair_frame(*tables, max(checkpoints)), checkpoints


def _series_commands(cfg, kind):
    frame, checkpoints = _pair_frame(cfg)
    out = Path(cfg.out)
    builder = (
        counting.sign_density_series if kind == "density" else counting.dominance_density_series
    )
    header = counting.CheckpointRow._fields
    cells = operator.attrgetter(*header)  # a row's fields in header order
    for m, n in cfg.mn:
        rep = builder(*frame.tables, m, n, checkpoints)
        stem = f"{kind}_{m}_{n}"
        charts.write_csv(_derived_file(out, f"{stem}.csv"), header, map(cells, rep.rows))
        final = rep.final()
        print(
            f"{kind} ({m},{n}): final empirical {final.emp_density:.4f} "
            f"vs predicted {final.pred_density:.6f}  -> {out / (stem + '.csv')}"
        )
        if cfg.png:
            xs = [r.x for r in rep.rows]
            series = [charts.Series(f"({m},{n})", tuple(r.emp_density for r in rep.rows), final.pred_density)]
            charts.render_png(_derived_file(out, f"{stem}.png"), xs, series, f"{kind} ({m},{n})")
    return 0


def cmd_figures(cfg, args):
    """Reproduce the two summary figures: simultaneous-sign densities for
    (1,1), (2,2), (1,2) and dominance densities for (1,3), (2,2), (2,3).

    The figures carry no envelope column, so their densities are read
    straight from the pair frame."""
    frame, checkpoints = _pair_frame(cfg)
    out = Path(cfg.out)
    label_f, label_fp = (t.descriptor.label for t in frame.tables)

    def emit(name, kind, pairs, title):
        columns = {}
        series = []
        for m, n in pairs:
            event, pred = counting.event_and_prediction(frame, kind, m, n)
            rows = frame.tally(event, checkpoints)
            emp = tuple(r[5] for r in rows)
            columns[f"{m}_{n}"] = (emp, pred)
            series.append(charts.Series(f"({m},{n})", emp, pred))
        xs = [r[0] for r in rows]
        pi_xs = [r[1] for r in rows]
        charts.write_multi_series_csv(_derived_file(out, f"{name}.csv"), xs, pi_xs, columns)
        charts.render_svg(_derived_file(out, f"{name}.svg"), xs, series, title)
        if cfg.png:
            charts.render_png(_derived_file(out, f"{name}.png"), xs, series, title)
        print(f"{name}: wrote {out / (name + '.csv')} and {out / (name + '.svg')}")

    emit(
        "figure1", "sign", [(1, 1), (2, 2), (1, 2)],
        f"Density of primes with positive coefficient products: {label_f} vs {label_fp}",
    )
    emit(
        "figure2", "dominance", [(1, 3), (2, 2), (2, 3)],
        f"Density of primes with dominated coefficients: {label_f} vs {label_fp}",
    )
    print(_D22_FLAG)
    return 0


def cmd_first_sign(cfg, args):
    table_f, table_fp = (resolve_table(label, cfg.x_max, cfg.cache_dir, cfg.base_url) for label in (cfg.f, cfg.fp))
    for m, n in cfg.mn:
        for rule in counting.EXCLUSION_RULES:
            res = counting.first_sign_change(table_f, table_fp, m, n, rule)
            if res.found:
                p = res.prime
                detail = ""
                if m == 1 and n == 1:
                    detail = f"  [A(p)={table_f.a_int(p)}, A'(p)={table_fp.a_int(p)}]"
                print(f"({m},{n}) {rule}: first sign change at p = {p}{detail}")
            else:
                print(f"({m},{n}) {rule}: no sign change up to {res.searched_bound}")
        if args.d is not None:
            df, dfp = table_f.descriptor, table_fp.descriptor
            j = counting.theoretical_first_sign_bound(
                m, n, df.weight, dfp.weight, df.level, dfp.level, args.d
            )
            print(f"({m},{n}) doubling-grid theoretical bound with d={args.d}: x = 2^{j}")
    return 0


def cmd_bracket(cfg, args):
    """For each grid resolution m: the grid bracket, the boundary box count
    and its bound, and the most components of one strip."""
    reg = _region_from_args(args)
    rows = []
    for m_res in args.m:
        approx = region.classify_boxes(reg, m_res)
        n_obs, bound = region.boundary_bound_check(approx)
        strips = int(region.strip_merge(approx).per_strip_counts.max(initial=0))
        width = approx.mu_high - approx.mu_low
        print(
            f"m={m_res:4d}  [{approx.mu_low:.9f}, {approx.mu_high:.9f}]  width={width:.3g}  "
            f"N={n_obs} <= {bound:.0f}  strip components <= {strips}"
        )
        rows.append([m_res, approx.mu_low, approx.mu_high, width, n_obs, bound, strips])
    header = ["m", "mu_low", "mu_high", "width", "boundary_count", "area_bound", "max_strip_components"]
    charts.write_csv(_derived_file(cfg.out, f"bracket_{reg.label.replace('/', '_')}.csv"), header, rows)
    return 0


# -- entry point --------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="satotate",
        description="Joint equidistribution statistics for newform coefficients",
        epilog="The coefficient cache directory defaults to ~/.cache/satotate and "
        "can be overridden with the SATOTATE_CACHE_DIR environment variable.",
    )
    parser.add_argument("--config", help="key = value configuration file")
    parser.add_argument("--cache-dir")
    parser.add_argument("--out", help="output directory")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expand", help="expand an eta quotient to a coefficient file")
    p.add_argument("--eta", help="recipe as divisor:exponent pairs, e.g. 1:4,5:4")
    p.add_argument("--label")
    p.add_argument("--level")
    p.add_argument("--n", required=True)
    p.add_argument("--out-file")
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("fetch", help="fetch (or seed) cached coefficient tables")
    p.add_argument("--label")
    p.add_argument("--n", required=True)
    p.add_argument("--seed-bundled", action="store_true", help="seed the cache offline")
    p.set_defaults(func=cmd_fetch)

    p = sub.add_parser("measure", help="joint measure of a region")
    _add_region_flags(p)
    p.add_argument("--target", default="1e-6")
    p.add_argument("--seedless", action="store_true", help="lift the quadrature cell budget")
    p.add_argument("--out-csv")
    p.set_defaults(func=cmd_measure)

    for kind in ("density", "dominance"):
        p = sub.add_parser(kind, help=f"{kind} series to CSV")
        p.add_argument("--f")
        p.add_argument("--fp")
        p.add_argument("--mn", help="pairs m,n separated by ';'")
        p.add_argument("--x-max")
        p.set_defaults(func=lambda cfg, args, _kind=kind: _series_commands(cfg, _kind))

    p = sub.add_parser("figures", help="reproduce the two summary figures")
    p.add_argument("--f")
    p.add_argument("--fp")
    p.add_argument("--x-max")
    p.set_defaults(func=cmd_figures)

    p = sub.add_parser("first-sign", help="first simultaneous sign change")
    p.add_argument("--f")
    p.add_argument("--fp")
    p.add_argument("--mn")
    p.add_argument("--x-max")
    p.add_argument("--d", help="envelope constant for the theoretical bound")
    p.set_defaults(func=cmd_first_sign)

    p = sub.add_parser("bracket", help="certified grid bracket of a region")
    _add_region_flags(p)
    p.add_argument("--m", default="16,32,64,128", help="grid resolutions, default 16,32,64,128")
    p.set_defaults(func=cmd_bracket)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(_path(args.config, "--config")) if args.config is not None else RunConfig()
        for dest, parse in _PARSERS.items():
            if getattr(args, dest, None) is not None:  # a flag wins over its key
                setattr(cfg if dest in _KEYS else args, dest, parse(getattr(args, dest), _flag(dest)))
        _make_dir(cfg.out)
        return args.func(cfg, args)
    except SatotateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
