
import ast
import collections
import contextlib
import csv
import io
import os
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import satotate
from satotate import bundled, chebyshev, cli, coeffs, counting, errors, measures, region
from satotate.cli import RunConfig, load_config, main, resolve_table
from satotate.errors import ConfigError

_SRC = str(Path(satotate.__file__).resolve().parents[1])


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_expand_eta_golden(capsys):
    code, out, _ = run(["expand", "--eta", "1:4,5:4", "--n", "9", "--label", "5.4.a.a"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "label=5.4.a.a k=4 N=5"
    assert lines[1:] == ["1 1", "2 -4", "3 2", "4 8", "5 -5", "6 -8", "7 6", "8 0", "9 -23"]


def test_expand_delta_prefix(capsys):
    code, out, _ = run(["expand", "--eta", "1:24", "--n", "3"], capsys)
    assert code == 0
    assert out.strip().splitlines()[1:] == ["1 1", "2 -24", "3 252"]


def test_expand_eta_under_a_bundled_label_expands_the_given_recipe(capsys):
    # --label only names the recipe: Delta's coefficients, not 5.4.a.a's
    code, out, _ = run(["expand", "--eta", "1:24", "--label", "5.4.a.a", "--n", "3"], capsys)
    assert code == 0
    assert out.strip().splitlines() == ["label=5.4.a.a k=12 N=1", "1 1", "2 -24", "3 252"]


def test_expand_stdout_is_the_coefficient_file(tmp_path, capsys):
    # stdout and --out-file are written from the same blocks of text
    argv = ["--cache-dir", str(tmp_path / "cache"), "expand", "--label", "5.4.a.a", "--n", "50"]
    code, out, _ = run(argv, capsys)
    assert code == 0
    path = tmp_path / "f.txt"
    assert run([*argv, "--out-file", str(path)], capsys)[0] == 0
    assert out.encode("utf-8") == path.read_bytes()


@pytest.mark.parametrize(
    "argv, written",
    [
        (["expand", "--label", "6.6.a.a", "--n", "5", "--out-file", "{}/x.txt"], "x.txt"),
        (["measure", "--disk", "--target", "1e-2", "--out-csv", "{}/m.csv"], "m.csv"),
    ],
)
def test_output_file_flags_create_their_directory(tmp_path, capsys, argv, written):
    missing = tmp_path / "missing" / "dir"
    argv = [arg.format(missing) for arg in argv]
    code, _, err = run(["--cache-dir", str(tmp_path / "cache"), "--out", str(tmp_path), *argv], capsys)
    assert code == 0, err
    assert (missing / written).stat().st_size > 0


def test_out_directory_blocked_by_a_file_is_a_usage_error(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    code, _, err = run(["--out", str(blocker / "sub"), "fetch", "--seed-bundled", "--n", "3"], capsys)
    assert code == 2
    assert err.startswith("error: cannot create output directory")


def test_expand_names_a_recipe_by_its_parsed_spelling(tmp_path, capsys):
    # the default label is spelled from the parsed recipe, so a recipe given
    # with a space writes a file that loads
    path = tmp_path / "x.txt"
    code, out, _ = run(["expand", "--eta", "1:4, 5:4", "--n", "9", "--out-file", str(path)], capsys)
    assert (code, out) == (0, f"wrote 9 coefficients to {path}\n")
    table = coeffs.load_coefficient_file(path)
    assert table.descriptor.label == "eta.1:4,5:4"
    assert table.raw == (1, -4, 2, 8, -5, -8, 6, 0, -23)


def test_expand_usage_error(capsys):
    code, _, err = run(["expand", "--n", "9"], capsys)
    assert code == 2
    assert "expand requires" in err


@pytest.mark.parametrize("eta, total", [("1:2,2:23", 25), ("1:22,2:1", 23)])
def test_expand_refuses_an_odd_exponent_sum(capsys, eta, total):
    # the weight is half the exponent sum, so an odd sum names no weight
    code, _, err = run(["expand", "--eta", eta, "--n", "5"], capsys)
    assert code == 2
    assert f"the exponents sum to {total}, which is odd" in err


def test_expand_of_a_recipe_that_is_no_newform_is_a_data_error(capsys):
    # a well-formed recipe: |A(2)| = 8, where a level-2 newform of weight 4
    # has 2^((k-2)/2) = 2
    code, _, err = run(["expand", "--eta", "2:16,1:-8", "--n", "5"], capsys)
    assert code == 3
    assert "|A(2)| = 8" in err


def test_measure_sign_product_flags_misprint(capsys, tmp_path):
    code, out, _ = run(
        ["--out", str(tmp_path), "measure", "--sign-product", "2,2", "--target", "1e-7"],
        capsys,
    )
    assert code == 0
    assert "0.523761" in out
    assert "0.534" in out  # the misprint flag must be present


def test_measure_rect_cross_check(capsys, tmp_path):
    code, out, _ = run(
        ["--out", str(tmp_path), "measure", "--rect=-1,1,-1,1", "--target", "1e-7"],
        capsys,
    )
    assert code == 0
    assert "0.370878297" in out


@pytest.mark.parametrize(
    "flags", [["--rect=-1,1,-1,1"], ["--sign-product", "2,2"], ["--poly-interval", "0,-1,1", "--lift", "1,3"]]
)
def test_measure_csv_reads_back_a_label_with_commas(capsys, tmp_path, flags):
    # each label holds a comma; unquoted, it split into extra fields
    path = tmp_path / "m.csv"
    code, out, _ = run(["--out", str(tmp_path), "measure", *flags, "--target", "1e-3", "--out-csv", str(path)], capsys)
    assert code == 0
    with path.open(newline="") as fh:
        (row,) = csv.DictReader(fh)
    assert list(row) == ["region", "value", "abs_error"]
    assert f"region: {row['region']}\n" == out.splitlines(keepends=True)[0]
    float(row["value"]), float(row["abs_error"])


def test_measure_of_the_full_rectangle_is_the_square(capsys, tmp_path):
    path = tmp_path / "m.csv"
    code, out, _ = run(["--out", str(tmp_path), "measure", "--rect=-2,2,-2,2", "--out-csv", str(path)], capsys)
    assert code == 0
    assert out.startswith("region: full-square\nmeasure = 1.000000000  (certified +- 0)\n")
    assert path.read_text() == "region,value,abs_error\nfull-square,1,0\n"


def test_measure_of_a_squared_lift_is_one(capsys, tmp_path, monkeypatch):
    # {S_2(u)^2 >= 0}: the double roots at +-1 are found exactly, where the
    # cells of an interval bisection never decide; no cell is classified
    def refuse(*args, **kwargs):
        raise AssertionError("a separable region reached the cell classifier")

    monkeypatch.setattr(measures, "leaf_statuses", refuse)
    code, out, _ = run(
        ["--out", str(tmp_path), "measure", "--poly-interval", "0,0,0,1", "--lift", "2,2", "--target", "1e-6"],
        capsys,
    )
    assert code == 0
    assert "measure = 1.000000000" in out


def test_measure_takes_no_grid_bracket_flags(capsys, tmp_path):
    # the grid brackets are the bracket command's; measure refuses its flags
    for flags in (["--grid-bracket"], ["--m", "16,32"]):
        with pytest.raises(SystemExit) as exc:
            main(["--out", str(tmp_path), "measure", "--rect=0,2,-2,2", *flags])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def test_expand_takes_no_weight_flag(capsys):
    # k is half the recipe's exponent sum, the only weight it accepts
    with pytest.raises(SystemExit) as exc:
        main(["expand", "--eta", "1:24", "--n", "3", "--weight", "12"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --weight" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--halfplane-u", "--full-square"])
def test_region_aliases_are_gone(capsys, tmp_path, flag):
    # --rect=0,2,-2,2 and --rect=-2,2,-2,2 name these regions
    with pytest.raises(SystemExit) as exc:
        main(["--out", str(tmp_path), "measure", flag])
    assert exc.value.code == 2


def test_measure_seedless_lifts_the_cell_budget(capsys, tmp_path, monkeypatch):
    budgets = []

    def record(reg, target, budget="default"):
        budgets.append(budget)
        return measures.MeasureValue(0.5, 0.0)

    monkeypatch.setattr(measures, "mu_jst_region", record)
    for flags in ([], ["--seedless"]):
        assert run(["--out", str(tmp_path), "measure", "--disk", *flags], capsys)[0] == 0
    assert budgets == ["default", None]
    # the flag is measure's own: the other commands never read it
    with pytest.raises(SystemExit) as exc:
        main(["--seedless", "measure", "--disk"])
    assert exc.value.code == 2


def test_measure_requires_region(capsys, tmp_path):
    code, _, err = run(["--out", str(tmp_path), "measure"], capsys)
    assert code == 2


def test_measure_budget_exit_code(capsys, tmp_path):
    code, _, err = run(
        ["--out", str(tmp_path), "measure", "--disk", "--target", "1e-8"], capsys
    )
    assert code == 4
    assert "budget" in err.lower()


def test_figures_outputs(tmp_path, capsys):
    code, out, _ = run(
        ["--out", str(tmp_path), "figures", "--f", "1.12.a.a", "--fp", "5.4.a.a", "--x-max", "2000"],
        capsys,
    )
    assert code == 0
    for name in ("figure1.csv", "figure1.svg", "figure2.csv", "figure2.svg"):
        assert (tmp_path / name).exists(), name
    csv1 = (tmp_path / "figure1.csv").read_text().splitlines()
    header = csv1[0].split(",")
    assert header[:2] == ["x", "pi_x"]
    assert "emp_1_1" in header and "emp_2_2" in header and "emp_1_2" in header
    svg = (tmp_path / "figure1.svg").read_text()
    assert svg.count("<polyline") == 3
    assert "stroke-dasharray" in svg  # dashed prediction lines


def test_figures_deterministic_reruns(tmp_path, capsys):
    args = ["--out", str(tmp_path), "figures", "--f", "1.12.a.a", "--fp", "5.4.a.a", "--x-max", "1500"]
    assert main(args) == 0
    capsys.readouterr()
    first = {n: (tmp_path / n).read_bytes() for n in ("figure1.csv", "figure2.csv", "figure1.svg")}
    assert main(args) == 0
    capsys.readouterr()
    for name, blob in first.items():
        assert (tmp_path / name).read_bytes() == blob, name


def test_figures_empty_checkpoints_usage_error(tmp_path, capsys):
    code, _, err = run(
        ["--out", str(tmp_path), "figures", "--f", "1.12.a.a", "--fp", "5.4.a.a", "--x-max", "1"],
        capsys,
    )
    assert code == 2


@pytest.mark.parametrize("x_max", [2, 1000])
def test_figures_one_checkpoint(tmp_path, capsys, x_max):
    # up to x = 1000 the checkpoint grid is the one point x_max: the charts
    # centre it in a one-decade x range
    cache = tmp_path / "cache"
    args = ["--cache-dir", str(cache), "--out", str(tmp_path), "figures", "--x-max", str(x_max)]
    code, _, _ = run(args, capsys)
    assert code == 0
    rows = (tmp_path / "figure1.csv").read_text().splitlines()
    assert len(rows) == 2 and rows[1].startswith(f"{x_max},")
    svg = (tmp_path / "figure2.svg").read_text()
    assert svg.count('<polyline points="355.00,') == 3


def test_figures_writes_png_when_matplotlib_imports(tmp_path, capsys):
    pytest.importorskip("matplotlib")
    args = ["--out", str(tmp_path), "figures", "--f", "1.12.a.a", "--fp", "5.4.a.a", "--x-max", "1500"]
    assert run(args, capsys)[0] == 0
    for name in ("figure1.png", "figure2.png"):
        assert (tmp_path / name).read_bytes().startswith(b"\x89PNG"), name


def _refuse_tables(monkeypatch):
    # a valid run would resolve tables; an out-of-range one must stop before
    def refuse(*args):
        raise AssertionError("resolve_table ran on an invalid configuration")

    monkeypatch.setattr(cli, "resolve_table", refuse)


@pytest.mark.parametrize("command", ["density", "figures", "first-sign"])
@pytest.mark.parametrize("x_max", ["0", str(10**8 + 1)])
def test_x_max_flag_is_validated(tmp_path, capsys, monkeypatch, command, x_max):
    _refuse_tables(monkeypatch)
    code, _, err = run(["--out", str(tmp_path), command, "--x-max", x_max], capsys)
    assert (code, err) == (2, f"error: --x-max: expected a value in [2, 1e8], got {x_max}\n")


@pytest.mark.parametrize("count", [-1, 0])
def test_config_checkpoints_must_be_positive(tmp_path, capsys, monkeypatch, count):
    _refuse_tables(monkeypatch)
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(f"checkpoints = {count}\n")
    code, _, err = run(["--config", str(cfg_file), "--out", str(tmp_path), "density"], capsys)
    assert code == 2
    assert "checkpoints" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["density", "figures", "first-sign"])
@pytest.mark.parametrize("flag", ["--f", "--fp"])
def test_empty_label_flag_is_refused(tmp_path, capsys, monkeypatch, command, flag):
    _refuse_tables(monkeypatch)
    code, _, err = run(["--out", str(tmp_path), command, flag, ""], capsys)
    assert code == 2
    assert err.startswith(f"error: {flag}: expected a label") and err.endswith(", got ''\n")


_BAD_LABELS = ["6.6.a.a\n", "6.6.a.a/../../x", "x", "5", "5.4.", "5.4.a.\u00e4", "\u0665.4.a.a", "5.4..a"]


@pytest.mark.parametrize("label", _BAD_LABELS)
def test_label_outside_the_grammar_is_refused(tmp_path, capsys, monkeypatch, label):
    # refused before any cache path or URL is built from it
    _refuse_network(monkeypatch)
    monkeypatch.setattr(coeffs, "cached_table", None)
    cache = ["--cache-dir", str(tmp_path / "cache"), "--out", str(tmp_path)]
    for argv in (
        ["expand", "--label", label, "--n", "3"],
        ["expand", "--eta", "1:24", "--label", label, "--n", "3"],
        ["fetch", "--label", label, "--n", "3"],
        ["fetch", "--seed-bundled", "--label", label, "--n", "3"],
        ["figures", "--f", label],
        ["density", "--fp", label],
    ):
        code, out, err = run(cache + argv, capsys)
        assert (code, out) == (2, ""), argv
        assert "expected a label" in err and "Traceback" not in err
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("fp = 6.6.a.a/../x\n")  # a key is read stripped
    code, _, err = run(["--config", str(cfg_file), *cache, "first-sign"], capsys)
    assert code == 2 and "expected a label" in err
    with pytest.raises(ConfigError):
        resolve_table(label, 3, cache_dir=tmp_path, base_url=_UNREACHABLE)
    assert not (tmp_path / "cache").exists()


@pytest.mark.parametrize(
    "label", ["5.4.a.a", "6.6.a.a", "1.12.a.a", "7.4.x.y", "9.9.z.z", "11.4.syn.a", "14.6.syn.a", "3.2"]
)
def test_labels_in_the_grammar_pass(label):
    cli._check_label(label, "label")


@pytest.mark.parametrize("key", ["f", "fp"])
def test_empty_label_in_config_is_refused(tmp_path, capsys, monkeypatch, key):
    _refuse_tables(monkeypatch)
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(f"{key} =\n")
    code, _, err = run(["--config", str(cfg_file), "--out", str(tmp_path), "figures"], capsys)
    assert code == 2
    assert err.startswith(f"error: {cfg_file}:1: {key}: expected a label") and err.endswith(", got ''\n")


def test_label_flags_override_config(tmp_path, capsys, monkeypatch):
    seen = []

    def record(label, n_max, *rest):
        seen.append(label)
        return bundled.bundled_table(label, n_max)

    monkeypatch.setattr(cli, "resolve_table", record)
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("f = 1.12.a.a\nfp = 1.12.a.a\n")
    argv = ["--config", str(cfg_file), "--out", str(tmp_path), "first-sign", "--fp", "5.4.a.a", "--x-max", "100"]
    assert run(argv, capsys)[0] == 0
    assert seen == ["1.12.a.a", "5.4.a.a"]


def test_fetch_requires_label(tmp_path, capsys):
    code, _, err = run(["--cache-dir", str(tmp_path), "fetch", "--n", "10"], capsys)
    assert code == 2


def test_density_command(tmp_path, capsys):
    code, out, _ = run(
        [
            "--out", str(tmp_path), "density",
            "--f", "1.12.a.a", "--fp", "5.4.a.a", "--mn", "1,1;2,2", "--x-max", "2000",
        ],
        capsys,
    )
    assert code == 0
    assert (tmp_path / "density_1_1.csv").exists()
    assert (tmp_path / "density_2_2.csv").exists()
    header = (tmp_path / "density_1_1.csv").read_text().splitlines()[0]
    assert header == "x,pi_x,count_pos,count_neg,count_zero,emp_density,pred_density,envelope_ratio"


def test_dominance_command(tmp_path, capsys):
    code, out, _ = run(
        [
            "--out", str(tmp_path), "dominance",
            "--f", "1.12.a.a", "--fp", "5.4.a.a", "--mn", "1,1", "--x-max", "2000",
        ],
        capsys,
    )
    assert code == 0
    assert (tmp_path / "dominance_1_1.csv").exists()


def test_first_sign_command(tmp_path, capsys):
    code, out, _ = run(
        [
            "--out", str(tmp_path), "first-sign",
            "--f", "5.4.a.a", "--fp", "6.6.a.a", "--mn", "1,1", "--x-max", "500", "--d", "0.6",
        ],
        capsys,
    )
    assert code == 0
    assert "AllPrimes: first sign change at p = 2" in out
    assert "ExcludeLevelPrimes: first sign change at p = 11" in out
    assert "theoretical bound" in out


@pytest.mark.parametrize("interval, value", [("inf,inf", 0.0), ("-inf,-inf", 0.0), ("-inf,inf", 1.0)])
def test_poly_interval_bounded_only_by_infinities(tmp_path, capsys, interval, value):
    # [inf, inf] and [-inf, -inf] hold no real value, so their regions are
    # empty; [-inf, inf] holds every value
    flags = ["--poly-interval", "0,-1,1", "--lift", "1,3", f"--interval={interval}"]
    code, out, _ = run(["--out", str(tmp_path), "measure", *flags], capsys)
    assert code == 0
    assert f"measure = {value:.9f}  (certified +- " in out
    code, _, _ = run(["--out", str(tmp_path), "bracket", *flags, "--m", "16,32"], capsys)
    assert code == 0
    (path,) = tmp_path.glob("bracket_*.csv")
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    assert [(float(lo), float(hi)) for _, lo, hi, *_ in rows] == [(value, value)] * 2


def test_bracket_refuses_a_count_over_its_area_bound(tmp_path, capsys, monkeypatch):
    # curves traced to no length bound the disk's boundary boxes by 0
    monkeypatch.setattr(region.PolynomialRegion, "traced_boundary", property(lambda self: (0.0, 0)))
    code, _, err = run(["--out", str(tmp_path), "bracket", "--disk", "--m", "16"], capsys)
    assert code == 3
    assert err.startswith("error: boundary-box count ") and err.endswith(" exceeds the area bound 0.0 at m=16\n")


def test_bracket_command(tmp_path, capsys):
    code, out, _ = run(
        ["--out", str(tmp_path), "bracket", "--sign-product", "2,2", "--m", "16,32"],
        capsys,
    )
    assert code == 0
    assert "m=  16" in out and "m=  32" in out
    assert list(tmp_path.glob("bracket_*.csv"))


def test_fetch_seed_and_cache(tmp_path, capsys, coeff_server):
    server, base = coeff_server
    cache = tmp_path / "cache"
    code, out, _ = run(
        ["--cache-dir", str(cache), "--out", str(tmp_path), "fetch", "--n", "25", "--seed-bundled"],
        capsys,
    )
    assert code == 0
    assert (cache / "5.4.a.a.txt").exists()
    # resolve_table must hit the warm cache, never the network
    table = resolve_table("6.6.a.a", 25, cache_dir=cache, base_url="http://127.0.0.1:9")
    assert table.bound == 25
    assert len(server.hits) == 0


def test_seeding_a_warm_cache_rewrites_nothing(tmp_path, capsys):
    argv = ["--cache-dir", str(tmp_path), "fetch", "--seed-bundled", "--n", "30"]
    assert run(argv, capsys)[0] == 0
    paths = [tmp_path / "5.4.a.a.txt", tmp_path / "6.6.a.a.txt"]
    before = [(p.read_bytes(), p.stat().st_mtime_ns, p.stat().st_ino) for p in paths]
    code, out, _ = run(argv, capsys)
    assert (code, out) == (0, "".join(f"seeded {p}\n" for p in paths))
    assert [(p.read_bytes(), p.stat().st_mtime_ns, p.stat().st_ino) for p in paths] == before  # no rename over them


def test_seeding_refuses_a_corrupt_cache_file(tmp_path, capsys, seed_cache):
    # seeding is a lookup like any other: a truncated file exits 3 and stays
    seed_cache(tmp_path, 30)
    path = tmp_path / "6.6.a.a.txt"
    path.write_bytes(path.read_bytes()[:-3])
    truncated = path.read_bytes()
    code, _, err = run(["--cache-dir", str(tmp_path), "fetch", "--seed-bundled", "--n", "30"], capsys)
    assert code == 3 and "truncated" in err
    assert path.read_bytes() == truncated


def test_only_resolve_table_and_expand_write_coefficient_files():
    # resolve_table is the cache's one writer; expand --out-file writes the
    # file its flag names
    callers = set()
    for path in sorted(Path(_SRC, "satotate").glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(fn, ast.FunctionDef):
                for node in ast.walk(fn):
                    if isinstance(node, ast.Call) and "write_coefficient_file" in ast.unparse(node.func):
                        callers.add(f"{path.stem}.{fn.name}")
    assert callers == {"cli.resolve_table", "cli.cmd_expand"}


def test_fetch_label_resolves_a_bundled_table_offline(tmp_path, capsys):
    # fetch finds a table as every command does: cache, then the bundled
    # constructor, then the network, which an unreachable base_url refuses
    cfg_file = tmp_path / "cfg.txt"
    cfg_file.write_text(f"base_url = http://127.0.0.1:9\nout = {tmp_path}\n")
    cache = tmp_path / "c"
    argv = ["--config", str(cfg_file), "--cache-dir", str(cache), "fetch", "--label", "5.4.a.a", "--n", "100"]
    code, out, _ = run(argv, capsys)
    assert code == 0
    assert "5.4.a.a: 100 coefficients cached" in out
    assert coeffs.load_coefficient_file(cache / "5.4.a.a.txt").raw == bundled.bundled_table("5.4.a.a", 100).raw
    # a second run is served from the cache
    assert run(argv[:-1] + ["60"], capsys)[0] == 0
    assert coeffs.load_coefficient_file(cache / "5.4.a.a.txt").bound == 100


def test_fetch_unknown_label_exit_code(tmp_path, capsys, coeff_server):
    server, base = coeff_server
    cfg_file = tmp_path / "cfg.txt"
    cfg_file.write_text(f"base_url = {base}\nout = {tmp_path}\n")
    code, _, err = run(
        ["--config", str(cfg_file), "--cache-dir", str(tmp_path / "c"),
         "fetch", "--label", "9.9.z.z", "--n", "10"],
        capsys,
    )
    assert code == 3


def test_truncated_cache_file_exit_code(tmp_path, capsys, seed_cache):
    seed_cache(tmp_path, 30)
    path = tmp_path / "6.6.a.a.txt"
    path.write_bytes(path.read_bytes()[:-3])  # cut inside the last line
    # a run reads only the prefix it asks for, but always the file's last byte
    for n in ("30", "5"):
        code, _, err = run(["--cache-dir", str(tmp_path), "expand", "--label", "6.6.a.a", "--n", n], capsys)
        assert code == 3
        assert "line 31" in err and "truncated" in err


@pytest.mark.parametrize("n, code", [("30", 3), ("3", 3), ("2", 0)])
def test_a_corrupt_cache_line_is_refused_within_the_prefix_read(tmp_path, capsys, seed_cache, n, code):
    # line 4 holds A(3); a run that asks for two coefficients never parses it
    seed_cache(tmp_path, 30)
    path = tmp_path / "6.6.a.a.txt"
    lines = path.read_text().splitlines(keepends=True)
    lines[3] = "3 x\n"
    path.write_text("".join(lines))
    got, out, err = run(["--cache-dir", str(tmp_path), "expand", "--label", "6.6.a.a", "--n", n], capsys)
    assert got == code, err
    if code:
        assert "error: line 4: expected '<n> <A(n)>', got '3 x'" in err
    else:
        assert out.endswith("\n1 1\n2 4\n")


def test_non_utf8_cache_file_exit_code(tmp_path, capsys, seed_cache):
    seed_cache(tmp_path, 30)
    path = tmp_path / "6.6.a.a.txt"
    lines = path.read_bytes().split(b"\n")
    lines[3] = lines[3] + b"\xff"  # line 4 holds A(3), inside the prefix read
    path.write_bytes(b"\n".join(lines))
    code, _, err = run(["--cache-dir", str(tmp_path), "expand", "--label", "6.6.a.a", "--n", "3"], capsys)
    assert code == 3
    assert "line 4" in err and "UTF-8" in err


# -- one lookup order for every label: cache, bundled constructor, remote --------------

_UNREACHABLE = "http://127.0.0.1:9"


def _offline_config(tmp_path):
    cfg_file = tmp_path / "offline.cfg"
    cfg_file.write_text(f"base_url = {_UNREACHABLE}\n")
    return str(cfg_file)


def _refuse_network(monkeypatch):
    import urllib.request

    def refuse(*args, **kwargs):
        raise AssertionError("the network was touched")

    monkeypatch.setattr(urllib.request, "urlopen", refuse)


def _count_loads(monkeypatch):
    loads, load = [], coeffs.load_coefficient_file

    def spy(path, *rest):
        loads.append(path)
        return load(path, *rest)

    monkeypatch.setattr(coeffs, "load_coefficient_file", spy)
    return loads


def test_figures_on_a_seeded_cache_expands_no_eta_quotient(tmp_path, capsys, monkeypatch, seed_cache):
    cache = tmp_path / "cache"
    seed_cache(cache, 3000)

    def refuse(*args, **kwargs):
        raise AssertionError("an eta combination was expanded")

    monkeypatch.setattr(coeffs, "eta_combination", refuse)
    monkeypatch.setattr(bundled, "eta_combination", refuse)
    _refuse_network(monkeypatch)
    loads = _count_loads(monkeypatch)
    argv = ["--config", _offline_config(tmp_path), "--cache-dir", str(cache), "--out", str(tmp_path)]
    code, _, err = run(argv + ["figures", "--x-max", "3000"], capsys)
    assert code == 0, err
    assert sorted(path.name for path in loads) == ["5.4.a.a.txt", "6.6.a.a.txt"]


@pytest.mark.parametrize("label", ["5.4.a.a", "6.6.a.a", "1.12.a.a"])
def test_short_cache_of_a_bundled_label_falls_back_to_the_constructor(tmp_path, monkeypatch, label):
    coeffs.write_coefficient_file(tmp_path / f"{label}.txt", bundled.bundled_table(label, 30))
    _refuse_network(monkeypatch)
    loads = _count_loads(monkeypatch)
    table = resolve_table(label, 60, cache_dir=tmp_path, base_url=_UNREACHABLE)
    assert table.raw == bundled.bundled_table(label, 60).raw
    assert len(loads) == 1
    assert coeffs.load_coefficient_file(tmp_path / f"{label}.txt").raw == table.raw


def test_offline_builds_are_written_back_to_the_cache(tmp_path, capsys, monkeypatch, seed_cache):
    cache = tmp_path / "cache"
    seed_cache(cache, 1000)
    _refuse_network(monkeypatch)
    argv = ["--config", _offline_config(tmp_path), "--cache-dir", str(cache), "--out", str(tmp_path)]
    code, _, err = run(argv + ["figures", "--x-max", "3000"], capsys)
    assert code == 0, err
    for label in ("5.4.a.a", "6.6.a.a"):
        lines = (cache / f"{label}.txt").read_text(encoding="utf-8").splitlines()
        assert len(lines) == 1 + 3000  # the header and n_max coefficients

    def refuse(*args, **kwargs):
        raise AssertionError("a bundled table was rebuilt")

    monkeypatch.setattr(bundled, "bundled_table", refuse)
    code, _, err = run(argv + ["figures", "--x-max", "3000"], capsys)
    assert code == 0, err


def _main_leaves_out(run_python, module, argv):
    """Run ``main(argv)`` in a fresh interpreter (this test process may have
    imported ``module`` already); the process fails when ``main`` fails or
    has imported ``module``."""
    script = (
        "import sys\n"
        "from satotate.cli import main\n"
        f"code = main({argv!r})\n"
        f"sys.exit(code or ({module!r} + ' was imported' if {module!r} in sys.modules else 0))\n"
    )
    return run_python(script, timeout=300)


def test_figures_imports_no_sympy(tmp_path, seed_cache, run_python):
    cache, out = tmp_path / "cache", tmp_path / "out"
    seed_cache(cache, 3000)
    proc = _main_leaves_out(run_python, "sympy", ["--cache-dir", str(cache), "--out", str(out), "figures", "--x-max", "3000"])
    assert proc.returncode == 0, proc.stderr
    assert (out / "figure2.csv").exists()


def test_warm_cache_density_imports_no_urllib_request(tmp_path, seed_cache, run_python):
    # the HTTP client (http.client, ssl, email) loads only for a download
    cache, out = tmp_path / "cache", tmp_path / "out"
    seed_cache(cache, 3000)
    argv = ["--cache-dir", str(cache), "--out", str(out), "density",
            "--f", "5.4.a.a", "--fp", "6.6.a.a", "--mn", "1,1", "--x-max", "3000"]
    proc = _main_leaves_out(run_python, "urllib.request", argv)
    assert proc.returncode == 0, proc.stderr
    assert (out / "density_1_1.csv").exists()


def test_short_cache_is_read_once_on_the_way_to_the_remote(tmp_path, monkeypatch, payload_server):
    server, base = payload_server
    # 5.4.b.b is not bundled; its weight and level are those of 5.4.a.a,
    # whose coefficients the server answers with
    server.payload = str(list(bundled.bundled_table("5.4.a.a", 40).raw))
    short = bundled.bundled_table("5.4.a.a", 10)
    descriptor = coeffs.NewformDescriptor("5.4.b.b", 4, 5)
    coeffs.write_coefficient_file(tmp_path / "5.4.b.b.txt", coeffs.CoefficientTable(descriptor, short.raw))
    loads = _count_loads(monkeypatch)
    table = resolve_table("5.4.b.b", 40, cache_dir=tmp_path, base_url=base)
    assert table.raw == bundled.bundled_table("5.4.a.a", 40).raw
    assert len(loads) == 1
    assert coeffs.load_coefficient_file(tmp_path / "5.4.b.b.txt").bound == 40


def test_corrupt_cache_file_of_an_eta_form_exits_3(tmp_path, capsys, monkeypatch, seed_cache):
    # as for 6.6.a.a (test_truncated_cache_file_exit_code): refused, not rebuilt
    cache = tmp_path / "cache"
    seed_cache(cache, 3000)
    path = cache / "5.4.a.a.txt"
    path.write_bytes(path.read_bytes()[:-3])  # cut inside the last line
    _refuse_network(monkeypatch)
    argv = ["--config", _offline_config(tmp_path), "--cache-dir", str(cache), "--out", str(tmp_path)]
    code, _, err = run(argv + ["figures", "--x-max", "3000"], capsys)
    assert code == 3
    assert "error: line 3001" in err


def test_config_file_parsing(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(
        "# comment\nf = 1.12.a.a\nfp = 5.4.a.a\nx_max = 5000\nmn = 1,1;2,3\npng = off\n"
    )
    cfg = load_config(cfg_file)
    assert cfg.f == "1.12.a.a"
    assert cfg.x_max == 5000
    assert cfg.mn == ((1, 1), (2, 3))
    assert cfg.png is False


def test_config_rejects_unknown_key(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("bogus = 1\n")
    from satotate.errors import ConfigError

    with pytest.raises(ConfigError):
        load_config(cfg_file)


def test_runconfig_validation(tmp_path):
    # a key's range is checked as the file is read, by the key's parser
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(f"x_max = {10**9}\n")
    with pytest.raises(ConfigError, match=r":1: x_max: expected a value in \[2, 1e8\], got 1000000000$"):
        load_config(cfg_file)


@pytest.mark.parametrize(
    "argv",
    [
        ["measure", "--poly-interval", "1,x"],
        ["measure", "--rect", "a,b,c,d"],
        ["measure", "--sign-product", "2"],
        ["measure", "--poly-interval", "0,0,0,0,1,0", "--lift", "1"],
        ["bracket", "--sign-product", "2,2", "--m", "16,x"],
        ["density", "--mn", "1,x", "--x-max", "100"],
        ["expand", "--eta", "1:4:5", "--n", "9"],
        ["expand", "--eta", "1:x", "--n", "9"],
        ["expand", "--eta", "1:4,5", "--n", "9"],
        ["expand", "--eta", "1:24", "--n", "0"],
        ["expand", "--label", "6.6.a.a", "--n", "0"],
        ["fetch", "--label", "5.4.a.a", "--n", "0"],
        ["fetch", "--seed-bundled", "--n", "0"],
        ["fetch", "--seed-bundled", "--n", "-3"],
        # past the sieve's 10^8, where no table could be checked on ingest
        ["expand", "--label", "5.4.a.a", "--n", "99999999999999999999"],
        ["expand", "--label", "5.4.a.a", "--n", "1000000000"],
        ["expand", "--eta", "1:24", "--n", "100000001"],
        ["fetch", "--label", "5.4.a.a", "--n", "1000000000"],
        ["fetch", "--seed-bundled", "--n", "100000001"],
        ["measure", "--sign-product=-1,2"],
        ["measure", "--sign-product=2,-1"],
        ["bracket", "--sign-product=-1,2", "--m", "16"],
        ["expand", "--eta", "1:24", "--n", "3", "--level", "0"],
        # an exponent sum of 2 is weight 1, below 2
        ["expand", "--eta", "1:2", "--n", "3"],
        ["expand", "--eta", "1:24", "--n", "3", "--level", "-6"],
        # an odd exponent sum (23, 25), whose half is no weight, and a recipe
        # without an integral vanishing order
        ["expand", "--eta", "1:22,2:1", "--n", "5"],
        ["expand", "--eta", "1:2,2:23", "--n", "5"],
        ["expand", "--eta", "1:12,2:1", "--n", "5"],
        ["measure", "--disk", "nan"],
        ["measure", "--rect=-1,1,-1,nan"],
        # a rectangle's ends must be in order
        ["measure", "--rect=1,-1,-1,1"],
        ["bracket", "--rect=1,-1,-1,1", "--m", "16"],
        ["measure", "--poly-interval", "0,-1,1", "--interval", "nan,1", "--lift", "1,3"],
        ["measure", "--disk", "--target", "nan"],
        ["measure", "--disk", "inf"],
        ["measure", "--disk", "-1"],
        ["measure", "--disk", "0"],
        ["bracket", "--disk", "0", "--m", "16"],
        # an empty value is malformed, never a request for the default
        ["bracket", "--disk", "--m", ""],
        ["bracket", "--disk", "--m", ","],
        ["density", "--mn", "", "--x-max", "100"],
        ["dominance", "--mn", "", "--x-max", "100"],
        ["first-sign", "--mn", "", "--x-max", "100"],
        # numbers must be finite; 1e400 parses as inf
        ["measure", "--disk", "--target", "inf"],
        ["measure", "--disk", "--target", "1e400"],
        ["first-sign", "--d", "nan"],
        ["first-sign", "--d", "inf"],
        ["first-sign", "--d", "0"],
        # flags that would change nothing: a second region, --interval or
        # --lift without --poly-interval, --level without --eta,
        # and --label beside --seed-bundled
        ["measure", "--disk", "--rect=-1,1,-1,1"],
        ["bracket", "--sign-product", "2,2", "--rect=-2,2,-2,2", "--m", "16"],
        ["measure", "--disk", "--interval", "0,1"],
        ["bracket", "--rect=0,2,-2,2", "--lift", "1,3", "--m", "16"],
        ["expand", "--n", "3", "--level", "7"],
        ["expand", "--label", "5.4.a.a", "--n", "3", "--level", "7"],
        ["fetch", "--seed-bundled", "--label", "5.4.a.a", "--n", "10"],
        # an empty value is a given value: refused, and named by its flag
        ["expand", "--eta", "", "--label", "5.4.a.a", "--n", "3"],
        ["--out", "", "figures"],
        ["--cache-dir", "", "fetch", "--label", "5.4.a.a", "--n", "3"],
        ["--config", "", "figures"],
        ["measure", "--rect", ""],
        ["measure", "--sign-product", ""],
        ["measure", "--poly-interval", ""],
        ["expand", "--label", "", "--n", "3"],
        ["expand", "--label", "5.4.a.a", "--n", "3", "--out-file", ""],
        ["measure", "--disk", "--target", "1e-2", "--out-csv", ""],
        # an output file flag that names a directory, a cache directory that
        # is a file
        ["expand", "--label", "5.4.a.a", "--n", "3", "--out-file", "/"],
        ["measure", "--disk", "--target", "1e-2", "--out-csv", "."],
        ["--cache-dir", "/dev/null", "fetch", "--label", "5.4.a.a", "--n", "3"],
        # (0, 0) lifts both coefficients to the constant 1, for first-sign as
        # for density
        ["first-sign", "--mn", "0,0", "--x-max", "100"],
        # a space inside a number is refused, never dropped
        ["expand", "--eta", "1:24", "--n", "3 0"],
        ["density", "--mn", "1 2,3", "--x-max", "100"],
        ["measure", "--sign-product", "1 0,2"],
    ],
)
def test_malformed_flag_values_are_usage_errors(tmp_path, capsys, argv):
    code, _, err = run(["--out", str(tmp_path), *argv], capsys)
    assert code == 2
    assert err.startswith("error: ")
    assert "Traceback" not in err
    if "" in argv:
        assert argv[argv.index("") - 1] in err


@pytest.mark.parametrize(
    "argv",
    [
        ["density", "--mn", "0,0"],
        ["first-sign", "--mn", "1,1;0,65"],
        ["measure", "--sign-product", "0,0"],
        ["bracket", "--poly-interval", "0,1", "--lift", "0,0"],
    ],
)
def test_a_lift_pair_is_refused_by_its_flag_parser(tmp_path, capsys, monkeypatch, argv):
    # chebyshev.check_pair's rule and words, prefixed by the flag, before
    # any table is read
    _refuse_tables(monkeypatch)
    flag, value = argv[-2:]
    with pytest.raises(errors.DomainError) as refused:
        chebyshev.check_pair(*map(int, value.split(";")[-1].split(",")))
    assert run(["--out", str(tmp_path), *argv], capsys) == (2, "", f"error: {flag}: {refused.value}\n")


#: The reason given for each file that cannot be read.
_UNREADABLE = {"missing": "No such file or directory", "directory": "Is a directory", "not-utf8": "not UTF-8 text"}


@pytest.mark.parametrize("case", list(_UNREADABLE))
@pytest.mark.parametrize("flag, kind, code", [("--config", "config", 2), ("--region-file", "region", 3)])
def test_a_file_that_a_flag_names_never_exits_1(tmp_path, capsys, case, flag, kind, code):
    # a config file is a usage error (2); a region file is data, like its
    # malformed lines (3)
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff\xfe")
    path = {"missing": tmp_path / "missing.txt", "directory": tmp_path, "not-utf8": bad}[case]
    argv = [flag, str(path), "figures"] if flag == "--config" else ["measure", flag, str(path)]
    code_, _, err = run(["--out", str(tmp_path), *argv], capsys)
    assert (code_, err) == (code, f"error: {kind} file {path}: {_UNREADABLE[case]}\n")


def test_a_directory_in_place_of_a_cache_file_is_a_data_error(tmp_path, capsys):
    cache = tmp_path / "cache"
    (cache / "5.4.a.a.txt").mkdir(parents=True)
    code, _, err = run(["--cache-dir", str(cache), "fetch", "--label", "5.4.a.a", "--n", "30"], capsys)
    assert (code, err) == (3, f"error: cache file {cache / '5.4.a.a.txt'}: Is a directory\n")


@pytest.mark.parametrize(
    "argv, name",
    [
        (["figures", "--x-max", "300"], "figure1.csv"),
        (["bracket", "--disk", "--m", "8"], "bracket_disk(r=1.0).csv"),
    ],
)
def test_a_directory_in_place_of_an_output_file_is_a_usage_error(tmp_path, capsys, seed_cache, argv, name):
    # the files that the commands name inside --out, as --out-file and
    # --out-csv are refused when they name a directory
    seed_cache(tmp_path / "cache", 300)
    out = tmp_path / "out"
    (out / name).mkdir(parents=True)
    code, _, err = run(["--cache-dir", str(tmp_path / "cache"), "--out", str(out), *argv], capsys)
    assert (code, err) == (2, f"error: output file {out / name}: Is a directory\n")


@pytest.mark.parametrize(
    "value, png",
    [("on", True), ("YES", True), ("True", True), ("1", True), ("Off", False), ("no", False), ("false", False),
     ("0", False), ("maybe", None)],
)
def test_png_key_takes_only_booleans(tmp_path, value, png):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(f"png = {value}\n")
    if png is None:
        with pytest.raises(ConfigError, match=":1: png: expected a boolean value"):
            load_config(cfg_file)
    else:
        assert load_config(cfg_file).png is png


def test_config_error_names_the_line_of_its_key(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("bogus = 1\nf = 5.4.a.a\n")
    with pytest.raises(ConfigError, match=":1: unknown key 'bogus'"):
        load_config(cfg_file)


#: Each config key that has a flag, and the flag.
_KEY_FLAGS = {"x_max": "--x-max", "f": "--f", "fp": "--fp", "mn": "--mn", "out": "--out", "cache_dir": "--cache-dir"}


@pytest.fixture(scope="module")
def parity_cache(tmp_path_factory, seed_cache):
    cache = tmp_path_factory.mktemp("parity") / "cache"
    seed_cache(cache, 2000)
    return cache


# empty, zero, a float where an integer goes, NaN, a name that climbs out
# with ../, and a path through a regular file
@pytest.mark.parametrize("value", ["", "0", "1e5", "nan", "../up", "plain.txt/below"])
@pytest.mark.parametrize("key", list(_KEY_FLAGS))
def test_config_keys_exit_with_the_codes_of_their_flags(tmp_path, monkeypatch, parity_cache, key, value):
    work = tmp_path / "a" / "b"  # relative paths such as ../up stay inside tmp_path
    work.mkdir(parents=True)
    (work / "plain.txt").write_text("")
    monkeypatch.chdir(work)
    given = {"cache_dir": str(parity_cache), "out": str(tmp_path / "out"), "x_max": "2000"}
    config = tmp_path / "run.cfg"
    config.write_text(f"{key} = {value}\n")

    def exit_code(settings, *extra):
        flags = {k: f"{_KEY_FLAGS[k]}={v}" for k, v in settings.items()}
        argv = [*extra, *(flags.pop(k) for k in ("cache_dir", "out") if k in flags), "dominance", *flags.values()]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's usage errors
                code = exc.code
        assert "Traceback" not in err.getvalue()
        return code

    by_flag = exit_code({**given, key: value})
    by_key = exit_code({k: v for k, v in given.items() if k != key}, f"--config={config}")
    assert by_key == by_flag
    assert by_flag in (0, 2, 3)


@pytest.mark.parametrize(
    "key, value",
    [
        *(("x_max", v) for v in ("1e5", "0x10", "3,000", "3 000", "0", "1", "100000001")),
        *((key, v) for key in ("f", "fp") for v in ("", "5..4")),
        *(("mn", v) for v in ("", "1,x", "1 2,3", "0,0", "0,65")),
        ("checkpoints", "0"),
    ],
)
def test_a_flag_and_its_key_give_one_error_line(tmp_path, capsys, monkeypatch, key, value):
    # one parser per setting, which checks its range, label or lift pair: the
    # same exit code and error line, up to the name of the source, and never
    # argparse's usage text (checkpoints is a key without a flag)
    _refuse_tables(monkeypatch)
    config = tmp_path / "run.cfg"
    config.write_text(f"{key} = {value}\n")
    by_key = run(["--config", str(config), "--out", str(tmp_path), "density"], capsys)
    assert by_key[:2] == (2, "")
    assert by_key[2].startswith(f"error: {config}:1: {key}: ") and by_key[2].count("\n") == 1
    assert "usage:" not in by_key[2]
    if key in _KEY_FLAGS:
        flag = _KEY_FLAGS[key]
        by_flag = run(["--out", str(tmp_path), "density", flag, value], capsys)
        assert by_flag == (2, "", by_key[2].replace(f"{config}:1: {key}", flag))


def test_every_value_flag_and_key_has_one_parser():
    parser = cli.build_parser()
    (commands,) = (a.choices for a in parser._actions if a.dest == "command")
    for command in (parser, *commands.values()):
        for action in command._actions:
            if action.option_strings and action.nargs != 0:  # a flag that takes a value
                assert action.type is None, action.dest  # text, parsed by main alone
                assert action.dest in {*cli._PARSERS, "config", "out_file", "out_csv", "region_file"}, action.dest
    assert set(RunConfig.__annotations__) <= set(cli._PARSERS)


#: The exit code of each package error raised from a command through main.
_EXIT_CODES = {
    **dict.fromkeys(["ConfigError", "DomainError", "CapError", "OutOfRangeError"], 2),
    **dict.fromkeys(
        ["RecipeError", "ParseError", "GapError", "InvariantError", "NetworkError", "NotFoundError",
         "CoverageError", "DegenerateError", "SatotateError"],
        3,
    ),
    **dict.fromkeys(["BudgetError", "HypothesisError"], 4),
}


def _package_errors(cls=errors.SatotateError):
    yield cls
    for sub in cls.__subclasses__():
        yield from _package_errors(sub)


@pytest.mark.parametrize(
    "cls",
    sorted({*_package_errors(), *(getattr(errors, name) for name in _EXIT_CODES)}, key=lambda c: c.__name__),
    ids=lambda c: c.__name__,
)
def test_every_package_error_exits_with_its_code(tmp_path, capsys, monkeypatch, cls):
    # a class the table does not name exits as its nearest named ancestor
    expected = next(_EXIT_CODES[k.__name__] for k in cls.__mro__ if k.__name__ in _EXIT_CODES)

    def fail(*args, **kwargs):
        raise cls("boom")

    monkeypatch.setattr(cli, "resolve_table", fail)
    argv = ["--cache-dir", str(tmp_path), "fetch", "--label", "5.4.a.a", "--n", "10"]
    assert run(argv, capsys)[::2] == (expected, "error: boom\n")


@pytest.mark.parametrize("command", ["measure", "bracket"])
def test_reversed_rect_exits_before_any_output(tmp_path, capsys, command):
    code, out, err = run(["--out", str(tmp_path), command, "--rect=-1,1,1,-1"], capsys)
    assert (code, out) == (2, "")
    assert "out of order" in err


@pytest.fixture()
def pipeline_calls(monkeypatch, f54_table, f66_table, table_prefix):
    """Run series commands on the bundled fixtures while counting pair frames,
    sieves, curve traces and poly_positive builds."""
    tables = {"5.4.a.a": f54_table, "6.6.a.a": f66_table}
    # prefixes of the fixture tables, checked as a loaded table is; that
    # check sieves in coeffs, out of sight of the counted counting.sieve
    monkeypatch.setattr(cli, "resolve_table", lambda label, n_max, *rest: table_prefix(tables[label], n_max))
    counting.pair_frame.cache_clear()
    counting._dominance_region.cache_clear()
    calls = {}

    def counted(owner, name):
        real = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    counted(counting, "PairFrame")
    counted(counting, "sieve")
    counted(region, "trace_boundary")
    counted(region, "poly_positive")
    yield calls
    counting.pair_frame.cache_clear()
    counting._dominance_region.cache_clear()


@pytest.mark.parametrize("command", ["figures", "density", "dominance"])
def test_one_pair_frame_and_one_sieve_per_command(tmp_path, capsys, pipeline_calls, command):
    argv = ["--out", str(tmp_path), command, "--f", "5.4.a.a", "--fp", "6.6.a.a", "--x-max", "3000"]
    if command != "figures":
        argv += ["--mn", "1,1;2,2;1,3;2,3"]
    assert run(argv, capsys)[0] == 0
    assert pipeline_calls["PairFrame"] == 1
    assert pipeline_calls["sieve"] == 1


def test_figures_trace_no_curves(tmp_path, capsys, pipeline_calls):
    argv = ["--out", str(tmp_path), "figures", "--f", "5.4.a.a", "--fp", "6.6.a.a", "--x-max", "3000"]
    assert run(argv, capsys)[0] == 0
    assert pipeline_calls.get("trace_boundary", 0) == 0
    assert pipeline_calls["poly_positive"] == 1  # the (2,3) dominance prediction


# -- generated argv: every run exits 0, 2, 3 or 4 ----------------------------------------

_HOSTILE = ("nan", "inf", "-inf", "-0", "", "1e400", "٣", "２", "../x")
_GEN_LABELS = ("5.4.a.a", "6.6.a.a", "1.12.a.a", "7.4.x.y", "5.4.a.a/../../x")


def _sometimes_hostile(good, hostile=_HOSTILE):
    """A value of ``good``, or one draw in eight a hostile token (the last
    choice, since Hypothesis leans towards the first)."""
    return st.integers(0, 7).flatmap(lambda k: st.sampled_from(hostile) if k == 7 else good)


def _pick(*good):
    return _sometimes_hostile(st.sampled_from(good))


def _ints(lo, hi):
    return _sometimes_hostile(st.integers(lo, hi).map(str))


def _joined(part, count, sep=","):
    """``count`` parts joined by ``sep``, now and then one too few or many."""
    return st.lists(part, min_size=max(count - 1, 1), max_size=count + 1).map(sep.join)


_REGION_FLAGS = ("--rect", "--sign-product", "--disk", "--poly-interval", "--region-file")

#: Flags every run of a command takes, so that no default is large: the
#: default --target is 1e-6 and the default --m reaches 128.
_ALWAYS = {"measure": ("--target",), "bracket": ("--m",)}

#: Per command, the flag sets of which a run takes one (an --n and a source
#: for expand and fetch, a region for measure and bracket).
_CORES = {
    "expand": [("--n", "--eta"), ("--n", "--label")],
    "fetch": [("--n", "--label"), ("--n", "--seed-bundled")],
    "measure": [(flag,) for flag in _REGION_FLAGS],
    "bracket": [(flag,) for flag in _REGION_FLAGS],
}


def _grammar(files):
    """Each command's flags, a flag mapped to the strategy of its value
    (None: the bare flag).  Sizes stay small: --n and --x-max at most
    2000, --m at most 32, --target at least 1e-2, indices at most 4."""
    index, label = _ints(0, 4), _pick(*_GEN_LABELS)
    out_file = _pick(str(files["out"] / "o.txt"), "missing/dir/o.txt", ".")
    regions = {
        "--rect": _joined(_pick("-2", "-1", "-0.5", "0", "0.5", "1", "2"), 4),
        "--sign-product": _joined(index, 2),
        "--disk": st.none() | _pick("1", "0.5", "3"),
        "--poly-interval": _joined(_pick("-1", "0", "1", "2"), 4),
        "--interval": _joined(_pick("0", "1", "-1", "inf", "-inf"), 2),
        "--lift": _joined(index, 2),
        "--region-file": _pick(*map(str, (files["region"], files["missing"], files["out"], files["bad"]))),
    }
    pair_series = {"--f": label, "--fp": label, "--x-max": _ints(0, 2000), "--mn": _joined(_joined(index, 2), 2, ";")}
    return {
        "expand": {
            "--eta": _pick("1:4,5:4", "1:24", "1:6,3:6", "2:16,1:-8", "1:12,2:1", "1:4:5"),
            "--label": label, "--level": _ints(-1, 12),
            "--n": _ints(-3, 2000), "--out-file": out_file,
        },
        "fetch": {"--label": label, "--n": _ints(-3, 2000), "--seed-bundled": st.none()},
        "measure": {**regions, "--target": _pick("1e-2", "0.05", "0.5"), "--seedless": st.none(), "--out-csv": out_file},
        "bracket": {**regions, "--m": _joined(_ints(1, 32), 2)},
        "density": pair_series,
        "dominance": pair_series,
        "figures": {k: pair_series[k] for k in ("--f", "--fp", "--x-max")},
        # the first-sign bound x = 2^j is solved for j alone, which is
        # about 1e5 at d = 1 and 3e9 at d = 3
        "first-sign": {
            **pair_series,
            "--d": _sometimes_hostile(st.sampled_from(("0.6", "1", "3", "٠.٦")), ("nan", "inf", "-0", "", "1e400")),
        },
    }


@st.composite
def _argv(draw, files):
    """Global flags, a command, its ``_ALWAYS`` flags, one of its cores and
    up to two more of its flags; the cache and output directories, a core
    and the absence of a foreign flag each fail one draw in eight."""
    grammar = _grammar(files)
    command = draw(st.sampled_from(sorted(grammar)))
    argv = [
        f"--config={files['config']}",
        f"--cache-dir={draw(_sometimes_hostile(st.just(str(files['cache']))))}",
        f"--out={draw(_sometimes_hostile(st.just(str(files['out']))))}",
        command,
    ]
    core = draw(st.sampled_from(_CORES.get(command, [()]))) if draw(st.integers(0, 7)) < 7 else ()
    extra = draw(st.lists(st.sampled_from(sorted(grammar[command])), max_size=2, unique=True))
    for flag in dict.fromkeys(_ALWAYS.get(command, ()) + core + tuple(extra)):
        value = draw(grammar[command][flag])
        argv += [flag] if value is None else [f"{flag}={value}"]
    if draw(st.integers(0, 7)) == 7:
        argv.append("--bogus")  # the one foreign flag
    return argv


#: The documented header of each CSV that a command writes.
_SERIES_HEADER = ["x", "pi_x", "count_pos", "count_neg", "count_zero", "emp_density", "pred_density", "envelope_ratio"]
_CSV_HEADERS = {
    "density": _SERIES_HEADER,
    "dominance": _SERIES_HEADER,
    "measure": ["region", "value", "abs_error"],
    "bracket": ["m", "mu_low", "mu_high", "width", "boundary_count", "area_bound", "max_strip_components"],
}
_FIGURE_PAIRS = {"figure1.csv": ("1_1", "2_2", "1_2"), "figure2.csv": ("1_3", "2_2", "2_3")}


def _files(root):
    return {path: path.stat().st_mtime_ns for path in root.rglob("*") if path.is_file()}


def _check_output(command, path):
    """Check the contract of one file that a run exiting 0 wrote, and return
    its kind: a coefficient file loads, and a CSV reads back under its
    documented header with consistent values."""
    if path.suffix == ".svg":
        return "svg"
    # expand's --out-file, or a table cached on the way (measure reads none)
    if command in ("expand", "fetch") or path.suffix == ".txt" and command != "measure":
        coeffs.load_coefficient_file(path)
        return "table"
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        rows = [{k: float(v) if k != "region" else v for k, v in row.items()} for row in reader]
    if command == "figures":
        pairs = _FIGURE_PAIRS[path.name]
        assert reader.fieldnames == ["x", "pi_x", *(f"{kind}_{p}" for p in pairs for kind in ("emp", "pred"))]
        return "figure"
    assert reader.fieldnames == _CSV_HEADERS[command], path
    assert rows and all(None not in row for row in rows), path
    if command == "measure":
        ((row),) = rows
        assert 0 <= row["value"] - row["abs_error"] <= row["value"] + row["abs_error"] <= 1, row
        return "measure"
    if command == "bracket":
        assert all(row["mu_low"] <= row["mu_high"] for row in rows), rows
        return "bracket"
    counted = [row["count_pos"] + row["count_neg"] + row["count_zero"] for row in rows]
    pi_x = [row["pi_x"] for row in rows]
    assert all(c <= p for c, p in zip(counted, pi_x)), rows
    assert counted == sorted(counted) and pi_x == sorted(pi_x), rows
    assert all(0 <= row["emp_density"] <= 1 for row in rows), rows
    return "series"


def test_generated_argv_exits_with_a_contract_code(tmp_path, seed_cache):
    files = {
        "cache": tmp_path / "cache", "out": tmp_path / "out", "config": tmp_path / "offline.cfg",
        "region": tmp_path / "region.txt", "missing": tmp_path / "missing.txt", "bad": tmp_path / "bad.txt",
    }
    seed_cache(files["cache"], 2000)
    files["out"].mkdir()
    files["config"].write_text(f"base_url = {_UNREACHABLE}\nx_max = 2000\npng = off\n")
    files["region"].write_text("poly 0 1 1 cmp > bound 0\n")
    files["bad"].write_bytes(b"\xff\xfe")
    work = tmp_path / "a" / "b"  # relative paths such as ../x stay inside tmp_path
    work.mkdir(parents=True)
    checked = collections.Counter()

    def run_and_check(argv):
        stderr = io.StringIO()
        before = _files(tmp_path)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's usage errors
                code = exc.code
        assert code in (0, 2, 3, 4), stderr.getvalue()
        assert "Traceback" not in stderr.getvalue()
        if code == 0:  # every file the run wrote keeps its contract
            for path, stamp in _files(tmp_path).items():
                if before.get(path) != stamp:
                    checked[_check_output(argv[3], path)] += 1

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def check(data):
        run_and_check(data.draw(_argv(files), label="argv"))

    # the generated runs seldom reach a measure CSV or an --out-file
    fixed = [
        ["measure", "--disk", "--target", "1e-2", "--out-csv", "m.csv"],
        ["measure", "--rect=-2,2,-2,2", "--target", "1e-2", "--out-csv", "r.csv"],
        ["measure", "--sign-product", "2,2", "--target", "0.5", "--out-csv", "s.csv"],
        ["expand", "--eta", "1:4, 5:4", "--n", "30", "--out-file", "e.txt"],
    ]
    cwd = os.getcwd()
    os.chdir(work)
    try:
        check()
        for argv in fixed:
            run_and_check([f"--config={files['config']}", f"--cache-dir={files['cache']}", f"--out={files['out']}", *argv])
    finally:
        os.chdir(cwd)
    assert {"table", "figure", "series", "measure", "bracket"} <= set(checked), checked
