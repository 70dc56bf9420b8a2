"""Command runs that need a process of their own: a peak resident memory
ceiling, a wall-clock limit, or a module refused before the package loads.

Each run starts a fresh interpreter on the tested package, in a fresh
working directory and, through the autouse cache fixture, a fresh cache.
"""

import hashlib
import sys

import pytest

from test_golden import DIGESTS

# Run a command (the argv after the timeout) and print its peak resident KiB.
# A process's ru_maxrss starts from the high-water mark of the process it was
# forked from, and exec keeps it, so a command started straight from the test
# process would report the test process's own peak.  This launcher starts
# nothing else, so its RUSAGE_CHILDREN is the command's alone.
_PEAK_RSS = """
import resource, subprocess, sys
code = subprocess.run(sys.argv[2:], stdout=subprocess.DEVNULL, timeout=float(sys.argv[1])).returncode
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
sys.exit(code)
"""

SATOTATE = (sys.executable, "-m", "satotate.cli")


def _peak_rss_mb(run_python, argv, cwd):
    """Run ``argv`` to completion, within 120 s, and return its peak resident MB."""
    proc = run_python(_PEAK_RSS, "120", *argv, cwd=cwd, timeout=150)
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout) / (2**20 if sys.platform == "darwin" else 2**10)


def test_the_launcher_reads_the_command_s_own_peak(run_python, tmp_path):
    # this process holds numpy, scipy and every table the suite has built
    assert _peak_rss_mb(run_python, [sys.executable, "-c", "pass"], tmp_path) < 30


@pytest.fixture(scope="module")
def million_line_cache(tmp_path_factory, run_python):
    """A cache directory that ``expand`` has filled with 10^6 coefficients
    of 5.4.a.a, and the peak MB of the two expands: one writing the table to
    ``--out-file`` (which fills the cache), one to stdout (which reads it)."""
    root = tmp_path_factory.mktemp("million")
    expand = [*SATOTATE, "--cache-dir", str(root / "cache"), "expand", "--label", "5.4.a.a", "--n", "1000000"]
    peaks = [_peak_rss_mb(run_python, argv, root) for argv in ([*expand, "--out-file", "big.txt"], expand)]
    return root / "cache", peaks


def test_a_million_line_expand_stays_under_100_mb(million_line_cache):
    # tables are written a block of lines at a time, so neither the file nor
    # stdout holds a whole table's text (about 169 MB when it was built whole)
    _, peaks = million_line_cache
    assert max(peaks) < 100, peaks


def test_figures_on_a_million_line_cache_stay_under_46_mb(million_line_cache, run_python, tmp_path):
    # the run reads only the 3000 lines it asks for; the (2,3) quadtree
    # stores a cell in 9 bytes and hands its freed heap back when it returns
    # (about 36 MB).  The PNGs are off, so an install with matplotlib
    # measures the same run as one without
    cache, _ = million_line_cache
    (tmp_path / "nopng.cfg").write_text("png = off\n")
    argv = [*SATOTATE, "--config", "nopng.cfg", "--cache-dir", str(cache), "--out", "figs", "figures", "--x-max", "3000"]
    peak = _peak_rss_mb(run_python, argv, tmp_path)
    assert peak < 46, f"figures peaked at {peak:.1f} MB resident"
    for name in ("figure1.csv", "figure1.svg", "figure2.csv", "figure2.svg"):
        digest = hashlib.sha256((tmp_path / "figs" / name).read_bytes()).hexdigest()
        assert digest == DIGESTS[f"figures/{name}"], name


def test_the_default_disk_measure_stays_under_180_mb(run_python, tmp_path):
    # at the default target, 1e-6, the deepest level holds 1.4 million cells:
    # two int32 edge indices and a stabiliser byte each (about 140 MB; 290 MB
    # with four float edge records per cell)
    argv = [*SATOTATE, "--out", "m6", "measure", "--disk", "--out-csv", "m6/measure.csv"]
    peak = _peak_rss_mb(run_python, argv, tmp_path)
    assert peak < 180, f"measure --disk peaked at {peak:.1f} MB resident"
    assert (tmp_path / "m6" / "measure.csv").stat().st_size


_REFUSE = {
    # the records are plain classes, so no command needs dataclasses
    "dataclasses": "sys.modules['dataclasses'] = None\n",
    # sections of degree <= 3 are solved in closed form
    "eigvals": (
        "import numpy.linalg\n"
        "def refuse(*args, **kwargs):\n"
        "    raise AssertionError('a section of degree <= 3 reached numpy.linalg.eigvals')\n"
        "numpy.linalg.eigvals = refuse\n"
    ),
}

# (the module refused, argv, a file the run must write)
_RUNS = [
    # every verb
    ("dataclasses", ["fetch", "--seed-bundled", "--n", "3000"], None),
    ("dataclasses", ["--out", "f", "figures", "--x-max", "3000"], "f/figure1.svg"),
    ("dataclasses", ["--out", "s", "density", "--mn", "2,2", "--x-max", "3000"], "s/density_2_2.csv"),
    ("dataclasses", ["--out", "d", "dominance", "--mn", "2,3", "--x-max", "3000"], "d/dominance_2_3.csv"),
    ("dataclasses", ["first-sign", "--mn", "1,1", "--x-max", "3000"], None),
    ("dataclasses", ["measure", "--disk", "--target", "1e-3"], None),
    ("dataclasses", ["--out", "b", "bracket", "--disk", "--m", "16"], None),
    ("dataclasses", ["expand", "--label", "5.4.a.a", "--n", "10"], None),
    # the (2,3) prediction and its curve, the disk's quadtree and the cubic's
    # grid bracket
    ("eigvals", ["--out", "d", "dominance", "--mn", "2,3", "--x-max", "3000"], "d/dominance_2_3.csv"),
    ("eigvals", ["--out", "m", "measure", "--disk", "--target", "1e-4", "--out-csv", "m/m.csv"], "m/m.csv"),
    (
        "eigvals",
        ["--out", "b", "bracket", "--poly-interval", "0,-1,1", "--lift", "1,3", "--m", "16,64"],
        "b/bracket_poly-interval[0.0,inf](1,3).csv",
    ),
    # quartic and degree-6 sections, on 4 x 4 and 6 x 6 companion matrices
    ("dataclasses", ["--out", "d", "dominance", "--mn", "2,4", "--x-max", "3000"], "d/dominance_2_4.csv"),
    ("dataclasses", ["--out", "d", "dominance", "--mn", "3,6", "--x-max", "3000"], "d/dominance_3_6.csv"),
    # u <-> v maps the (2,2) region onto its complement: exactly 1/2
    ("dataclasses", ["--out", "d", "dominance", "--mn", "2,2", "--x-max", "3000"], "d/dominance_2_2.csv"),
    # the boundary lines of S_48(u), counted exactly (Sturm's theorem)
    ("dataclasses", ["--out", "d", "density", "--mn", "48,2", "--x-max", "3000"], "d/density_48_2.csv"),
    # m = 1000 is no power of two, so the last block of each row is partial
    (
        "dataclasses",
        ["--out", "b", "bracket", "--poly-interval", "0,-1,1", "--lift", "1,3", "--m", "16,64,1000"],
        "b/bracket_poly-interval[0.0,inf](1,3).csv",
    ),
    # separable regions are cut at the exact roots of their constraints, with
    # no cells, where an interval bisection ran away; --seedless lifts the
    # quadtree's cell budget
    ("dataclasses", ["measure", "--sign-product", "64,64", "--target", "1e-8"], None),
    ("dataclasses", ["measure", "--poly-interval", "0,0,0,1", "--lift", "2,2", "--target", "1e-6"], None),
    ("dataclasses", ["measure", "--seedless", "--disk", "--target", "1e-3"], None),
]


@pytest.mark.parametrize("refused, argv, written", _RUNS, ids=[f"{r}:{' '.join(a)}" for r, a, _ in _RUNS])
def test_a_command_runs_with_a_module_refused(run_python, tmp_path, refused, argv, written):
    # every run gets at most 60 s: a runaway quadtree or root solver fails
    # here instead of holding the suite
    script = f"import sys\n{_REFUSE[refused]}from satotate.cli import main\nsys.exit(main(sys.argv[1:]))\n"
    proc = run_python(script, *argv, cwd=tmp_path, timeout=60)
    assert proc.returncode == 0, proc.stderr
    if written:
        assert (tmp_path / written).stat().st_size, written
