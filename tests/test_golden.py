"""Regression oracle: the CLI outputs are byte-identical to recorded digests.

The README promises byte-identical CSV/SVG re-runs; these sha256 digests
were recorded from the outputs of the same commands before the prime-pair
pipeline was consolidated, so any refactor that changes a single byte of a
figure, a density/dominance CSV (including its envelope column) or a grid
bracket fails here.  The certified-measure CSV and the number of cells the
quadtree classifies at each level were recorded the same way before the
quadtree's cell geometry was reorganised.  Both were re-recorded for the
disk when the quadtree began to keep one cell per orbit of the region's
stabiliser in the square's symmetry group: the disk is fixed by all eight
symmetries, u <-> v included, and the swap moves its measure CSV in the
eighth digit (towards the quadrature value), while the (2,3) region, fixed
by u -> -u alone, still classifies the same cells to the same bits.
The coefficient files of ``fetch --seed-bundled`` and of a weight-12
``expand`` past int64 were recorded before the eta engine began each
product from the exact product of its two largest factors.
The (1,3) and (2,3) dominance CSVs (their envelope column) and the bracket
CSV (its area_bound column) were re-recorded when the boundary length
began to come from two sweeps of axis lines instead of a traced polyline:
the curves' lengths moved by under 1e-6 relative, and their component
estimates from 1 to 3 and from 2 to 4.
"""

import hashlib

import pytest

from satotate import measures, region
from satotate.bipoly import Poly2
from satotate.cli import main

PAIR = ["--f", "5.4.a.a", "--fp", "6.6.a.a", "--x-max", "3000"]
MN = ["--mn", "1,1;2,2;1,3;2,3"]

COMMANDS = {
    "figures": ["figures", *PAIR],
    "density": ["density", *PAIR, *MN],
    "dominance": ["dominance", *PAIR, *MN],
    "bracket": ["bracket", "--poly-interval", "0,-1,1", "--lift", "1,3", "--m", "16,32"],
    "measure": ["measure", "--disk", "--target", "1e-4"],
}

DIGESTS = {
    "figures/figure1.csv": "09211be0e29d48e588328ca5464f778784dee01e45c09cfd8fcbbd770e733422",
    "figures/figure1.svg": "03a2a41a74d9124c6cf043015b54d386892c4289a824ea4f2a03871369d40a43",
    "figures/figure2.csv": "4aabec825a8f2c59668f34986fac8e256127d275c04604e9f93a08b10346d2a0",
    "figures/figure2.svg": "29d226e2f00f2d974dc82daffb4e4047ea651474b06e67efaf8855c140c164cd",
    "density/density_1_1.csv": "4f76801ff877e63da2ab9ca493690ea75e73c799787fdf6fee1e88c0282e6cc2",
    "density/density_2_2.csv": "56734fc7dc7897f05980f2bb02e498ca874ddff14e5fd3881b3f9f4b7549f6da",
    "density/density_1_3.csv": "5c79a31c3c5b723e0e782c37ad2328c18fd8e36588b3e2f71e82600f563a4578",
    "density/density_2_3.csv": "f6976d8ddedc3b269c6423610e101813edcc31c16277f313967ecb948c461f54",
    "dominance/dominance_1_1.csv": "a1b3338f1fc52fe12870d81251ea360c64d9d4f3b182e2e6e7b6906c4f3017aa",
    "dominance/dominance_2_2.csv": "59e1ba1220a46afdb6c0de71543d02e5ece5ef03da0266742de3a6210fa5e884",
    "dominance/dominance_1_3.csv": "6493e717a74765573190b5a894b3695e688bf043d34288fb203702d4f64d5d87",
    "dominance/dominance_2_3.csv": "82c70d84a7ae78dd1b9455481b3a51e9723ba52c2160380970a9486c9b8d65cf",
    "bracket/bracket_poly-interval[0.0,inf](1,3).csv": (
        "7d34f79001827eeabbbefeca71537f969f6851cba78a2f02bd54fc9487cbcb32"
    ),
    "measure/measure.csv": "423efb8c8d4a8b31d0f1f0f89fa69adde6ccae5dfc068ac692b1d20347ff6b6e",
}

# cells classified at each quadtree level (the sizes handed to leaf_statuses);
# the disk is fixed by all eight symmetries of the square, so below level 0
# it keeps about an eighth of the unfolded tree's cells (a cell on the
# diagonal u = v keeps three of its four children); the (2,3) region is
# fixed by u -> -u alone and keeps half
QUADTREE_LEVELS = {
    "disk(1)@1e-4": (
        lambda: region.disk(1),
        1e-4,
        [1, 1, 3, 3, 7, 11, 23, 43, 87, 171, 343, 683, 1367, 2731, 5463, 10923, 21847],
    ),
    "poly(2,3)@1e-3": (
        lambda: region.poly_positive(Poly2({(0, 1): 1, (1, 0): -1}), 2, 3),
        1e-3,
        [1, 2, 8, 32, 64, 120, 232, 452, 852, 1696, 3396, 6768, 13492, 26940],
    ),
}


# coefficient files: the two seeded tables (int64 path) and the 1.12.a.a
# expansion, whose values pass 2^63 (the exact object path)
TABLE_DIGESTS = {
    "cache/5.4.a.a.txt": "302001dfd1fec90dcf5806e1a246644e0986483f04577c8dae004f11cd0bcd79",
    "cache/6.6.a.a.txt": "3c0e0b063b3bd0ebe353c1b69a4103d1b34cfbdf645dcb2dcf3ca13432e7c47a",
    "delta.txt": "2503dd6ac00e29a498bd6e4f5bf1e884e987c81baa3523cb23d3eccab51ca83e",
}


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    for name, argv in COMMANDS.items():
        if name == "measure":
            argv = [*argv, "--out-csv", str(root / name / "measure.csv")]
            (root / name).mkdir()
        code = main(["--cache-dir", str(root / "cache"), "--out", str(root / name), *argv])
        assert code == 0, name
    return root


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_outputs_match_recorded_digests(outputs, command):
    written = sorted(
        p.relative_to(outputs).as_posix()
        for p in (outputs / command).iterdir()
        if p.suffix in (".csv", ".svg")
    )
    expected = sorted(path for path in DIGESTS if path.startswith(command + "/"))
    assert written == expected
    for path in expected:
        digest = hashlib.sha256((outputs / path).read_bytes()).hexdigest()
        assert digest == DIGESTS[path], path


@pytest.mark.parametrize("name", sorted(QUADTREE_LEVELS))
def test_quadtree_classifies_recorded_cells_per_level(monkeypatch, name):
    build, target, expected = QUADTREE_LEVELS[name]
    sizes = []
    real = measures.leaf_statuses

    def spy(leaves, u_lo, u_hi, v_lo, v_hi):
        sizes.append(int(u_lo.size))
        return real(leaves, u_lo, u_hi, v_lo, v_hi)

    monkeypatch.setattr(measures, "leaf_statuses", spy)
    measures.mu_jst_region(build(), target)
    assert sizes == expected


def test_coefficient_files_match_recorded_digests(tmp_path, capsys):
    cache = tmp_path / "cache"
    assert main(["--cache-dir", str(cache), "fetch", "--seed-bundled", "--n", "20000"]) == 0
    argv = ["expand", "--label", "1.12.a.a", "--n", "3000", "--out-file", str(tmp_path / "delta.txt")]
    assert main(["--cache-dir", str(tmp_path / "other"), *argv]) == 0
    capsys.readouterr()
    for path, digest in TABLE_DIGESTS.items():
        assert hashlib.sha256((tmp_path / path).read_bytes()).hexdigest() == digest, path
