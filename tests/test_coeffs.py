import gzip
import math
import os
import random
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from satotate import bundled, cli, coeffs
from satotate.coeffs import (
    CoefficientTable,
    NewformDescriptor,
    cached_table,
    download_table,
    eta_bound,
    eta_product_qexpansion,
    expand_eta_quotient,
    load_coefficient_file,
    write_coefficient_file,
)
from satotate.errors import (
    GapError,
    InvariantError,
    NetworkError,
    NotFoundError,
    OutOfRangeError,
    ParseError,
    RecipeError,
)

import oracles

F54 = NewformDescriptor("5.4.a.a", 4, 5, ((1, 4), (5, 4)))
DELTA = NewformDescriptor("1.12.a.a", 12, 1, ((1, 24),))


# -- pentagonal series ---------------------------------------------------------


def _pentagonal_series(bound, step=1):
    """Dense coefficients of prod (1 - q^{step*n}) through q^bound, from the
    engine's sparse terms."""
    terms = dict(coeffs._pentagonal_terms(bound, step))
    return [terms.get(n, 0) for n in range(bound + 1)]


def test_pentagonal_matches_naive_products():
    for bound in (0, 1, 2, 7, 40, 77):
        assert _pentagonal_series(bound) == oracles.naive_product_series(bound)
    # the pass of an eta factor eta(d z): q -> q^d in the same product
    for step in (2, 3, 5):
        naive = oracles.naive_product_series(60 // step)
        want = [naive[n // step] if n % step == 0 else 0 for n in range(61)]
        assert _pentagonal_series(60, step) == want


def test_pentagonal_bound_seven():
    # 1 - q - q^2 + q^5 + q^7
    assert _pentagonal_series(7) == [1, -1, -1, 0, 0, 1, 0, 1]


def test_pentagonal_coefficient_twelve():
    # exponent 12 is hit by j = 3, so the sign is (-1)^3; the naive product
    # oracle agrees
    assert _pentagonal_series(12)[12] == -1
    assert oracles.naive_product_series(12)[12] == -1


def test_pentagonal_support_is_pentagonal_numbers():
    series = _pentagonal_series(200)
    pent = set()
    j = 1
    while j * (3 * j - 1) // 2 <= 200:
        pent.add(j * (3 * j - 1) // 2)
        pent.add(j * (3 * j + 1) // 2)
        j += 1
    for e, c in enumerate(series):
        if e == 0:
            assert c == 1
        elif c != 0:
            assert abs(c) == 1 and e in pent


# -- eta expansion ---------------------------------------------------------------


def test_eta_golden_weight4_level5():
    table = expand_eta_quotient(F54, 9)
    assert table.raw == (1, -4, 2, 8, -5, -8, 6, 0, -23)


def test_eta_discriminant_prefix():
    table = expand_eta_quotient(DELTA, 10)
    assert table.raw == oracles.TAU_REF


def test_eta_matches_naive_expansion():
    table = expand_eta_quotient(F54, 40)
    naive = oracles.naive_eta_qexpansion([(1, 4), (5, 4)], 40)
    assert list(table.raw) == naive[1:41]


def test_eta_trivial_bound():
    assert expand_eta_quotient(F54, 1).raw == (1,)


def test_eta_determinism_under_reordering():
    d_rev = NewformDescriptor("5.4.a.a", 4, 5, ((5, 4), (1, 4)))
    assert expand_eta_quotient(d_rev, 500).raw == expand_eta_quotient(F54, 500).raw


def test_eta_wide_integers_beyond_int64():
    # weight-12 coefficients overflow 64-bit well below 10^4; the engine must
    # keep exact values (validated against Hecke multiplicativity)
    table = expand_eta_quotient(DELTA, 4000)
    assert max(abs(c) for c in table.raw) > 2**63
    assert table.a_int(3996) == table.a_int(4) * table.a_int(999)  # gcd(4, 999) = 1


def test_eta_negative_exponent_division():
    # eta^36 / eta^12 must reproduce eta^24 exactly (the exponents cancel
    # per divisor before any pass runs)
    combined = eta_product_qexpansion(((1, 36), (1, -12)), 12)
    plain = eta_product_qexpansion(((1, 24),), 12)
    assert combined.tolist() == plain.tolist()
    assert tuple(plain[1:11].tolist()) == oracles.TAU_REF
    # eta(2z)^16 / eta(z)^8 divides for real; its a-priori bound is far
    # beyond 2^62, so the lift needs many moduli
    recipe = ((2, 16), (1, -8))
    assert eta_bound(recipe, 200) > 2**150
    assert eta_product_qexpansion(recipe, 200).tolist() == oracles.naive_eta_qexpansion(recipe, 200)


_DIVISORS = (1, 2, 3, 4, 6)
_EXPONENTS = tuple(e for e in range(-4, 13) if e)


@st.composite
def eta_recipes(draw):
    recipe = draw(
        st.lists(
            st.tuples(st.sampled_from(_DIVISORS), st.sampled_from(_EXPONENTS)),
            min_size=1,
            max_size=3,
        )
    )
    # close the vanishing order to a multiple of 24; no single factor
    # reaches a gap of 13, 17 or 19, so (6, 2) first shifts it by 12
    while gap := -sum(d * e for d, e in recipe) % 24:
        fits = [(d, e) for d in _DIVISORS for e in _EXPONENTS if d * e % 24 == gap]
        recipe.append(draw(st.sampled_from(fits or [(6, 2)])))
    assume(sum(d * e for d, e in recipe) > 0)
    return tuple(recipe)


@settings(max_examples=80, deadline=None)
@given(eta_recipes(), st.integers(1, 40))
@example(((8, 3),), 30)  # one multiplying pass: primitive ((1, 3),)
@example(((1, -8), (2, 16)), 1)  # a division recipe, at its shortest lengths
@example(((1, -8), (2, 16)), 2)
@example(((1, -8), (2, 16)), 3)
@example(((1, 3), (7, 3)), 6)  # q^5 is below the cube of eta(7z)'s first term
@example(((1, -2), (2, 13)), 42)  # divided in the word: the l1 bound is below 2^63 to q^42
def test_eta_engine_matches_dense_oracle(recipe, n_max):
    expected = oracles.naive_eta_qexpansion(recipe, n_max)
    assert max(abs(c) for c in expected) <= eta_bound(recipe, n_max)
    assert eta_product_qexpansion(recipe, n_max).tolist() == expected


@settings(max_examples=60, deadline=None)
@given(
    eta_recipes(),
    st.sampled_from((2, 3, 6)),
    st.integers(-9, 9).filter(bool),
    st.integers(-9, 9),
    st.booleans(),
    st.integers(1, 40),
)
def test_dilated_recipes_reuse_the_primitive_expansion(recipe, g, c, c_prim, dilated_first, n_max):
    # a recipe with divisors g*d is the primitive recipe read at q^g: alone,
    # and beside the primitive recipe (which then shares its expansion), the
    # combination matches the dense oracle in either order
    dilated = tuple((g * d, e) for d, e in recipe)
    terms = [(c, dilated)] + ([(c_prim, recipe)] if c_prim else [])
    if not dilated_first:
        terms.reverse()
    expected = [0] * (n_max + 1)
    for weight, r in terms:
        for n, a in enumerate(oracles.naive_eta_qexpansion(r, n_max)):
            expected[n] += weight * a
    assert coeffs.eta_combination(terms, n_max).tolist() == expected


def _spy_moduli(monkeypatch):
    """Record (bound, moduli) for every choice of CRT moduli."""
    calls, choose = [], coeffs._crt_moduli

    def spy(bound):
        calls.append((bound, choose(bound)))
        return calls[-1][1]

    monkeypatch.setattr(coeffs, "_crt_moduli", spy)
    return calls


@pytest.mark.parametrize("label", [None, "5.4.a.a"])
def test_user_expand_picks_moduli_by_the_l1_bound(monkeypatch, capsys, label):
    # a recipe given on the command line, even under a bundled label, is not
    # known to be a newform: its moduli cover the l1 bound of its factors
    calls = _spy_moduli(monkeypatch)
    argv = ["expand", "--eta", "1:4,5:4", "--n", "300"] + (["--label", label] if label else [])
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert [bound for bound, _ in calls] == [eta_bound(((1, 4), (5, 4)), 300)]


def test_division_recipe_keeps_the_l1_bound(monkeypatch):
    recipe = ((2, 16), (1, -8))
    calls = _spy_moduli(monkeypatch)
    assert eta_product_qexpansion(recipe, 300).tolist() == oracles.naive_eta_qexpansion(recipe, 300)
    [(bound, moduli)] = calls
    assert bound == eta_bound(recipe, 300) and len(moduli) > 2


def test_level6_build_uses_the_word_at_1e5(monkeypatch):
    calls = _spy_moduli(monkeypatch)
    bundled.build_6_6_a_a(10**5)
    bound, moduli = calls[-1]
    assert bound == bundled.newform_bound(6, 10**5)
    assert moduli == (2**64,)
    terms = bundled._LEVEL6_TERMS
    assert len(coeffs._crt_moduli(sum(abs(c) * eta_bound(r, 10**5) for c, r in terms))) == 3


def test_word_engine_raises_no_warning(monkeypatch):
    # uint64 scalars warn when they wrap and a negative Python int does not
    # mix with a uint64 array: every word step is array arithmetic on uint64
    calls = _spy_moduli(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for label in ("5.4.a.a", "6.6.a.a", "1.12.a.a"):  # 1.12.a.a passes 2^63
            bundled.bundled_table(label, 3000)
        r = ((2, 16), (1, -8))
        for n_max in (13, 14, 300):  # divided in the word, then on primes
            assert eta_product_qexpansion(r, n_max).tolist() == oracles.naive_eta_qexpansion(r, n_max)
    words = [moduli == (2**64,) for _, moduli in calls]
    assert words == [True, True, False, True, False, False]


@pytest.mark.parametrize("label", ["5.4.a.a", "1.12.a.a"])
@pytest.mark.parametrize("n_max", [1, 9, 250, 4000])
def test_newform_bound_builds_equal_l1_builds(label, n_max):
    descriptor = bundled.descriptor_for(label)
    newform = bundled.bundled_table(label, n_max)
    assert newform.raw == expand_eta_quotient(descriptor, n_max).raw
    if label == "1.12.a.a" and n_max == 4000:
        # past 2^63, on fewer moduli than the l1 bound asks for
        assert max(map(abs, newform.raw)) > 2**63
        k = descriptor.weight
        l1 = eta_bound(descriptor.eta_recipe, n_max)
        assert len(coeffs._crt_moduli(bundled.newform_bound(k, n_max))) < len(coeffs._crt_moduli(l1))


@pytest.mark.parametrize("n_max", [1, 9, 10, 257, 5000])
def test_level6_newform_bound_build_equals_l1_build(n_max):
    length = max(n_max, 9)
    l1 = coeffs.eta_combination(bundled._LEVEL6_TERMS, length)[1 : n_max + 1]
    assert bundled.build_6_6_a_a(n_max).raw == tuple(l1.tolist())


@pytest.mark.parametrize("label, dense_passes", [("5.4.a.a", 2), ("6.6.a.a", 8), ("1.12.a.a", 6)])
def test_products_start_from_their_two_costliest_passes(monkeypatch, label, dense_passes):
    # each primitive product starts from the exact product of two
    # multiplying passes, so only the rest run densely: eta(z)^4 eta(5z)^4
    # 4 -> 2; eta(z)^6 eta(3z)^6 4 -> 2 and eta(z) eta(2z) eta(3z)^5 eta(6z)^5
    # 8 -> 6; eta(z)^24 8 -> 6
    calls, real = [], coeffs._apply_sparse

    def spy(rows, terms, moduli):
        calls.append(len(terms))
        return real(rows, terms, moduli)

    monkeypatch.setattr(coeffs, "_apply_sparse", spy)
    bundled.bundled_table(label, 2000)
    assert len(calls) == dense_passes


def test_crt_lift_inverts_residues():
    # for each prime count, the largest bound it covers, with values spread
    # over all of it; a bound of one or two primes is taken by the word, so
    # only this test lifts from so few primes
    primes = coeffs._crt_moduli(2 ** (31 * 12))
    for count in range(1, 13):
        moduli = primes[:count]
        bound = (math.prod(moduli) - 3) // 2
        assert coeffs._crt_moduli(bound) == (moduli if count > 2 else (2**64,))
        rnd = random.Random(count)
        values = [rnd.randint(-bound, bound) for _ in range(500)] + [bound, -bound, 0]
        residues = [np.array([v % p for v in values], dtype=np.int64) for p in moduli]
        assert coeffs._crt_lift(residues, moduli).tolist() == values, count
    # the word: residues modulo 2^64, read back in two's complement
    bound = 2**63 - 1
    assert coeffs._crt_moduli(bound) == (2**64,) and coeffs._crt_moduli(bound + 1) != (2**64,)
    rnd = random.Random(0)
    values = [rnd.randint(-bound, bound) for _ in range(500)] + [bound, -bound, 0, 1, -1]
    residues = [np.array([v % 2**64 for v in values], dtype=np.uint64)]
    lifted = coeffs._crt_lift(residues, (2**64,))
    assert lifted.dtype == np.int64 and lifted.tolist() == values


def test_descriptor_validation():
    with pytest.raises(InvariantError):
        NewformDescriptor("x", 3, 5)  # odd weight
    with pytest.raises(InvariantError):
        NewformDescriptor("x", 4, 0)  # level below 1


def test_recipe_validation():
    with pytest.raises(RecipeError):
        NewformDescriptor("x", 4, 5, ((1, 4), (5, 3)))  # odd weight sum
    with pytest.raises(RecipeError):
        NewformDescriptor("x", 4, 5, ((1, 5), (5, 3)))  # v not integral
    with pytest.raises(RecipeError):
        NewformDescriptor("x", 4, 5, ((2, 4), (5, 4)))  # 2 does not divide 5
    with pytest.raises(RecipeError):
        expand_eta_quotient(NewformDescriptor("x", 4, 5, None), 10)


def test_deligne_bound_sweep(f54_table):
    k = f54_table.descriptor.weight
    mask = np.ones(10**4 + 1, dtype=bool)
    mask[:2] = False
    for q in range(2, 101):
        if mask[q]:
            mask[q * q :: q] = False
    for p in np.flatnonzero(mask):
        p = int(p)
        if p == 5:
            continue
        a = f54_table.a_int(p) / p ** ((k - 1) / 2)
        assert abs(a) <= 2 + 1e-12, p


def test_multiplicativity_spot_check(f54_table, delta_table):
    for table in (f54_table, delta_table):
        for m in range(2, 51):
            for n in range(2, 51):
                if math.gcd(m, n) == 1 and m * n <= table.bound:
                    assert table.a_int(m * n) == table.a_int(m) * table.a_int(n)


# -- normalized values --------------------------------------------------------------


def test_normalized_prime_values(f54_table, f66_table):
    assert f54_table.normalized_values([2])[0] == pytest.approx(-4 / 2**1.5, abs=1e-9)
    assert f66_table.normalized_values([7])[0] == pytest.approx(176 / 7**2.5, abs=1e-9)
    with pytest.raises(OutOfRangeError):
        f54_table.normalized_values([2, 10**6 + 3])


def test_normalized_zero_coefficient():
    table = CoefficientTable(NewformDescriptor("toy", 2, 33), [1, 0, 1])
    assert table.normalized_values([2]).tolist() == [0.0]


@pytest.mark.parametrize("table", ["f54_table", "f66_table", "delta_table"])
def test_normalized_values_match_float_loop(request, table):
    # the gather rounds each A(p) to a float once, as float(int) does; 1.12.a.a
    # is stored as exact Python ints, the other two as int64
    table = request.getfixturevalue(table)
    primes = coeffs.sieve(table.bound).primes
    e = (table.descriptor.weight - 1) / 2
    loop = np.array([float(table.a_int(p)) for p in primes.tolist()]) / np.power(primes.astype(float), e)
    assert table.normalized_values(primes).tobytes() == loop.tobytes()


@settings(max_examples=200, deadline=None)
@given(st.integers(-(2**54), 2**54))
def test_normalized_values_round_beyond_2_53(A2):
    # at weight 108, |A(2)| <= 2 * 2^53.5 is an int64 that a float may not
    # hold exactly; the int64 -> float cast must round as float(int) does
    table = CoefficientTable(NewformDescriptor("t", 108, 1), [1, A2, 0])
    assert table._values.dtype == np.int64
    assert table.normalized_values([2])[0] == float(A2) / 2**53.5


# -- file format ---------------------------------------------------------------------


def test_file_round_trip(tmp_path, f54_table):
    path = tmp_path / "f54.txt"
    write_coefficient_file(path, f54_table)
    loaded = load_coefficient_file(path)
    assert loaded.raw == f54_table.raw
    assert loaded.descriptor.weight == 4 and loaded.descriptor.level == 5


def test_failed_write_keeps_previous_file(tmp_path, monkeypatch, f54_table):
    path = tmp_path / "f54.txt"
    write_coefficient_file(path, CoefficientTable(F54, f54_table.raw[:20]))
    before = path.read_bytes()

    def failing_fsync(fd):
        raise OSError("disk full")

    monkeypatch.setattr(os, "fsync", failing_fsync)
    with pytest.raises(OSError, match="disk full"):
        write_coefficient_file(path, f54_table)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["f54.txt"]


@pytest.mark.parametrize("offset", [-1, 0, 1])
@pytest.mark.parametrize("name, dtype", [("f54_table", np.int64), ("delta_table", object)])
def test_written_file_is_the_line_format_at_block_bounds(tmp_path, request, table_prefix, name, dtype, offset):
    # one line short of a block, a whole block and one line past it, for an
    # int64 table and for Delta's, which outgrows 2^63
    table = table_prefix(request.getfixturevalue(name), coeffs._BLOCK_LINES + offset)
    assert table._values.dtype == dtype
    d = table.descriptor
    rows = "".join(f"{n} {a}\n" for n, a in enumerate(table.raw, start=1))
    path = tmp_path / "t.txt"
    write_coefficient_file(path, table)
    assert path.read_bytes() == f"label={d.label} k={d.weight} N={d.level}\n{rows}".encode()


@pytest.mark.parametrize("lines", [2**17, 2**19])
def test_write_memory_does_not_grow_with_the_table(tmp_path, lines):
    # the text is held one block at a time, never the whole file's
    table = bundled.bundled_table("5.4.a.a", lines)
    tracemalloc.start()
    try:
        write_coefficient_file(tmp_path / "t.txt", table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000
    assert load_coefficient_file(tmp_path / "t.txt").raw == table.raw


def test_concurrent_writers_of_one_path_each_publish_a_whole_file(tmp_path, monkeypatch, f54_table, table_prefix):
    # one writer pauses after its first block while another thread writes a
    # shorter table to the same path; each writes its own temp file, so the
    # file holds one whole table and neither rename fails
    path = tmp_path / "f54.txt"
    long, short = (table_prefix(f54_table, n) for n in (coeffs._BLOCK_LINES + 5, 20))
    blocks = coeffs.coefficient_file_blocks
    paused, resume = threading.Event(), threading.Event()

    def pausing_blocks(table):
        pieces = blocks(table)
        if table is long:
            yield next(pieces)  # the header
            yield next(pieces)  # the first block
            paused.set()
            resume.wait(timeout=30)
        yield from pieces

    monkeypatch.setattr(coeffs, "coefficient_file_blocks", pausing_blocks)
    errors = []

    def write_long():
        try:
            write_coefficient_file(path, long)
        except Exception as exc:
            errors.append(exc)

    writer = threading.Thread(target=write_long)
    writer.start()
    try:
        assert paused.wait(timeout=30)
        write_coefficient_file(path, short)
    finally:
        resume.set()
        writer.join(timeout=30)
    assert not writer.is_alive()
    assert errors == []
    assert path.read_bytes() in {"".join(blocks(t)).encode() for t in (long, short)}
    assert [p.name for p in tmp_path.iterdir()] == ["f54.txt"]


def test_file_golden_66(tmp_path):
    path = tmp_path / "6.6.a.a.q9.txt"
    rows = "".join(f"{n} {a}\n" for n, a in enumerate(bundled.SNAPSHOT_6_6_A_A, start=1))
    path.write_text(f"# first nine coefficients\nlabel=6.6.a.a k=6 N=6\n{rows}")
    table = load_coefficient_file(path)
    assert table.raw == bundled.SNAPSHOT_6_6_A_A


def test_file_empty_body(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("label=6.6.a.a k=6 N=6\n")
    with pytest.raises(GapError):
        load_coefficient_file(path)


def test_file_gap(tmp_path):
    path = tmp_path / "gap.txt"
    path.write_text("label=6.6.a.a k=6 N=6\n1 1\n3 -9\n")
    with pytest.raises(GapError):
        load_coefficient_file(path)


def test_file_bad_header(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("label 6.6.a.a k=6 N=6\n1 1\n")
    with pytest.raises(ParseError):
        load_coefficient_file(path)


def test_file_deligne_violation(tmp_path):
    lines = ["label=6.6.a.a k=6 N=6"]
    vals = [1, 4, -9, 16, -66, -36, 300]  # |300| > 2 * 7^{2.5} ~ 259.3
    lines += [f"{i + 1} {v}" for i, v in enumerate(vals)]
    path = tmp_path / "bad66.txt"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(InvariantError):
        load_coefficient_file(path)


def test_file_value_beyond_float_range(tmp_path):
    # the float pre-screen of the Deligne bound cannot hold A(2); the exact
    # check refuses it
    path = tmp_path / "huge.txt"
    path.write_text(f"label=t k=4 N=7\n1 1\n2 {10**400}\n")
    with pytest.raises(InvariantError, match=r"\|A\(2\)\|"):
        load_coefficient_file(path)


@pytest.mark.parametrize("excess", [0, 1])
def test_deligne_bound_is_exact_beyond_float_precision(excess):
    # A(809)^2 - 4 * 809^11 is far below a float's precision: the ratio reads
    # 2.0 either way, and only the exact re-check tells the two apart
    A = math.isqrt(4 * 809**11) + excess
    values = [1] + [0] * 807 + [A]
    assert abs(float(A) / 809**5.5 - 2) < 1e-15
    if excess:
        with pytest.raises(InvariantError, match=r"\|A\(809\)\|"):
            CoefficientTable(NewformDescriptor("t", 12, 1), values)
    else:
        assert CoefficientTable(NewformDescriptor("t", 12, 1), values).a_int(809) == A


def test_file_comments(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("# header comment\nlabel=t k=2 N=33\n1 1  # unit\n2 0\n")
    assert load_coefficient_file(path).raw == (1, 0)


_HEAD = "label=5.4.a.a k=4 N=5\n"
_BODY = "1 1\n2 -4\n3 2\n4 8\n5 -5\n6 -8\n"


@pytest.mark.parametrize(
    "text",
    [
        pytest.param("# written by hand\n\n" + _HEAD + _BODY, id="comment-before-header"),
        pytest.param(_HEAD + _BODY.replace("\n", "  # note\n"), id="trailing-comments"),
        pytest.param("\n" + _HEAD + "\n" + _BODY.replace("\n", "\n \n\n"), id="blank-lines"),
        pytest.param(_HEAD + _BODY.replace(" ", "\t"), id="tabs"),
        pytest.param(_HEAD + _BODY.replace("\n", " \t \n"), id="trailing-spaces"),
        pytest.param((_HEAD + _BODY).replace("\n", "\r\n"), id="crlf"),
        pytest.param((_HEAD + _BODY).replace("\n", "\r"), id="lone-cr"),
        pytest.param(_HEAD + "+1 +1\n2 -4\n003 2\n4 8\n5 -5\n6 -8\n", id="signs-and-zeros"),
    ],
)
def test_file_format_accepted(tmp_path, text):
    path = tmp_path / "t.txt"
    path.write_bytes(text.encode())
    table = load_coefficient_file(path)
    assert table.raw == (1, -4, 2, 8, -5, -8)
    assert (table.descriptor.label, table.descriptor.weight, table.descriptor.level) == ("5.4.a.a", 4, 5)


@pytest.mark.parametrize(
    "text, error, line",
    [
        pytest.param(_HEAD + "1 1\n2 -4 0\n", ParseError, 3, id="three-fields"),
        pytest.param(_HEAD + "1 1\n2\n", ParseError, 3, id="one-field"),
        pytest.param(_HEAD + "1 1\n2.0 -4\n", ParseError, 3, id="float-index"),
        pytest.param(_HEAD + "1 1\n2 -4.0\n", ParseError, 3, id="float-value"),
        pytest.param(_HEAD + "1 1\n2e0 -4\n", ParseError, 3, id="exponent-index"),
        pytest.param(_HEAD + "1 1\n2 1e3\n", ParseError, 3, id="exponent-value"),
        pytest.param(_HEAD + "1 1\n--2 -4\n", ParseError, 3, id="double-sign-index"),
        pytest.param(_HEAD + "1 1\n2 --5\n", ParseError, 3, id="double-sign-value"),
        pytest.param(_HEAD + "1 1\n2 -4\n4 8\n", GapError, 4, id="gap"),
        pytest.param(_HEAD + "1 1\n2 -4\n2 -4\n3 2\n", GapError, 4, id="duplicate"),
        pytest.param(_HEAD + "2 -4\n", GapError, 2, id="no-first-index"),
        pytest.param("# c\n\n" + _HEAD + "1 1\n\n# c\n2 -4 0\n", ParseError, 7, id="line-counts-comments"),
        pytest.param("label 5.4.a.a k=4 N=5\n1 1\n", ParseError, 1, id="bad-header"),
        pytest.param("# c\nlabel=5.4.a.a k=four N=5\n1 1\n", ParseError, 2, id="bad-header-after-comment"),
        pytest.param("# only a comment\n", ParseError, 1, id="no-header"),
        pytest.param(_HEAD, GapError, None, id="empty-body"),
        pytest.param(_HEAD + "# c\n\n", GapError, None, id="comment-only-body"),
        # int() takes these; the format does not
        pytest.param(_HEAD + "1 1\n2 -4\n3 2\n4 8\n5 -5\n6 -8\n7 6\n8 0\n9 -2_3\n", ParseError, 10, id="underscore-value"),
        pytest.param(_HEAD + "1 1\n\u0662 -4\n", ParseError, 3, id="non-ascii-index"),
        pytest.param(_HEAD + "1 1\n2 -\u0664\n", ParseError, 3, id="non-ascii-value"),
        # a file cut short: the last line has no newline
        pytest.param(_HEAD + "1 1\n2 -4", ParseError, 3, id="unterminated-last-line"),
        pytest.param(_HEAD + "1 1\n2 -4\n# c", ParseError, 4, id="unterminated-comment"),
        pytest.param(_HEAD + "1 1\n2 -4\n3", ParseError, 4, id="cut-after-index"),
        pytest.param(_HEAD.rstrip("\n"), ParseError, 1, id="unterminated-header"),
        pytest.param("label=5.4.a.a k=\u0664 N=5\n1 1\n", ParseError, 1, id="non-ascii-header-digit"),
    ],
)
def test_file_format_rejected(tmp_path, text, error, line):
    path = tmp_path / "t.txt"
    path.write_bytes(text.encode())
    with pytest.raises(ParseError) as excinfo:
        load_coefficient_file(path)
    assert excinfo.type is error
    assert excinfo.value.line_number == line


_LONG_BODY = "".join(f"{n} 0\n" for n in range(1, 2001))  # past the first 8 KiB read


@pytest.mark.parametrize(
    "data, line",
    [
        pytest.param(_HEAD.encode() + b"1 1\n2 -\xff4\n", 3, id="value"),
        pytest.param(_HEAD.encode() + b"1 1\n# \xff\n2 -4\n", 3, id="comment"),
        pytest.param(b"label=5.4.a.\xff k=4 N=5\n1 1\n", 1, id="header"),
        pytest.param(b"# \xc3\n" + _HEAD.encode() + b"1 1\n", 1, id="comment-before-header"),
        pytest.param(_HEAD.encode() + _LONG_BODY.encode() + b"2001 \xff\n", 2002, id="late-line"),
    ],
)
def test_file_not_utf8_rejected(tmp_path, data, line):
    path = tmp_path / "t.txt"
    path.write_bytes(data)
    with pytest.raises(ParseError) as excinfo:
        load_coefficient_file(path)
    assert excinfo.type is ParseError
    assert excinfo.value.line_number == line


@pytest.mark.xfail(
    strict=True,
    raises=pytest.fail.Exception,
    reason="ROADMAP item 2: ingest checks only prime indices, so A(6) = -37 loads and is served",
)
def test_a_composite_coefficient_that_breaks_multiplicativity_is_refused(tmp_path):
    # A(6) = A(2) A(3) = -36 for 6.6.a.a; no prime index changes
    path = tmp_path / "6.6.a.a.txt"
    write_coefficient_file(path, bundled.bundled_table("6.6.a.a", 60))
    text = path.read_text()
    assert "\n6 -36\n" in text
    path.write_text(text.replace("\n6 -36\n", "\n6 -37\n"))
    with pytest.raises((ParseError, InvariantError)):
        load_coefficient_file(path)


def test_truncated_file_never_loads_wrong_values(tmp_path):
    # cut the file at every byte offset: each cut is refused, or it ends on
    # a line boundary and loads a correct prefix of the table
    table = bundled.bundled_table("6.6.a.a", 60)
    full = tmp_path / "full.txt"
    write_coefficient_file(full, table)
    data = full.read_bytes()
    path = tmp_path / "cut.txt"
    loaded = 0
    for cut in range(len(data) + 1):
        path.write_bytes(data[:cut])
        try:
            prefix = load_coefficient_file(path).raw
        except ParseError:
            continue
        assert prefix == table.raw[: len(prefix)], cut
        loaded += 1
    assert loaded == table.bound


_WIDE = f"label=7.4.x.y k=4 N=7\n1 1\n2 0\n3 0\n4 {2**70}\n"


@pytest.mark.parametrize("text", [_HEAD + _BODY, _WIDE], ids=["int64", "exact"])
def test_compressor_suffixes_are_plain_text(tmp_path, text):
    # numpy.loadtxt would decompress a path with these suffixes; a coefficient
    # file is plain text whatever its name, and a compressed one is refused
    (tmp_path / "t.txt").write_text(text, encoding="utf-8")
    expected = load_coefficient_file(tmp_path / "t.txt").raw
    for name in ("t.txt.gz", "t.txt.bz2", "t.txt.xz", "t.txt.lzma"):
        (tmp_path / name).write_text(text, encoding="utf-8")
        assert load_coefficient_file(tmp_path / name).raw == expected, name
    path = tmp_path / "z.txt.gz"
    path.write_bytes(gzip.compress(text.encode()))
    with pytest.raises(ParseError) as excinfo:
        load_coefficient_file(path)
    assert excinfo.type is ParseError
    assert excinfo.value.line_number == 1


def test_file_beyond_one_read_chunk(tmp_path):
    # many read chunks, CRLF endings, and lines before the header that the
    # body parse must skip
    n = 200_000
    values = [(-1) ** k * k * k for k in range(1, n + 1)]
    values[0] = 1
    for p in coeffs.sieve(n).primes.tolist():
        values[p - 1] = 0  # A(p) = 0 passes every prime check
    lines = ["# comment", "", " ", "label=t k=2 N=1"] + [f"{k} {v}" for k, v in enumerate(values, start=1)]
    path = tmp_path / "t.txt"
    path.write_bytes(("\r\n".join(lines) + "\r\n").encode())
    assert load_coefficient_file(path).raw == tuple(values)
    lines[-1] = f"{n} 1.0"
    path.write_bytes(("\r\n".join(lines) + "\r\n").encode())
    with pytest.raises(ParseError) as excinfo:
        load_coefficient_file(path)
    assert excinfo.type is ParseError
    assert excinfo.value.line_number == len(lines)


def test_file_loads_from_a_removed_working_directory(tmp_path, monkeypatch, delta_table):
    # numpy resolves the working directory before it opens a path; with that
    # directory gone the loader reads from its own open handle.  Delta's
    # table outgrows int64, so both parses run.
    path = tmp_path / "delta.txt"
    write_coefficient_file(path, delta_table)
    bad = tmp_path / "bad.txt"
    bad.write_text("label=t k=2 N=1\n1 1\n2 x\n")
    gone = tmp_path / "gone"
    gone.mkdir()
    monkeypatch.chdir(gone)
    gone.rmdir()
    assert load_coefficient_file(path).raw == delta_table.raw
    with pytest.raises(ParseError) as excinfo:
        load_coefficient_file(bad)
    assert excinfo.value.line_number == 3


def test_file_round_trip_beyond_int64(tmp_path):
    table = bundled.bundled_table("1.12.a.a", 4000)
    assert max(abs(c) for c in table.raw) > 2**63
    path = tmp_path / "delta.txt"
    write_coefficient_file(path, table)
    loaded = load_coefficient_file(path)
    assert loaded.raw == table.raw
    assert all(type(c) is int for c in loaded.raw)


_INT64_EDGES = (2**63 - 1, -(2**63 - 1), -(2**63), 2**63, -(2**63) - 1, 2**70, -(2**70))


@st.composite
def edge_tables(draw):
    # A(p) = 0 passes every prime check, so the composite entries are free
    primes = set(coeffs.sieve(40).primes.tolist())
    entries = st.one_of(st.integers(-99, 99), st.sampled_from(_INT64_EDGES))
    return [1] + [0 if n in primes else draw(entries) for n in range(2, draw(st.integers(1, 40)) + 1)]


def _fits_int64(values):
    return all(-(2**63) <= v < 2**63 for v in values)


@settings(max_examples=150, deadline=None)
@given(edge_tables(), st.integers(1, 40))
def test_table_round_trip_int64_or_exact(tmp_path_factory, values, cut):
    path = tmp_path_factory.mktemp("round") / "t.txt"
    write_coefficient_file(path, CoefficientTable(NewformDescriptor("t", 2, 1), values))
    loaded = load_coefficient_file(path)
    prefix = load_coefficient_file(path, cut)
    for table, expected in ((loaded, values), (prefix, values[:cut])):
        assert table.raw == tuple(expected)
        assert table._values.dtype == (np.int64 if _fits_int64(expected) else object)
        assert all(type(v) is int for v in table.raw)
        assert all(type(table.a_int(n)) is int for n in range(1, table.bound + 1))


@pytest.mark.parametrize("wide", [False, True], ids=["int64", "exact"])
@pytest.mark.parametrize(
    "field, value",
    [
        pytest.param("+5", 5, id="plus-sign"),
        pytest.param("1_0", None, id="underscore"),
        pytest.param("\u0664", None, id="arabic-indic-digit"),
        pytest.param("\uff15", None, id="fullwidth-digit"),
        pytest.param("5.0", None, id="float"),
        pytest.param("0x5", None, id="hex"),
    ],
)
def test_int64_field_grammar(tmp_path, capsys, field, value, wide):
    # the same grammar on both parses: a wide table (A(4) = 2^70) fails the
    # int64 parse and is read again as exact integers
    path = tmp_path / "7.4.x.y.txt"
    tail = f"4 {2**70}\n" if wide else ""
    path.write_bytes(f"label=7.4.x.y k=4 N=7\n1 1\n2 {field}\n3 0\n{tail}".encode())
    argv = ["--cache-dir", str(tmp_path), "expand", "--label", "7.4.x.y", "--n", "3"]
    code = cli.main(argv)
    out, err = capsys.readouterr()
    if value is None:
        with pytest.raises(ParseError) as excinfo:
            load_coefficient_file(path)
        assert excinfo.value.line_number == 3
        assert code == 3 and "line 3" in err
    else:
        table = load_coefficient_file(path)
        assert table.a_int(2) == value
        assert table._values.dtype == (object if wide else np.int64)
        assert code == 0 and f"2 {value}" in out.splitlines()


# -- remote fetch ----------------------------------------------------------------------


def test_fetch_matches_eta(tmp_path, monkeypatch, coeff_server):
    # the client only returns the table; cli.resolve_table caches it
    server, base = coeff_server
    monkeypatch.chdir(tmp_path)
    table = download_table("5.4.a.a", 9, base)
    assert table.raw == (1, -4, 2, 8, -5, -8, 6, 0, -23)
    assert not any(tmp_path.iterdir()) and not any(coeffs.cache_file("5.4.a.a").parent.iterdir())


def test_fetch_66_snapshot(coeff_server):
    server, base = coeff_server
    table = download_table("6.6.a.a", 9, base)
    assert table.raw == bundled.SNAPSHOT_6_6_A_A


def _serve_5_4_a_a_as(payload_server, n):
    """The server's base URL; every GET answers 5.4.a.a's first n
    coefficients, which stand in for the unbundled 5.4.b.b of the same
    weight and level."""
    server, base = payload_server
    server.payload = str(list(bundled.bundled_table("5.4.a.a", n).raw))
    return base


def test_fetch_cache_idempotent(tmp_path, payload_server):
    base = _serve_5_4_a_a_as(payload_server, 20)
    t1 = cli.resolve_table("5.4.b.b", 20, tmp_path, base)
    assert len(payload_server[0].hits) == 1
    t2 = cli.resolve_table("5.4.b.b", 20, tmp_path, base)
    assert len(payload_server[0].hits) == 1  # warm cache: no network
    assert t1.raw == t2.raw == cached_table("5.4.b.b", 20, tmp_path).raw


def test_fetch_unknown_label(coeff_server):
    server, base = coeff_server
    with pytest.raises(NotFoundError):
        download_table("99.99.z.z", 9, base)


def test_leftover_lock_file_does_not_block_fetch(tmp_path, payload_server):
    # a "<label>.txt.lock" left by a crashed writer is ignored: cache writes
    # are atomic renames and need no lock
    base = _serve_5_4_a_a_as(payload_server, 9)
    (tmp_path / "5.4.b.b.txt.lock").touch()
    table = cli.resolve_table("5.4.b.b", 9, tmp_path, base)
    assert table.raw == (1, -4, 2, 8, -5, -8, 6, 0, -23)
    assert load_coefficient_file(tmp_path / "5.4.b.b.txt").raw == table.raw


def test_fetch_network_error():
    # an unreachable host, and base URLs that are no http URL
    for base in ("http://127.0.0.1:9", "127.0.0.1:9", "http://127.0.0.1:9/a b"):
        with pytest.raises(NetworkError):
            download_table("5.4.a.a", 9, base, timeout=0.5)


def test_fetch_refuses_a_payload_that_is_not_utf8(payload_server):
    server, base = payload_server
    server.payload = b"[1, -4, 2\xff]"
    with pytest.raises(ParseError, match="not an integer list"):
        download_table("5.4.b.b", 3, base)


@pytest.mark.parametrize(
    "body, expected",
    [
        pytest.param("[1, -4, 2]", [1, -4, 2], id="json"),
        pytest.param(f"[1, {2**70}]", [1, 2**70], id="json-wide"),
        pytest.param(" 1, -4\n+2 ", [1, -4, 2], id="text"),
        pytest.param("[1, true, 2]", None, id="json-bool"),
        pytest.param("[1.9, 2]", None, id="json-float"),
        pytest.param("[1, 2.0]", None, id="json-integral-float"),
        pytest.param('["1", "1_0"]', None, id="json-strings"),
        pytest.param('{"a": 1}', None, id="json-object"),
        pytest.param("7", None, id="json-scalar"),
        pytest.param("1 \u0664 5", None, id="text-non-ascii-digit"),
        pytest.param("1 1_0", None, id="text-underscore"),
        pytest.param("1 2.0", None, id="text-float"),
    ],
)
def test_parse_remote_body(body, expected):
    if expected is None:
        with pytest.raises(ParseError):
            coeffs._parse_remote_body(body)
    else:
        assert coeffs._parse_remote_body(body) == expected


def test_fetch_refuses_bool_payload(tmp_path, capsys, payload_server):
    server, base = payload_server
    server.payload = "[1, true, 0]"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"base_url = {base}\n")
    argv = ["--config", str(cfg), "--cache-dir", str(tmp_path), "fetch", "--label", "7.4.x.y", "--n", "3"]
    assert cli.main(argv) == 3
    assert "not an integer list" in capsys.readouterr().err
    assert not (tmp_path / "7.4.x.y.txt").exists()


# -- bundled reconstruction ---------------------------------------------------------------


def test_level6_reconstruction_agrees_with_snapshot():
    table = bundled.bundled_table("6.6.a.a", 60)
    assert table.raw[:9] == bundled.SNAPSHOT_6_6_A_A
    # Hecke consistency at the ramified primes: A(p^r) = A(p)^r for p | N
    assert table.a_int(4) == table.a_int(2) ** 2
    assert table.a_int(8) == table.a_int(2) ** 3
    assert table.a_int(9) == table.a_int(3) ** 2
    # multiplicativity across the levels
    assert table.a_int(6) == table.a_int(2) * table.a_int(3)
    assert table.a_int(35) == table.a_int(5) * table.a_int(7)


def test_seed_cache(tmp_path, capsys):
    # fetch --seed-bundled looks up the default pair through resolve_table
    assert cli.main(["--cache-dir", str(tmp_path), "fetch", "--seed-bundled", "--n", "30"]) == 0
    assert capsys.readouterr().out == f"seeded {tmp_path / '5.4.a.a.txt'}\nseeded {tmp_path / '6.6.a.a.txt'}\n"
    table = load_coefficient_file(tmp_path / "6.6.a.a.txt")
    assert table.bound == 30
