import os
import random
import re
import subprocess
import sys
from fractions import Fraction as F
from itertools import permutations
from math import prod

import pytest
from hypothesis import example, given, settings, strategies as st
from schur_reference import decoded_schur

import taukit
from taukit import schur
from taukit.partitions import conjugate, contains, enumerate_up_to, hook_data, n_statistic
from taukit.poly import GradedPoly, mono, mono_weights, tvar, weighted_sum
from taukit.rspec import LinFactor, QLinFactor, RSpec, content_products, skew_content_product
from taukit.schur import (
    GenericTimes,
    MiwaTimes,
    NumericTimes,
    PrincipalInfinityTimes,
    PrincipalTimes,
    _grade_layout,
    _schur_numeric,
    characters,
    det_fraction_matrix,
    power_sums_basis,
    schur_pair_sum,
    schur_poly,
    schur_principal_value,
    skew_schur_poly,
)
from taukit.tau import tau_series
from taukit.verify import check_remark1

T = GenericTimes("t")


def poly_of(d, *terms):
    return GradedPoly(d, d, {mono(m): F(c) for m, c in terms})


# -- power sums -----------------------------------------------------------------


def brute_power_sums(d):
    """Coefficients of exp(sum t_i z^i) expanded term by term, z-degree <= d."""
    # series in z with GradedPoly coefficients: list index = z-power
    out = [GradedPoly.constant(1, d, d)] + [GradedPoly.zero(d, d) for _ in range(d)]
    xi = [GradedPoly.zero(d, d) for _ in range(d + 1)]
    for i in range(1, d + 1):
        xi[i] = GradedPoly.variable(tvar(i), d, d)
    power = [GradedPoly.constant(1, d, d)] + [GradedPoly.zero(d, d) for _ in range(d)]
    factorial = 1
    for k in range(1, d + 1):
        nxt = [GradedPoly.zero(d, d) for _ in range(d + 1)]
        for za in range(d + 1):
            if power[za].is_zero():
                continue
            for zb in range(1, d + 1 - za):
                nxt[za + zb] = nxt[za + zb] + power[za] * xi[zb]
        power = nxt
        factorial *= k
        for z in range(d + 1):
            out[z] = out[z] + power[z].scale(F(1, factorial))
    return out


def test_power_sums_first_three():
    p = power_sums_basis(3)
    assert p[1] == poly_of(3, ([(tvar(1), 1)], 1))
    assert p[2] == poly_of(3, ([(tvar(1), 2)], F(1, 2)), ([(tvar(2), 1)], 1))
    assert p[3] == poly_of(
        3, ([(tvar(1), 3)], F(1, 6)), ([(tvar(1), 1), (tvar(2), 1)], 1), ([(tvar(3), 1)], 1)
    )


def test_power_sums_at_grade_zero_are_one_in_the_box_zero():
    (p0,) = power_sums_basis(0)
    assert p0 == 1 and (p0.t_max, p0.b_max) == (0, 0)


def test_power_sums_match_exponential_expansion():
    assert power_sums_basis(6) == brute_power_sums(6)


# -- generic Schur values -----------------------------------------------------------


def test_schur_single_box():
    assert schur_poly((1,), T, 3) == poly_of(3, ([(tvar(1), 1)], 1))


def test_schur_column_two():
    got = schur_poly((1, 1), T, 4)
    assert got == poly_of(4, ([(tvar(1), 2)], F(1, 2)), ([(tvar(2), 1)], -1))


def test_schur_vanishes_beyond_variable_count():
    assert schur_poly((1, 1), MiwaTimes((F(1, 2),)), 4) == 0


def test_characters_by_hand():
    assert characters((2, 1))[(1, 1, 1)] == 2
    assert characters((2, 1))[(3,)] == -1
    assert characters((2, 2))[(2, 2)] == 2
    assert characters((2, 1), (1,)) == {(2,): 0, (1, 1): 2}
    assert characters((3,), (3,)) == {(): 1}


# generic rationals, so a wrong character cannot cancel by accident
NUMERIC = [F(3, 7), F(-2, 5), F(5, 3), F(-1, 4), F(7, 9), F(2, 11), F(-9, 8), F(4, 13), F(-3, 2)]


def substitute(p, values):
    total = F(0)
    for m, c in p.terms.items():
        for v, e in m:
            c *= values[v.index - 1] ** e
        total += c
    return total


def test_generic_schur_matches_numeric_jacobi_trudi():
    for lam in enumerate_up_to(9):
        generic = substitute(schur_poly(lam, T, 9), NUMERIC)
        assert generic == _schur_numeric(lam, (), NUMERIC, 9), lam


def test_generic_skew_matches_numeric_jacobi_trudi():
    parts = enumerate_up_to(7)
    for outer in parts:
        for inner in parts:
            if inner and inner != outer and contains(outer, inner):
                generic = substitute(skew_schur_poly(outer, inner, T, 7), NUMERIC)
                assert generic == _schur_numeric(outer, inner, NUMERIC, 7), (outer, inner)


@pytest.mark.parametrize("family", ["t", "b"])
def test_generic_schur_matches_the_term_by_term_reference(family):
    # every straight shape of weight <= 8 and every skew pair with outer of weight <= 6: terms and box
    times, small = GenericTimes(family), enumerate_up_to(6)
    cases = [(schur_poly(lam, times, 8), lam, (), 8) for lam in enumerate_up_to(8)]
    cases += [
        (skew_schur_poly(outer, inner, times, 6), outer, inner, 6)
        for outer in small
        for inner in small
        if contains(outer, inner)
    ]
    for got, outer, inner, d in cases:
        want = decoded_schur(outer, inner, family, d)
        assert (got.terms, got.t_max, got.b_max) == (want.terms, want.t_max, want.b_max), (outer, inner)


def test_quasi_homogeneity():
    for lam in enumerate_up_to(6):
        p = schur_poly(lam, T, 6)
        for m in p.terms:
            assert sum(mono_weights(m)) == sum(lam)


# -- the determinant kernel ---------------------------------------------------------


def leibniz(rows):
    """sum over permutations p of sign(p) prod_i rows[i][p(i)], read straight off the definition."""
    n = len(rows)
    total = F(0)
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * prod((F(rows[i][perm[i]]) for i in range(n)), start=F(1))
    return total


def kernel_matrices():
    """Seeded int/Fraction matrices of sizes 0-6 with mixed denominators, each with three variants: only its last
    row leads with a nonzero entry (a swap at the first step), its last row replaced by a combination of the rows
    above it (singular), and one column zeroed."""
    rng = random.Random("det_fraction_matrix")
    pool = [0, 0, 0, 1, -1, 2, -3, 7, F(1, 2), F(-2, 3), F(5, 6), F(3, 4), F(-7, 10), F(9, 14)]
    for n in range(7):
        for _ in range(8):
            rows = [[rng.choice(pool) for _ in range(n)] for _ in range(n)]
            yield rows
            if not n:
                continue
            swap = [row[:] for row in rows]
            for row in swap:
                row[0] = 0
            swap[-1][0] = F(2, 7)
            yield swap
            kept = rows[:-1]
            yield kept + [[sum((c * row[j] for c, row in zip((F(2, 3), -5), kept)), F(0)) for j in range(n)]]
            col = rng.randrange(n)
            yield [[0 if c == col else v for c, v in enumerate(row)] for row in rows]


def test_det_fraction_matrix_matches_leibniz():
    nonzero = 0
    for rows in kernel_matrices():
        det = det_fraction_matrix(rows)
        assert det == leibniz(rows), rows
        nonzero += det != 0
    assert nonzero > 50


@pytest.mark.parametrize(
    "rows, det",
    [
        ([], 1),
        ([[0, 1], [1, 0]], -1),
        ([[0, 0, 1], [1, 0, 0], [0, 1, 0]], 1),
        ([[1, 2, 3], [2, 4, 5], [1, 0, 0]], -2),
        ([[F(1, 2), F(1, 3)], [F(1, 4), F(1, 5)]], F(1, 60)),
        ([[2, 4], [F(1, 3), F(2, 3)]], 0),
    ],
    ids=["empty", "swap", "cycle", "late-swap", "mixed-denominators", "singular"],
)
def test_det_fraction_matrix_by_hand(rows, det):
    assert det_fraction_matrix(rows) == det


# -- bialternant oracle ----------------------------------------------------------------


def bialternant(lam, xs):
    """a_{lam+delta} / a_delta with explicit determinants; needs distinct xs."""
    n = len(xs)
    padded = tuple(lam) + (0,) * (n - len(lam))
    num = det_fraction_matrix([[x ** (padded[j] + n - 1 - j) for j in range(n)] for x in xs])
    den = det_fraction_matrix([[x ** (n - 1 - j) for j in range(n)] for x in xs])
    return num / den


def test_bialternant_agreement():
    xs_pool = [F(1, 2), F(2, 3), F(-1, 5), F(3)]
    for n in (1, 2, 3, 4):
        xs = xs_pool[:n]
        for lam in enumerate_up_to(5):
            if len(lam) > n:
                continue
            assert schur_poly(lam, MiwaTimes(tuple(xs)), 5) == bialternant(lam, xs)


def test_vanishing_when_length_exceeds_variables():
    xs = (F(1, 2), F(1, 3))
    for lam in enumerate_up_to(6):
        value = schur_poly(lam, MiwaTimes(xs), 6)
        if len(lam) > 2:
            assert value == 0
        else:
            assert value != 0


# -- skew Schur ---------------------------------------------------------------------


def test_skew_reduces_to_straight():
    kinds = [T, GenericTimes("b"), PrincipalInfinityTimes(), PrincipalInfinityTimes(F(1, 2))]
    for times in kinds + [make() for make in EVALUATED.values()]:
        one = GradedPoly.constant(1, 5, 5) if isinstance(times, GenericTimes) else F(1)
        for lam in enumerate_up_to(5):
            assert skew_schur_poly(lam, (), times, 5) == schur_poly(lam, times, 5), (times, lam)
            got = skew_schur_poly(lam, lam, times, 5)
            assert got == one and type(got) is type(one), (times, lam)


def test_skew_examples():
    got = skew_schur_poly((2, 1), (1,), T, 4)
    assert got == schur_poly((2,), T, 4) + schur_poly((1, 1), T, 4)
    assert got == poly_of(4, ([(tvar(1), 2)], 1))
    assert skew_schur_poly((2, 1), (2, 1), T, 4) == GradedPoly.constant(1, 4, 4)


def test_skew_rejects_non_contained():
    message = re.escape("inner (2,) not contained in outer (1,)")
    with pytest.raises(ValueError, match=message):
        skew_schur_poly((1,), (2,), T, 4)
    with pytest.raises(ValueError, match=message):
        skew_content_product(RSpec(), (1,), (2,), 0)


def test_skew_numeric_matches_generic_substitution():
    xs = (F(1, 2), F(1, 3))
    for outer in enumerate_up_to(5):
        for inner in enumerate_up_to(3):
            try:
                sk = skew_schur_poly(outer, inner, MiwaTimes(xs), 5)
            except ValueError:
                continue
            generic = skew_schur_poly(outer, inner, T, 5)
            values = MiwaTimes(xs).values(5)
            total = F(0)
            for m, c in generic.terms.items():
                prod = c
                for v, e in m:
                    prod *= values[v.index - 1] ** e
                total += prod
            assert sk == total


# -- Miwa substitutions ----------------------------------------------------------------


def test_miwa_times_values():
    assert MiwaTimes((F(1),)).values(4) == [F(1), F(1, 2), F(1, 3), F(1, 4)]
    assert MiwaTimes((F(1), F(1, 2))).values(2) == [F(3, 2), F(5, 8)]
    assert MiwaTimes((F(1), F(1, 2)), sign=-1).values(2) == [F(-3, 2), F(-5, 8)]


def test_miwa_minus_conjugates_with_parity_sign():
    # s_lam(-sum x^m/m) = (-1)^{|lam|} s_{lam'}(sum x^m/m)
    xs = (F(1, 2), F(1, 3), F(1, 5))
    for lam in enumerate_up_to(5):
        lhs = schur_poly(lam, MiwaTimes(xs, sign=-1), 5)
        rhs = schur_poly(conjugate(lam), MiwaTimes(xs), 5)
        assert lhs == (-1) ** sum(lam) * rhs


# N = 1, 2, 2, 3 Miwa variables, among them a 0 (in effect one variable fewer) and a repeated value (where a
# bialternant would read 0/0)
MIWA_XS = [(F(2, 3),), (F(0), F(-1, 2)), (F(-1, 2), F(-1, 2)), (F(2, 3), F(0), F(2, 3))]
SKEW_PAIRS = [(o, i) for o in enumerate_up_to(7) for i in enumerate_up_to(sum(o)) if contains(o, i)]


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("x", MIWA_XS, ids=lambda x: ",".join(map(str, x)))
def test_miwa_shape_zeros_agree_with_the_determinant(x, sign):
    # every pair mu in lam, |lam| <= 7: the shape rule answers 0 only where Jacobi-Trudi on the same t_m is 0,
    # and each returned value, by the rule or not, is the determinant's
    times = MiwaTimes(x, sign)
    values = times.values(8)
    ruled = 0
    for outer, inner in SKEW_PAIRS:
        want = _schur_numeric(outer, inner, values, 7)
        if schur._miwa_zero(outer, inner, times):
            ruled += 1
            assert want == 0, (outer, inner)
        assert skew_schur_poly(outer, inner, times, 7) == want, (outer, inner)
    assert ruled


@pytest.mark.parametrize("mode", ["miwa", "dual"])
def test_remark1_reads_no_shape_rule(monkeypatch, mode):
    # remark1 checks that s_lam vanishes at N Miwa variables; read through the shape rule it would check the rule
    def refuse(*args):
        raise AssertionError("check_remark1 read _miwa_zero")

    monkeypatch.setattr(schur, "_miwa_zero", refuse)
    params = {"N": 2} if mode == "miwa" else {"K": 2, "q": F(1, 2)}
    assert check_remark1(mode, params, 7).passed


# -- principal specializations ------------------------------------------------------------


def test_principal_rational_times():
    assert PrincipalTimes(F(2, 3)).values(4) == [F(2, 3) / m for m in range(1, 5)]


def test_principal_q_integer_modulus_vanishing():
    q = F(1, 3)
    spec = PrincipalTimes(F(2), q)
    miwa = MiwaTimes((F(1), q))  # x = (1, q)
    assert spec.values(6) == miwa.values(6)
    for lam in enumerate_up_to(6):
        assert schur_poly(lam, spec, 6) == schur_poly(lam, miwa, 6)
        if len(lam) > 2:
            assert schur_poly(lam, spec, 6) == 0


def test_principal_infinity_hooks():
    for lam in enumerate_up_to(6):
        assert schur_poly(lam, PrincipalInfinityTimes(), 6) == F(1) / hook_data(lam)
        got = schur_poly(lam, PrincipalInfinityTimes(F(1, 2)), 6)
        assert got == F(1, 2) ** n_statistic(lam) / hook_data(lam, F(1, 2))


def test_principal_value_examples():
    q, a = F(1, 3), F(2)
    assert schur_principal_value((1,), a, q) == (1 - q**a) / (1 - q)
    assert schur_principal_value((1,), F(5, 7)) == F(5, 7)


def test_principal_identity_exhaustive():
    # fractional modulus needs q with the matching exact root: a = 5/7, q = (1/2)^7
    q, a = F(1, 128), F(5, 7)
    for lam in enumerate_up_to(6):
        assert schur_poly(lam, PrincipalTimes(a, q), 6) == schur_principal_value(lam, a, q)


def test_principal_rejects_root_of_unity():
    with pytest.raises(ValueError, match="root of unity"):
        PrincipalTimes(F(1), F(-1)).values(3)
    with pytest.raises(ValueError, match=r"q\^1 = 1"):
        PrincipalTimes(F(1), F(1)).values(3)
    with pytest.raises(ValueError, match="nonzero"):
        PrincipalTimes(F(1), F(0)).values(3)
    # schur_poly refuses the partitions whose determinant reads a refused t_k
    with pytest.raises(ValueError, match="root of unity"):
        schur_poly((2,), PrincipalTimes(F(1), F(-1)), 3)


def test_principal_refusal_depends_on_the_partition_not_the_grade():
    # q = -1 refuses t_2 and beyond; s_() reads no t_k and s_(1) = t_1 = 0 here (q^2 = 1)
    times = PrincipalTimes(F(2), F(-1))
    assert schur_poly((), times, 4) == 1
    assert schur_poly((1,), times, 4) == 0
    with pytest.raises(ValueError, match=r"q\^2 = 1"):
        schur_poly((2,), times, 4)
    assert schur_poly((), PrincipalTimes(F(2), F(-1)), 4) == 1
    assert schur_poly((1,), PrincipalTimes(F(2), F(-1)), 4) == 0


def test_skew_refusal_depends_on_the_indices_its_determinant_reads():
    # s_(3)/(2) = t_1 reads p_1 alone, so q^2 = 1 refuses nothing; s_(2,2)/(1,1) reads p_2.
    # (3,1)/(2,1) leaves row 2 empty: its unit pivot goes with its column, so p_3 is never read
    times = PrincipalTimes(F(2), F(-1))
    assert skew_schur_poly((3,), (2,), times, 3) == 0
    assert skew_schur_poly((3, 1), (2, 1), times, 4) == 0
    with pytest.raises(ValueError, match=r"q\^2 = 1"):
        skew_schur_poly((2, 2), (1, 1), times, 4)


@pytest.mark.parametrize("family", ["x", "T", "tb", ""])
def test_generic_times_refuse_a_family_other_than_t_or_b(family):
    with pytest.raises(ValueError, match=re.escape(repr(family))):
        GenericTimes(family)


# -- evaluated times resolve their values and power sums once per object ------------------

EVALUATED = {
    "numeric": lambda: NumericTimes((F(1, 2), F(-2, 3), F(3, 5), F(1, 7))),
    "miwa": lambda: MiwaTimes((F(1, 3), F(2, 5), F(1, 3))),
    "miwa-minus": lambda: MiwaTimes((F(1, 3), F(2, 5), F(1, 3)), sign=-1),
    "principal": lambda: PrincipalTimes(F(5, 3)),
    "principal-q": lambda: PrincipalTimes(F(5, 7), F(1, 128)),
}


@pytest.mark.parametrize("kind", sorted(EVALUATED))
def test_shared_times_match_fresh_times_and_plain_lists(kind):
    # one object serves every call, with d rising and then falling; each value must
    # equal a fresh object's and the Jacobi-Trudi determinant on the plain value list
    make = EVALUATED[kind]
    shared = make()
    straight = enumerate_up_to(9)
    skew = [(o, i) for o in enumerate_up_to(7) for i in enumerate_up_to(7) if i and i != o and contains(o, i)]
    for order in (1, -1):
        for lam in straight[::order]:
            d, top = sum(lam), lam[0] + len(lam) if lam else 0
            want = _schur_numeric(lam, (), make().values(max(d, top)), d)
            assert schur_poly(lam, shared, d) == schur_poly(lam, make(), d) == want, (kind, lam)
        for outer, inner in skew[::order]:
            d, top = sum(outer), outer[0] + len(outer)
            want = _schur_numeric(outer, inner, make().values(top), d)
            assert skew_schur_poly(outer, inner, shared, d) == skew_schur_poly(outer, inner, make(), d) == want


def test_refusal_is_raised_on_every_call_and_never_stored():
    times = PrincipalTimes(F(1), F(-1))
    assert schur_poly((), times, 1) == 1
    for _ in range(2):
        with pytest.raises(ValueError, match="root of unity"):
            schur_poly((2,), times, 3)
        assert schur_poly((1,), times, 3) == 1  # t_1 alone is well defined
    assert schur_poly((), times, 1) == 1
    zero = PrincipalTimes(F(1), F(0))
    for _ in range(2):
        assert schur_poly((), zero, 0) == 1  # reads no t_k
        with pytest.raises(ValueError, match="nonzero"):
            schur_poly((1,), zero, 0)


def test_tau_series_resolves_each_times_object_once(monkeypatch):
    calls = {"numeric_power_sums": 0, "MiwaTimes.values": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(schur, "numeric_power_sums", counted("numeric_power_sums", schur.numeric_power_sums))
    monkeypatch.setattr(MiwaTimes, "values", counted("MiwaTimes.values", MiwaTimes.values))
    r = RSpec(F(1, 2), (LinFactor(F(1, 3)),), (LinFactor(F(7, 5)),))
    tau_series(r, 0, 10, MiwaTimes((F(1, 5), F(3, 7))), PrincipalTimes(F(4, 3)))
    # one value list per resolved length and one power-sum list per object and twist
    assert calls["numeric_power_sums"] <= 4 and calls["MiwaTimes.values"] <= 4, calls


# -- generic caching stays immutable -------------------------------------------------------


def test_cached_schur_not_corrupted_by_callers():
    first = schur_poly((2, 1), T, 5)
    snapshot = dict(first.terms)
    _ = first + poly_of(5, ([(tvar(1), 1)], 7))
    _ = first.scale(3)
    again = schur_poly((2, 1), T, 5)
    assert again.terms == snapshot


@given(st.integers(0, 8))
@example(8)
@settings(max_examples=10)
def test_schur_sum_squares_cauchy(n):
    # sum over |lam| = n of (coeff of t1^n in s_lam)^2 * n!^2 = number of SYT pairs = n!
    from math import factorial

    total = F(0)
    for lam in enumerate_up_to(n):
        if sum(lam) != n:
            continue
        c = schur_poly(lam, T, n).coeff(mono([(tvar(1), n)]) if n else ())
        total += (c * factorial(n)) ** 2
    assert total == factorial(n)


# -- the paired sum against one Schur product per partition ------------------------------

PAIR_TABLES = {
    # r = (D + 3)/(D + 1/3) at M = 0 vanishes on every partition with a cell of content -3
    "integer-zero": RSpec(num=(LinFactor(F(3)),), den=(LinFactor(F(1, 3)),)),
    "q-symbol": RSpec(F(2), (QLinFactor(F(2, 3), F(0)),), (QLinFactor(F(3, 5), F(1)),), q=F(1, 2)),
}


@pytest.mark.parametrize("kind", sorted(PAIR_TABLES))
def test_schur_pair_sum_matches_schur_products_cold_and_warm(kind):
    d = 7
    coeffs = dict(content_products(PAIR_TABLES[kind], enumerate_up_to(d), 0))
    if kind == "integer-zero":
        assert 0 in coeffs.values() and any(coeffs.values())
    products = ((c, decoded_schur(lam, (), "t", d) * decoded_schur(lam, (), "b", d)) for lam, c in coeffs.items())
    want = weighted_sum(products, d, d)
    _grade_layout.cache_clear()
    characters.cache_clear()
    assert schur_pair_sum(coeffs, d) == want
    assert _grade_layout.cache_info().currsize == d + 1
    assert schur_pair_sum(coeffs, d) == want


# -- a generic value builds the character tables of the shapes it reads, and no others --------


def test_a_cold_generic_value_fills_one_table_per_shape_it_reads():
    # s_(16) reads the rows (16), (15), ..., (1) and (); its grade has 231 shapes, whose tables it must not build
    src = os.path.dirname(os.path.dirname(taukit.__file__))
    code = ("from taukit.schur import GenericTimes, characters, schur_poly; "
            "schur_poly((16,), GenericTimes(), 16); print(characters.cache_info().currsize)")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=src))
    assert done.returncode == 0 and done.stdout == "17\n"


def test_a_cold_generic_miwa_render_reads_only_the_live_shapes(monkeypatch):
    # at two Miwa points every shape over two rows is cut, so only shapes of at most two rows have their tables built
    x, d = (F(1, 3), F(1, 5)), 12
    r = RSpec(num=(LinFactor(F(1, 2)),), den=(LinFactor(F(1, 3)),))
    read, table = set(), schur.characters
    monkeypatch.setattr(schur, "characters", lambda outer, inner=(): read.add(outer) or table(outer, inner))
    _grade_layout.cache_clear()
    table.cache_clear()
    got = tau_series(r, 0, d, T, MiwaTimes(x))
    monkeypatch.undo()
    assert (12,) in read and max(map(len, read)) == 2
    parts = [lam for lam in enumerate_up_to(d) if len(lam) <= 2]
    terms = ((c * schur_poly(lam, MiwaTimes(x), d), decoded_schur(lam, (), "t", d))
             for lam, c in content_products(r, parts, 0))
    assert got == weighted_sum(terms, d, d)
