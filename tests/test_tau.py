import random
from fractions import Fraction as F
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st
from schur_reference import decoded_schur

from taukit import partitions, schur
from taukit import tau as tau_module
from taukit.acceptance import draw_lin_rspec
from taukit.partitions import enumerate_up_to, hook_data, n_statistic
from taukit.poly import GradedPoly, bvar, mono, mono_weights, tvar
from taukit.rspec import (
    LinFactor,
    PoleError,
    QLinFactor,
    RSpec,
    content_product,
    poch_partition,
    rspec_mul,
)
from taukit.schur import (
    GenericTimes,
    MiwaTimes,
    NumericTimes,
    PrincipalInfinityTimes,
    PrincipalTimes,
    schur_poly,
)
from taukit.tau import (
    ChainSpec,
    SqrtValue,
    TauExpansion,
    _bracket_factorial,
    askey_wilson,
    askey_wilson_rspec,
    classical_reference,
    clebsch_gordan_q,
    pfq_one_var_coeffs,
    pfs_multivar,
    prop4_pair,
    q_bracket,
    qphi_multivar,
    qphi_one_var_coeffs,
    tau_general,
    tau_series,
    tau_two_sided,
)
from taukit.verify import check_remark1

T, B = GenericTimes("t"), GenericTimes("b")
D = RSpec(num=(LinFactor(F(0)),))


def lin(*shifts, den=()):
    return RSpec(
        num=tuple(LinFactor(F(s)) for s in shifts),
        den=tuple(LinFactor(F(s)) for s in den),
    )


# -- tau series ------------------------------------------------------------------


def test_zero_beta_gives_one():
    r = lin(F(1, 2), den=(F(1, 3),))
    assert tau_series(r, 0, 5, T, NumericTimes(())) == GradedPoly.constant(1, 5, 5)
    assert tau_series(r, 0, 5, NumericTimes(()), NumericTimes(())) == 1


def test_example_spectral_parameter_family():
    # r(D) = D, M = 1, beta = (b1, 0, ...): coefficient of t1^n b1^n is 1/n!
    tau = tau_series(D, 1, 5, T, B)
    for n in range(5):
        m = mono([(tvar(1), n), (bvar(1), n)])
        assert tau.coeff(m) == F(1, factorial(n))
    # and at M = -1 the single-column family alternates
    tau_neg = tau_series(D, -1, 5, T, B)
    for n in range(1, 5):
        m = mono([(tvar(1), n), (bvar(1), n)])
        assert tau_neg.coeff(m) == F((-1) ** n, factorial(n))


def test_coefficient_of_t1b1_is_r_at_charge():
    r = lin(F(2, 7), den=(F(3, 5),))
    for m in (-2, 0, 3):
        tau = tau_series(r, m, 2, T, B)
        got = tau.coeff(mono([(tvar(1), 1), (bvar(1), 1)]))
        assert got == content_product(r, (1,), m)


def test_tau_symmetry_under_time_swap():
    r = lin(F(1, 2), den=(F(1, 3),))
    tau = tau_series(r, 1, 4, T, B)
    swapped = tau_series(r, 1, 4, B, T)
    renamed = {}
    for m, c in tau.terms.items():
        flipped = tuple(
            sorted(((("b" if v.family == "t" else "t"), v.index), e) for v, e in m)
        )
        renamed[flipped] = c
    swapped_key = {
        tuple(sorted(((v.family, v.index), e) for v, e in m)): c
        for m, c in swapped.terms.items()
    }
    assert renamed == swapped_key


def test_diagonal_grading():
    r = lin(F(1, 2))
    tau = tau_series(r, 0, 5, T, B)
    for m in tau.terms:
        t_weight, b_weight = mono_weights(m)
        assert t_weight == b_weight


def test_tau_expansion_caches_coefficients():
    exp = TauExpansion.build(D, 1, 4)
    assert exp.coeffs[()] == 1
    assert exp.coeffs[(2,)] == 2
    assert exp.coeffs[(1, 1)] == 0
    assert exp.render(T, B) == tau_series(D, 1, 4, T, B)


def test_tau_expansion_is_the_one_table_and_renderer():
    assert TauExpansion._fields == ("grade", "coeffs") == tuple(vars(TauExpansion.build(D, 0, 2)))
    assert not hasattr(tau_module, "_render_pairs")


def test_every_series_renders_through_tau_expansion(monkeypatch):
    calls = []
    render = TauExpansion.render
    monkeypatch.setattr(TauExpansion, "render", lambda self, t, beta: calls.append(self) or render(self, t, beta))
    r = lin(F(1, 2), den=(F(1, 3),))
    runs = {
        "tau_series": lambda: tau_series(r, 0, 4, T, B),
        "tau_two_sided": lambda: tau_two_sided(lin(F(2)), r, 0, 4, MiwaTimes((F(1, 3),)), B),
        "qphi_multivar": lambda: qphi_multivar([F(2)], [F(3)], 0, F(1, 2), (F(1, 3), F(1, 5)), 4),
    }
    for name, run in runs.items():
        calls.clear()
        run()
        assert len(calls) == 1 and calls[0].grade == 4, name


def schur_product_tau(r, m, d):
    """sum r_lam s_lam(t) s_lam(b), multiplied out with GradedPoly products of the term-by-term Schur values."""
    total = GradedPoly.zero(d, d)
    for lam in enumerate_up_to(d):
        st, sb = decoded_schur(lam, (), "t", d), decoded_schur(lam, (), "b", d)
        total = total + (st * sb).scale(content_product(r, lam, m))
    return total


def test_generic_tau_equals_schur_products():
    qspec = RSpec(num=(QLinFactor(F(2, 3), F(0)),), den=(QLinFactor(F(3, 5), F(1)),), q=F(1, 2))
    for r in (lin(F(1, 2), den=(F(1, 3),)), qspec, lin(F(-1), F(3, 4), den=(F(5, 2),))):
        for m in (-1, 0, 1):
            for d in range(7):
                want = schur_product_tau(r, m, d)
                assert tau_series(r, m, d, T, B) == want, (r, m, d)
            assert tau_series(r, m, 6, B, T) == want


def test_tau_rejects_same_family_on_both_slots():
    with pytest.raises(ValueError):
        tau_series(D, 0, 3, T, T)


def test_tau_pole_propagates():
    r = lin(den=(F(-1),))  # pole at D = 1
    with pytest.raises(PoleError):
        tau_series(r, 0, 3, T, B)


# (r, r~) with r~(D) = r(-D): 2(D+1/2)(D-3/4)/(D+1/3), and (1 - 2/3 q^(1+D))/(1 - 3/5 q^D) at q = 1/2, whose
# r~ is (1 - 2/3 q'^(D-1))/(1 - 3/5 q'^D) at q' = 1/q = 2
REFLECTED_PAIRS = {
    "rational": (
        RSpec(F(2), (LinFactor(F(1, 2)), LinFactor(F(-3, 4))), (LinFactor(F(1, 3)),)),
        RSpec(F(-2), (LinFactor(F(-1, 2)), LinFactor(F(3, 4))), (LinFactor(F(-1, 3)),)),
    ),
    "q": (
        RSpec(num=(QLinFactor(F(2, 3), F(1)),), den=(QLinFactor(F(3, 5), F(0)),), q=F(1, 2)),
        RSpec(num=(QLinFactor(F(2, 3), F(-1)),), den=(QLinFactor(F(3, 5), F(0)),), q=F(2)),
    ),
}
REFLECT_X, REFLECT_Y = (F(1, 2), F(-1, 3), F(2, 5)), (F(1, 4), F(3, 7))


@pytest.mark.parametrize("kind", sorted(REFLECTED_PAIRS))
@pytest.mark.parametrize("d", [6, 9])
def test_negated_miwa_times_reflect_the_symbol_and_the_charge(kind, d):
    # s_lam(-t) = (-1)^|lam| s_lam'(t), and r_lam(M) = r~_lam'(-M): conjugation carries the one series onto the other,
    # the Miwa shape rule's rows at sign -1 onto its columns at sign +1
    r, r_tilde = REFLECTED_PAIRS[kind]
    x, y = MiwaTimes(REFLECT_X), MiwaTimes(REFLECT_Y)
    for m in (-1, 0, 2):
        left = tau_series(r, m, d, MiwaTimes(REFLECT_X, -1), MiwaTimes(REFLECT_Y, -1))
        assert left == tau_series(r_tilde, -m, d, x, y), m
        if m:  # the control: the charge kept, not negated
            assert left != tau_series(r_tilde, m, d, x, y), m


# -- two-sided and chained ----------------------------------------------------------


def test_two_sided_trivial_reductions():
    r = lin(F(1, 2))
    assert tau_two_sided(RSpec(), r, 0, 4, T, B) == tau_series(r, 0, 4, T, B)
    assert tau_two_sided(r, RSpec(), 0, 4, T, B) == tau_series(r, 0, 4, T, B)


def test_two_sided_coefficient_is_product():
    rt, r = lin(F(2)), lin(F(3))
    tau = tau_two_sided(rt, r, 0, 4, T, B)
    m = mono([(tvar(1), 2), (bvar(1), 2)])
    # [t1^2 b1^2] collects (2) and (1,1), each Schur factor contributing 1/2!
    want = sum(
        content_product(rt, lam, 0) * content_product(r, lam, 0) * F(1, 4)
        for lam in ((2,), (1, 1))
    )
    assert tau.coeff(m) == want


def test_two_sided_equals_merged_spec():
    rng = random.Random(3)
    pool = [F(1, 2), F(2, 3), F(2, 7), F(4, 3)]
    for _ in range(3):
        rt = lin(rng.choice(pool), den=(rng.choice(pool),))
        r = lin(rng.choice(pool) + 1)
        m = rng.choice((-1, 0, 1))
        assert tau_two_sided(rt, r, m, 5, T, B) == tau_series(rspec_mul(rt, r), m, 5, T, B)


@pytest.mark.parametrize("dt, dr, point", [(2, -1, 1), (-1, 2, 1), (-2, 2, 2), (2, -2, 2)])
def test_two_sided_raises_the_pole_its_partitions_meet_first(dt, dr, point):
    # recorded from the per-cell content products: the row (2) reaches r's
    # pole at 1 before the column (1,1,1) reaches r~'s at -2
    with pytest.raises(PoleError) as err:
        tau_two_sided(lin(den=(F(dt),)), lin(den=(F(dr),)), 0, 4, MiwaTimes((F(1, 3),)), PrincipalTimes(F(3, 2), None))
    assert (err.value.point, str(err.value)) == (point, f"pole of r at integer point {point}")


def test_chain_refuses_times_before_a_later_pole():
    # the layer's first skew cell reads the times, which q = 1 refuses, before
    # the pole at 1 is reached; tabulating the weights first would swap them
    layer = (lin(den=(F(-1),)), PrincipalTimes(F(2), F(1)))
    chain = ChainSpec(left=((RSpec(), MiwaTimes((F(1, 3),))), layer), right=((RSpec(), MiwaTimes((F(1, 5),))),))
    with pytest.raises(ValueError, match=r"^q\^1 = 1: q is a root of unity in range$"):
        tau_general(chain, 0, 5)


def test_chain_single_pair_collapses():
    rt, r = lin(F(1, 2)), lin(F(5, 7), den=(F(1, 3),))
    chain = ChainSpec(left=((rt, T),), right=((r, B),))
    assert tau_general(chain, 1, 4) == tau_two_sided(rt, r, 1, 4, T, B)


def test_chain_windows_are_the_box():
    rt, r = lin(F(1, 2)), lin(F(5, 7), den=(F(1, 3),))
    for right in (((r, B),), ((r, NumericTimes((F(1, 2),))),)):
        got = tau_general(ChainSpec(left=((rt, T),), right=right), 0, 4)
        assert (got.t_max, got.b_max) == (4, 4)


def test_chain_extra_zero_times_is_identity_layer():
    rt, r = lin(F(1, 2)), lin(F(5, 7), den=(F(1, 3),))
    chain = ChainSpec(left=((rt, T),), right=((r, B), (lin(F(3, 4)), NumericTimes(()))))
    assert tau_general(chain, 0, 4) == tau_two_sided(rt, r, 0, 4, T, B)


def test_chain_requires_nonempty_sides():
    with pytest.raises(ValueError):
        ChainSpec(left=(), right=((D, B),))


def test_chain_refuses_one_generic_family_on_both_sides():
    with pytest.raises(ValueError, match="distinct families"):
        ChainSpec(left=((RSpec(), T),), right=((RSpec(), MiwaTimes((F(1, 2),))), (D, GenericTimes("t"))))


def test_chain_layers_obey_schur_branching():
    # with unit weights, stacking two one-variable layers equals one two-variable slot:
    # sum over mu inside lam of s_mu(x) s_{lam/mu}(y) = s_lam(x, y)
    x, y = F(1, 2), F(1, 3)
    stacked = ChainSpec(
        left=((RSpec(), T),),
        right=((RSpec(), MiwaTimes((x,))), (RSpec(), MiwaTimes((y,)))),
    )
    merged = tau_series(RSpec(), 0, 5, T, MiwaTimes((x, y)))
    assert tau_general(stacked, 0, 5) == merged
    # same on the other side of the correlator
    stacked_left = ChainSpec(
        left=((RSpec(), MiwaTimes((x,))), (RSpec(), MiwaTimes((y,)))),
        right=((RSpec(), B),),
    )
    merged_left = tau_series(RSpec(), 0, 5, MiwaTimes((x, y)), B)
    assert tau_general(stacked_left, 0, 5) == merged_left
    # r = D + 2 on both layers: r_mu r_{lam/mu} = r_lam, and at d = 6 the layers
    # meet skew weights that vanish, r(-2) = 0, on either side
    r = lin(F(2))
    layers = ((r, MiwaTimes((x,))), (r, MiwaTimes((y,))))
    for m in (-1, 0, 1):
        assert any(content_product(r, lam, m) == 0 for lam in enumerate_up_to(6))
        want = tau_series(r, m, 6, T, MiwaTimes((x, y)))
        assert tau_general(ChainSpec(left=((RSpec(), T),), right=layers), m, 6) == want
        want_left = tau_series(r, m, 6, MiwaTimes((x, y)), B)
        assert tau_general(ChainSpec(left=layers, right=((RSpec(), B),)), m, 6) == want_left


def test_series_loops_check_no_partition(monkeypatch):
    # the loops evaluate partitions they enumerated themselves, so no Schur value checks one again
    calls = []
    for module in (schur, partitions):
        check = module.check_partition
        monkeypatch.setattr(module, "check_partition", lambda parts, check=check: calls.append(parts) or check(parts))
    r = RSpec(num=(LinFactor(F(1, 2)),), den=(LinFactor(F(1, 3)),))
    x = (F(1, 3), F(2, 5))
    tau_series(r, 0, 6, MiwaTimes(x), PrincipalTimes(F(5, 3)))
    tau_general(ChainSpec(left=((r, MiwaTimes(x[:1])), (r, MiwaTimes(x[1:]))), right=((RSpec(), MiwaTimes(x)),)), 0, 6)
    qphi_one_var_coeffs([2], [3], 0, F(1, 2), 12)
    assert check_remark1("miwa", {"N": 2}, 6).passed
    assert calls == []


def test_chain_double_series_closed_form():
    # one-variable substitution on the left, two single-slot layers on the right
    at, bt, a1, b1 = F(1, 2), F(5, 7), F(1, 3), F(4, 3)
    x, y1, y2, m, d = F(1, 3), F(2, 5), F(1, 7), 0, 4
    chain = ChainSpec(
        left=((lin(at, den=(bt,)), MiwaTimes((x,))),),
        right=(
            (lin(a1, den=(b1,)), NumericTimes((y1,))),
            (RSpec(), NumericTimes((y2,))),
        ),
    )
    got = tau_general(chain, m, d)
    want = F(0)
    for n1 in range(d + 1):
        for n2 in range(d + 1 - n1):
            n = n1 + n2
            term = poch_partition(at + m, (n,) if n else ())
            term *= poch_partition(a1 + m, (n1,) if n1 else ())
            term /= poch_partition(bt + m, (n,) if n else ())
            term /= poch_partition(b1 + m, (n1,) if n1 else ())
            want += term * y1**n1 * y2**n2 * x**n / (factorial(n1) * factorial(n2))
    assert got == want


# -- hypergeometric families -----------------------------------------------------------


def test_pfs_no_parameters_is_exponential():
    got = pfs_multivar([], [], 0, MiwaTimes((F(1, 2),)), 6)
    want = sum(F(1, 2) ** k / factorial(k) for k in range(7))
    assert got == want


def test_pfs_single_box_coefficient():
    a, b, m = [F(1, 3)], [F(2, 7)], 1
    series = pfs_multivar(a, b, m, T, 3)
    got = series.coeff(mono([(tvar(1), 1)]))
    assert got == (a[0] + m) / (b[0] + m)


def poch_ratio(a, b, m, lam, q=None):
    """prod (a_k+M)_lam / prod (b_k+M)_lam from partition Pochhammers."""
    out = F(1)
    for ak in a:
        out *= poch_partition(ak + m, lam, q)
    for bk in b:
        out /= poch_partition(bk + m, lam, q)
    return out


def test_pfs_equals_tau_series_route():
    # pfs_multivar is the tau-series route; the Pochhammer x hook sum is formed here
    a, b = [F(1, 3), F(3, 2)], [F(2, 7)]
    for m in (-1, 0, 1):
        direct = pfs_multivar(a, b, m, T, 5)
        want = GradedPoly(5, 5)
        for lam in enumerate_up_to(5):
            want = want + schur_poly(lam, T, 5).scale(poch_ratio(a, b, m, lam) / hook_data(lam))
        assert direct == want


def test_pfs_pole_raises():
    with pytest.raises(PoleError):
        pfs_multivar([F(1)], [F(-2)], 0, T, 5)  # (b+M) hits 0 on row contents


def test_family_poles_name_minus_b_with_charge():
    with pytest.raises(PoleError) as err:
        pfq_one_var_coeffs([F(1, 2)], [F(-2)], 0, 6)
    assert err.value.point == 2
    # with M = 3 the row contents j - 1 + M start at 3, past the pole at -b = 2
    assert pfq_one_var_coeffs([F(1, 2)], [F(-2)], 3, 6) == classical_reference([F(7, 2)], [F(1)], 6)
    with pytest.raises(PoleError) as err:
        qphi_one_var_coeffs([F(2), F(3)], [F(1)], -1, F(1, 2), 5)
    assert err.value.point == -1


def test_qphi_empty_x_is_one():
    assert qphi_multivar([F(1)], [F(2)], 0, F(1, 3), [], 5) == 1


def test_qphi_one_var_matches_classical():
    a, b, q = [F(1, 2)], [F(3, 2)], F(1, 4)
    assert qphi_one_var_coeffs(a, b, 0, q, 8) == classical_reference(a, b, 8, q=q)
    # shifted modulus moves the parameters
    assert qphi_one_var_coeffs(a, b, 1, q, 8) == classical_reference(
        [v + 1 for v in a], [v + 1 for v in b], 8, q=q
    )


@pytest.mark.parametrize("q", [F(0), F(1), F(-1)])
def test_qphi_one_var_rejects_bad_q(q):
    with pytest.raises(ValueError, match="root of unity"):
        qphi_one_var_coeffs([F(2)], [F(3)], 0, q, 4)


def test_qphi_no_ratio_matches_tau_series_with_principal_beta():
    q, xs = F(1, 2), (F(1, 3), F(1, 5))
    got = qphi_multivar([], [], 0, q, xs, 6)
    want = tau_series(RSpec(), 0, 6, MiwaTimes(xs), PrincipalInfinityTimes(q))
    assert got == want
    brute = sum(
        (
            q ** n_statistic(lam)
            / hook_data(lam, q)
            * schur_poly(lam, MiwaTimes(xs), 6)
            for lam in enumerate_up_to(6)
            if len(lam) <= 2
        ),
        F(0),
    )
    assert got == brute


def test_qphi_full_ratio_matches_tau_series_route():
    # qphi_multivar is the tau-series route; the Pochhammer x hook sum is formed here.
    # b = 7 keeps the denominator exponent clear of every content in range
    q = F(1, 2)
    a, b = [F(2)], [F(7)]
    xs = (F(1, 3), F(1, 7))
    for m in (0, 1):
        got = qphi_multivar(a, b, m, q, xs, 5)
        want = sum(
            (
                poch_ratio(a, b, m, lam, q)
                * q ** n_statistic(lam)
                / hook_data(lam, q)
                * schur_poly(lam, MiwaTimes(xs), 5)
                for lam in enumerate_up_to(5)
                if len(lam) <= len(xs)
            ),
            F(0),
        )
        assert got == want


def test_qphi_multivar_skips_partitions_longer_than_x():
    # (q^{2+D}; q) vanishes at content -2, which only l(lam) >= 3 reaches: every series cuts those at 2 Miwa
    # variables and answers, and meets the pole at generic t, where nothing is cut
    q, xs = F(1, 2), (F(1, 3), F(1, 5))
    assert qphi_multivar([F(3)], [F(2)], 0, q, xs, 4) == F(6745346, 1771875)
    spec = RSpec(num=(QLinFactor(F(1), F(3)),), den=(QLinFactor(F(1), F(2)),), q=q)
    beta = PrincipalInfinityTimes(q)
    series = {
        "tau_series": lambda t: tau_series(spec, 0, 4, t, beta),
        "tau_two_sided": lambda t: tau_two_sided(RSpec(), spec, 0, 4, t, beta),
        "tau_general": lambda t: tau_general(ChainSpec(left=((spec, t),), right=((RSpec(), beta),)), 0, 4),
    }
    for name, run in series.items():
        assert run(MiwaTimes(xs)) == F(6745346, 1771875), name
        with pytest.raises(PoleError) as err:
            run(GenericTimes("t"))
        assert err.value.point == -2, name


miwa_points = st.builds(
    MiwaTimes,
    st.lists(st.sampled_from((F(1, 2), F(-1, 3), F(2, 5), F(1, 7), F(-3, 4))), min_size=1, max_size=3),
    st.sampled_from((1, -1)),
)


@settings(derandomize=True, database=None, deadline=None, max_examples=50)
@given(st.randoms(use_true_random=False), st.integers(-1, 1), st.integers(0, 7),
       miwa_points, miwa_points, st.sampled_from((F(1, 2), F(4, 3), F(-2, 5))))
def test_miwa_cut_drops_only_zero_terms(rng, m, d, x, y, a):
    # the same t_m as NumericTimes are never cut, so there the determinant decides every term the cut drops
    def uncut(times):
        return NumericTimes(times.values(d))

    def chain(first, second):
        return tau_general(ChainSpec(left=((r, first), (r2, second)), right=((r3, beta),)), m, d)

    r, r2, r3 = draw_lin_rspec(rng), draw_lin_rspec(rng), draw_lin_rspec(rng)
    beta = PrincipalTimes(a)
    assert tau_series(r, m, d, x, beta) == tau_series(r, m, d, uncut(x), beta)
    assert chain(x, y) == chain(uncut(x), uncut(y))


def test_two_variable_set_series_from_components():
    # the series over two x/y sets with the principal-Schur denominator
    # s_lam(1, q, ..., q^(N-1)) equals the plain series for the symbol with
    # one extra denominator factor (1 - q^(N+D)), on lengths <= N
    q, m, d, nvars = F(1, 2), 0, 5, 2
    a, b = [F(2)], [F(7)]
    xs, ys = (F(1, 3), F(1, 5)), (F(1, 7), F(2, 7))
    base = RSpec(
        num=tuple(QLinFactor(F(1), v) for v in a),
        den=tuple(QLinFactor(F(1), v) for v in b),
        q=q,
    )
    extended = RSpec(base.constant, base.num, base.den + (QLinFactor(F(1), F(nvars)),), q)
    principal = MiwaTimes(tuple(q**i for i in range(nvars)))  # x = (1, q, ..., q^(N-1))
    lhs = F(0)
    rhs = F(0)
    for lam in enumerate_up_to(d):
        if len(lam) > nvars:
            continue
        sx = schur_poly(lam, MiwaTimes(xs), d)
        sy = schur_poly(lam, MiwaTimes(ys), d)
        weight = content_product(base, lam, m)
        lhs += (
            weight
            * q ** n_statistic(lam)
            / hook_data(lam, q)
            / schur_poly(lam, principal, d)
            * sx
            * sy
        )
        rhs += content_product(extended, lam, m) * sx * sy
    assert lhs == rhs


def test_classical_reference_families():
    assert classical_reference([], [], 6) == [F(1, factorial(k)) for k in range(7)]
    assert classical_reference([1, 1], [2], 6) == [F(1, k + 1) for k in range(7)]
    q, a = F(1, 3), F(2)
    coeffs = classical_reference([a], [], 6, q=q)
    for k in range(6):
        ratio = coeffs[k + 1] / coeffs[k]
        assert ratio == (1 - q ** (a + k)) / (1 - q ** (k + 1))


def test_classical_reference_pole():
    with pytest.raises(PoleError):
        classical_reference([1], [-3], 6)


def test_pfq_coeffs_sum_matches_pfs_value():
    a, b, x = [F(1, 3)], [F(5, 7)], F(1, 2)
    coeffs = pfq_one_var_coeffs(a, b, 0, 8)
    val = sum(c * x**k for k, c in enumerate(coeffs))
    assert val == pfs_multivar(a, b, 0, MiwaTimes((x,)), 8)


def miwa_one_var_collapse(series, order):
    """Coefficients of x^n after t_m -> x^m / m, collected by weighted degree."""
    from taukit.poly import mono_weights

    out = [F(0)] * (order + 1)
    for m, c in series.terms.items():
        w = sum(mono_weights(m))
        if w > order:
            continue
        for v, e in m:
            c *= F(1, v.index) ** e
        out[w] += c
    return out


def test_pfq_coeffs_are_the_one_variable_reduction_of_pfs():
    a, b, m = [F(1, 3), F(3, 2)], [F(5, 7)], 1
    series = pfs_multivar(a, b, m, T, 8)
    assert miwa_one_var_collapse(series, 8) == pfq_one_var_coeffs(a, b, m, 8)


# -- Askey-Wilson ----------------------------------------------------------------------


AW_POINT = dict(q=F(1, 3), cos_eta=F(1, 2))
AW_PARAMS = (F(1, 5), F(1, 7), F(2, 7), F(1, 11))


def test_aw_degree_zero():
    a, b, c, dd = AW_PARAMS
    assert askey_wilson(0, a, b, c, dd, **AW_POINT) == 1
    assert askey_wilson(0, a, b, c, dd, with_prefactor=True, **AW_POINT) == 1


def test_aw_terminates():
    q = AW_POINT["q"]
    for n in range(6):
        assert poch_partition(F(-n), (n + 1,), q) == 0


def test_aw_denominator_swaps():
    a, b, c, dd = AW_PARAMS
    base = askey_wilson(4, a, b, c, dd, **AW_POINT)
    assert askey_wilson(4, a, c, b, dd, **AW_POINT) == base
    assert askey_wilson(4, a, dd, c, b, **AW_POINT) == base


def test_aw_full_symmetry_with_prefactor():
    a, b, c, dd = AW_PARAMS
    values = {
        askey_wilson(3, a, b, c, dd, with_prefactor=True, **AW_POINT),
        askey_wilson(3, b, a, c, dd, with_prefactor=True, **AW_POINT),
        askey_wilson(3, c, b, a, dd, with_prefactor=True, **AW_POINT),
        askey_wilson(3, dd, b, c, a, with_prefactor=True, **AW_POINT),
    }
    assert len(values) == 1


def test_aw_matches_tau_series_route():
    a, b, c, dd = AW_PARAMS
    q = AW_POINT["q"]
    for n in (0, 2, 4):
        spec = askey_wilson_rspec(n, a, b, c, dd, q, AW_POINT["cos_eta"])
        via_tau = tau_series(spec, 0, n + 3, MiwaTimes((q,)), PrincipalInfinityTimes(q))
        assert via_tau == askey_wilson(n, a, b, c, dd, **AW_POINT)


def test_aw_pole_detection():
    # ab = 1 makes the first denominator factor vanish at i = 0
    with pytest.raises(PoleError):
        askey_wilson(2, F(1, 2), F(2), F(1, 7), F(1, 11), **AW_POINT)
    # ab = 1/q hits the i = 1 factor
    with pytest.raises(PoleError):
        askey_wilson(2, F(1, 2), F(6), F(1, 7), F(1, 11), **AW_POINT)


def test_aw_pole_scans_ab_before_ac():
    # 1 - ab q^i vanishes at i = 1 and 1 - ac q^i at i = 0; ab is scanned first
    with pytest.raises(PoleError) as err:
        askey_wilson(2, F(1, 5), F(10), F(5), F(1, 11), F(1, 2), F(1, 2))
    assert err.value.point == 1


# -- exact square-root values --------------------------------------------------------------


def test_sqrt_value_normalization():
    v = SqrtValue.of(F(1, 2), F(8))
    assert v == SqrtValue.of(F(1), F(2))
    assert SqrtValue.of(F(3), F(4)) == SqrtValue.of(F(6))
    assert SqrtValue.of(F(5), F(0)) == SqrtValue.of(0)
    with pytest.raises(ValueError):
        SqrtValue.of(F(1), F(-1))


def test_sqrt_value_pulls_out_the_square_of_two():
    # == compares squares, so only the fields show that 8 = 2^2 * 2 was split
    v = SqrtValue.of(1, 8)
    assert (v.rational, v.radicand) == (2, 2)


# -- q-brackets and coupling coefficients ------------------------------------------------------


def test_bracket_values():
    q = F(1, 4)
    assert q_bracket(1, q) == SqrtValue.of(1)
    three = q_bracket(3, q)
    assert three.radicand == 1 and three.rational == q**-1 * (1 - q**3) / (1 - q)
    even = q_bracket(2, q)  # q^(-1/2) (1-q^2)/(1-q): rational since q is a square
    assert even.radicand == 1 and even.rational == 2 * (1 + q)


def test_bracket_factorial():
    for q in (F(1, 4), F(2, 3)):
        assert _bracket_factorial(0, q) == (1, 0)
        c, h = _bracket_factorial(3, q)  # [3]! = c q^(h/2)
        want = q_bracket(1, q).square() * q_bracket(2, q).square() * q_bracket(3, q).square()
        assert c**2 * q**h == want


def test_bracket_limit_monotone():
    # [a] > a for q != 1, so |[a] - a| falls exactly when [a]^2 falls
    for a in (2, 3, 5):
        squares = [q_bracket(a, 1 - F(1, 2**k)).square() for k in range(1, 11)]
        for earlier, later in zip(squares, squares[1:]):
            assert a**2 < later < earlier


def test_cg_highest_weight_is_one():
    got = clebsch_gordan_q(F(1, 2), F(1, 2), 1, F(1, 2), F(1, 2), F(1, 4))
    assert got == SqrtValue.of(1)


def test_cg_series_factor_truncates_at_aligned_spin():
    # j = l1 makes the first numerator exponent 0, killing every term past the constant
    q = F(1, 4)
    assert poch_partition(F(0), (1,), q) == 0  # (q^0; q)_1 = 0
    coeffs = qphi_one_var_coeffs([F(0), F(4), F(0)], [F(2), F(-3)], 0, q, 3)
    assert coeffs[0] == 1 and all(c == 0 for c in coeffs[1:])
    got = clebsch_gordan_q(F(1), F(1), F(2), F(1), F(1), q)
    assert got.square() != 0


def test_cg_approaches_classical_coupling():
    # value^2 -> 1/2 for the (1/2, 1/2 -> 1, m=0) coupling as q -> 1
    sq_values = []
    for base in (F(3, 4), F(9, 10), F(49, 50), F(99, 100)):
        v = clebsch_gordan_q(F(1, 2), F(1, 2), 1, F(1, 2), F(-1, 2), base**2)
        sq_values.append(v.square())
    assert all(abs(a - F(1, 2)) > abs(b - F(1, 2)) for a, b in zip(sq_values, sq_values[1:]))
    assert abs(sq_values[-1] - F(1, 2)) < F(1, 50)


def test_cg_rejects_bad_domains():
    with pytest.raises(ValueError):
        clebsch_gordan_q(F(1, 2), F(1, 2), 3, F(1, 2), F(1, 2), F(1, 4))  # triangle
    with pytest.raises(ValueError):
        clebsch_gordan_q(F(1, 2), F(1, 2), 1, F(3, 2), F(-1, 2), F(1, 4))  # |j| > l1
    with pytest.raises(ValueError):
        clebsch_gordan_q(F(1, 3), F(1, 2), 1, F(1, 3), F(1, 2), F(1, 4))  # not half-integer


def test_cg_machinery_matches_direct_recursion():
    q = F(1, 2)
    for l1, l2, l, j, k in (
        (F(1), F(1), F(1), F(0), F(0)),
        (F(3, 2), F(1), F(1, 2), F(1, 2), F(0)),
        (F(2), F(3, 2), F(3, 2), F(0), F(1, 2)),
    ):
        m = j + k
        a = (j - l1, l1 + j + 1, -l + m)
        b = (l2 - l + j + 1, -l - l2 + j)
        order = int(l1 - j)
        assert qphi_one_var_coeffs(a, b, 0, q, order) == classical_reference(a, b, order, q=q)


# (l1, l2, l, j, k), q, and the pinned sign and square of the value
CG_GOLDEN = [
    ("1,5/2,3/2,1,-5/2", "1/4", 1, "17/273"),
    ("1/2,5/2,2,-1/2,5/2", "1/4", -1, "1364/1365"),
    ("1/2,5/2,2,1/2,-5/2", "1/4", 1, "341/1365"),
    ("2,2,1,0,-1", "1/4", -1, "336/75361"),
    ("2,3/2,5/2,2,1/2", "1/4", 1, "85/5461"),
    ("3,2,2,0,1", "1/4", -1, "176128/424307"),
    ("3,2,3,1,0", "1/4", 1, "10073564427/26863106699"),
    ("3,3,2,2,-1", "1/4", -1, "160122347/430203594379"),
    ("3/2,3/2,1,1/2,-3/2", "1/4", 1, "21/5797"),
    ("5/2,3/2,1,-1/2,-1/2", "1/4", -1, "84/376805"),
    ("0,2,2,0,1", "4/9", 1, "1"),
    ("1,2,2,1,0", "4/9", 1, "576/5917"),
    ("2,2,0,-1,1", "4/9", -1, "2916/11605"),
    ("2,3/2,5/2,2,1/2", "4/9", 1, "80704/953317"),
    ("3,2,3,2,0", "4/9", -1, "5791772338000/23483446882477"),
    ("3/2,3,5/2,1/2,-3", "4/9", 1, "24102749440/630379912933"),
    ("5/2,2,1/2,-1/2,1", "4/9", -1, "27634932/94151365"),
    ("5/2,3,3/2,-3/2,2", "4/9", 1, "26461407230037/52724456016757"),
    ("5/2,3,3/2,3/2,-2", "4/9", -1, "4040655191872/52724456016757"),
    ("5/2,3/2,3,3/2,-1/2", "4/9", -1, "52811192971161/809347447413505"),
]


@pytest.mark.parametrize("spins, q, sign, square", CG_GOLDEN, ids=[f"{s}@{q}" for s, q, *_ in CG_GOLDEN])
def test_cg_sign_and_square_golden(spins, q, sign, square):
    v = clebsch_gordan_q(*(F(x) for x in spins.split(",")), F(q))
    assert (v.rational > 0) - (v.rational < 0) == sign
    assert v.square() == F(square)
    assert v == SqrtValue.of(sign, F(square))


def _steps(top, bottom):
    """top, top - 1, ..., bottom."""
    return [top - n for n in range(int(top - bottom) + 1)]


def _cg_row_sums(top1, top2, q):
    """Sum over j + k = m of C(l1, l2, l; j, k)^2, for every (l1, l2, l, m) row
    with l1 <= top1 and l2 <= top2 that lies wholly inside the formula's domain."""
    sums = []
    for l1 in (F(n, 2) for n in range(int(2 * top1) + 1)):
        for l2 in (F(n, 2) for n in range(int(2 * top2) + 1)):
            for l in _steps(l1 + l2, abs(l1 - l2)):
                for m in _steps(l, -l):
                    pairs = [(j, m - j) for j in _steps(l1, -l1) if abs(m - j) <= l2]
                    try:
                        squares = [clebsch_gordan_q(l1, l2, l, j, k, q).square() for j, k in pairs]
                    except ValueError as exc:
                        assert str(exc).startswith("bracket argument")
                        continue
                    sums.append(sum(squares))
    return sums


UNITARITY_QS = [F(1, 4), F(4, 9), F(9, 4), F(1, 2), F(2, 3), F(3, 2)]


@pytest.mark.parametrize("q", UNITARITY_QS, ids=str)
def test_cg_rows_are_unit_vectors(q):
    sums = _cg_row_sums(F(3, 2), 1, q)
    assert len(sums) == 24 and all(s == 1 for s in sums)


@pytest.mark.parametrize("q", UNITARITY_QS, ids=str)
def test_cg_rows_are_unit_vectors_to_spin_five_halves(q):
    sums = _cg_row_sums(F(5, 2), F(5, 2), q)
    assert len(sums) == 126 and all(s == 1 for s in sums)


# -- reparametrized pairs -------------------------------------------------------------------


def test_prop4_rational_example():
    r = lin(F(1, 2))
    left, right = prop4_pair(r, F(1, 3), 0, 4, T)
    assert left == right


def test_prop4_q_variant():
    # q = 1/64 admits both the half root (for the shift) and the cube root (for b)
    r = RSpec(num=(QLinFactor(F(1), F(1, 2)),), q=F(1, 64))
    left, right = prop4_pair(r, F(1, 3), 1, 4, T)
    assert left == right


def test_prop4_incompatible_q_exponent_raises():
    r = RSpec(num=(QLinFactor(F(2, 3), F(0)),), q=F(1, 3))
    with pytest.raises(ValueError):
        prop4_pair(r, F(1, 2), 0, 3, T)  # (1/3)^(1/2) is irrational


def test_prop4_structural_extra_denominator():
    r = lin(F(1, 2))
    _ = prop4_pair(r, F(1, 3), 0, 2, T)
    rb = RSpec(r.constant, r.num, r.den + (LinFactor(F(1, 3)),), None)
    assert len(rb.den) == len(r.den) + 1


# -- evaluated-times golden outputs ---------------------------------------------------

# str() of each output, captured before evaluated times kept their power sums
GOLDEN_EVALUATED = {
    "tau_series": "10902667004607342875352805343/8448817692335354269574107392",
    "pfs_multivar": "361402427463523907138449/327195864224299743750000",
    "qphi_multivar": "4581286407116718004554777698789/1454793962058198718023251953125",
    "tau_general": "1762362066374980992754937683/1662569038008616189914000000",
    "remark1_miwa": "CheckReport(name='remark1', passed=True, max_checked_grade=9, first_failure=None, "
    "params={'mode': 'miwa', 'N': 2, 'd': 9})",
    "remark1_dual": "CheckReport(name='remark1', passed=True, max_checked_grade=8, first_failure=None, "
    "params={'mode': 'dual', 'K': 2, 'q': '1/2', 'd': 8})",
    "prop4_pair": "(Fraction(142195165954654164805, 130236859253265278976), "
    "Fraction(142195165954654164805, 130236859253265278976))",
    "prop4_pair_q": "(Fraction(35370911665103142389102336349918977, 1234773106468206265277862548828125), "
    "Fraction(35370911665103142389102336349918977, 1234773106468206265277862548828125))",
}


def test_evaluated_golden():
    from taukit.verify import check_remark1

    r = RSpec(F(1, 2), (LinFactor(F(1, 3)),), (LinFactor(F(7, 5)),))
    rq = RSpec(F(2), (QLinFactor(F(2, 5), F(1)),), (QLinFactor(F(3, 7), F(0)),), F(1, 4))
    x, y = (F(1, 5), F(3, 7), F(2, 7)), (F(1, 7), F(3, 5))
    chain = ChainSpec(left=((r, MiwaTimes(x[:1])), (r, MiwaTimes(x[1:2]))), right=((RSpec(), MiwaTimes(y)),))
    got = {
        "tau_series": tau_series(r, 1, 8, MiwaTimes(x[:2]), PrincipalTimes(F(4, 3))),
        "pfs_multivar": pfs_multivar([F(1, 3), F(2, 5)], [F(6, 5)], 0, MiwaTimes(x[:2]), 8),
        "qphi_multivar": qphi_multivar([1], [5], 0, F(1, 2), x, 8),
        "tau_general": tau_general(chain, 0, 7),
        "remark1_miwa": check_remark1("miwa", {"N": 2, "x": y}, 9),
        "remark1_dual": check_remark1("dual", {"K": 2, "q": F(1, 2), "x": y}, 8),
        "prop4_pair": prop4_pair(r, F(5, 3), 0, 7, MiwaTimes(y)),
        "prop4_pair_q": prop4_pair(rq, F(5, 2), 1, 6, MiwaTimes(y)),
    }
    assert {k: str(v) for k, v in got.items()} == GOLDEN_EVALUATED
