import json
import random
import re
from fractions import Fraction as F

import pytest

from taukit import poly, schur, verify
from taukit.poly import (
    GradedPoly,
    _family_pairs,
    bvar,
    derivative,
    format_monomial,
    format_rational,
    hirota_D,
    mono,
    mono_weights,
    tvar,
    weighted_sum,
)
from taukit.rspec import LinFactor, PoleError, QLinFactor, RSpec, rspec_to_json
from taukit.schur import GenericTimes
from taukit.tau import tau_series
from taukit.verify import (
    CheckReport,
    check_hirota,
    check_kp_bilinear,
    check_ode,
    check_qdiff,
    check_remark1,
    check_toda,
    _corner_dets,
    _vanishing_failure,
    _window_block,
    compare_windowed,
    det_oracle_tau,
)

D = RSpec(num=(LinFactor(F(0)),))
RATIO = RSpec(num=(LinFactor(F(1, 2)),), den=(LinFactor(F(1, 3)),))
QSPEC = RSpec(
    num=(QLinFactor(F(2, 3), F(0)),),
    den=(QLinFactor(F(3, 5), F(1)),),
    q=F(1, 2),
)


# -- report plumbing -----------------------------------------------------------------


def test_report_json_shape():
    rep = CheckReport(name="x", passed=True, max_checked_grade=3, params={"d": 3})
    obj = json.loads(rep.to_json())
    assert set(obj) == {"name", "pass", "grade", "failure", "params"}
    assert obj["pass"] is True and obj["failure"] is None


def test_compare_windowed_finds_first_failure():
    t1 = GradedPoly.variable(tvar(1), 4, 4)
    lhs = 1 + t1
    rhs = 1 + t1.scale(2)
    where, lv, rv = compare_windowed(lhs, rhs, 4, 4)
    assert where == "t1" and lv == "1" and rv == "2"
    assert compare_windowed(lhs, rhs, 0, 0) is None  # outside the window
    corner = GradedPoly(4, 4, {mono([(tvar(1), 1), (bvar(2), 1)]): F(1, 2)})
    assert compare_windowed(corner, GradedPoly.zero(4, 4), 1, 2) == ("b2*t1", "1/2", "0")
    assert compare_windowed(corner, GradedPoly.zero(4, 4), 1, 1) is None


# -- Hirota bilinear --------------------------------------------------------------------


def test_hirota_cauchy_kernel():
    assert check_hirota(RSpec(), 0, 4).passed


def test_hirota_exponential_family():
    assert check_hirota(D, 1, 5).passed


def test_hirota_ratio_spec():
    rep = check_hirota(RATIO, 0, 5)
    assert rep.passed and rep.max_checked_grade == 4


def test_hirota_qspec_all_charges():
    for m in (-1, 0, 1):
        assert check_hirota(QSPEC, m, 4).passed


def test_hirota_rejects_empty_window():
    for d in (0, -1):
        with pytest.raises(ValueError, match=f"d = {d}"):
            check_hirota(RATIO, 0, d)


def test_hirota_pole_propagates():
    bad = RSpec(den=(LinFactor(F(-1)),), num=(LinFactor(F(1, 2)),))
    with pytest.raises(PoleError):
        check_hirota(bad, 0, 4)


def test_hirota_grade_ten():
    assert check_hirota(RATIO, 0, 10).passed


def test_explicit_window_keeps_what_derivative_caps_drop():
    # d_t1 tau keeps t-weight <= d - 1 and d_b1 tau b-weight <= d - 1; their
    # product is exact for t-weight <= d, b-weight <= d - 1, and so is
    # t2 * d_t1 tau, whose coefficient at (d, d - 1) the boxes alone would drop
    d = 5
    t1, t2, b1 = tvar(1), tvar(2), bvar(1)
    tau = tau_series(RATIO, 0, d, GenericTimes("t"), GenericTimes("b"))
    exact = tau_series(RATIO, 0, d + 2, GenericTimes("t"), GenericTimes("b"))
    window = (d, d - 1)

    def in_window(terms):
        return {m: c for m, c in terms.items() if c and mono_weights(m)[0] <= d and mono_weights(m)[1] <= d - 1}

    def pairwise(p, q):
        acc = {}
        for m1, c1 in p.terms.items():
            for m2, c2 in q.terms.items():
                m = mono(m1 + m2)
                acc[m] = acc.get(m, 0) + c1 * c2
        return acc

    variable = GradedPoly.variable(t2, 2 * d + 4, 2 * d + 4)
    cases = [
        ((derivative(tau, t1), derivative(tau, b1)), (derivative(exact, t1), derivative(exact, b1))),
        ((variable, derivative(tau, t1)), (variable, derivative(exact, t1))),
    ]
    for (p, q), (p_exact, q_exact) in cases:
        got = weighted_sum([(1, p, q)], *window)
        assert (got.t_max, got.b_max) == window
        assert got.terms == in_window(pairwise(p_exact, q_exact))
    dropped = variable * derivative(tau, t1)
    assert (dropped.t_max, dropped.b_max) == (d - 1, d)
    top = mono([(b1, d - 1), (t2, 1), (t1, d - 2)])
    assert got.coeff(top) != 0 and dropped.coeff(top) == 0


def test_windows_are_boxes():
    # a tau truncated at grade d lives in the box (d, d); a derivative lowers its own family's
    # bound; hirota_D's result is the meet of the boxes of its pieces
    d = 5
    t1, b2 = tvar(1), bvar(2)
    tau = verify._generic_tau(RATIO, 0, d)

    def box(p):
        return p.t_max, p.b_max

    assert box(tau) == (d, d)
    assert box(derivative(tau, t1)) == (d - 1, d)
    assert box(derivative(tau, b2)) == (d, d - 2)
    assert box(hirota_D(tau, tau, [(t1, 1), (b2, 1)])) == (d - 1, d - 2)
    g = weighted_sum(((1, tau),), d - 2, d)
    # pieces: tau * d_t1 g in (d - 3, d) and d_t1 tau * g in (d - 2, d)
    assert box(hirota_D(tau, g, [(t1, 1)])) == (d - 3, d)


# CheckReport JSON at d = 8 for r = (D+1/2)/(D+1/3), M = 0, captured while products still
# visited every pair of terms; "mutated" adds 1/5 t1^2 b2 to every tau the checker renders.
GOLDEN_REPORTS = {
    ('hirota', 'true'): '{"name":"hirota","pass":true,"grade":7,"failure":null,"params":{"rspec":"{\\"constant\\":\\"1\\",\\"num\\":[{\\"lin\\":{\\"shift\\":\\"1/2\\"}}],\\"den\\":[{\\"lin\\":{\\"shift\\":\\"1/3\\"}}]}","M":0,"d":8}}',
    ('toda-generalized', 'true'): '{"name":"toda","pass":true,"grade":7,"failure":null,"params":{"rspec":"{\\"constant\\":\\"1\\",\\"num\\":[{\\"lin\\":{\\"shift\\":\\"1/2\\"}}],\\"den\\":[{\\"lin\\":{\\"shift\\":\\"1/3\\"}}]}","M":0,"d":8,"gauge":"generalized"}}',
    ('toda-standard', 'true'): '{"name":"toda","pass":true,"grade":7,"failure":null,"params":{"rspec":"{\\"constant\\":\\"1\\",\\"num\\":[{\\"lin\\":{\\"shift\\":\\"1/2\\"}}],\\"den\\":[{\\"lin\\":{\\"shift\\":\\"1/3\\"}}]}","M":0,"d":8,"gauge":"standard"}}',
    ('kp', 'true'): '{"name":"kp","pass":true,"grade":8,"failure":null,"params":{"rspec":"{\\"constant\\":\\"1\\",\\"num\\":[{\\"lin\\":{\\"shift\\":\\"1/2\\"}}],\\"den\\":[{\\"lin\\":{\\"shift\\":\\"1/3\\"}}]}","M":0,"d":8}}',
    ('hirota', 'mutated'): '{"name":"hirota","pass":false,"grade":7,"failure":{"at":"b2*t1^2","lhs":"-363/1120","rhs":"129/224"},"params":{"rspec":"{\\"constant\\":\\"1\\",\\"num\\":[{\\"lin\\":{\\"shift\\":\\"1/2\\"}}],\\"den\\":[{\\"lin\\":{\\"shift\\":\\"1/3\\"}}]}","M":0,"d":8}}',
    ('toda-generalized', 'mutated'): '{"name":"toda","pass":false,"grade":7,"failure":{"at":"b2*t1^2","lhs":"-8541/4480","rhs":"-7533/4480"},"params":{"rspec":"{\\"constant\\":\\"1\\",\\"num\\":[{\\"lin\\":{\\"shift\\":\\"1/2\\"}}],\\"den\\":[{\\"lin\\":{\\"shift\\":\\"1/3\\"}}]}","M":0,"d":8,"gauge":"generalized"}}',
    ('toda-standard', 'mutated'): '{"name":"toda","pass":false,"grade":7,"failure":{"at":"b2*t1^2","lhs":"8541/4480","rhs":"7533/4480"},"params":{"rspec":"{\\"constant\\":\\"1\\",\\"num\\":[{\\"lin\\":{\\"shift\\":\\"1/2\\"}}],\\"den\\":[{\\"lin\\":{\\"shift\\":\\"1/3\\"}}]}","M":0,"d":8,"gauge":"standard"}}',
    ('kp', 'mutated'): '{"name":"kp","pass":false,"grade":8,"failure":{"at":"b1^2*b2","lhs":"27/4","rhs":"0"},"params":{"rspec":"{\\"constant\\":\\"1\\",\\"num\\":[{\\"lin\\":{\\"shift\\":\\"1/2\\"}}],\\"den\\":[{\\"lin\\":{\\"shift\\":\\"1/3\\"}}]}","M":0,"d":8}}',
}


@pytest.mark.parametrize("check, tau", list(GOLDEN_REPORTS), ids=["/".join(k) for k in GOLDEN_REPORTS])
def test_golden_reports(check, tau, monkeypatch):
    if tau == "mutated":
        render = verify._generic_tau

        def mutated(r, m, d):
            base = render(r, m, d)
            extra = GradedPoly(base.t_max, base.b_max, {mono([(tvar(1), 2), (bvar(2), 1)]): F(1, 5)})
            return base + extra

        monkeypatch.setattr(verify, "_generic_tau", mutated)
    if check == "hirota":
        report = check_hirota(RATIO, 0, 8)
    elif check == "kp":
        report = check_kp_bilinear(RATIO, 0, 8)
    else:
        report = check_toda(RATIO, 0, 8, check.split("-")[1])
    assert report.to_json() == GOLDEN_REPORTS[check, tau]


def test_kp_forms_each_mirrored_product_once(monkeypatch):
    # D^a tau.tau pairs the terms of b and a - b: 3 + 2 + 2 product pieces (c, p, q) reach the kernel, not 5 + 3 + 4
    products = 0
    kernel = poly.weighted_sum

    def counted(pieces, t_max, b_max):
        nonlocal products
        pieces = list(pieces)
        products += sum(len(piece) == 3 for piece in pieces)
        return kernel(pieces, t_max, b_max)

    monkeypatch.setattr(poly, "weighted_sum", counted)
    monkeypatch.setattr(verify, "weighted_sum", counted)
    assert check_kp_bilinear(RATIO, 0, 8).to_json() == GOLDEN_REPORTS["kp", "true"]
    assert products == 7


@pytest.mark.parametrize("check, grades", [
    (check_hirota, {-1: 5, 0: 6, 1: 5}),
    (check_toda, {-1: 5, 0: 6, 1: 6, 2: 5}),
])
def test_bilinear_checks_build_each_tau_at_the_grade_they_compare(monkeypatch, check, grades):
    # only the differentiated charges need grade d; the others are read in the compare window (d - 1, d - 1)
    built = {}
    render = verify._generic_tau

    def recorded(r, m, d):
        built[m] = d
        return render(r, m, d)

    monkeypatch.setattr(verify, "_generic_tau", recorded)
    assert check(RATIO, 0, 6).passed
    assert built == grades


# -- the pass path decodes no term, and a failure names the sorted scan's monomial ------------------

BILINEAR = {
    "hirota": lambda d: check_hirota(RATIO, 0, d),
    "toda-generalized": lambda d: check_toda(RATIO, 0, d, "generalized"),
    "toda-standard": lambda d: check_toda(RATIO, 0, d, "standard"),
    "kp": lambda d: check_kp_bilinear(RATIO, 0, d),
}


@pytest.mark.parametrize("check", sorted(BILINEAR))
def test_passing_bilinear_check_decodes_no_term(check):
    before = _family_pairs.cache_info()
    assert BILINEAR[check](7).passed
    assert _family_pairs.cache_info() == before


def sorted_scan(lhs, rhs, t_max, b_max):
    """The first differing coefficient by a sorted scan of the decoded terms: the reference."""
    keys = [m for m in lhs.terms.keys() | rhs.terms.keys() if all(w <= top for w, top in zip(mono_weights(m), (t_max, b_max)))]
    for m in sorted(keys, key=lambda m: (sum(mono_weights(m)), m)):
        if lhs.coeff(m) != rhs.coeff(m):
            return format_monomial(m), format_rational(lhs.coeff(m)), format_rational(rhs.coeff(m))
    return None


@pytest.mark.parametrize("check", sorted(BILINEAR))
@pytest.mark.parametrize("at", [[(tvar(1), 2), (bvar(2), 1)], [(tvar(3), 1), (bvar(1), 1)], [(tvar(2), 2), (bvar(1), 3)]])
def test_windowed_failure_matches_sorted_scan(check, at, monkeypatch):
    render = verify._generic_tau

    def mutated(r, m, d):
        base = render(r, m, d)
        return base + GradedPoly(base.t_max, base.b_max, {mono(at): F(2, 7)})

    seen = []

    def recorded(lhs, rhs, t_max, b_max):
        seen.append((compare_windowed(lhs, rhs, t_max, b_max), sorted_scan(lhs, rhs, t_max, b_max)))
        return seen[-1][0]

    monkeypatch.setattr(verify, "_generic_tau", mutated)
    monkeypatch.setattr(verify, "compare_windowed", recorded)
    report = BILINEAR[check](7)
    assert not report.passed and report.first_failure == seen[-1][0]
    assert all(got == want for got, want in seen)


# -- Toda ----------------------------------------------------------------------------------


def test_toda_identity_spec_both_gauges():
    for gauge in ("generalized", "standard"):
        assert check_toda(RSpec(), 0, 4, gauge).passed


def test_toda_zero_kills_one_hop():
    assert check_toda(D, 0, 4, "generalized").passed


def test_toda_rejects_empty_window():
    for gauge in ("generalized", "standard"):
        with pytest.raises(ValueError, match="d = 0"):
            check_toda(RATIO, 0, 0, gauge)


def test_toda_standard_rejects_integer_zero(monkeypatch):
    # the refusal comes before any tau is built
    built = []
    monkeypatch.setattr(verify, "_generic_tau", lambda *args: built.append(args))
    with pytest.raises(ValueError, match=re.escape("standard gauge needs r without integer zeros; found at [0]")):
        check_toda(D, 0, 4, "standard")
    assert built == []


def test_toda_batteries():
    for gauge in ("generalized", "standard"):
        assert check_toda(RATIO, 1, 4, gauge).passed
        assert check_toda(QSPEC, -1, 4, gauge).passed


def test_toda_rejects_unknown_gauge():
    with pytest.raises(ValueError):
        check_toda(RSpec(), 0, 3, "other")


# -- KP bilinear ------------------------------------------------------------------------------


def test_kp_rejects_empty_window():
    # every monomial has t-weight = b-weight - 4, so b-weight <= 3 holds none
    for d in (3, 0):
        with pytest.raises(ValueError, match=f"d = {d}"):
            check_kp_bilinear(RATIO, 0, d)


def test_kp_trivial_and_families():
    assert check_kp_bilinear(RSpec(), 0, 4).passed
    assert check_kp_bilinear(RSpec(num=(LinFactor(F(2, 3)),)), 1, 5).passed
    assert check_kp_bilinear(QSPEC, 0, 4).passed


def test_kp_and_hirota_share_tau():
    # both checkers accept the identical expansion
    for spec in (RATIO, QSPEC):
        assert check_hirota(spec, 0, 4).passed
        assert check_kp_bilinear(spec, 0, 4).passed


# -- termwise equations ----------------------------------------------------------------------


def test_ode_exponential():
    assert check_ode([], [], 8).passed


def test_ode_gauss_family():
    assert check_ode([F(1, 2), F(1, 3)], [F(5, 7)], 10).passed


def test_ode_confluent():
    assert check_ode([F(1)], [F(2)], 10).passed


def test_qdiff_binomial_series():
    assert check_qdiff([F(2)], [], F(1, 3), 10).passed


def test_qdiff_compatible_fractional_parameters():
    # the printed point (a=1/2, b=3/2) needs q with an exact square root
    assert check_qdiff([F(1, 2)], [F(3, 2)], F(1, 9), 10).passed


def test_termwise_checks_refuse_empty_order():
    for order in (-1, 0):
        with pytest.raises(ValueError, match=f"order = {order}"):
            check_ode([F(1, 2)], [F(3, 2)], order)
        with pytest.raises(ValueError, match=f"order = {order}"):
            check_qdiff([F(2)], [F(3)], F(1, 2), order)
    assert check_ode([F(1, 2)], [F(3, 2)], 1).passed


def test_qdiff_rejects_bad_q():
    with pytest.raises(ValueError):
        check_qdiff([F(1)], [F(2)], F(1), 5)


# ode and qdiff reports byte for byte; the failing ones perturb the coefficient c_3
GOLDEN_TERMWISE = {
    ("ode", "true"): '{"name":"ode","pass":true,"grade":8,"failure":null,"params":{"a":["1/2","2/3"],"b":["5/7"],"order":8}}',
    ("qdiff", "true"): '{"name":"qdiff","pass":true,"grade":8,"failure":null,"params":{"a":["2"],"b":["3"],"q":"1/3","order":8}}',
    ("ode", "mutated"): '{"name":"ode","pass":false,"grade":8,"failure":{"at":"x^2","lhs":"18161/14364","rhs":"1715/2052"},"params":{"a":["1/2","2/3"],"b":["5/7"],"order":8}}',
    ("qdiff", "mutated"): '{"name":"qdiff","pass":false,"grade":8,"failure":{"at":"x^2","lhs":"150365/91476","rhs":"729/484"},"params":{"a":["2"],"b":["3"],"q":"1/3","order":8}}',
}


@pytest.mark.parametrize("check, coeffs", list(GOLDEN_TERMWISE), ids=["/".join(k) for k in GOLDEN_TERMWISE])
def test_termwise_golden_reports(check, coeffs, monkeypatch):
    if coeffs == "mutated":
        one_var_coeffs = verify.qphi_one_var_coeffs

        def mutated(a, b, m, q, order):
            out = one_var_coeffs(a, b, m, q, order)
            out[3] += F(1, 7)
            return out

        monkeypatch.setattr(verify, "qphi_one_var_coeffs", mutated)
    if check == "ode":
        report = check_ode([F(1, 2), F(2, 3)], [F(5, 7)], 8)
    else:
        report = check_qdiff([F(2)], [F(3)], F(1, 3), 8)
    assert report.to_json() == GOLDEN_TERMWISE[check, coeffs]


# -- determinant oracle -----------------------------------------------------------------------


def test_oracle_matches_and_stabilizes():
    det, rep = det_oracle_tau(RATIO, 0, 4, window=6)
    assert rep.passed and rep.params["stable"]
    tau = tau_series(RATIO, 0, 4, GenericTimes("t"), GenericTimes("b"))
    assert compare_windowed(det, tau, 4, 4) is None


def test_oracle_reads_no_generic_schur_value(monkeypatch):
    # U+ and U- are built from the Newton recursion for p_m, not from the Schur engine the oracle checks
    def refuse(*args):
        raise AssertionError("det_oracle_tau read _schur_generic")

    monkeypatch.setattr(schur, "_schur_generic", refuse)
    assert det_oracle_tau(RATIO, 0, 4)[1].passed


def test_oracle_window_stabilization_three_steps():
    _, rep = det_oracle_tau(RATIO, 1, 3, window=3, extra_windows=(1, 2))
    assert rep.passed and rep.params["stable"]


def test_oracle_exponential_family_coefficients():
    # r(D) = D at charge 1: tau = exp(sum_k k t_k b_k), so [t1^n b1^n] = 1/n!
    det, rep = det_oracle_tau(D, 1, 3)
    assert rep.passed
    assert det.coeff(mono([(tvar(1), 1), (bvar(1), 1)])) == 1
    assert det.coeff(mono([(tvar(1), 2), (bvar(1), 2)])) == F(1, 2)
    assert det.coeff(mono([(tvar(2), 1), (bvar(2), 1)])) == 2


def test_oracle_pure_t_rows_are_trivial():
    # with beta = 0 the lower factor is the identity: no pure-t monomials beyond 1
    det, _ = det_oracle_tau(RATIO, 0, 3)
    pure_t = {m: c for m, c in det.terms.items() if all(v.family == "t" for v, _ in m)}
    assert pure_t == {(): F(1)}


def test_oracle_default_eliminates_one_window_past_d(monkeypatch):
    # the default extra_windows=(1,) compares window d with d + 1, so one block of width d + 1 is built
    widths = []
    block = verify._window_block
    monkeypatch.setattr(verify, "_window_block", lambda r, m, d, window: widths.append(window) or block(r, m, d, window))
    assert det_oracle_tau(RATIO, 0, 3)[1].passed
    assert widths == [4]


def test_oracle_rejects_small_window():
    with pytest.raises(ValueError):
        det_oracle_tau(RATIO, 0, 4, window=3)


def test_oracle_qspec():
    _, rep = det_oracle_tau(QSPEC, 2, 3)
    assert rep.passed


@pytest.mark.parametrize("extra", [(0,), (), (-1,)])
def test_oracle_rejects_extra_windows_below_one(extra):
    # (0,) would compare a window with itself and () nothing; -1 has no window
    with pytest.raises(ValueError, match="extra_windows.*" + re.escape(repr(extra))):
        det_oracle_tau(RATIO, 0, 3, extra_windows=extra)


def _cofactor_det(block, idx):
    """det of block over idx by Laplace expansion along rows, memoized on the columns left.

    The block's rows and columns run over the indices 0, -1, ..., so index j sits at -j.
    """
    one = GradedPoly.constant(1, block[0][0].t_max, block[0][0].b_max)
    minors = {(): one}

    def minor(cols):
        if cols not in minors:
            row = idx[len(idx) - len(cols)]
            total = GradedPoly.zero(one.t_max, one.b_max)
            for i, col in enumerate(cols):
                term = block[-row][-col] * minor(cols[:i] + cols[i + 1:])
                total = total + term if i % 2 == 0 else total - term
            minors[cols] = total
        return minors[cols]

    return minor(tuple(idx))


# r has an integer zero at -2, which falls inside the block at both charges
ZERO_INSIDE = RSpec(num=(LinFactor(F(2)),), den=(LinFactor(F(1, 3)),))


@pytest.mark.parametrize("spec", [ZERO_INSIDE, QSPEC], ids=["rational-zero", "q-rational"])
@pytest.mark.parametrize("m", [-1, 1])
def test_corner_dets_match_cofactor_expansion(spec, m):
    # every width 1..5, including the windows narrower than d that no report compares
    rows = _window_block(spec, m, 3, 4)
    dets = _corner_dets(rows, 3)
    assert len(dets) == 5
    block = [[weighted_sum(pieces, 3, 3) for pieces in row] for row in rows]
    for k, det in enumerate(dets):
        assert det == _cofactor_det(block, list(range(-k, 1)))
    # the factorization takes the rows in the order given: ascending, its minors are the windows -4..k - 4
    for k, det in enumerate(_corner_dets([row[::-1] for row in rows[::-1]], 3)):
        assert det == _cofactor_det(block, list(range(-4, k - 3)))


@pytest.mark.parametrize("n", [1, 2, 5])
def test_corner_dets_form_each_factor_entry_in_one_kernel_call(monkeypatch, n):
    # one call per entry of U (pivots included) and of L; each pivot with rows below adds its re-box into the
    # inverse's box and one factor product per entry of L: a right-looking update per step would count more
    calls = []
    kernel = verify.weighted_sum
    monkeypatch.setattr(verify, "weighted_sum", lambda pieces, *box: calls.append(1) or kernel(pieces, *box))
    rows = _window_block(RATIO, 0, 3, n - 1)
    dets = _corner_dets(rows, 3)
    assert len(dets) == n
    upper, lower = n * (n + 1) // 2, n * (n - 1) // 2
    assert len(calls) == upper + lower + (n - 1) + lower


@pytest.mark.parametrize(
    "d, window, terms",
    [(0, 0, {"1": "1"}), (0, 2, {"1": "1"}), (1, 1, {"1": "1", "b1*t1": "3/2"}), (1, 3, {"1": "1", "b1*t1": "3/2"})],
)
def test_oracle_at_the_lowest_degrees(d, window, terms):
    # at d = 0 the inverse's box (d - 1, d - 1) is clamped at 0, where every entry is a constant
    det, rep = det_oracle_tau(RATIO, 0, d, window)
    assert (det.t_max, det.b_max) == (d, d)
    assert {format_monomial(mono): format_rational(c) for mono, c in det.terms.items()} == terms
    params = {"rspec": rspec_to_json(RATIO), "M": 0, "d": d, "window": window, "stable": True}
    assert rep.to_obj() == {"name": "oracle", "pass": True, "grade": d, "failure": None, "params": params}


@pytest.mark.parametrize("spec", [RATIO, ZERO_INSIDE, QSPEC], ids=["ratio", "rational-zero", "q-rational"])
@pytest.mark.parametrize("m", [-1, 1])
def test_oracle_matches_the_series_above_the_battery_grades(spec, m):
    _, rep = det_oracle_tau(spec, m, 7)
    assert rep.passed and rep.params["stable"]


# -- series truncation modes -------------------------------------------------------------------


def test_remark1_qspec_vanishing():
    spec_zero = check_remark1("q-spec", {"N": 2, "q": F(1, 2)}, 6)
    assert spec_zero.passed


def test_remark1_miwa_vanishing():
    assert check_remark1("miwa", {"N": 2}, 6).passed
    assert check_remark1("miwa", {"N": 1, "x": (F(1, 2),)}, 6).passed


@pytest.mark.parametrize("mode, params", [
    ("miwa", {"N": 3, "x": (F(1, 2), F(1, 3))}),
    ("miwa", {"N": 2, "x": (F(1, 2), F(0))}),
    ("dual", {"K": 2, "q": F(1, 2), "x": (F(1, 2), F(1, 3), F(1, 5))}),
    ("dual", {"K": 1, "q": F(1, 2), "x": (0,)}),
], ids=["miwa-short", "miwa-zero", "dual-long", "dual-zero"])
def test_remark1_refuses_x_it_does_not_cover(mode, params):
    # another count of nonzero variables moves where s_lam(x) vanishes: a failing report would
    # read as a broken identity
    with pytest.raises(ValueError, match=r"needs x of [NK] = \d nonzero values"):
        check_remark1(mode, params, 4)


@pytest.mark.parametrize("mode, params", [
    ("miwa", {"N": 0}),
    ("q-spec", {"N": 0, "q": F(1, 2)}),
    ("dual", {"K": 0, "q": F(1, 2)}),
])
def test_remark1_holds_at_zero_variables(mode, params):
    # zero variables keep only the empty partition: every other lam vanishes
    assert check_remark1(mode, params, 4).passed


def test_remark1_dual():
    assert check_remark1("dual", {"K": 1, "q": F(1, 3)}, 6).passed


def test_remark1_failure_names_first_mismatch():
    parts = [(), (1,), (1, 1), (2, 1)]
    long = lambda lam: len(lam) > 1
    assert _vanishing_failure(parts, long, lambda lam: int(not long(lam))) is None
    late = lambda lam: sum(lam) + 1
    assert _vanishing_failure(parts, long, late) == ("[1, 1]", "3", "0")
    # partitions come first, value routes second: the early miss of the second route wins
    assert _vanishing_failure(parts, long, late, lambda lam: 0) == ("[]", "0", "nonzero")


def test_remark1_rejects_unknown_mode():
    with pytest.raises(ValueError):
        check_remark1("other", {}, 3)


# -- negative controls: the comparisons have teeth ----------------------------------------------


def test_windowed_comparison_catches_wrong_charge_scale():
    # scaling the bilinear right side by r(M+1) instead of r(M) must fail
    from taukit.poly import derivative
    from taukit.rspec import r_eval
    from taukit.schur import GenericTimes
    from taukit.tau import tau_series

    r, m, d = RATIO, 0, 4
    gen = lambda n: tau_series(r, n, d, GenericTimes("t"), GenericTimes("b"))
    t1, b1 = tvar(1), bvar(1)
    tau = gen(m)
    lhs = tau * derivative(derivative(tau, t1), b1) - derivative(tau, t1) * derivative(tau, b1)
    wrong_rhs = (gen(m - 1) * gen(m + 1)).scale(r_eval(r, m + 1))
    assert compare_windowed(lhs, wrong_rhs, d - 1, d - 1) is not None


def test_oracle_comparison_catches_wrong_spec():
    det, _ = det_oracle_tau(RATIO, 0, 3)
    other = tau_series(D, 1, 3, GenericTimes("t"), GenericTimes("b"))
    assert compare_windowed(det, other, 3, 3) is not None


# -- the window block really is a product of nilpotent exponentials ----------------------------


def matrix_exp_nilpotent(x, size, t_max, b_max):
    """exp of a strictly triangular GradedPoly matrix, summed until X^k = 0."""
    from math import factorial

    one = GradedPoly.constant(1, t_max, b_max)
    zero = GradedPoly.zero(t_max, b_max)
    out = [[one if i == j else zero for j in range(size)] for i in range(size)]
    power = [row[:] for row in out]
    for k in range(1, size + t_max + b_max + 1):
        nxt = [[zero for _ in range(size)] for _ in range(size)]
        nonzero = False
        for i in range(size):
            for j in range(size):
                acc = zero
                for l in range(size):
                    if not power[i][l].is_zero() and not x[l][j].is_zero():
                        acc = acc + power[i][l] * x[l][j]
                nxt[i][j] = acc
                nonzero = nonzero or not acc.is_zero()
        power = nxt
        if not nonzero:
            break
        w = F(1, factorial(k))
        for i in range(size):
            for j in range(size):
                if not power[i][j].is_zero():
                    out[i][j] = out[i][j] + power[i][j].scale(w)
    return out


def test_window_block_matches_literal_matrix_exponentials():
    from taukit.rspec import r_eval
    from taukit.verify import _window_block

    r, m, d, window = RATIO, 1, 3, 3
    idx = list(range(-window, d + 1))
    size = len(idx)
    zero = GradedPoly.zero(d, d)

    # xi(t, shift): entry (j, k) = t_{k-j}; on the other side the shift is
    # inverted and weighted by the diagonal r(. + M)
    xi_up = [[zero for _ in idx] for _ in idx]
    xi_dn = [[zero for _ in idx] for _ in idx]
    for a, j in enumerate(idx):
        for b, k in enumerate(idx):
            if 1 <= k - j <= d:
                xi_up[a][b] = GradedPoly.variable(tvar(k - j), d, d)
            if 1 <= j - k <= d:
                prod = F(1)
                for i in range(k, j):
                    prod *= r_eval(r, i + m)
                xi_dn[a][b] = GradedPoly.variable(bvar(j - k), d, d).scale(prod)
    u_plus = matrix_exp_nilpotent(xi_up, size, d, d)
    u_minus = matrix_exp_nilpotent(xi_dn, size, d, d)
    block = _window_block(r, m, d, window)
    for a, j in enumerate(idx):
        if j > 0:
            continue
        for b, k in enumerate(idx):
            if k > 0:
                continue
            entry = zero
            for l in range(size):
                if not u_plus[a][l].is_zero() and not u_minus[l][b].is_zero():
                    entry = entry + u_plus[a][l] * u_minus[l][b]
            assert entry == weighted_sum(block[-j][-k], d, d), (j, k)


def test_window_block_xi_argument_powers():
    # shift matrix powers stay exact inside an interval window: (shift^m)_{jk} = [j = k-m]
    from taukit.verify import _window_block

    block = _window_block(RSpec(), 0, 2, 2)
    # with r = 1 the entry at (j, k) is sum_l p_{l-j}(t) p_{l-k}(b)
    from taukit.schur import power_sums_basis

    pt = power_sums_basis(2, "t")
    pb = power_sums_basis(2, "b")
    for j in (-2, -1, 0):
        for k in (-2, -1, 0):
            want = GradedPoly.zero(2, 2)
            for l in range(max(j, k), 3):
                if l - j > 2 or l - k > 2:
                    continue
                want = want + GradedPoly(2, 2, pt[l - j].terms) * GradedPoly(2, 2, pb[l - k].terms)
            assert weighted_sum(block[-j][-k], 2, 2) == want


# -- randomized battery ------------------------------------------------------------------------


def test_randomized_battery_mixed_charges():
    from taukit.acceptance import draw_lin_rspec, draw_qlin_rspec

    rng = random.Random(11)
    specs = [draw_lin_rspec(rng) for _ in range(3)]
    specs += [draw_qlin_rspec(rng, q, span=9) for q in (F(1, 2), F(1, 3), F(2, 5))]
    for spec in specs:
        for m in (-2, 0, 2):
            assert check_hirota(spec, m, 5).passed
            assert check_toda(spec, m, 5, "generalized").passed
