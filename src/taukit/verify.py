"""Identity checkers: bilinear, lattice, ODE/q-difference, and determinant oracles.

Every checker compares exact rational coefficients inside an explicitly
derived validity window and returns a CheckReport.  The window bookkeeping
rests on the diagonal grading of the series: a tau truncated at grade d is
missing only monomials whose t-weight and b-weight both exceed d, so a
bilinear combination is uncorrupted at diagonal degrees <= d - 1 (each
side draws on tau coefficients at most one grade higher), and a purely
t-differentiated bilinear expression is uncorrupted wherever its b-weight
stays <= d.  Products are formed in the compare window alone (``mul_in``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

from .partitions import conjugate, enumerate_up_to
from .poly import (
    FAMILY_B,
    FAMILY_T,
    GradedPoly,
    bvar,
    derivative,
    exp_series,
    first_difference,
    format_monomial,
    format_rational,
    hirota_D,
    inverse,
    lift,
    log_series,
    mul_in,
    q_number,
    tvar,
    weighted_sum,
)
from .rspec import (
    QLinFactor,
    RSpec,
    content_products,
    r_eval,
    rspec_to_json,
    zero_pole_scan,
)
from .schur import GenericTimes, MiwaTimes, power_sums_basis, schur_poly
from .tau import _basic_q, _family_symbol, _row_coeffs, prop4_pair, tau_series

# -- reports ---------------------------------------------------------------------


@dataclass
class CheckReport:
    name: str
    passed: bool
    max_checked_grade: int
    first_failure: tuple | None = None  # (where, lhs, rhs) as strings
    params: dict = field(default_factory=dict)

    def to_obj(self) -> dict:
        failure = None
        if self.first_failure is not None:
            where, lhs, rhs = self.first_failure
            failure = {"at": where, "lhs": lhs, "rhs": rhs}
        return {
            "name": self.name,
            "pass": self.passed,
            "grade": self.max_checked_grade,
            "failure": failure,
            "params": self.params,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_obj(), separators=(",", ":"))


def compare_windowed(lhs: GradedPoly, rhs: GradedPoly, t_max: int, b_max: int):
    """First differing coefficient with t-weight <= t_max and b-weight <= b_max."""
    diff = first_difference(lhs, rhs, t_max, b_max)
    return diff and (format_monomial(diff[0]), format_rational(diff[1]), format_rational(diff[2]))


def _report(name, failure, grade, params) -> CheckReport:
    return CheckReport(
        name=name,
        passed=failure is None,
        max_checked_grade=grade,
        first_failure=failure,
        params=params,
    )


# -- bilinear and lattice checks ----------------------------------------------------


def _generic_tau(r: RSpec, m: int, d: int) -> GradedPoly:
    return tau_series(r, m, d, GenericTimes(FAMILY_T), GenericTimes(FAMILY_B))


def _bilinear_window(name: str, d: int) -> int:
    """The diagonal grade d - 1 a bilinear check compares up to; refuses an empty window."""
    if d < 1:
        raise ValueError(f"{name} compares grades up to d - 1: degree d = {d} compares nothing, use -d/--degree >= 1")
    return d - 1


def check_hirota(r: RSpec, m: int, d: int) -> CheckReport:
    """tau(M) d_b1 d_t1 tau(M) - d_t1 tau(M) d_b1 tau(M) = r(M) tau(M-1) tau(M+1)."""
    window = _bilinear_window("hirota", d)
    w = (window, window)
    t1, b1 = tvar(1), bvar(1)
    tau_lo, tau_mid, tau_hi = (_generic_tau(r, n, d) for n in (m - 1, m, m + 1))
    d_t, d_b = derivative(tau_mid, t1), derivative(tau_mid, b1)
    lhs = mul_in(tau_mid, derivative(d_t, b1), *w) - mul_in(d_t, d_b, *w)
    rhs = mul_in(tau_lo, tau_hi, *w).scale(r_eval(r, m))
    failure = compare_windowed(lhs, rhs, window, window)
    return _report(
        "hirota", failure, window, {"rspec": rspec_to_json(r), "M": m, "d": d}
    )


def check_toda(r: RSpec, m: int, d: int, gauge: str = "generalized") -> CheckReport:
    """Lattice field equation at site M, in the generalized or standard gauge.

    The field comes from the tau-ratio: exp(-phi_n) = tau(n+1)/tau(n).  The
    standard gauge normalises by h(n) = h(n-1)/r(n), whose couplings are r's
    own values: its report is the generalized one with both sides negated, and
    it refuses integer zeros of r on M-1..M+1, where h is undefined.
    Only phi_M is differentiated, so only log tau(M) and log tau(M+1) are
    formed in the taus' box (d, d); the rest is formed in the compare window.
    """
    if gauge not in ("generalized", "standard"):
        raise ValueError(f"unknown gauge {gauge!r}")
    window = _bilinear_window("toda", d)
    w = (window, window)
    t1, b1 = tvar(1), bvar(1)
    taus = {n: _generic_tau(r, n, d) for n in range(m - 1, m + 3)}
    logs = {n: log_series(tau if n in (m, m + 1) else lift(tau, *w)) for n, tau in taus.items()}
    phi = {n: logs[n] - logs[n + 1] for n in range(m - 1, m + 2)}
    lhs = derivative(derivative(phi[m], t1), b1)
    hop_down = exp_series(phi[m - 1] - phi[m])
    hop_up = exp_series(phi[m] - phi[m + 1])
    rhs = hop_down.scale(r_eval(r, m)) - hop_up.scale(r_eval(r, m + 1))
    if gauge == "standard":
        zeros = [n for n, kind in zero_pole_scan(r, m - 1, m + 1) if kind == "zero"]
        if zeros:
            raise ValueError(f"standard gauge needs r without integer zeros; found at {zeros}")
        lhs, rhs = -lhs, -rhs
    failure = compare_windowed(lhs, rhs, window, window)
    return _report(
        "toda", failure, window,
        {"rspec": rspec_to_json(r), "M": m, "d": d, "gauge": gauge},
    )


def check_kp_bilinear(r: RSpec, m: int, d: int) -> CheckReport:
    """(D_t1^4 + 3 D_t2^2 - 4 D_t1 D_t3) tau . tau = 0, b-variables spectators.

    Every monomial of the expression has t-weight = b-weight - 4, and the
    coefficients with b-weight <= d are exact, so the window filters on the
    b-weight alone; below d = 4 it holds no coefficient.
    """
    if d < 4:
        raise ValueError(f"kp compares b-weights 4..d: degree d = {d} compares nothing, use -d/--degree >= 4")
    tau = _generic_tau(r, m, d)
    expr = (
        hirota_D(tau, tau, [(tvar(1), 4)])
        + hirota_D(tau, tau, [(tvar(2), 2)]).scale(3)
        - hirota_D(tau, tau, [(tvar(1), 1), (tvar(3), 1)]).scale(4)
    )
    zero = GradedPoly.zero(expr.t_max, expr.b_max)
    failure = compare_windowed(expr, zero, 2 * d, d)
    return _report(
        "kp", failure, d, {"rspec": rspec_to_json(r), "M": m, "d": d}
    )


# -- termwise series equations --------------------------------------------------------


def _check_termwise(name: str, a, b, q, order: int) -> CheckReport:
    """[k + 1] c_{k+1} = r(k) c_k for k < order, [x] = q_number(x, q), r the family symbol of (a, b, q)."""
    if order < 1:
        raise ValueError(f"{name} compares x^0..x^(order-1): order = {order} compares nothing, use --order >= 1")
    if q is not None:
        q = _basic_q(q)
    a = [Fraction(v) for v in a]
    b = [Fraction(v) for v in b]
    r = _family_symbol(a, b, q)
    coeffs = _row_coeffs(r, 0, order)
    failure = None
    for k in range(order):
        lhs, rhs = q_number(k + 1, q) * coeffs[k + 1], r_eval(r, k) * coeffs[k]
        if lhs != rhs:
            failure = (f"x^{k}", format_rational(lhs), format_rational(rhs))
            break
    params = {"a": [format_rational(v) for v in a], "b": [format_rational(v) for v in b]}
    if q is not None:
        params["q"] = format_rational(q)
    params["order"] = order
    return _report(name, failure, order, params)


def check_ode(a, b, order: int) -> CheckReport:
    """(d_x - r(x d_x)) F = 0 termwise: (k+1) c_{k+1} = r(k) c_k."""
    return _check_termwise("ode", a, b, None, order)


def check_qdiff(a, b, q, order: int) -> CheckReport:
    """(x^{-1}(1 - q^{x d_x}) - r_q(x d_x)) Phi = 0 termwise: (1 - q^{k+1}) c_{k+1} = r_q(k) c_k."""
    return _check_termwise("qdiff", a, b, q, order)


# -- determinant oracle ----------------------------------------------------------------


def _window_block(r: RSpec, m: int, d: int, window: int) -> list:
    """Non-positive-index block of U+(t) U-(M, beta) as rows, corner first.

    Rows and columns run over the indices 0, -1, ..., -window in that order.
    U+ = exp(xi(t, shift)) has entries p_{k-j}(t); U- = exp(xi(beta,
    shift^{-1} r(diag + M))) has entries p_{j-k}(beta) r(k+M)...r(j-1+M).
    Both exponentials are finite sums because the truncated shifts are
    nilpotent; entry sums stop where the graded truncation kills them.
    Each product p_a(t) p_b(beta) is formed once and shared by the entries.
    """
    pt, pb = power_sums_basis(d, FAMILY_T), power_sums_basis(d, FAMILY_B)
    pair = {(a, b): pt[a] * pb[b] for a in range(d + 1) for b in range(d + 1)}
    rval = {n: r_eval(r, n + m) for n in range(-window, d)}

    def entry(j: int, k: int) -> GradedPoly:
        pieces = []
        prod_r = Fraction(1)
        for l in range(k, min(j, k) + d + 1):
            if l > k:
                prod_r *= rval[l - 1]
            if l >= j and prod_r:
                pieces.append((prod_r, pair[l - j, l - k]))
        return weighted_sum(pieces, d, d)

    idx = range(0, -window - 1, -1)
    return [[entry(j, k) for k in idx] for j in idx]


def _corner_dets(rows: list) -> list:
    """Leading principal minors of the corner-first rows, from one elimination.

    The rows come corner first (``_window_block``), so entry k, the product
    of the first k + 1 pivots, is the determinant of the window -k..0.  The block is the identity plus
    positive-grade terms, so each pivot is a unit; the last one has no rows
    below it and is never inverted.
    """
    a = list(rows)
    n = len(a)
    dets: list = []
    for col in range(n):
        piv = a[col][col]
        if piv.constant_term() == 0:
            raise ArithmeticError("non-unit pivot in triangular factorization")
        dets.append(dets[-1] * piv if dets else piv)
        inv = inverse(piv) if col + 1 < n else None
        for row in range(col + 1, n):
            if a[row][col].is_zero():
                continue
            factor = a[row][col] * inv
            a[row] = [
                a[row][c] - factor * a[col][c] if c > col else a[row][c]
                for c in range(n)
            ]
    return dets


def det_oracle_tau(r: RSpec, m: int, d: int, window: int | None = None, extra_windows=(1,)):
    """Tau as the determinant of the non-positive block of triangular exponentials.

    Returns (determinant, CheckReport); the report records the coefficient
    match against the series route and the stabilization of the determinant
    across windows window + w, w in extra_windows (each >= 1), all read from
    one corner-first elimination of the widest block.
    """
    if window is None:
        window = d
    if window < d:
        raise ValueError("window must be >= d")
    if not extra_windows or min(extra_windows) < 1:
        raise ValueError(f"extra_windows must be non-empty with every entry >= 1, got {extra_windows!r}")
    dets = _corner_dets(_window_block(r, m, d, window + max(extra_windows)))
    det_w = dets[window]
    stable_failure = None
    for extra in extra_windows:
        stable_failure = stable_failure or compare_windowed(det_w, dets[window + extra], d, d)
    failure = compare_windowed(det_w, _generic_tau(r, m, d), d, d)
    params = {
        "rspec": rspec_to_json(r),
        "M": m,
        "d": d,
        "window": window,
        "stable": stable_failure is None,
    }
    report = _report("oracle", failure or stable_failure, d, params)
    return det_w, report


# -- reparametrized pairs --------------------------------------------------------------


def check_prop4(r: RSpec, b, m: int, d: int) -> CheckReport:
    """Proposition 4: the two sides of ``prop4_pair`` agree at t-weight <= d."""
    left, right = prop4_pair(r, b, m, d, GenericTimes())
    failure = compare_windowed(left, right, d, d)
    return _report("prop4", failure, d, {"b": format_rational(b), "M": m, "d": d})


# -- truncation checks -------------------------------------------------------------------


def _vanishing_failure(parts, should_vanish, *value_fns):
    """First lam where a value is zero although it should not be, or the reverse."""
    for lam in parts:
        vanish = should_vanish(lam)
        for value_of in value_fns:
            value = value_of(lam)
            if (value == 0) != vanish:
                return (str(list(lam)), format_rational(value), "0" if vanish else "nonzero")
    return None


def check_remark1(mode: str, params: dict, d: int) -> CheckReport:
    """Length restrictions of the series: content zeros versus Schur vanishing.

    q-spec: a factor (1 - q^{N+D}) kills r_lam(0) exactly when l(lam) > N;
    miwa:   s_lam of N variables vanishes exactly when l(lam) > N;
    dual:   the conjugate statements via (1 - q^{-K+D}) and the negated
            Miwa substitution on K variables.
    The Miwa variables params["x"] (default 1/2, 1/3, ...) must be N (or K) nonzero rationals.
    """
    if mode not in ("q-spec", "miwa", "dual"):
        raise ValueError(f"unknown mode {mode!r}")
    key = "K" if mode == "dual" else "N"
    cut = int(params[key])
    if cut < 0:
        raise ValueError(f"remark1 cuts lengths at {key} = {cut}, which is negative: use --nvars >= 0")
    q = None if mode == "miwa" else _basic_q(params["q"])
    sign = -1 if mode == "dual" else 1
    vanishes = lambda lam: len(conjugate(lam) if mode == "dual" else lam) > cut
    parts = enumerate_up_to(d)
    routes = []
    if mode != "miwa":
        spec = RSpec(num=(QLinFactor(Fraction(1), Fraction(sign * cut)),), q=q)
        routes.append(dict(content_products(spec, parts, 0)).__getitem__)
    if mode != "q-spec":
        x = params.get("x", [Fraction(1, i + 2) for i in range(cut)])
        if len(x) != cut or 0 in x:
            raise ValueError(f"remark1 {mode} needs x of {key} = {cut} nonzero values, got [{', '.join(map(str, x))}]")
        times = MiwaTimes(x, sign)
        routes.append(lambda lam: schur_poly(lam, times, d))
    echo = {"mode": mode, key: cut, **({} if q is None else {"q": format_rational(q)}), "d": d}
    failure = _vanishing_failure(parts, vanishes, *routes)
    return _report("remark1", failure, d, echo)
