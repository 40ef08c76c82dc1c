"""Identity checkers: bilinear, lattice, ODE/q-difference, and determinant oracles.

Every checker compares exact rational coefficients inside an explicitly
derived validity window and returns a CheckReport.  The window bookkeeping
rests on the diagonal grading of the series: a tau truncated at grade d is
missing only monomials whose t-weight and b-weight both exceed d, so a
bilinear combination is uncorrupted at diagonal degrees <= d - 1 (each
side draws on tau coefficients at most one grade higher), and a purely
t-differentiated bilinear expression is uncorrupted wherever its b-weight
stays <= d.  Only a differentiated tau is built at grade d: hirota's and
toda's other charges are built at d - 1, the compare window, where their
products and logs are formed, so a pole only their grade d reaches is never met.
hirota's left side is 1/2 D_t1 D_b1 tau.tau from ``hirota_D``, as kp's is;
its products land in the meet of their factors' boxes, the compare window.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import accumulate
from operator import mul

from .partitions import conjugate, enumerate_up_to
from .poly import (
    FAMILY_B,
    FAMILY_T,
    GradedPoly,
    Value,
    bvar,
    derivative,
    exp_series,
    first_difference,
    format_monomial,
    format_rational,
    hirota_D,
    inverse,
    log_series,
    q_number,
    tvar,
    weighted_sum,
)
from .rspec import (
    RSpec,
    content_products,
    r_eval,
    rspec_to_json,
    zero_pole_scan,
)
from .schur import GenericTimes, MiwaTimes, _schur_value, power_sums_basis
from .tau import _basic_q, _family_symbol, prop4_pair, qphi_one_var_coeffs, tau_series

# -- reports ---------------------------------------------------------------------


class CheckReport(Value):
    _fields = ("name", "passed", "max_checked_grade", "first_failure", "params")

    def __init__(self, name: str, max_checked_grade: int, first_failure: tuple | None = None, params: dict | None = None):
        # first_failure is (where, lhs, rhs) as strings, or None: a report passes exactly when it shows no failure
        self.name, self.max_checked_grade, self.first_failure = name, max_checked_grade, first_failure
        self.params = {} if params is None else params

    @property
    def passed(self) -> bool:
        return self.first_failure is None

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


def first_mismatch(triples):
    """The first (where, lhs, rhs) whose two sides differ, each side as ``str``, or None when every pair agrees."""
    return next(((where, str(lhs), str(rhs)) for where, lhs, rhs in triples if lhs != rhs), None)


def _symbol_report(name, failure, grade, r: RSpec, m: int, d: int, **own) -> CheckReport:
    """A check of the symbol r at charge M and degree d: its params echo rspec, M and d, then the check's own keys."""
    return CheckReport(name, grade, failure, {"rspec": rspec_to_json(r), "M": m, "d": d, **own})


# -- bilinear and lattice checks ----------------------------------------------------


def _generic_tau(r: RSpec, m: int, d: int) -> GradedPoly:
    return tau_series(r, m, d, GenericTimes(FAMILY_T), GenericTimes(FAMILY_B))


def _bilinear_window(name: str, d: int) -> int:
    """The diagonal grade d - 1 a bilinear check compares up to; refuses an empty window."""
    if d < 1:
        raise ValueError(f"{name} compares grades up to d - 1: degree d = {d} compares nothing, use -d/--degree >= 1")
    return d - 1


def check_hirota(r: RSpec, m: int, d: int) -> CheckReport:
    """1/2 D_t1 D_b1 tau(M).tau(M) = r(M) tau(M-1) tau(M+1), with tau(M-1) and tau(M+1) built at grade d - 1."""
    window = _bilinear_window("hirota", d)
    t1, b1 = tvar(1), bvar(1)
    tau_lo, tau_mid, tau_hi = (_generic_tau(r, n, d if n == m else window) for n in (m - 1, m, m + 1))
    lhs = hirota_D(tau_mid, tau_mid, [(t1, 1), (b1, 1)]).scale(Fraction(1, 2))
    rhs = weighted_sum(((r_eval(r, m), tau_lo, tau_hi),), window, window)
    failure = compare_windowed(lhs, rhs, window, window)
    return _symbol_report("hirota", failure, window, r, m, d)


def check_toda(r: RSpec, m: int, d: int, gauge: str = "generalized") -> CheckReport:
    """Lattice field equation at site M, in the generalized or standard gauge.

    The field comes from the tau-ratio: exp(-phi_n) = tau(n+1)/tau(n).  The
    standard gauge normalises by h(n) = h(n-1)/r(n), whose couplings are r's
    own values: its report is the generalized one with both sides negated, and
    it refuses integer zeros of r on M-1..M+1, where h is undefined, before any tau is built.
    Only phi_M is differentiated, so only tau(M) and tau(M+1) are built at grade d and their logs formed
    in the box (d, d); tau(M-1), tau(M+2) and the rest are formed in the compare window.
    """
    if gauge not in ("generalized", "standard"):
        raise ValueError(f"unknown gauge {gauge!r}")
    window = _bilinear_window("toda", d)
    if gauge == "standard":
        zeros = [n for n, kind in zero_pole_scan(r, m - 1, m + 1) if kind == "zero"]
        if zeros:
            raise ValueError(f"standard gauge needs r without integer zeros; found at {zeros}")
    t1, b1 = tvar(1), bvar(1)
    logs = {n: log_series(_generic_tau(r, n, d if n in (m, m + 1) else window)) for n in range(m - 1, m + 3)}
    phi = {n: logs[n] - logs[n + 1] for n in range(m - 1, m + 2)}
    lhs = derivative(derivative(phi[m], t1), b1)
    hop_down = exp_series(phi[m - 1] - phi[m])
    hop_up = exp_series(phi[m] - phi[m + 1])
    rhs = weighted_sum(((r_eval(r, m), hop_down), (-r_eval(r, m + 1), hop_up)), window, window)
    if gauge == "standard":
        lhs, rhs = -lhs, -rhs
    failure = compare_windowed(lhs, rhs, window, window)
    return _symbol_report("toda", failure, window, r, m, d, gauge=gauge)


def check_kp_bilinear(r: RSpec, m: int, d: int) -> CheckReport:
    """(D_t1^4 + 3 D_t2^2 - 4 D_t1 D_t3) tau . tau = 0, b-variables spectators.

    Every monomial of the expression has t-weight = b-weight - 4, and the
    coefficients with b-weight <= d are exact, so the window filters on the
    b-weight alone; below d = 4 it holds no coefficient.
    """
    if d < 4:
        raise ValueError(f"kp compares b-weights 4..d: degree d = {d} compares nothing, use -d/--degree >= 4")
    tau = _generic_tau(r, m, d)
    terms = ((1, [(tvar(1), 4)]), (3, [(tvar(2), 2)]), (-4, [(tvar(1), 1), (tvar(3), 1)]))
    # each Hirota derivative lowers the t-bound by 4 and keeps the b-bound: the box (d - 4, d)
    expr = weighted_sum(((c, hirota_D(tau, tau, alpha)) for c, alpha in terms), d - 4, d)
    zero = GradedPoly.zero(expr.t_max, expr.b_max)
    failure = compare_windowed(expr, zero, expr.t_max, d)
    return _symbol_report("kp", failure, d, r, m, d)


# -- termwise series equations --------------------------------------------------------


def _check_termwise(name: str, a, b, q, order: int) -> CheckReport:
    """[k + 1] c_{k+1} = r(k) c_k for k < order, [x] = q_number(x, q), r the family symbol of (a, b, q)."""
    if order < 1:
        raise ValueError(f"{name} compares x^0..x^(order-1): order = {order} compares nothing, use --order >= 1")
    r = _family_symbol(a, b, q)
    q = r.q
    coeffs = qphi_one_var_coeffs(a, b, 0, q, order)
    failure = first_mismatch((f"x^{k}", q_number(k + 1, q) * coeffs[k + 1], r_eval(r, k) * coeffs[k]) for k in range(order))
    params = {"a": [format_rational(v) for v in a], "b": [format_rational(v) for v in b]}
    if q is not None:
        params["q"] = format_rational(q)
    params["order"] = order
    return CheckReport(name, order, failure, params)


def check_ode(a, b, order: int) -> CheckReport:
    """(d_x - r(x d_x)) F = 0 termwise: (k+1) c_{k+1} = r(k) c_k."""
    return _check_termwise("ode", a, b, None, order)


def check_qdiff(a, b, q, order: int) -> CheckReport:
    """(x^{-1}(1 - q^{x d_x}) - r_q(x d_x)) Phi = 0 termwise: (1 - q^{k+1}) c_{k+1} = r_q(k) c_k."""
    return _check_termwise("qdiff", a, b, q, order)


# -- determinant oracle ----------------------------------------------------------------


def _window_block(r: RSpec, m: int, d: int, window: int) -> list:
    """Non-positive-index block of U+(t) U-(M, beta) as rows of entry pieces, corner first.

    Rows and columns run over the indices 0, -1, ..., -window in that order.
    U+ = exp(xi(t, shift)) has entries p_{k-j}(t); U- = exp(xi(beta,
    shift^{-1} r(diag + M))) has entries p_{j-k}(beta) r(k+M)...r(j-1+M).
    Both exponentials are finite sums because the truncated shifts are
    nilpotent; entry sums stop where the graded truncation kills them.
    Each entry is handed over unsummed, as its pieces (r(k+M)...r(l-1+M), p_{l-j}(t), p_{l-k}(beta)).
    """
    pt, pb = power_sums_basis(d, FAMILY_T), power_sums_basis(d, FAMILY_B)
    rval = {n: r_eval(r, n + m) for n in range(-window, d)}

    def entry(j: int, k: int) -> list:
        ls = range(k, min(j, k) + d + 1)
        prods = accumulate((rval[l] for l in ls[:-1]), mul, initial=Fraction(1))  # r(k+M)...r(l-1+M) for l in ls
        return [(c, pt[l - j], pb[l - k]) for l, c in zip(ls, prods) if l >= j and c]

    idx = range(0, -window - 1, -1)
    return [[entry(j, k) for k in idx] for j in idx]


def _factor_boxes(d: int) -> tuple:
    """(box of every entry of L and U, box of a pivot's inverse).  In the corner-first order entry (row, col) has
    t-weight minus b-weight row - col, so one off the diagonal holds nothing above (d, d - 1) or (d - 1, d), while
    (d, d) is exact in any order.  An inverse, of t-weight = b-weight, is read only times an off-diagonal sum: its
    layer (d, d) reaches nothing, so it is formed in (d - 1, d - 1), at d = 0 in (0, 0)."""
    return (d, d), (max(d - 1, 0),) * 2


def _corner_dets(rows: list, d: int) -> list:
    """Leading principal minors of the block whose entries sum the pieces in ``rows``, from one factorization.

    Left-looking (Doolittle) A = L U, L unit lower triangular, row k of U then column k of L, in the order given:
    each entry is one kernel call, in its ``_factor_boxes`` box, over A's pieces and its elimination products.
    Corner first (``_window_block``), entry k, the product of the first k + 1 pivots, is the determinant of the
    window -k..0.  The block is the identity plus positive-grade terms, so each pivot is a unit.
    """
    box, inverse_box = _factor_boxes(d)
    n = len(rows)
    low, up = ([[None] * n for _ in range(n)] for _ in range(2))

    def reduced(i, c):  # A[i][c] - sum_{j < min(i, c)} L[i][j] U[j][c]
        return weighted_sum(rows[i][c] + [(-1, low[i][j], up[j][c]) for j in range(min(i, c))], *box)

    dets: list = []
    for k in range(n):
        up[k][k:] = [reduced(k, c) for c in range(k, n)]
        piv = up[k][k]
        if piv.constant_term() == 0:
            raise ArithmeticError("non-unit pivot in triangular factorization")
        dets.append(dets[-1] * piv if dets else piv)
        inv = inverse(weighted_sum(((1, piv),), *inverse_box)) if k + 1 < n else None
        for i in range(k + 1, n):
            # the kernel, not *: the meet of the two boxes would cut the entry to the inverse's box
            low[i][k] = weighted_sum(((1, reduced(i, k), inv),), *box)
    return dets


def det_oracle_tau(r: RSpec, m: int, d: int, window: int | None = None, extra_windows=(1,)):
    """Tau as the determinant of the non-positive block of triangular exponentials.

    Returns (determinant, CheckReport); the report records the coefficient
    match against the series route and the stabilization of the determinant
    across windows window + w, w in extra_windows (each >= 1), all read from
    one corner-first L U factorization of the widest block (``_corner_dets``).
    """
    if window is None:
        window = d
    if window < d:
        raise ValueError(f"--window must be >= -d/--degree ({d}), got {window}")
    if not extra_windows or min(extra_windows) < 1:
        raise ValueError(f"extra_windows must be non-empty with every entry >= 1, got {extra_windows!r}")
    dets = _corner_dets(_window_block(r, m, d, window + max(extra_windows)), d)
    det_w = dets[window]
    stable_failure = None
    for extra in extra_windows:
        stable_failure = stable_failure or compare_windowed(det_w, dets[window + extra], d, d)
    failure = compare_windowed(det_w, _generic_tau(r, m, d), d, d)
    report = _symbol_report("oracle", failure or stable_failure, d, r, m, d, window=window, stable=stable_failure is None)
    return det_w, report


# -- reparametrized pairs --------------------------------------------------------------


def check_prop4(r: RSpec, b, m: int, d: int) -> CheckReport:
    """Proposition 4: the two sides of ``prop4_pair`` agree at t-weight <= d."""
    left, right = prop4_pair(r, b, m, d, GenericTimes())
    failure = compare_windowed(left, right, d, d)
    return CheckReport("prop4", d, failure, {"b": format_rational(b), "M": m, "d": d})


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
        symbol = _family_symbol((sign * cut,), (), q)
        routes.append(dict(content_products(symbol, parts, 0)).__getitem__)
    if mode != "q-spec":
        x = params.get("x", [Fraction(1, i + 2) for i in range(cut)])
        if len(x) != cut or 0 in x:
            raise ValueError(f"remark1 {mode} needs x of {key} = {cut} nonzero values, got [{', '.join(map(str, x))}]")
        times = MiwaTimes(x, sign)
        routes.append(lambda lam: _schur_value(lam, (), times, d))
    echo = {"mode": mode, key: cut, **({} if q is None else {"q": format_rational(q)}), "d": d}
    failure = _vanishing_failure(parts, vanishes, *routes)
    return CheckReport("remark1", d, failure, echo)
