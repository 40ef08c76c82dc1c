"""Seeded inputs and the fixed operation list of each workload.

An operation is one checker call, or in ``cli`` one fresh ``taukit``
process.  Every operation carries a check that compares its
output with an independent reference from ``refs`` or with a property the
method must have.  The program receives only the generated symbols and
arguments; the seed never reaches it.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path
from time import perf_counter

import refs
import spans

WORKLOADS = ("bilinear", "oracle", "series", "cli")

# The pools are narrow on purpose: every draw has numbers of about the same
# height, so every seed asks for about the same work and the spread between
# runs is the machine's, not the inputs'.
THIRDS = [F(k, 3) for k in (1, 2, 4, 5)]
FIFTHS = [F(k, 5) for k in (1, 2, 3, 4, 6, 7, 8, 9)]
Q = F(1, 2)
QCOEFF = [F(2, 5), F(3, 5), F(2, 7), F(3, 7), F(4, 7), F(5, 7)]
XS = [F(1, 5), F(2, 5), F(3, 5), F(1, 7), F(2, 7), F(3, 7), F(4, 7)]
AW = [F(1, 5), F(1, 7), F(2, 7), F(1, 11), F(1, 3), F(2, 9)]


def another_round(start, done, seconds):
    """Whether one more round, as long as the average so far, ends within ``seconds``.

    Runs are whole rounds, so that ``failed`` is the same share of
    ``attempted`` in every run, and they end near ``seconds``, not a round past it.
    """
    elapsed = perf_counter() - start
    return elapsed * (done + 1) / done <= seconds


class Op:
    """One timed operation: ``run()`` gives the output, ``check(out)`` an error or None."""

    def __init__(self, name, run, check):
        self.name, self.run, self.check = name, run, check


QLIN_FACTORS = [(c, k) for c in QCOEFF for k in (0, 1)]


def lin(rng, zero_at=None):
    """c * (D + s) / (D + s') with s in thirds and s' in fifths, c = 2 or 1/2.

    With ``zero_at`` one more numerator factor puts an integer zero there.
    """
    s_num, s_den = rng.choice(THIRDS), rng.choice(FIFTHS)
    num = [{"lin": {"shift": str(s_num)}}]
    if zero_at is not None:
        num.append({"lin": {"shift": str(-zero_at)}})
    return {"constant": str(rng.choice((F(2), F(1, 2)))), "num": num, "den": [{"lin": {"shift": str(s_den)}}]}


def qlin(rng, span):
    """One q-linear factor over a different one, q = 1/2, free of zeros and poles on [-span, span].

    The factors must differ as functions too: 4/7 q^(1+D) is 2/7 q^D, and
    that pair would make r = 1, far less work than any other draw.
    """
    while True:
        (c1, k1), (c2, k2) = rng.sample(QLIN_FACTORS, 2)
        if c1 * Q**k1 == c2 * Q**k2:
            continue
        obj = {
            "constant": "1",
            "q": str(Q),
            "num": [{"qlin": {"coeff": str(c1), "shift": str(k1)}}],
            "den": [{"qlin": {"coeff": str(c2), "shift": str(k2)}}],
        }
        if all(refs.r_value(obj, n) for n in range(-span, span + 1)):
            return obj


def rat_list(values):
    return ",".join(str(F(v)) for v in values)


# -- checks shared by the in-process workloads ---------------------------------------


def keyed(poly):
    """A GradedPoly's terms in the reference monomial notation."""
    return {tuple(sorted((v.family, v.index, e) for v, e in m)): c for m, c in poly.terms.items()}


def same(label, got, want):
    return None if got == want else f"{label}: got {got!r}, want {want!r}"


def report_ok(report, name, grade):
    if report.name != name or not report.passed:
        return f"{name}: report {report.to_json()}"
    return same(f"{name} window", report.max_checked_grade, grade)


def low_grades_ok(poly, obj, m):
    return same("grades <= 2", refs.window(keyed(poly), 2, 2), refs.window(refs.tau_low_grades(obj, m), 2, 2))


# -- bilinear --------------------------------------------------------------------------


def bilinear(tk, seed):
    """Three symbols at charges -1, 0, 1 (order seeded): hirota and kp at d = 8, toda at d = 7.

    A and C have no integer zeros, so toda runs in both gauges on them; B has
    an integer zero three steps below its charge and runs the generalized
    gauge only.
    """
    rng = random.Random(f"{seed}/bilinear")
    charges = rng.sample((-1, 0, 1), 3)
    syms = [lin(rng), lin(rng, zero_at=charges[1] - 3), qlin(rng, 14)]
    ops = []
    for tag, obj, m in zip("ABC", syms, charges):
        r = tk.rspec_from_json(json.dumps(obj))
        gauges = ("generalized",) if tag == "B" else ("generalized", "standard")
        ops.append(Op(f"hirota {tag}", lambda r=r, m=m: tk.check_hirota(r, m, 8),
                      lambda out: report_ok(out, "hirota", 7)))
        for g in gauges:
            ops.append(Op(f"toda {g} {tag}", lambda r=r, m=m, g=g: tk.check_toda(r, m, 7, g),
                          lambda out: report_ok(out, "toda", 6)))
        ops.append(Op(f"kp {tag}", lambda r=r, m=m: tk.check_kp_bilinear(r, m, 8),
                      lambda out: report_ok(out, "kp", 8)))
    # the rendered taus behind the checks, against r alone and the Cauchy kernel
    extra = [(obj, tk.rspec_from_json(json.dumps(obj)), m) for obj, m in zip(syms, charges)]

    def validate():
        for obj, r, m in extra:
            err = low_grades_ok(generic_tau(tk, r, m, 8), obj, m)
            if err:
                return err
        return None

    return ops, (7, 8), validate


def generic_tau(tk, r, m, d):
    from taukit.schur import GenericTimes

    return tk.tau_series(r, m, d, GenericTimes("t"), GenericTimes("b"))


def warm(tk, grades):
    """Untimed pass that fills the Schur caches: the r = 1 tau at each grade."""
    return {d: generic_tau(tk, tk.RSpec(), 0, d) for d in grades}


def warm_ok(taus):
    for d, tau in taus.items():
        err = same(f"r = 1 tau at d = {d}", keyed(tau), refs.cauchy_kernel(d))
        if err:
            return err
    return None


# -- oracle ----------------------------------------------------------------------------


def oracle(tk, seed):
    """det_oracle_tau over windows d, d+1, d+2: r = 1 at d = 6, a rational and a
    q-rational symbol at d = 5, each at two seeded charges."""
    rng = random.Random(f"{seed}/oracle")
    charges = rng.sample((-1, 0, 1), 2)
    one = {"constant": "1", "num": [], "den": []}
    cases = [("one", one, 0, 6)]
    for tag, obj in (("lin", lin(rng)), ("qlin", qlin(rng, 12))):
        cases += [(tag, obj, m, 5) for m in charges]
    ops = []
    for tag, obj, m, d in cases:
        r = tk.rspec_from_json(json.dumps(obj))

        def check(out, obj=obj, m=m, d=d, tag=tag):
            det, report = out
            err = report_ok(report, "oracle", d) or same("window", report.params["window"], d)
            err = err or same("stable across windows", report.params["stable"], True)
            if err:
                return err
            if tag == "one":
                return same("r = 1 determinant", keyed(det), refs.cauchy_kernel(d))
            return low_grades_ok(det, obj, m)

        ops.append(Op(f"oracle {tag} M={m} d={d}",
                      lambda r=r, m=m, d=d: tk.det_oracle_tau(r, m, d, d, (1, 2)), check))
    return ops, (5, 6), None


# -- series ----------------------------------------------------------------------------


def series(tk, seed):
    """The specialised and numeric routes, each checked against refs."""
    from taukit.schur import MiwaTimes, PrincipalTimes

    rng = random.Random(f"{seed}/series")
    m = rng.choice((-1, 0, 1))
    r_obj, q_obj = lin(rng), qlin(rng, 18)
    r, rq = (tk.rspec_from_json(json.dumps(o)) for o in (r_obj, q_obj))
    x = rng.sample(XS, 4)
    y = rng.sample(XS, 2)
    a_pr = rng.choice(THIRDS) + 1
    a2, b1 = [rng.choice(THIRDS), rng.choice(FIFTHS)], [rng.choice(FIFTHS) + 1]
    q = Q
    qa, qb = [rng.choice((1, 2))], [rng.choice((5, 6))]
    oa, ob = [rng.choice((2, 3)), rng.choice((2, 3))], [rng.choice((3, 4))]
    aw = rng.sample(AW, 4)
    aw_q, aw_cos = rng.choice((F(1, 3), F(1, 2))), rng.choice((F(1, 2), F(1, 3)))
    ops = []

    def build(obj, rr, d):
        ops.append(Op(f"build d={d}", lambda: tk.TauExpansion.build(rr, m, d),
                      lambda out: same("coefficients", out.coeffs, refs.content_products(obj, m, d))))

    build(r_obj, r, 15)
    build(q_obj, rq, 16)

    def numeric(label, run, want):
        ops.append(Op(label, run, lambda out: same(label, out, want())))

    numeric("tau_series miwa x principal d=10",
            lambda: tk.tau_series(r, m, 10, MiwaTimes(tuple(x[:2])), PrincipalTimes(a_pr)),
            lambda: refs.tau_numeric(refs.content_products(r_obj, m, 10), lambda l: refs.schur_bialternant(l, x[:2]),
                                     lambda l: refs.schur_principal(l, a_pr)))
    numeric("tau_series r=1 miwa x miwa d=10",
            lambda: tk.tau_series(tk.RSpec(), 0, 10, MiwaTimes(tuple(x[:3])), MiwaTimes(tuple(y))),
            lambda: refs.cauchy_product(x[:3], y, 10))
    numeric("pfs_multivar d=10",
            lambda: tk.pfs_multivar(a2, b1, m, MiwaTimes(tuple(x[:2])), 10),
            lambda: refs.tau_numeric(refs.family_coeffs(a2, b1, m, 10, max_len=2),
                                     lambda l: refs.schur_bialternant(l, x[:2]), lambda l: 1))
    for nvars, d in ((3, 12), (4, 10)):
        numeric(f"qphi_multivar {nvars} vars d={d}",
                lambda nvars=nvars, d=d: tk.qphi_multivar(qa, qb, m, q, tuple(x[:nvars]), d),
                lambda nvars=nvars, d=d: refs.tau_numeric(
                    refs.family_coeffs(qa, qb, m, d, q, max_len=nvars),
                    lambda l: refs.schur_bialternant(l, x[:nvars]), lambda l: 1))
    chain = tk.ChainSpec(left=((r, MiwaTimes((x[0],))), (r, MiwaTimes((x[1],)))),
                         right=((tk.RSpec(), MiwaTimes(tuple(y))),))
    numeric("tau_general two layers d=9", lambda: tk.tau_general(chain, m, 9),
            lambda: refs.tau_numeric(refs.content_products(r_obj, m, 9), lambda l: refs.schur_bialternant(l, x[:2]),
                                     lambda l: refs.schur_bialternant(l, y)))
    numeric("pfq_one_var_coeffs order=100", lambda: tk.pfq_one_var_coeffs(oa, ob, m, 100),
            lambda: refs.term_ratio_coeffs(oa, ob, m, 100))
    numeric("qphi_one_var_coeffs order=100", lambda: tk.qphi_one_var_coeffs(oa, ob, m, q, 100),
            lambda: refs.term_ratio_coeffs(oa, ob, m, 100, q))
    n_cut = rng.choice((2, 3))
    for mode, params, d in (("q-spec", {"N": n_cut, "q": q}, 12),
                            ("miwa", {"N": 2, "x": tuple(y)}, 11),
                            ("dual", {"K": 2, "q": q, "x": tuple(y)}, 10)):
        ops.append(Op(f"remark1 {mode} d={d}", lambda mode=mode, params=params, d=d:
                      tk.check_remark1(mode, params, d),
                      lambda out, d=d: report_ok(out, "remark1", d)))
    for n, pref in ((8, True), (12, False)):
        def aw_sym(out, n=n, pref=pref):
            a, b, c, dd = aw
            for bb, cc, ddd in ((b, dd, c), (c, b, dd), (c, dd, b), (dd, b, c), (dd, c, b)):
                got = tk.askey_wilson(n, a, bb, cc, ddd, aw_q, aw_cos, pref)
                if got != out:
                    return f"askey_wilson n={n} not symmetric in b, c, d: {got} != {out}"
            return None

        ops.append(Op(f"askey_wilson n={n}",
                      lambda n=n, pref=pref: tk.askey_wilson(n, *aw, aw_q, aw_cos, pref), aw_sym))
    return ops, (), None


# -- cli -------------------------------------------------------------------------------

# Fails today: q^(1/4) powers are not carried, so q = 1/2 reports "is irrational"
# although the highest-weight coefficient is 1 for every q.
CG_FAILING = ["eval", "cg", "--params", "1/2,1/2,1,1/2,1/2", "--q", "1/2"]
TRACECLI = str(Path(__file__).resolve().parent / "tracecli.py")


def taukit_command(argv):
    """One fresh ``taukit`` process; its stdout, or an error if it exits non-zero.

    Under ``spans.installed`` the command runs through tracecli.py, and the
    span totals it leaves on the last line of stderr go to the tracer.
    """
    def run():
        tracer = spans.current()
        head = [TRACECLI] if tracer else ["-m", "taukit.cli"]
        proc = subprocess.run([sys.executable, *head, *argv], capture_output=True, text=True)
        err = proc.stderr
        if tracer:
            err, _, totals = err.rstrip("\n").rpartition("\n")
            tracer.merge(json.loads(totals))
        if proc.returncode != 0:
            raise RuntimeError(f"exit {proc.returncode}: {err.strip()}")
        return proc.stdout

    return run


def cli(tk, seed):
    """Seventeen ``taukit`` commands, one fresh process each, run in this order."""
    rng = random.Random(f"{seed}/cli")
    m = rng.choice((-1, 0, 1))
    r_obj, q_obj = lin(rng), qlin(rng, 10)
    r_js, q_js = (json.dumps(o, separators=(",", ":")) for o in (r_obj, q_obj))
    q = Q
    pa, pb = [rng.choice(THIRDS), rng.choice(FIFTHS)], [rng.choice(FIFTHS) + 1]
    qa, qb = [rng.choice((2, 3)), rng.choice((2, 3))], [rng.choice((3, 4))]
    aw = rng.sample(AW, 4)
    cg_q = rng.choice((F(1, 4), F(1, 9), F(4, 9)))

    def json_is(want):
        return lambda out: same("output", json.loads(out), want)

    def coeffs_are(want):
        return lambda out: same("coefficients", json.loads(out)["coefficients"], [str(c) for c in want])

    def passes(name, grade, **params):
        def check(out):
            rep = json.loads(out)
            got = (rep["name"], rep["pass"], rep["grade"], {k: rep["params"][k] for k in params})
            return same(name, got, (name, True, grade, params))
        return check

    aw_args = ["eval", "aw", "--n", "4", "--q", str(rng.choice((F(1, 3), F(1, 2)))), "--cos", "1/3"]
    seen = {}

    def aw_first(out):
        seen["aw"] = out
        return None

    def aw_permuted(out):
        return same("aw with b, c, d permuted", out, seen.get("aw"))

    cmds = [
        (["expand", "--rspec", r_js, "-M", str(m), "-d", "6"], json_is(refs.content_table_json(r_obj, m, 6))),
        (["expand", "--rspec", q_js, "-M", str(m), "-d", "5"], json_is(refs.content_table_json(q_obj, m, 5))),
        (["eval", "pfq", "--a", rat_list(pa), "--b", rat_list(pb), "--order", "20"],
         coeffs_are(refs.term_ratio_coeffs(pa, pb, 0, 20))),
        (["eval", "qphi", "--a", rat_list(qa), "--b", rat_list(qb), "--q", str(q), "--order", "20"],
         coeffs_are(refs.term_ratio_coeffs(qa, qb, 0, 20, q))),
        (aw_args + ["--params", rat_list(aw)], aw_first),
        (aw_args + ["--params", rat_list([aw[0], aw[3], aw[1], aw[2]])], aw_permuted),
        (["eval", "cg", "--params", "1/2,1/2,1,1/2,1/2", "--q", str(cg_q)],
         json_is({"rational": "1", "radicand": "1"})),
        (CG_FAILING, json_is({"rational": "1", "radicand": "1"})),
        (["verify", "hirota", "--rspec", r_js, "-M", str(m), "-d", "5"], passes("hirota", 4, M=m, d=5)),
        (["verify", "toda", "--rspec", r_js, "--gauge", "standard", "-M", str(m), "-d", "5"],
         passes("toda", 4, M=m, d=5, gauge="standard")),
        (["verify", "kp", "--rspec", q_js, "-M", str(m), "-d", "5"], passes("kp", 5, M=m, d=5)),
        (["verify", "oracle", "--rspec", r_js, "-M", str(m), "-d", "4", "--window", "4"],
         passes("oracle", 4, M=m, d=4, stable=True)),
        (["verify", "ode", "--a", rat_list(pa), "--b", rat_list(pb), "--order", "10"], passes("ode", 10)),
        (["verify", "qdiff", "--a", rat_list(qa), "--b", rat_list(qb), "--q", str(q), "--order", "10"],
         passes("qdiff", 10)),
        (["verify", "remark1", "--mode", "miwa", "--nvars", "2", "-d", "6"], passes("remark1", 6, N=2)),
        (["verify", "remark1", "--mode", "q-spec", "--nvars", "2", "--q", str(q), "-d", "6"],
         passes("remark1", 6, N=2)),
        (["verify", "prop4", "--rspec", r_js, "--b", str(rng.choice(FIFTHS) + 1), "-M", str(m), "-d", "4"],
         passes("prop4", 4, M=m, d=4)),
    ]
    return [Op(" ".join(argv[:2]), taukit_command(argv), check) for argv, check in cmds], (), None
