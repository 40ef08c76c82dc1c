"""The acceptance battery: one function per criterion, exact equality throughout.

Shared by the ``taukit suite`` CLI subcommand and the acceptance test
module.  Randomized draws come from a seeded generator (TAUKIT_SEED);
every drawn spec is scanned for integer poles in its working range before
use, and q-parameters are paired with exponents so that every power of q
stays an exact rational.  A failing criterion reports its first differing
values: its first failing check's report, or ``first_mismatch`` over its own
(where, got, want) pairs.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from itertools import zip_longest

from .partitions import enumerate_up_to, hook_data
from .poly import FAMILY_B, FAMILY_T, mono, tvar
from .rspec import (
    LinFactor,
    QLinFactor,
    RSpec,
    content_product,
    poch_partition,
    rspec_mul,
    zero_pole_scan,
)
from .schur import (
    GenericTimes,
    MiwaTimes,
    NumericTimes,
    PrincipalTimes,
    schur_poly,
    schur_principal_value,
)
from .tau import (
    ChainSpec,
    _cg_series,
    _family_symbol,
    askey_wilson,
    classical_reference,
    pfs_multivar,
    q_bracket,
    qphi_one_var_coeffs,
    tau_general,
    tau_series,
    tau_two_sided,
)
from .verify import (
    CheckReport,
    check_hirota,
    check_kp_bilinear,
    check_ode,
    check_prop4,
    check_qdiff,
    check_remark1,
    check_toda,
    compare_windowed,
    det_oracle_tau,
    first_mismatch,
)

F = Fraction

_NONINT_POOL = [F(1, 2), F(1, 3), F(2, 3), F(1, 5), F(2, 5), F(3, 5), F(1, 7), F(2, 7), F(5, 7)]
_QCOEFF_POOL = [F(2, 3), F(3, 5), F(5, 7), F(4, 9), F(7, 9), F(3, 7), F(5, 9)]


def draw_lin_rspec(rng: random.Random) -> RSpec:
    """Rational-in-D symbol with non-integer shifts (no integer zeros or poles)."""
    def factors(count):
        return tuple(
            LinFactor(rng.choice(_NONINT_POOL) + rng.choice((-1, 0, 1, 2)))
            for _ in range(count)
        )

    num = factors(rng.randint(0, 2))
    den = factors(rng.randint(0, 2))
    return RSpec(constant=rng.choice((F(1), F(2), F(1, 2))), num=num, den=den)


def draw_qlin_rspec(rng: random.Random, q: Fraction, span: int) -> RSpec:
    """q-rational symbol with integer shifts, pole- and zero-free on [-span, span]."""
    for _ in range(200):
        def factors(count):
            return tuple(
                QLinFactor(rng.choice(_QCOEFF_POOL), F(rng.choice((-1, 0, 1, 2))))
                for _ in range(count)
            )

        spec = RSpec(
            constant=F(1),
            num=factors(rng.randint(1, 2)),
            den=factors(rng.randint(0, 2)),
            q=q,
        )
        if not zero_pole_scan(spec, -span, span):
            return spec
    raise RuntimeError("could not draw a clean q-spec")


def _verdict(params: dict, failure: tuple | None = None) -> CheckReport:
    """A criterion's report at the grade its params name, failing with ``failure``, a (where, lhs, rhs), if one is given.

    ``run_criterion`` names it, as it names every report a criterion returns.
    """
    return CheckReport("", params.get("d", 0), failure, params)


def _first_failure(reports) -> CheckReport | None:
    """The first report that did not pass; the checks behind later reports never run."""
    return next((report for report in reports if not report.passed), None)


def battery_specs(seed: int) -> tuple:
    """Five rational draws plus one q-rational draw per listed q value.

    Drawn from the suite seed alone, so the bilinear and lattice criteria
    exercise equal batteries.
    """
    rng = random.Random(f"{seed}/battery")
    specs = [draw_lin_rspec(rng) for _ in range(5)]
    specs += [draw_qlin_rspec(rng, q, span=9) for q in (F(1, 2), F(1, 3), F(2, 5))]
    return tuple(specs)


def criterion_01_oracle(seed: int) -> CheckReport:
    d = 6
    specs = [
        RSpec(),
        RSpec(num=(LinFactor(F(1, 2)),), den=(LinFactor(F(1, 3)),)),
        RSpec(num=(QLinFactor(F(2, 3), F(0)),), den=(QLinFactor(F(3, 5), F(1)),), q=F(1, 2)),
    ]
    started = time.monotonic()
    reports = (
        det_oracle_tau(spec, m, d, window=d, extra_windows=(1, 2))[1]
        for spec in specs
        for m in (-1, 0, 1, 2)
    )
    failed = _first_failure(reports)
    if failed:
        return failed
    elapsed = time.monotonic() - started
    failure = None if elapsed < 60 else (f"elapsed {elapsed:.1f}s, over the 60s limit", "", "")
    return _verdict({"d": d, "elapsed_s": round(elapsed, 2)}, failure)


def criterion_02_hirota(seed: int) -> CheckReport:
    d = 5
    reports = (check_hirota(spec, m, d) for spec in battery_specs(seed) for m in (-1, 0, 1))
    return _first_failure(reports) or _verdict({"d": d, "specs": 8, "charges": [-1, 0, 1]})


def criterion_03_toda(seed: int) -> CheckReport:
    d = 5
    reports = (
        check_toda(spec, m, d, gauge)
        for spec in battery_specs(seed)
        for m in (-1, 0, 1)
        for gauge in ("generalized", "standard")
    )
    return _first_failure(reports) or _verdict({"d": d, "specs": 8})


def criterion_04_kp(seed: int) -> CheckReport:
    rng = random.Random(f"{seed}/kp")
    d = 5
    specs = [RSpec(), draw_lin_rspec(rng), draw_qlin_rspec(rng, F(1, 2), span=8)]
    reports = (check_kp_bilinear(spec, rng.choice((-1, 0, 1)), d) for spec in specs)
    return _first_failure(reports) or _verdict({"d": d, "specs": len(specs)})


def criterion_05_classical(seed: int) -> CheckReport:
    rng = random.Random(f"{seed}/classical")
    order = 10

    def pairs():
        for p, s in ((1, 0), (2, 1), (3, 2)):
            extra_a = [rng.choice(_NONINT_POOL) + rng.choice((0, 1)) for _ in range(p - 1)]
            bs = [rng.choice(_NONINT_POOL) + rng.choice((0, 1)) for _ in range(s)]
            a = [F(0)] + extra_a
            for m in (1, -1):
                series = pfs_multivar(a, bs, m, GenericTimes(FAMILY_T), order)
                ref = classical_reference([1 + m * v for v in extra_a], [1 + m * v for v in bs], order)
                for n in range(order + 1):
                    yield f"(p,s)=({p},{s}) M={m} t1^{n}", series.coeff(mono([(tvar(1), n)])), ref[n] * m**n

    return _verdict({"order": order, "families": "(1,0),(2,1),(3,2)"}, first_mismatch(pairs()))


def criterion_06_qdiff(seed: int) -> CheckReport:
    rng = random.Random(f"{seed}/qdiff")
    order, q = 10, F(1, 3)

    def reports():
        for _ in range(3):
            p, s = rng.randint(1, 2), rng.randint(1, 2)
            a = [F(rng.randint(1, 4)) for _ in range(p)]
            b = [F(rng.randint(1, 4)) for _ in range(s)]
            yield check_qdiff(a, b, q, order)

    return _first_failure(reports()) or _verdict({"order": order, "q": "1/3", "draws": 3})


def criterion_07_ode(seed: int) -> CheckReport:
    rng = random.Random(f"{seed}/ode")
    order = 10

    def reports():
        for _ in range(3):
            a = [rng.choice(_NONINT_POOL), rng.choice(_NONINT_POOL) + 1]
            b = [rng.choice(_NONINT_POOL)]
            yield check_ode(a, b, order)  # 2F1 shape
            yield check_ode(a[:1], b, order)  # 1F1 shape

    return _first_failure(reports()) or _verdict({"order": order, "draws": 3})


def criterion_08_prop4(seed: int) -> CheckReport:
    rng = random.Random(f"{seed}/prop4")
    d = 5

    def reports():
        for _ in range(3):
            r = draw_lin_rspec(rng)
            b = rng.choice(_NONINT_POOL)
            yield check_prop4(r, b, rng.choice((-1, 0, 1)), d)
        for q, b in ((F(1, 4), F(1, 2)), (F(1, 8), F(2, 3)), (F(4, 9), F(3, 2))):
            r = draw_qlin_rspec(rng, q, span=9)
            yield check_prop4(r, b, rng.choice((-1, 0, 1)), d)

    return _first_failure(reports()) or _verdict({"d": d, "draws": "3 rational + 3 q"})


def criterion_09_remark1(seed: int) -> CheckReport:
    d = 7
    reports = (
        check_remark1(mode, params, d)
        for n in (1, 2, 3)
        for mode, params in (
            ("q-spec", {"N": n, "q": F(1, 2)}),
            ("miwa", {"N": n}),
            ("dual", {"K": n, "q": F(1, 2)}),
        )
    )
    return _first_failure(reports) or _verdict({"d": d, "N_K": [1, 2, 3]})


def criterion_10_poch_bridge(seed: int) -> CheckReport:
    d = 6
    parts = enumerate_up_to(d)

    def pairs():
        for q in (F(1, 2), F(2, 3)):
            for a in (F(1), F(2), F(3), F(-1)):
                spec = _family_symbol((a,), (), q)
                for lam in parts:
                    where = f"poch vs content at lam={lam}, a={a}, q={q}"
                    yield where, poch_partition(a, lam, q), content_product(spec, lam, 0)
            for a in (F(1), F(2), F(3)):
                for lam in parts:
                    where = f"principal value at lam={lam}, a={a}, q={q}"
                    yield where, schur_poly(lam, PrincipalTimes(a, q), d), schur_principal_value(lam, a, q)

    return _verdict({"d": d, "q": ["1/2", "2/3"]}, first_mismatch(pairs()))


def criterion_11_example6(seed: int) -> CheckReport:
    d = 5
    at, bt = F(1, 2), F(5, 7)  # tilde-side parameters
    a1, b1 = F(1, 3), F(4, 3)
    x, y1, y2 = F(1, 2), F(1, 3), F(2, 5)
    m = 1
    chain = ChainSpec(
        left=((RSpec(num=(LinFactor(at),), den=(LinFactor(bt),)), MiwaTimes((x,))),),
        right=(
            (RSpec(num=(LinFactor(a1),), den=(LinFactor(b1),)), NumericTimes((y1,))),
            (RSpec(), NumericTimes((y2,))),
        ),
    )

    want = F(0)
    for n1 in range(d + 1):
        for n2 in range(d + 1 - n1):
            n = n1 + n2
            num = poch_partition(at + m, (n,)) if n else F(1)
            num *= poch_partition(a1 + m, (n1,)) if n1 else F(1)
            den = poch_partition(bt + m, (n,)) if n else F(1)
            den *= poch_partition(b1 + m, (n1,)) if n1 else F(1)
            fact1 = hook_data((n1,) if n1 else ())
            fact2 = hook_data((n2,) if n2 else ())
            want += num / den * y1**n1 * y2**n2 * x**n / (fact1 * fact2)
    return _verdict({"d": d, "M": m}, first_mismatch([(f"tau(M={m}) to grade {d}", tau_general(chain, m, d), want)]))


def criterion_12_aw(seed: int) -> CheckReport:
    q, a, b, c, dd, cosv = F(1, 3), F(1, 5), F(1, 7), F(2, 7), F(1, 11), F(1, 2)

    def pairs():
        for n in range(6):
            # termination: the next term would carry the vanishing factor
            yield f"termination factor at n={n}", poch_partition(F(-n), (n + 1,), q), 0
        for n in (1, 2, 3, 5):
            base = askey_wilson(n, a, b, c, dd, q, cosv)
            yield f"sum with b<->c at n={n}", askey_wilson(n, a, c, b, dd, q, cosv), base
            yield f"sum with b<->d at n={n}", askey_wilson(n, a, dd, c, b, q, cosv), base
            pn = askey_wilson(n, a, b, c, dd, q, cosv, with_prefactor=True)
            yield f"p_n with a<->b at n={n}", askey_wilson(n, b, a, c, dd, q, cosv, with_prefactor=True), pn

    return _verdict({"q": "1/3", "point": "a=1/5,b=1/7,c=2/7,d=1/11"}, first_mismatch(pairs()))


def criterion_13_two_sided(seed: int) -> CheckReport:
    rng = random.Random(f"{seed}/two-sided")
    d = 5
    times = GenericTimes(FAMILY_T), GenericTimes(FAMILY_B)

    def failures():
        for _ in range(3):
            rt, r = draw_lin_rspec(rng), draw_lin_rspec(rng)
            m = rng.choice((-1, 0, 1))
            diff = compare_windowed(tau_two_sided(rt, r, m, d, *times), tau_series(rspec_mul(rt, r), m, d, *times), d, d)
            yield diff and (f"M={m} {diff[0]}", *diff[1:])

    return _verdict({"d": d, "draws": 3}, next(filter(None, failures()), None))


def criterion_14_cg(seed: int) -> CheckReport:
    q = F(1, 2)
    tuples = [
        (F(1), F(1), F(1), F(0), F(0)),
        (F(3, 2), F(1), F(1, 2), F(1, 2), F(0)),
        (F(2), F(3, 2), F(3, 2), F(0), F(1, 2)),
    ]

    def pairs():
        for l1, l2, l, j, k in tuples:
            a, b, order = _cg_series(l1, l2, l, j, j + k)
            got, want = qphi_one_var_coeffs(a, b, 0, q, order), classical_reference(a, b, order, q=q)
            for n, (g, w) in enumerate(zip_longest(got, want)):
                yield f"spins ({l1},{l2},{l},{j},{k}) x^{n}", g, w
        # [a] > a for q != 1, so |[a] - a| falls exactly when [a]^2 falls
        for a_val in (2, 3):
            sq = [q_bracket(a_val, 1 - F(1, 2**k)).square() for k in range(1, 11)]
            for i in range(len(sq) - 1):
                where = f"bracket [{a_val}]^2 at step {i + 1}: {a_val**2} < {sq[i + 1]} < {sq[i]}"
                yield where, a_val**2 < sq[i + 1] < sq[i], True

    return _verdict({"q": "1/2", "tuples": 3, "bracket_steps": 10}, first_mismatch(pairs()))


CRITERIA = [
    criterion_01_oracle,
    criterion_02_hirota,
    criterion_03_toda,
    criterion_04_kp,
    criterion_05_classical,
    criterion_06_qdiff,
    criterion_07_ode,
    criterion_08_prop4,
    criterion_09_remark1,
    criterion_10_poch_bridge,
    criterion_11_example6,
    criterion_12_aw,
    criterion_13_two_sided,
    criterion_14_cg,
]


def run_criterion(criterion, seed: int = 1729) -> CheckReport:
    """The criterion's report, named from the function: criterion_05_classical -> criterion-05-classical."""
    try:
        report = criterion(seed)
    except Exception as exc:  # a crash is a failure, not an abort
        report = _verdict({}, (f"{type(exc).__name__}: {exc}", "", ""))
    name = criterion.__name__.replace("_", "-")
    return CheckReport(name, report.max_checked_grade, report.first_failure, report.params)


def run_suite(seed: int = 1729) -> list[CheckReport]:
    return [run_criterion(criterion, seed) for criterion in CRITERIA]
