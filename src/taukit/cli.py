"""Command-line surface: expand coefficient tables, evaluate series, run checks.

Exit codes: 0 success / check passed, 1 check failed, 2 usage error
(including malformed inputs and poles, which are reported with the
offending integer point and the flag whose denominator vanishes there).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from fractions import Fraction

from .poly import format_rational, parse_rational
from .rspec import PoleError, RSpec, _named, rspec_from_json, zero_pole_scan
from .tau import (
    TauExpansion,
    askey_wilson,
    clebsch_gordan_q,
    pfq_one_var_coeffs,
    qphi_multivar,
    qphi_one_var_coeffs,
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
    det_oracle_tau,
)

USAGE_ERROR, CHECK_FAILED, OK = 2, 1, 0


def _rat_list(text: str) -> list[Fraction]:
    if not text:
        return []
    return [parse_rational(part) for part in text.split(",")]


def _load_rspec(arg: str) -> RSpec:
    if arg.startswith("@"):
        with open(arg[1:], "r", encoding="utf-8") as fh:
            arg = fh.read()
    return rspec_from_json(arg)


def _flag(args, flag: str, parse=_rat_list, needed_by: str = ""):
    """parse(value of --flag), a malformed value refused naming the flag; with needed_by, an empty one refused naming both."""
    text = getattr(args, flag)
    if needed_by and not text:
        raise ValueError(f"{needed_by} needs --{flag}")
    return _named(f"--{flag}", parse, text)


def _non_negative(value: int, flag: str) -> int:
    """value, refusing a negative one with a message that names its flag."""
    if value < 0:
        raise ValueError(f"{flag} must be >= 0, got {value}")
    return value


def emit(payload, fmt: str = "json") -> str:
    """Bit-stable serialization: a mapping as JSON at fmt "json", else a mapping or (headers, rows) table as CSV."""
    if fmt == "json":
        return json.dumps(payload, separators=(",", ":"))
    if isinstance(payload, dict):
        headers, rows = ("key", "value"), list(payload.items())
    else:
        headers, rows = payload
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(headers)
    writer.writerows(rows)
    return buf.getvalue().rstrip("\n")


def cmd_expand(args) -> int:
    r = _flag(args, "rspec", _load_rspec)
    coeffs = TauExpansion.build(r, args.charge, _non_negative(args.degree, "-d/--degree")).coeffs
    table = {json.dumps(list(lam), separators=(",", ":")): format_rational(c) for lam, c in coeffs.items()}
    if args.format == "csv":
        print(emit((("partition", "coefficient"), list(table.items())), "csv"))
    else:
        print(emit(table, "json"))
    return OK


def _one_var(coeffs: list[Fraction], x: Fraction | None) -> dict:
    """A one-variable series as its coefficients, and its value at x when x is given."""
    out = {"coefficients": [format_rational(c) for c in coeffs]}
    if x is not None:
        out["value"] = format_rational(sum((c * x**k for k, c in enumerate(coeffs)), Fraction(0)))
    return out


def cmd_eval(args) -> int:
    fmt = args.format
    if args.family in ("pfq", "qphi"):
        _non_negative(args.order, "--order")
    if args.family == "pfq":
        coeffs = pfq_one_var_coeffs(_flag(args, "a"), _flag(args, "b"), args.charge, args.order)
        out = _one_var(coeffs, _flag(args, "x", parse_rational) if args.x else None)
    elif args.family == "qphi":
        a, b = _flag(args, "a"), _flag(args, "b")
        q = _flag(args, "q", parse_rational, "qphi")
        xs = _flag(args, "x")
        if len(xs) > 1:
            out = {"value": format_rational(qphi_multivar(a, b, args.charge, q, xs, args.order))}
        else:
            out = _one_var(qphi_one_var_coeffs(a, b, args.charge, q, args.order), xs[0] if xs else None)
    elif args.family == "aw":
        params = _flag(args, "params")
        if len(params) != 4:
            raise ValueError("aw needs --params a,b,c,d")
        a, b, c, dd = params
        q, cv = _flag(args, "q", parse_rational, "aw"), _flag(args, "cos", parse_rational)
        out = {
            "sum": format_rational(askey_wilson(_non_negative(args.n, "--n"), a, b, c, dd, q, cv)),
            "p_n": format_rational(askey_wilson(args.n, a, b, c, dd, q, cv, with_prefactor=True)),
        }
    else:
        params = _flag(args, "params")
        if len(params) != 5:
            raise ValueError("cg needs --params l1,l2,l,j,k")
        v = clebsch_gordan_q(*params, _flag(args, "q", parse_rational, "cg"))
        out = {"rational": format_rational(v.rational), "radicand": format_rational(v.radicand)}
    if fmt == "csv" and "coefficients" in out:
        rows = list(enumerate(out["coefficients"]))
        if "value" in out:
            rows.append(("value", out["value"]))
        print(emit((("order", "coefficient"), rows), "csv"))
    else:
        print(emit(out, fmt))
    return OK


def _print_report(report: CheckReport, fmt: str) -> int:
    obj = report.to_obj()
    if fmt == "csv":
        obj = {k: json.dumps(v) if isinstance(v, (dict, type(None))) else v for k, v in obj.items()}
    print(emit(obj, fmt))
    return OK if report.passed else CHECK_FAILED


def cmd_verify(args) -> int:
    name = args.check
    if name not in ("ode", "qdiff"):
        _non_negative(args.degree, "-d/--degree")
    if name in ("hirota", "toda", "kp", "oracle"):
        r = _flag(args, "rspec", _load_rspec, name)
        if name == "hirota":
            report = check_hirota(r, args.charge, args.degree)
        elif name == "toda":
            report = check_toda(r, args.charge, args.degree, args.gauge)
        elif name == "kp":
            report = check_kp_bilinear(r, args.charge, args.degree)
        else:
            if args.window is not None and args.window < args.degree:
                raise ValueError(f"--window must be >= -d/--degree ({args.degree}), got {args.window}")
            _, report = det_oracle_tau(r, args.charge, args.degree, args.window)
    elif name == "ode":
        report = check_ode(_flag(args, "a"), _flag(args, "b"), args.order)
    elif name == "qdiff":
        a, b = _flag(args, "a"), _flag(args, "b")
        report = check_qdiff(a, b, _flag(args, "q", parse_rational, "qdiff"), args.order)
    elif name == "remark1":
        params = {"N": args.nvars, "K": args.nvars}
        if args.q or args.mode != "miwa":
            params["q"] = _flag(args, "q", parse_rational, f"remark1 --mode {args.mode}")
        report = check_remark1(args.mode, params, args.degree)
    else:
        r = _flag(args, "rspec", _load_rspec, name)
        bs = _flag(args, "b")
        if len(bs) != 1:
            raise ValueError("prop4 needs --b with exactly one rational")
        report = check_prop4(r, bs[0], args.charge, args.degree)
    return _print_report(report, args.format)


def cmd_suite(args) -> int:
    from .acceptance import run_suite

    seed = args.seed
    if seed is None:
        seed = int(os.environ.get("TAUKIT_SEED", "1729"))
    reports = run_suite(seed=seed)
    for r in reports:
        print(f"PASS {r.name}" if r.passed else f"FAIL {r.name}  ({r.first_failure})")
    summary = {r.name: ("pass" if r.passed else "FAIL") for r in reports}
    print(emit(summary, args.format))
    return OK if all(r.passed for r in reports) else CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="taukit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("expand", help="partition -> coefficient table of an operator symbol")
    p.add_argument("--rspec", required=True, help="inline JSON or @file")
    p.add_argument("-M", "--charge", type=int, default=0)
    p.add_argument("-d", "--degree", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("eval", help="evaluate a special-function family")
    p.add_argument("family", choices=("pfq", "qphi", "aw", "cg"))
    p.add_argument("--a", default="", help="comma-separated rationals")
    p.add_argument("--b", default="", help="comma-separated rationals")
    p.add_argument("--q", default="", help="rational q")
    p.add_argument("--x", default="", help="comma-separated evaluation points")
    p.add_argument("--order", type=int, default=8)
    p.add_argument("--n", type=int, default=0, help="polynomial degree (aw)")
    p.add_argument("--params", default="", help="family parameters (aw: a,b,c,d; cg: l1,l2,l,j,k)")
    p.add_argument("--cos", default="1/2", help="rational cos(eta) (aw)")
    p.add_argument("-M", "--charge", type=int, default=0)
    common(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("verify", help="run one identity check")
    p.add_argument("check", choices=("hirota", "toda", "kp", "ode", "qdiff", "oracle", "remark1", "prop4"))
    p.add_argument("--rspec", default="", help="inline JSON or @file")
    p.add_argument("-M", "--charge", type=int, default=0)
    p.add_argument("-d", "--degree", type=int, default=5)
    p.add_argument("--order", type=int, default=10)
    p.add_argument("--window", type=int, default=None)
    p.add_argument("--gauge", choices=("generalized", "standard"), default="generalized")
    p.add_argument("--mode", choices=("q-spec", "miwa", "dual"), default="miwa")
    p.add_argument("--nvars", type=int, default=2, help="N (or K for dual mode)")
    p.add_argument("--a", default="")
    p.add_argument("--b", default="")
    p.add_argument("--q", default="")
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("suite", help="run the full acceptance battery")
    p.add_argument("--seed", type=int, default=None, help="overrides TAUKIT_SEED")
    common(p)
    p.set_defaults(func=cmd_suite)
    return parser


def _pole_flag(args, point: int) -> str:
    """The flag whose denominator vanishes at a pole; prop4 expands its --rspec side before its (b + D) side."""
    if args.command == "eval":
        return "--b" if args.family in ("pfq", "qphi") else "--params"
    check = getattr(args, "check", None)
    if check in ("ode", "qdiff") or (
        check == "prop4" and (point, "pole") not in zero_pole_scan(_load_rspec(args.rspec), point, point)
    ):
        return "--b"
    return "--rspec"


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else OK
    try:
        return args.func(args)
    except PoleError as exc:
        flag = _pole_flag(args, exc.point)
        print(f"error: pole at integer point {exc.point}: a denominator given by {flag} vanishes there", file=sys.stderr)
        return USAGE_ERROR
    except (ValueError, KeyError, OSError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
