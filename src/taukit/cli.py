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
    _askey_wilson,
    clebsch_gordan_q,
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
    args.r = _flag(args, "rspec", _load_rspec)
    coeffs = TauExpansion.build(args.r, args.charge, _non_negative(args.degree, "-d/--degree")).coeffs
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


def _series(args) -> dict:
    """Both families, pfq at q = None: the value at two or more --x points, else coefficients, valued at one --x."""
    order = _non_negative(args.order, "--order")
    a, b = _flag(args, "a"), _flag(args, "b")
    q = _flag(args, "q", parse_rational, args.family) if hasattr(args, "q") else None
    xs = _flag(args, "x")
    if len(xs) > 1:
        return {"value": format_rational(qphi_multivar(a, b, args.charge, q, xs, order))}
    return _one_var(qphi_one_var_coeffs(a, b, args.charge, q, order), xs[0] if xs else None)


def _params(args, names: str) -> list[Fraction]:
    """--params, refused unless it holds one rational for each of the comma-separated names."""
    params = _flag(args, "params")
    if len(params) != len(names.split(",")):
        raise ValueError(f"{args.family} needs --params {names}")
    return params


def _aw(args) -> dict:
    a, b, c, dd = _params(args, "a,b,c,d")
    q, cv = _flag(args, "q", parse_rational, args.family), _flag(args, "cos", parse_rational)
    total, prefactor = _askey_wilson(_non_negative(args.n, "--n"), a, b, c, dd, q, cv)
    return {"sum": format_rational(total), "p_n": format_rational(prefactor * total)}


def _cg(args) -> dict:
    v = clebsch_gordan_q(*_params(args, "l1,l2,l,j,k"), _flag(args, "q", parse_rational, args.family))
    return {"rational": format_rational(v.rational), "radicand": format_rational(v.radicand)}


def cmd_eval(args) -> int:
    out = args.run(args)
    if args.format == "csv" and "coefficients" in out:
        rows = list(enumerate(out["coefficients"]))
        if "value" in out:
            rows.append(("value", out["value"]))
        print(emit((("order", "coefficient"), rows), "csv"))
    else:
        print(emit(out, args.format))
    return OK


def _rspec(args) -> RSpec:
    """A check's --rspec, read once its -d/--degree is found non-negative, and kept as args.r."""
    _non_negative(args.degree, "-d/--degree")
    args.r = _flag(args, "rspec", _load_rspec, args.check)
    return args.r


def _remark1(args) -> CheckReport:
    _non_negative(args.degree, "-d/--degree")
    params = {"N": args.nvars, "K": args.nvars}
    if args.mode != "miwa":
        params["q"] = _flag(args, "q", parse_rational, f"{args.check} --mode {args.mode}")
    elif args.q:
        raise ValueError(f"{args.check} --mode miwa reads no --q")
    return check_remark1(args.mode, params, args.degree)


def _prop4(args) -> CheckReport:
    r = _rspec(args)
    bs = _flag(args, "b")
    if len(bs) != 1:
        raise ValueError(f"{args.check} needs --b with exactly one rational")
    return check_prop4(r, bs[0], args.charge, args.degree)


def _pole_flag(args, point: int) -> str:
    """The flag a pole at point names: --rspec where the parsed symbol has it, else --b where read, else --params."""
    if (point, "pole") in zero_pole_scan(getattr(args, "r", RSpec()), point, point):
        return "--rspec"
    return "--b" if hasattr(args, "b") else "--params"


def _print_report(report: CheckReport, fmt: str) -> int:
    obj = report.to_obj()
    if fmt == "csv":
        obj = {k: json.dumps(v) if isinstance(v, (dict, type(None))) else v for k, v in obj.items()}
    print(emit(obj, fmt))
    return OK if report.passed else CHECK_FAILED


def cmd_verify(args) -> int:
    return _print_report(args.run(args), args.format)


def cmd_suite(args) -> int:
    from .acceptance import run_suite

    seed = args.seed
    if seed is None:
        seed = _named("TAUKIT_SEED", int, os.environ.get("TAUKIT_SEED", "1729"))
    reports = run_suite(seed=seed)
    for r in reports:
        print(f"PASS {r.name}" if r.passed else f"FAIL {r.name}  ({r.first_failure})")
    summary = {r.name: ("pass" if r.passed else "FAIL") for r in reports}
    print(emit(summary, args.format))
    return OK if all(r.passed for r in reports) else CHECK_FAILED


# flag -> (option strings, argparse keywords); a subparser declares only the flags its entry reads
FLAGS = {
    "rspec": (("--rspec",), {"default": "", "help": "inline JSON or @file"}),
    "charge": (("-M", "--charge"), {"type": int, "default": 0}),
    "degree": (("-d", "--degree"), {"type": int, "default": 5}),
    "order": (("--order",), {"type": int, "default": 10}),
    "window": (("--window",), {"type": int}),
    "gauge": (("--gauge",), {"choices": ("generalized", "standard"), "default": "generalized"}),
    "mode": (("--mode",), {"choices": ("q-spec", "miwa", "dual"), "default": "miwa"}),
    "nvars": (("--nvars",), {"type": int, "default": 2, "help": "N (or K for dual mode)"}),
    "a": (("--a",), {"default": "", "help": "comma-separated rationals"}),
    "b": (("--b",), {"default": "", "help": "comma-separated rationals"}),
    "q": (("--q",), {"default": "", "help": "rational q"}),
    "x": (("--x",), {"default": "", "help": "comma-separated evaluation points"}),
    "n": (("--n",), {"type": int, "default": 0, "help": "polynomial degree"}),
    "params": (("--params",), {"default": "", "help": "comma-separated family parameters"}),
    "cos": (("--cos",), {"default": "1/2", "help": "rational cos(eta)"}),
    "format": (("--format",), {"choices": ("json", "csv"), "default": "json"}),
}
RSPEC_FLAGS = ("rspec", "charge", "degree")

# verb -> (help, dest of the name, command, FLAGS keywords overridden in this verb, {name: (flags it reads, runner)})
COMMANDS = {
    "eval": ("evaluate a special-function family", "family", cmd_eval, {"order": {"default": 8}}, {
        "pfq": (("a", "b", "x", "order", "charge"), _series),
        "qphi": (("a", "b", "q", "x", "order", "charge"), _series),
        "aw": (("n", "params", "q", "cos"), _aw),
        "cg": (("params", "q"), _cg),
    }),
    "verify": ("run one identity check", "check", cmd_verify, {}, {
        "hirota": (RSPEC_FLAGS, lambda ns: check_hirota(_rspec(ns), ns.charge, ns.degree)),
        "toda": (RSPEC_FLAGS + ("gauge",), lambda ns: check_toda(_rspec(ns), ns.charge, ns.degree, ns.gauge)),
        "kp": (RSPEC_FLAGS, lambda ns: check_kp_bilinear(_rspec(ns), ns.charge, ns.degree)),
        "ode": (("a", "b", "order"), lambda ns: check_ode(_flag(ns, "a"), _flag(ns, "b"), ns.order)),
        "qdiff": (("a", "b", "q", "order"), lambda ns: check_qdiff(
            _flag(ns, "a"), _flag(ns, "b"), _flag(ns, "q", parse_rational, ns.check), ns.order)),
        "oracle": (RSPEC_FLAGS + ("window",), lambda ns: det_oracle_tau(_rspec(ns), ns.charge, ns.degree, ns.window)[1]),
        "remark1": (("mode", "nvars", "q", "degree"), _remark1),
        "prop4": (RSPEC_FLAGS + ("b",), _prop4),
    }),
}


def _declare(parser, flags, overrides, **defaults) -> None:
    """Add each of flags and --format to parser from its FLAGS spec with overrides[flag] laid over it; set defaults."""
    for flag in (*flags, "format"):
        names, spec = FLAGS[flag]
        parser.add_argument(*names, **{**spec, **overrides.get(flag, {})})
    parser.set_defaults(**defaults)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="taukit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expand", help="partition -> coefficient table of an operator symbol")
    required = {"rspec": {"required": True}, "degree": {"required": True}}
    _declare(p, RSPEC_FLAGS, required, func=cmd_expand)

    for verb, (help_, dest, func, overrides, entries) in COMMANDS.items():
        names = sub.add_parser(verb, help=help_).add_subparsers(dest=dest, required=True)
        for name, (flags, run) in entries.items():
            _declare(names.add_parser(name), flags, overrides, func=func, run=run)

    p = sub.add_parser("suite", help="run the full acceptance battery")
    p.add_argument("--seed", type=int, default=None, help="overrides TAUKIT_SEED")
    _declare(p, (), {}, func=cmd_suite)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    # argparse reads a value such as -1/2 or -2,1/2 as a flag, so each is joined to the long flag before it: --a=-1/2
    argv = list(sys.argv[1:] if argv is None else argv)
    for i in range(len(argv) - 1, 0, -1):  # from the end, so that a join moves no token still to be read
        flag, value = argv[i - 1 : i + 1]
        if flag.startswith("--") and "=" not in flag and value[:1] == "-" and value[1:2].isdigit():
            argv[i - 1 : i + 1] = [f"{flag}={value}"]
    try:
        # argparse would skip a flag before the name and read its value as the name
        verb, first = [*argv, "", ""][:2]
        if verb in COMMANDS and first.startswith("-") and first not in ("-h", "--help"):
            parser.error(f"{first.split('=')[0]} is given before the {COMMANDS[verb][1]} name: flags go after it")
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else OK
    try:
        return args.func(args)
    except PoleError as exc:
        flag = _pole_flag(args, exc.point)
        print(f"error: pole at integer point {exc.point}: a denominator given by {flag} vanishes there", file=sys.stderr)
        return USAGE_ERROR
    except (ValueError, OSError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
