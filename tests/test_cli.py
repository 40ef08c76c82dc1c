import contextlib
import io
import itertools
import json
import os
import re
import subprocess
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import taukit
from taukit.cli import COMMANDS, FLAGS, build_parser, emit, main
from taukit.poly import format_rational
from taukit.rspec import PoleError
from taukit.schur import MiwaTimes
from taukit.tau import _askey_wilson, askey_wilson, classical_reference, pfs_multivar

D_SPEC = '{"constant":"1","num":[{"lin":{"shift":"0"}}],"den":[]}'
RATIO_SPEC = (
    '{"constant":"1","num":[{"lin":{"shift":"1/2"}}],"den":[{"lin":{"shift":"1/3"}}]}'
)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out.strip(), out.err.strip()


# -- expand -----------------------------------------------------------------------


def test_expand_example(capsys):
    code, out, _ = run(capsys, "expand", "--rspec", D_SPEC, "-M", "1", "-d", "2")
    assert code == 0
    assert out == '{"[]":"1","[1]":"1","[2]":"2","[1,1]":"0"}'


def test_expand_round_trip_bytes(capsys):
    code, out, _ = run(capsys, "expand", "--rspec", RATIO_SPEC, "-M", "0", "-d", "4")
    assert code == 0
    reparsed = json.loads(out)
    assert json.dumps(reparsed, separators=(",", ":")) == out


def test_expand_csv_header(capsys):
    code, out, _ = run(capsys, "expand", "--rspec", D_SPEC, "-M", "1", "-d", "1",
                       "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "partition,coefficient"
    assert lines[1] == "[],1"
    assert lines[2] == "[1],1"


def test_expand_from_file(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(D_SPEC)
    code, out, _ = run(capsys, "expand", "--rspec", f"@{path}", "-M", "1", "-d", "1")
    assert code == 0 and json.loads(out) == {"[]": "1", "[1]": "1"}


def test_expand_degree_zero_is_unit(capsys):
    code, out, _ = run(capsys, "expand", "--rspec", D_SPEC, "-M", "0", "-d", "0")
    assert code == 0 and out == '{"[]":"1"}'


# -- eval --------------------------------------------------------------------------


def test_eval_pfq_matches_reference(capsys):
    code, out, _ = run(
        capsys, "eval", "pfq", "--a", "1/2", "--b", "3/2", "--x", "1/4", "--order", "6"
    )
    assert code == 0
    payload = json.loads(out)
    ref = classical_reference([F(1, 2)], [F(3, 2)], 6)
    assert payload["coefficients"] == [str(c) for c in ref]
    want = sum(c * F(1, 4) ** k for k, c in enumerate(ref))
    assert payload["value"] == str(want)


def test_eval_qphi_coefficients(capsys):
    code, out, _ = run(
        capsys, "eval", "qphi", "--a", "2", "--b", "3", "--q", "1/2", "--order", "5"
    )
    assert code == 0
    payload = json.loads(out)
    ref = classical_reference([2], [3], 5, q=F(1, 2))
    assert payload["coefficients"] == [str(c) for c in ref]


@pytest.mark.parametrize("argv, x", [
    (("eval", "pfq", "--a", "1/2", "--b", "3/2", "--order", "3"), "1/2"),
    (("eval", "qphi", "--a", "2", "--b", "3", "--q", "1/2", "--order", "5"), "1/3"),
], ids=["pfq", "qphi"])
def test_eval_csv_ends_with_the_value(capsys, argv, x):
    _, out, _ = run(capsys, *argv, "--x", x)
    payload = json.loads(out)
    code, out, _ = run(capsys, *argv, "--x", x, "--format", "csv")
    assert code == 0
    rows = out.split("\n")
    assert rows[0] == "order,coefficient"
    assert rows[1:-1] == [f"{k},{c}" for k, c in enumerate(payload["coefficients"])]
    assert rows[-1] == f"value,{payload['value']}"
    _, out, _ = run(capsys, *argv, "--format", "csv")
    assert out.split("\n") == rows[:-1]


def test_eval_aw(capsys, monkeypatch):
    passes = []
    monkeypatch.setattr("taukit.cli._askey_wilson", lambda *args: passes.append(args) or _askey_wilson(*args))
    code, out, _ = run(
        capsys, "eval", "aw", "--n", "2", "--params", "1/5,1/7,2/7,1/11",
        "--q", "1/3", "--cos", "1/2",
    )
    assert code == 0 and len(passes) == 1
    aw = (2, F(1, 5), F(1, 7), F(2, 7), F(1, 11), F(1, 3), F(1, 2))
    assert json.loads(out) == {"sum": str(askey_wilson(*aw)), "p_n": str(askey_wilson(*aw, with_prefactor=True))}


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(
    st.lists(st.sampled_from(("1/2", "-2", "1/3", "3", "-1")), min_size=1, max_size=2),
    st.sampled_from(("5/2", "-1", "1/3", "2", "-3/2")),
    st.lists(st.sampled_from(("1", "1/2", "-1/3", "1/5", "2/7")), min_size=2, max_size=4),
    st.integers(-1, 1),
    st.integers(0, 4),
)
def test_eval_pfq_at_several_points_is_pfs_multivar(a, b, xs, m, order):
    argv = ["eval", "pfq", "--a", ",".join(a), "--b", b, "--x", ",".join(xs), "-M", str(m), "--order", str(order)]
    try:
        value = pfs_multivar([F(v) for v in a], [F(b)], m, MiwaTimes([F(x) for x in xs]), order)
        want = (0, '{"value":"%s"}\n' % format_rational(value), "")
    except PoleError as exc:
        want = (2, "", f"error: pole at integer point {exc.point}: a denominator given by --b vanishes there\n")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert (code, out.getvalue(), err.getvalue()) == want


def test_eval_cg(capsys):
    code, out, _ = run(
        capsys, "eval", "cg", "--params", "1/2,1/2,1,1/2,1/2", "--q", "1/4"
    )
    assert code == 0
    assert json.loads(out) == {"rational": "1", "radicand": "1"}


def test_eval_cg_at_non_square_q(capsys):
    # the value is 1 at every q; no intermediate root is taken
    code, out, err = run(
        capsys, "eval", "cg", "--params", "1/2,1/2,1,1/2,1/2", "--q", "1/2"
    )
    assert code == 0 and err == ""
    assert out == '{"rational":"1","radicand":"1"}'


def test_eval_cg_sweep_never_raises(capsys):
    # every half-integer tuple with spins <= 3/2 and |j| <= l1, |k| <= l2:
    # an answer or a usage error, never a traceback
    def magnetic(spin):
        return [spin - n for n in range(int(2 * spin) + 1)]

    codes = set()
    for l1, l2, l in itertools.product([F(n, 2) for n in range(4)], repeat=3):
        for j, k in itertools.product(magnetic(l1), magnetic(l2)):
            params = ",".join(str(v) for v in (l1, l2, l, j, k))
            codes.add(main(["eval", "cg", "--params", params, "--q", "1/2"]))
    capsys.readouterr()
    assert codes == {0, 2}


def test_eval_lowest_terms(capsys):
    # 3/6 normalizes on parse; output stays in lowest terms
    code, out, _ = run(capsys, "eval", "pfq", "--a", "3/6", "--b", "3/2", "--order", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["coefficients"][1] == "1/3"


# -- verify -------------------------------------------------------------------------


def test_verify_hirota_pass_exit_zero(capsys):
    code, out, _ = run(
        capsys, "verify", "hirota", "--rspec", RATIO_SPEC, "-M", "0", "-d", "4"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True and payload["failure"] is None


def test_verify_toda_standard(capsys):
    code, out, _ = run(
        capsys, "verify", "toda", "--rspec", RATIO_SPEC, "-M", "0", "-d", "4",
        "--gauge", "standard",
    )
    assert code == 0


def test_verify_oracle(capsys):
    code, out, _ = run(
        capsys, "verify", "oracle", "--rspec", RATIO_SPEC, "-M", "1", "-d", "3"
    )
    assert code == 0
    assert json.loads(out)["params"]["stable"] is True


def test_verify_remark1(capsys):
    code, out, _ = run(
        capsys, "verify", "remark1", "--mode", "q-spec", "--nvars", "2",
        "--q", "1/2", "-d", "5",
    )
    assert code == 0


def test_verify_ode_and_qdiff(capsys):
    code, _, _ = run(capsys, "verify", "ode", "--a", "1/2,1/3", "--b", "5/7", "--order", "8")
    assert code == 0
    code, _, _ = run(capsys, "verify", "qdiff", "--a", "2", "--b", "3", "--q", "1/3",
                     "--order", "8")
    assert code == 0


def test_verify_prop4(capsys):
    code, out, _ = run(
        capsys, "verify", "prop4", "--rspec", RATIO_SPEC, "--b", "1/5", "-M", "0", "-d", "4"
    )
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_verify_failed_check_exits_one(capsys):
    from taukit.cli import _print_report
    from taukit.verify import CheckReport

    fake = CheckReport(name="x", max_checked_grade=1, first_failure=("t1", "1", "2"))
    assert _print_report(fake, "json") == 1
    capsys.readouterr()


# -- suite -------------------------------------------------------------------------------

# `taukit suite` stdout at seed 1729, byte for byte
GOLDEN_SUITE = (
    "PASS criterion-01-oracle\n"
    "PASS criterion-02-hirota\n"
    "PASS criterion-03-toda\n"
    "PASS criterion-04-kp\n"
    "PASS criterion-05-classical\n"
    "PASS criterion-06-qdiff\n"
    "PASS criterion-07-ode\n"
    "PASS criterion-08-prop4\n"
    "PASS criterion-09-remark1\n"
    "PASS criterion-10-poch-bridge\n"
    "PASS criterion-11-example6\n"
    "PASS criterion-12-aw\n"
    "PASS criterion-13-two-sided\n"
    "PASS criterion-14-cg\n"
    "{"
    '"criterion-01-oracle":"pass",'
    '"criterion-02-hirota":"pass",'
    '"criterion-03-toda":"pass",'
    '"criterion-04-kp":"pass",'
    '"criterion-05-classical":"pass",'
    '"criterion-06-qdiff":"pass",'
    '"criterion-07-ode":"pass",'
    '"criterion-08-prop4":"pass",'
    '"criterion-09-remark1":"pass",'
    '"criterion-10-poch-bridge":"pass",'
    '"criterion-11-example6":"pass",'
    '"criterion-12-aw":"pass",'
    '"criterion-13-two-sided":"pass",'
    '"criterion-14-cg":"pass"'
    "}\n"
)


def test_suite_stdout_golden(capsys, monkeypatch):
    monkeypatch.setenv("TAUKIT_SEED", "1729")
    assert main(["suite"]) == 0
    assert capsys.readouterr().out == GOLDEN_SUITE


# the same run with --format csv: the summary mapping as key,value rows
GOLDEN_SUITE_CSV = GOLDEN_SUITE[: GOLDEN_SUITE.index("{")] + (
    "key,value\n"
    "criterion-01-oracle,pass\n"
    "criterion-02-hirota,pass\n"
    "criterion-03-toda,pass\n"
    "criterion-04-kp,pass\n"
    "criterion-05-classical,pass\n"
    "criterion-06-qdiff,pass\n"
    "criterion-07-ode,pass\n"
    "criterion-08-prop4,pass\n"
    "criterion-09-remark1,pass\n"
    "criterion-10-poch-bridge,pass\n"
    "criterion-11-example6,pass\n"
    "criterion-12-aw,pass\n"
    "criterion-13-two-sided,pass\n"
    "criterion-14-cg,pass\n"
)


def test_suite_csv_stdout_golden(capsys, monkeypatch):
    monkeypatch.setenv("TAUKIT_SEED", "1729")
    assert main(["suite", "--format", "csv"]) == 0
    assert capsys.readouterr().out == GOLDEN_SUITE_CSV


# -- error handling -----------------------------------------------------------------------


def test_malformed_rspec_is_usage_error(capsys):
    code, _, err = run(capsys, "expand", "--rspec", "{oops", "-d", "2")
    assert code == 2 and "error" in err


@pytest.mark.parametrize("factor, message", [
    ('{"lin":{}}', "'lin' factor is missing field 'shift'"),
    ('{"lin":3}', "'lin' factor body must be an object"),
    ('{"qlin":{"coeff":"1"}}', "'qlin' factor is missing field 'shift'"),
    ('{"qlin":"1"}', "'qlin' factor body must be an object"),
    ('{"qpair":{"cos":"1/2"}}', "'qpair' factor is missing field 'amp'"),
    ('{"qpair":[]}', "'qpair' factor body must be an object"),
], ids=["lin-field", "lin-body", "qlin-field", "qlin-body", "qpair-field", "qpair-body"])
def test_malformed_factor_names_kind_and_field(capsys, factor, message):
    spec = '{"q":"1/2","num":[%s]}' % factor
    code, out, err = run(capsys, "expand", "--rspec", spec, "-d", "2")
    assert code == 2 and out == ""
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize("spec, message", [
    ('{"num":null}', "rspec 'num' must be a list"),
    ('{"num":5}', "rspec 'num' must be a list"),
    ('{"num":"ab"}', "rspec 'num' must be a list"),
    ('{"den":{}}', "rspec 'den' must be a list"),
    ('{"nmu":[{"lin":{"shift":"1/2"}}]}', "unknown rspec key 'nmu'"),
    ('{"num":[{"lin":{"shift":"1/2","extra":1}}]}', "'lin' factor has unknown field 'extra'"),
    ('{"constant":null}', "rspec 'constant': not a rational"),
    ('{"q":"x"}', "rspec 'q': not a rational"),
], ids=["num-null", "num-int", "num-string", "den-object", "unknown-key", "unknown-field", "constant", "q"])
def test_malformed_rspec_names_the_key(capsys, spec, message):
    code, out, err = run(capsys, "expand", "--rspec", spec, "-d", "2")
    assert code == 2 and out == ""
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("expand", "--rspec", '{"nmu":[]}', "-d", "2"),
    ("verify", "hirota", "--rspec", '{"num":5}'),
], ids=["expand", "verify"])
def test_malformed_rspec_names_the_flag(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: --rspec: ") and "Traceback" not in err


def test_missing_rspec_file_names_the_flag(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    code, out, err = run(capsys, "verify", "hirota", "--rspec", f"@{missing}", "-d", "3")
    assert code == 2 and out == ""
    assert err == f"error: --rspec: [Errno 2] No such file or directory: '{missing}'"


# q^(1/3) at q = 1/2 is irrational: refused when the symbol is read, at any grade, naming the flag
IRRATIONAL_SHIFT_SPEC = '{"q":"1/2","num":[{"qlin":{"coeff":"1","shift":"1/3"}}]}'


# a family parameter's power of q is refused naming the flag that holds it, once q itself is found a basic base
@pytest.mark.parametrize("argv, message", [
    (("expand", "--rspec", IRRATIONAL_SHIFT_SPEC, "-d", "2"), "--rspec: 1/2**1/3 is not rational; pick a base admitting an exact 3-th root"),
    (("expand", "--rspec", IRRATIONAL_SHIFT_SPEC, "-d", "0"), "--rspec: 1/2**1/3 is not rational; pick a base admitting an exact 3-th root"),
    (("verify", "hirota", "--rspec", IRRATIONAL_SHIFT_SPEC, "-d", "2"),
     "--rspec: 1/2**1/3 is not rational; pick a base admitting an exact 3-th root"),
    (("eval", "qphi", "--a", "1/2", "--b", "3", "--q", "1/2", "--order", "3"),
     "--a: 1/2**1/2 is not rational; pick a base admitting an exact 2-th root"),
    (("verify", "qdiff", "--a", "2", "--b", "1/3", "--q", "1/2", "--order", "3"),
     "--b: 1/2**1/3 is not rational; pick a base admitting an exact 3-th root"),
    (("verify", "prop4", "--rspec", '{"q":"1/2","num":[{"qlin":{"coeff":"2/3","shift":"0"}}],"den":[]}', "--b", "1/5",
      "-d", "3"), "--b: 1/2**1/5 is not rational; pick a base admitting an exact 5-th root"),
], ids=["expand", "expand-d0", "hirota", "qphi", "qdiff", "prop4"])
def test_irrational_q_power_names_the_flag(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: {message}"


@pytest.mark.parametrize("argv, message", [
    (("eval", "qphi", "--a", "1/2", "--b", "3", "--q", "-1", "--order", "3"),
     "q must be nonzero and not a root of unity; q=-1"),
    (("verify", "qdiff", "--a", "1/2", "--b", "3", "--q", "1/2", "--order", "0"),
     "qdiff compares x^0..x^(order-1): order = 0 compares nothing, use --order >= 1"),
    (("eval", "qphi", "--a", "1/2", "--b", "x", "--order", "3"), "--b: not a rational: 'x'"),
    (("eval", "qphi", "--a", "1/2", "--b", "3", "--order", "3"), "qphi needs --q"),
], ids=["root-of-unity", "qdiff-order", "malformed-b", "missing-q"])
def test_irrational_q_power_is_refused_after_the_other_faults(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: {message}"


def test_pole_reports_offending_point(capsys):
    pole_spec = '{"constant":"1","num":[],"den":[{"lin":{"shift":"-1"}}]}'
    code, _, err = run(capsys, "expand", "--rspec", pole_spec, "-M", "0", "-d", "3")
    assert code == 2
    assert "pole at integer point 1" in err


POLE_SPEC = '{"den":[{"lin":{"shift":"-1"}}]}'


@pytest.mark.parametrize("argv, point, flag", [
    (["expand", "--rspec", POLE_SPEC, "-d", "3"], 1, "--rspec"),
    (["verify", "hirota", "--rspec", POLE_SPEC, "-d", "3"], 1, "--rspec"),
    (["verify", "toda", "--rspec", POLE_SPEC, "-d", "3"], 1, "--rspec"),
    (["verify", "kp", "--rspec", POLE_SPEC, "-d", "4"], 1, "--rspec"),
    (["verify", "oracle", "--rspec", POLE_SPEC, "-d", "3"], 1, "--rspec"),
    (["eval", "pfq", "--a", "1/2", "--b", "0", "--order", "3"], 0, "--b"),
    (["eval", "qphi", "--a", "2", "--b", "0", "--q", "1/2", "--order", "3"], 0, "--b"),
    (["eval", "qphi", "--a", "2", "--b", "-1", "--q", "1/2", "--x", "1/3,1/5", "--order", "3"], 1, "--b"),
    (["verify", "ode", "--a", "1/2", "--b", "0", "--order", "3"], 0, "--b"),
    (["verify", "qdiff", "--a", "2", "--b", "-2", "--q", "1/2", "--order", "3"], 2, "--b"),
    (["verify", "prop4", "--rspec", POLE_SPEC, "--b", "1/2", "-d", "3"], 1, "--rspec"),
    (["verify", "prop4", "--rspec", '{"num":[{"lin":{"shift":"1/2"}}]}', "--b", "-2", "-d", "3"], 2, "--b"),
    (["verify", "prop4", "--rspec", '{"den":[{"lin":{"shift":"2"}}]}', "--b", "-2", "-d", "3"], -2, "--rspec"),
], ids=["expand", "hirota", "toda", "kp", "oracle", "pfq", "qphi", "qphi-multivar", "ode", "qdiff",
        "prop4-rspec", "prop4-b", "prop4-both"])
def test_pole_is_one_line_naming_its_flag(capsys, argv, point, flag):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: pole at integer point {point}: a denominator given by {flag} vanishes there"


@pytest.mark.parametrize("check, shift, code", [
    ("hirota", "-3", 0),
    ("toda", "-4", 0),
    ("hirota", "-2", 2),
    ("toda", "-3", 2),
], ids=["hirota-uncompared", "toda-uncompared", "hirota-compared", "toda-compared"])
def test_pole_only_an_uncompared_grade_reaches_is_never_met(capsys, check, shift, code):
    # at M = 0, d = 3 a neighbour charge's tau is built at grade 2, the highest compared: the pole of
    # r = 1/(D + shift) at -shift is met only where a tau that the check builds reaches it
    spec = f'{{"num":[],"den":[{{"lin":{{"shift":"{shift}"}}}}]}}'
    got, out, err = run(capsys, "verify", check, "--rspec", spec, "-M", "0", "-d", "3")
    assert got == code
    if code:
        assert err == f"error: pole at integer point {-int(shift)}: a denominator given by --rspec vanishes there"
    else:
        assert json.loads(out)["pass"] is True and err == ""


def test_rspec_json_integer_is_exact(capsys):
    code, out, _ = run(capsys, "expand", "--rspec", '{"num":[{"lin":{"shift":1}}]}', "-d", "2")
    assert code == 0
    assert out == '{"[]":"1","[1]":"1","[2]":"2","[1,1]":"0"}'


def test_rspec_json_float_is_usage_error(capsys):
    code, _, err = run(capsys, "expand", "--rspec", '{"num":[{"lin":{"shift":0.5}}]}', "-d", "2")
    assert code == 2 and "0.5" in err


def test_remark1_q_modes_need_q(capsys):
    for mode in ("q-spec", "dual"):
        code, _, err = run(capsys, "verify", "remark1", "--mode", mode, "--nvars", "2", "-d", "3")
        assert code == 2 and err == f"error: remark1 --mode {mode} needs --q"


@pytest.mark.parametrize("argv, message", [
    (("--mode", "miwa", "--nvars", "-1"), "use --nvars >= 0"),
    (("--mode", "q-spec", "--nvars", "-1", "--q", "1/2"), "use --nvars >= 0"),
    (("--mode", "dual", "--nvars", "-1", "--q", "1/2"), "use --nvars >= 0"),
    (("--mode", "q-spec", "--q", "1"), "not a root of unity; q=1"),
    (("--mode", "q-spec", "--q", "-1"), "not a root of unity; q=-1"),
    (("--mode", "dual", "--q", "1"), "not a root of unity; q=1"),
    (("--mode", "dual", "--q", "-1"), "not a root of unity; q=-1"),
], ids=["miwa-nvars", "q-spec-nvars", "dual-nvars", "q-spec-one", "q-spec-minus-one", "dual-one", "dual-minus-one"])
def test_remark1_refuses_bad_nvars_and_q(capsys, argv, message):
    code, out, err = run(capsys, "verify", "remark1", *argv, "-d", "3")
    assert code == 2 and out == ""
    assert message in err and "Traceback" not in err


def test_eval_qphi_rejects_unit_q(capsys):
    code, _, err = run(capsys, "eval", "qphi", "--a", "2", "--b", "3", "--q", "1", "--order", "4")
    assert code == 2 and "root of unity" in err and "pole" not in err


@pytest.mark.parametrize("q", ["1", "-1"])
def test_verify_prop4_refuses_unit_q(capsys, q):
    spec = '{"q":"%s","num":[{"qlin":{"coeff":"1/2","shift":"2"}}]}' % q
    code, out, err = run(capsys, "verify", "prop4", "--rspec", spec, "--b", "3", "-d", "2")
    assert code == 2 and out == ""
    assert err == f"error: q must be nonzero and not a root of unity; q={q}"


@pytest.mark.parametrize("argv, flag", [
    (("eval", "pfq", "--a", "1/2", "--b", "3/2", "--x", "1/4,x"), "--x"),
    (("eval", "pfq", "--a", "1/2,x", "--b", "3/2"), "--a"),
    (("verify", "qdiff", "--a", "2", "--b", "3", "--q", "abc"), "--q"),
    (("verify", "prop4", "--rspec", RATIO_SPEC, "--b", "zz", "-d", "2"), "--b"),
    (("eval", "cg", "--params", "1/2,1/2,1,1/2,q", "--q", "1/2"), "--params"),
    (("eval", "aw", "--n", "2", "--params", "1/5,1/7,2/7,1/11", "--q", "1/2", "--cos", "x"), "--cos"),
], ids=["pfq-x", "pfq-a", "qdiff-q", "prop4-b", "cg-params", "aw-cos"])
def test_malformed_rational_names_its_flag(capsys, argv, flag):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {flag}: not a rational: ") and "Traceback" not in err


@pytest.mark.parametrize("argv, flag, value", [
    (("verify", "ode", "--b", "1/3", "--order", "3"), "--a", "-1/2"),
    (("verify", "ode", "--b", "1/3", "--order", "3"), "--a", "-2,1/2"),
    (("verify", "prop4", "--rspec", RATIO_SPEC, "-d", "3"), "--b", "-1/2"),
    (("eval", "pfq", "--a", "1/2", "--b", "3/2"), "--x", "-1/4"),
    (("eval", "qphi", "--a", "2", "--b", "3", "--order", "4"), "--q", "-1/2"),
    (("eval", "aw", "--n", "2", "--q", "1/3"), "--params", "-1/5,1/7,2/7,1/11"),
], ids=["a", "a-list", "b", "x", "q", "params"])
def test_negative_flag_value_reads_as_its_equals_form(capsys, argv, flag, value):
    # argparse alone takes -1/2 for a flag and exits 2 with "--a: expected one argument"
    code, out, err = run(capsys, *argv, flag, value)
    assert code == 0 and out and err == ""
    assert run(capsys, *argv, f"{flag}={value}") == (code, out, err)


def test_decimal_rational_flag_is_exact(capsys):
    code, out, _ = run(capsys, "verify", "qdiff", "--a", "2", "--b", "3", "--q", "0.5", "--order", "3")
    assert code == 0 and json.loads(out)["params"]["q"] == "1/2"


def test_bilinear_checks_refuse_empty_window(capsys):
    for check, d, floor in (("hirota", "0", 1), ("toda", "0", 1), ("kp", "3", 4)):
        code, out, err = run(capsys, "verify", check, "--rspec", RATIO_SPEC, "-d", d)
        assert code == 2 and out == "" and f"d = {d}" in err
        assert err.endswith(f"use -d/--degree >= {floor}") and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("verify", "ode", "--a", "1/2", "--b", "3/2", "--order", "-1"),
    ("verify", "ode", "--a", "1/2", "--b", "3/2", "--order", "0"),
    ("verify", "qdiff", "--a", "2", "--b", "3", "--q", "1/2", "--order", "0"),
    ("eval", "pfq", "--a", "1/2", "--b", "3/2", "--order", "-1"),
    ("eval", "qphi", "--a", "2", "--b", "3", "--q", "1/2", "--order", "-1"),
], ids=["ode-negative", "ode-zero", "qdiff-zero", "pfq-negative", "qphi-negative"])
def test_orders_that_compare_nothing_are_refused(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert "--order" in err and "Traceback" not in err


def test_verify_prop4_failure_names_monomial(capsys, monkeypatch):
    from taukit import verify
    from taukit.poly import GradedPoly, mono, tvar

    left = GradedPoly(2, 2, {(): F(1), mono([(tvar(1), 1)]): F(1, 2)})
    right = GradedPoly(2, 2, {(): F(1), mono([(tvar(1), 1)]): F(1, 3)})
    monkeypatch.setattr(verify, "prop4_pair", lambda *args: (left, right))
    code, out, _ = run(capsys, "verify", "prop4", "--rspec", RATIO_SPEC, "--b", "1/5", "-d", "2")
    assert code == 1
    assert json.loads(out)["failure"] == {"at": "t1", "lhs": "1/2", "rhs": "1/3"}


@pytest.mark.parametrize("argv, flag", [
    (("expand", "--rspec", RATIO_SPEC, "-d", "-1"), "-d/--degree"),
    (("verify", "oracle", "--rspec", RATIO_SPEC, "-d", "-1"), "-d/--degree"),
    (("verify", "hirota", "--rspec", RATIO_SPEC, "-d", "-1"), "-d/--degree"),
    (("verify", "remark1", "-d", "-1"), "-d/--degree"),
    (("verify", "prop4", "--rspec", RATIO_SPEC, "--b", "1/5", "-d", "-1"), "-d/--degree"),
    (("verify", "oracle", "--rspec", RATIO_SPEC, "-d", "3", "--window", "-1"), "--window"),
    (("verify", "oracle", "--rspec", RATIO_SPEC, "-d", "3", "--window", "2"), "--window"),
    (("eval", "aw", "--n", "-1", "--params", "1/5,1/7,2/7,1/11", "--q", "1/2"), "--n"),
    (("eval", "pfq", "--a", "1/2", "--b", "3/2", "--order", "-1"), "--order"),
    (("eval", "qphi", "--a", "2", "--b", "3", "--q", "1/2", "--order", "-1"), "--order"),
], ids=["expand", "oracle", "hirota", "remark1", "prop4", "window-negative", "window-below-d", "aw-n", "pfq-order",
        "qphi-order"])
def test_negative_sizes_name_their_flag(capsys, argv, flag):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {flag} must be >= ") and "Traceback" not in err


def test_unknown_subcommand_usage(capsys):
    code, _, _ = run(capsys, "nonsense")
    assert code == 2


def test_missing_required_flag(capsys):
    code, _, _ = run(capsys, "expand", "-d", "2")
    assert code == 2


@pytest.mark.parametrize("argv, flag", [
    (("verify", "qdiff", "--a", "2", "--b", "3", "--order", "3"), "q"),
    (("eval", "qphi", "--a", "2", "--b", "3", "--order", "3"), "q"),
    (("eval", "aw", "--n", "3", "--params", "1/5,1/7,2/7,1/11"), "q"),
    (("eval", "cg", "--params", "1/2,1/2,1,1/2,1/2"), "q"),
    (("verify", "hirota", "-d", "3"), "rspec"),
    (("verify", "toda", "-d", "3"), "rspec"),
    (("verify", "kp", "-d", "4"), "rspec"),
    (("verify", "oracle", "-d", "3"), "rspec"),
    (("verify", "prop4", "--b", "1/2", "-d", "3"), "rspec"),
    (("eval", "aw", "--params", "1/5,1/7,2/7"), "params a,b,c,d"),
    (("eval", "cg", "--params", "1/2,1/2,1,1/2"), "params l1,l2,l,j,k"),
    (("verify", "prop4", "--rspec", "{}", "--b", "1/5,2/5"), "b with exactly one rational"),
], ids=lambda v: "-".join(v[:2]) if isinstance(v, tuple) else v)
def test_missing_flag_is_named(capsys, argv, flag):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: {argv[1]} needs --{flag}"


# -- emit ------------------------------------------------------------------------------------


def test_verify_csv_report(capsys):
    code, out, _ = run(
        capsys, "verify", "hirota", "--rspec", RATIO_SPEC, "-M", "0", "-d", "3",
        "--format", "csv",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "key,value"
    assert any(line.startswith("pass,") for line in lines)


# `verify hirota -d 3 --format csv` stdout, byte for byte: None and the params dict are JSON-encoded
GOLDEN_HIROTA_CSV = (
    "key,value\n"
    "name,hirota\n"
    "pass,True\n"
    "grade,2\n"
    "failure,null\n"
    r'params,"{""rspec"": ""{\""constant\"":\""1\"",\""num\"":[{\""lin\"":{\""shift\"":\""1/2\""}}],'
    r'\""den\"":[{\""lin\"":{\""shift\"":\""1/3\""}}]}"", ""M"": 0, ""d"": 3}"'
    "\n"
)


def test_verify_csv_report_golden(capsys):
    assert main(["verify", "hirota", "--rspec", RATIO_SPEC, "-M", "0", "-d", "3", "--format", "csv"]) == 0
    assert capsys.readouterr().out == GOLDEN_HIROTA_CSV


def test_emit_dict_json_is_compact():
    assert emit({"a": "1"}, "json") == '{"a":"1"}'


def test_emit_csv_quotes_partitions():
    table = (("partition", "coefficient"), [("[2,1]", "1/2")])
    assert emit(table, "csv") == 'partition,coefficient\n"[2,1]",1/2'


def test_module_entry_point():
    src = os.path.dirname(os.path.dirname(taukit.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    argv = [sys.executable, "-m", "taukit.cli", "expand", "--rspec", "{}", "-d", "2"]
    done = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0 and done.stderr == ""
    assert done.stdout == '{"[]":"1","[1]":"1","[2]":"1","[1,1]":"1"}\n'


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # every command pays for its imports: the value classes need neither module, which would pull in ast and dis
    src = os.path.dirname(os.path.dirname(taukit.__file__))
    code = "import sys; before = set(sys.modules); import taukit.cli; print(*sorted(set(sys.modules) - before))"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=src))
    added = set(done.stdout.split())
    assert done.returncode == 0 and "taukit.cli" in added
    assert not added & {"dataclasses", "inspect"}


def test_parser_help_smoke():
    parser = build_parser()
    assert parser.prog == "taukit"


def test_malformed_seed_names_the_variable(capsys, monkeypatch):
    monkeypatch.setenv("TAUKIT_SEED", "x")
    code, out, err = run(capsys, "suite")
    assert code == 2 and out == ""
    assert err == "error: TAUKIT_SEED: invalid literal for int() with base 10: 'x'"


def test_suite_prints_a_failing_criterion_and_exits_one(capsys, monkeypatch):
    from taukit import acceptance
    from taukit.tau import SqrtValue

    # [a] read as a at every q: criterion 14's bracket steps no longer fall
    monkeypatch.setattr(acceptance, "CRITERIA", [acceptance.criterion_12_aw, acceptance.criterion_14_cg])
    monkeypatch.setattr(acceptance, "q_bracket", lambda a, q: SqrtValue.of(a))
    assert main(["suite", "--seed", "1729"]) == 1
    assert capsys.readouterr().out == (
        "PASS criterion-12-aw\n"
        "FAIL criterion-14-cg  (('bracket [2]^2 at step 1: 4 < 4 < 4', 'False', 'True'))\n"
        '{"criterion-12-aw":"pass","criterion-14-cg":"FAIL"}\n'
    )


def test_eval_aw_pole_names_the_first_point_of_ab(capsys):
    # ab = 2 vanishes at i = 1 and ac = 1 at i = 0; ab is scanned first
    code, out, err = run(capsys, "eval", "aw", "--n", "2", "--params", "1/5,10,5,1/11", "--q", "1/2")
    assert code == 2 and out == ""
    assert err == "error: pole at integer point 1: a denominator given by --params vanishes there"


@pytest.mark.parametrize("params, q, message", [
    ("0,1/7,2/7,1/11", "1/2", "a must be nonzero; a=0"),
    ("0,1/7,2/7,1/11", "0", "q must be nonzero and not a root of unity; q=0"),
    ("1/5,1/7,2/7,1/11", "1", "q must be nonzero and not a root of unity; q=1"),
], ids=["a-zero", "q-zero-before-a", "q-one"])
def test_eval_aw_refuses_q_then_a_naming_each(capsys, params, q, message):
    code, out, err = run(capsys, "eval", "aw", "--n", "2", "--params", params, "--q", q)
    assert code == 2 and out == ""
    assert err == f"error: {message}"


def test_remark1_miwa_refuses_q(capsys):
    code, out, err = run(capsys, "verify", "remark1", "--mode", "miwa", "--q", "1/2", "-d", "2")
    assert code == 2 and out == ""
    assert err == "error: remark1 --mode miwa reads no --q"


# -- the command table: every entry declares exactly the flags it reads --------------------

# (verb, name, flags it reads) for every entry of every verb
ENTRIES = [(verb, name, spec[0]) for verb, (*_, entries) in COMMANDS.items() for name, spec in entries.items()]


def options(flags):
    """The option strings of flags, as argparse accepts them."""
    return [opt for flag in flags for opt in FLAGS[flag][0]]


def foreign(verb, flags):
    """The flags that another entry of verb reads and this one does not."""
    return sorted({f for read, *_ in COMMANDS[verb][-1].values() for f in read} - set(flags), key=list(FLAGS).index)


# no foreign option is a prefix of an option its entry declares, so argparse accepts none as an abbreviation
FOREIGN = [(verb, name, opt) for verb, name, flags in ENTRIES for opt in options(foreign(verb, flags))]


@pytest.mark.parametrize("verb, name, opt", FOREIGN, ids=["-".join(case) for case in FOREIGN])
def test_foreign_flag_exits_two_naming_it(capsys, verb, name, opt):
    code, out, err = run(capsys, verb, name, opt, "1")
    assert code == 2 and out == ""
    assert err.endswith(f"error: unrecognized arguments: {opt} 1") and "Traceback" not in err


@pytest.mark.parametrize("verb, name, flags", ENTRIES, ids=[f"{verb}-{name}" for verb, name, _ in ENTRIES])
def test_entry_help_lists_exactly_its_flags(capsys, verb, name, flags):
    assert main([verb, name, "--help"]) == 0
    listed = set(re.findall(r"(?<![\w-])--?[A-Za-z][\w-]*", capsys.readouterr().out))
    assert listed == {"-h", "--help", *options((*flags, "format"))}


def test_flags_before_the_name_exit_two(capsys):
    # argparse alone would read the flag's value as the name and name only that value
    for argv, flag, name in [
        (("verify", "--rspec", RATIO_SPEC, "hirota", "-d", "3"), "--rspec", "check"),
        (("verify", "--rspec={}", "hirota"), "--rspec", "check"),
        (("eval", "--a", "1/2", "pfq", "--b", "3/2"), "--a", "family"),
    ]:
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.endswith(f"taukit: error: {flag} is given before the {name} name: flags go after it")


# inputs a user would type, so that most draws reach past parsing into the checks
RATIONALS = ("1/2", "2,3", "0,-1", "1/2,1/3", "1/5,1/7,2/7,1/11", "1/2,1/2,1,1/2,1/2", "1", "-2", "-1/2", "-2,1/2")
RSPECS = (RATIO_SPEC, D_SPEC, POLE_SPEC, "{}", '{"q":"1/2","num":[{"qlin":{"coeff":"1/2","shift":"2"}}]}')


@st.composite
def command_lines(draw):
    """A table entry, some of its flags with random text or small integers, and maybe one foreign flag."""
    verb, name, flags = draw(st.sampled_from(ENTRIES))
    argv = [verb, name]
    for flag in draw(st.lists(st.sampled_from((*flags, "format")), unique=True)):
        spec = FLAGS[flag][1]
        if spec.get("type") is int:  # -d, --order and --nvars at most 4, and no text that reads as a larger int
            typed = st.integers(-2, 4).map(str)
            junk = st.text(st.characters(blacklist_categories=("Nd",)), max_size=8)
        else:
            typed = st.sampled_from(spec.get("choices") or (RSPECS if flag == "rspec" else RATIONALS))
            junk = st.text(max_size=8)
        argv += [draw(st.sampled_from(FLAGS[flag][0])), draw(junk if draw(st.integers(0, 5)) == 3 else typed)]
    stray = draw(st.integers(0, 3)) == 0
    if stray:
        argv += [draw(st.sampled_from(options(foreign(verb, flags)))), draw(st.text(max_size=4))]
    return argv, stray


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(command_lines())
def test_fuzzed_command_lines_exit_zero_one_or_two(case):
    argv, stray = case
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2) and "Traceback" not in err.getvalue()
    assert code == 2 or not stray
