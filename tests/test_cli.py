import argparse
import ast
import glob
import hashlib
import json
import os
import re
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from cocycle_lab import cli, cocycles, decision, exact, groups, problem
from cocycle_lab._value import InputError
from cocycle_lab.cocycles import validate_cocycle
from cocycle_lab.decision import decide
from cocycle_lab.problem import ProblemError, load_problem, parse_problem

FIXTURES = os.path.join(os.path.dirname(cli.__file__), "fixtures")
SRC = os.path.dirname(os.path.dirname(cli.__file__))


def fixture(name):
    return os.path.join(FIXTURES, name + ".problem")


# ---------------------------------------------------------------------------
# parser


def test_parse_raw_presentation():
    p = parse_problem("""
[symbols]
theta irrational

[group]
moduli 0 0 0
names x y z
bilinear z x y 1

[cocycle]
theta * g:x * h:y
""")
    assert p.group.names == ("x", "y", "z")
    assert p.group.bilinear == ((2, 0, 1, 1),)
    assert validate_cocycle(p.cocycle) is None


def test_parse_builder_with_renames():
    p = parse_problem("""
[group]
builder abelian 0 0
names a b

[cocycle]
1/2 * g:a * h:b
""")
    assert p.group.names == ("a", "b")


def test_parse_symbol_statuses():
    p = parse_problem("""
[symbols]
theta irrational
t1 rational 5
xi param
xi2 param 3

[group]
builder abelian 0

[cocycle]
""")
    assert p.table.thetas == ("theta",)
    assert dict(p.table.xis) == {"t1": 5, "xi2": 3, "xi": 0}


@pytest.mark.parametrize("text,line,fragment", [
    ("junk before\n[group]\nbuilder g3\n[cocycle]\n", 1, "before the first section"),
    ("[grp]\n", 1, "unknown section"),
    ("[group]\nbuilder nosuch\n[cocycle]\n", 2, "unknown builder"),
    ("[group]\nbuilder abelian 0\n[cocycle]\nfoo * g:x0 * h:x0\n", 4, "rational"),
    ("[group]\nbuilder abelian 0\n[cocycle]\n1 * g:nope * h:x0\n", 4, "unknown coordinate"),
    ("[symbols]\na irrational\na irrational\n[group]\nbuilder abelian 0\n[cocycle]\n",
     3, "declared twice"),
    ("[group]\nmoduli 0 0\nbilinear z x y 1\n[cocycle]\n", 3, "unknown coordinate name"),
    ("[group]\nbuilder abelian 0\n[cocycle]\n[tf]\ndensity 1/2\n", 5, "density needs"),
    # superscript digits pass str.isdigit() but are no integer literal
    ("[group]\nbuilder abelian 0\n[cocycle]\n1 * g:x1^\u00b2 * h:x1\n", 4, "bad exponent '\u00b2'"),
    ("[symbols]\na rational \u00b2\n[group]\nbuilder abelian 0\n[cocycle]\n", 2,
     "rational needs a positive integer denominator"),
    ("[symbols]\na param \u00b2\n[group]\nbuilder abelian 0\n[cocycle]\n", 2,
     "param takes an optional integer order"),
    # one name for two coordinates, and a second moduli or names line
    ("[group]\nmoduli 0 0\nnames x x\n[cocycle]\n1 * g:x * h:x\n", 3,
     "duplicate coordinate name 'x'"),
    ("[group]\nbuilder abelian 0 0\nnames a a\n[cocycle]\n", 3, "duplicate coordinate name 'a'"),
    ("[group]\nmoduli 0 0\nnames a b\nnames c d\n[cocycle]\n1 * g:a * h:b\n", 4,
     "repeated names line"),
    ("[group]\nmoduli 0 0\nmoduli 0 0\n[cocycle]\n", 3, "repeated moduli line"),
    # a raw presentation outside the 2-step shape is reported at the section
    ("[group]\nmoduli 0 0 0\nnames x y z\nbilinear z z y 1\n[cocycle]\n", 2,
     "a coordinate both feeds and receives"),
    ("[group]\nmoduli 2 0 0\nnames x y z\nbilinear z x y 1\n[cocycle]\n", 2,
     "torsion coordinate feeds the group law"),
])
def test_parse_errors_carry_line_numbers(text, line, fragment):
    with pytest.raises(ProblemError) as e:
        parse_problem(text)
    assert e.value.line_no == line
    assert fragment in str(e.value)


@pytest.mark.parametrize("raw", ["bilinear z x y 1", "moduli 0 0 0"])
def test_raw_group_line_after_builder_is_rejected(raw):
    with pytest.raises(ProblemError) as e:
        parse_problem(f"[group]\nbuilder abelian 0 0 0\nnames x y z\n{raw}\n[cocycle]\n")
    assert e.value.line_no == 4
    assert "builder cannot be mixed with raw lines or repeated" in str(e.value)


def test_raw_presentation_names_default_to_x1_x2():
    p = parse_problem("[group]\nmoduli 0 0 0\nbilinear x3 x1 x2 1\n[cocycle]\n1 * g:x1 * h:x2\n")
    assert p.group.names == ("x1", "x2", "x3")
    assert p.group.bilinear == ((2, 0, 1, 1),)
    assert p.cocycle.phase.terms[0][0] == (1, 0, 0, 0, 1, 0)
    with pytest.raises(ProblemError) as e:
        parse_problem("[group]\nmoduli 0 0\n[cocycle]\n1 * g:x0 * h:x2\n")
    assert e.value.line_no == 4
    assert "unknown coordinate" in str(e.value)


HALF_AS_SYMBOL = "[symbols]\n1/2 irrational\n[group]\nmoduli 0 0\n[cocycle]\n1/2 * g:x1 * h:x2\n"


def test_symbol_names_must_be_identifiers(tmp_path, capsys):
    """Declared as a symbol, '1/2' would stop being the coefficient 1/2 and
    turn a rational phase ("Z-stable: no") into an irrational one."""
    with pytest.raises(ProblemError) as e:
        parse_problem(HALF_AS_SYMBOL)
    assert e.value.line_no == 2
    f = tmp_path / "half.problem"
    f.write_text(HALF_AS_SYMBOL)
    code, out, err = run(["verdict", str(f)], capsys)
    assert code == 1 and not out
    assert err == "error: line 2: symbol name '1/2' is not an identifier\n"
    f.write_text(HALF_AS_SYMBOL.replace("[symbols]\n1/2 irrational\n", ""))
    code, out, _ = run(["verdict", str(f)], capsys)
    assert code == 0 and out.startswith("Z-stable: no\n")


def g3_with_symbol(line):
    with open(fixture("g3"), encoding="utf-8") as fh:
        return fh.read().replace("theta irrational\n", f"theta irrational\n{line}\n")


@pytest.mark.parametrize("name", ["gamma1_1", "gamma12_3", "gammaM_1"])
def test_induced_symbol_names_are_reserved(name):
    """The recursion names its induced symbols gamma<level>_<i> (and the
    single-quotient criterion gammaM_<i>); a declared one made g3 undecided."""
    with pytest.raises(ProblemError) as e:
        parse_problem(g3_with_symbol(f"{name} param"))
    assert e.value.line_no == 4
    assert f"symbol name {name!r} is reserved" in str(e.value)


@pytest.mark.parametrize("name", ["gamma", "gamma1", "gamma_1", "gammaX_1"])
def test_names_outside_the_induced_namespace_are_free(name):
    p = parse_problem(g3_with_symbol(f"{name} param"))
    assert decide(p.cocycle, p.context).z_stable == decision.ZSTABLE


def test_missing_sections_rejected():
    with pytest.raises(ProblemError):
        parse_problem("[group]\nbuilder g3\n")
    with pytest.raises(ProblemError):
        parse_problem("[cocycle]\n")


# coefficient tokens: a sign, digits (ASCII, in '_' groups, or other decimal
# digits: Arabic-Indic three, fullwidth seven, Devanagari nine), an optional
# /digits, .digits and e+-digits part, and junk; no whitespace, '*', '#' or
# letters that could spell the symbol theta
ANY_DIGITS = st.text("0123456789", min_size=1, max_size=5) | st.sampled_from(
    ["1_000", "2_5", "\u0663", "\uff17", "\u096f2", "0_", "_1"])
TOKEN = st.tuples(
    st.sampled_from(["", "+", "-", "--", "+-"]),
    ANY_DIGITS | st.just(""),
    st.just("") | ANY_DIGITS.map("/".__add__) | st.sampled_from(["/", "/-2", "/+2"]),
    st.just("") | ANY_DIGITS.map(".".__add__) | st.just("."),
    st.just("") | st.tuples(st.sampled_from("eE"), st.sampled_from(["", "+", "-"]),
                            ANY_DIGITS).map("".join),
    st.text("0123456789+-/._eEx\u0663", max_size=3),
).map("".join).filter(bool)
THETA = exact.SymbolTable(thetas=("theta",))


def coefficient_by_fraction(tokens, sym):
    """The coefficient as the parser built it from Fraction(tok) before it
    read the plain forms as integers, with a token whose trailing decimal
    exponent has magnitude 4300 or more refused before Fraction builds
    10^|e| (0.13 s for 1e1000000, unbounded beyond)."""
    q = Fraction(1)
    for tok in tokens:
        exp = re.search(r"[eE]([-+]?\d+(?:_\d+)*)\Z", tok)
        try:
            if exp and abs(int(exp[1])) >= 4300:
                raise ProblemError(7, f"exponent of {tok!r} is out of range "
                                      "(its magnitude must be below 4300)")
            q *= Fraction(tok)
        except (ValueError, ZeroDivisionError):
            raise ProblemError(7, f"expected a rational number, got {tok!r}")
    if sym is None:
        return exact.KNumber.make(THETA, q)
    return exact.symbol(THETA, "theta").scale(-q if sym.startswith("-") else q)


@given(st.lists(TOKEN, min_size=1, max_size=2), st.sampled_from([None, "theta", "-theta"]),
       st.integers(0, 2))
@example(["4"], None, 0)
@example(["-1/2"], "theta", 0)
@example(["+3", "-0"], "-theta", 1)
@example(["007/014"], None, 0)
@example(["0.5"], None, 0)
@example(["1e-3"], "theta", 1)
@example(["1_000"], None, 0)
@example(["1/0"], None, 0)
@example(["\u0663/\u0664"], None, 0)
@example(["1/-2"], None, 0)
@example(["1" * 4301], None, 0)
@example(["1/" + "1" * 4301], None, 0)
@example(["1e1000000"], None, 0)
@example(["0", "0e-1000000"], "theta", 1)
@example(["1e4299"], None, 0)
def test_coefficient_tokens_read_as_fraction_reads_them(tokens, sym, at):
    """The plain forms are read as integers, any other token by Fraction:
    the coefficient is the one Fraction(tok) gives, or the same error."""
    factors = list(tokens)
    if sym is not None:
        factors.insert(min(at, len(factors)), sym)
    line = " ".join(factors) + " * g:x1 * h:x2"
    group = groups.abelian((0, 0))
    try:
        want = coefficient_by_fraction(tokens, sym)
    except ProblemError as e:
        with pytest.raises(ProblemError) as got:
            problem._parse_monomial(line, 7, group, THETA)
        assert (got.value.line_no, str(got.value)) == (e.line_no, str(e))
    else:
        coef, _, _ = problem._parse_monomial(line, 7, group, THETA)
        assert coef == want


def test_a_huge_decimal_exponent_is_an_input_error(tmp_path, capsys):
    """1e1000000 is refused by its exponent, before 10^1000000 is built,
    with the line it stands on; the density bounds read tokens the same way."""
    f = tmp_path / "huge.problem"
    f.write_text("[group]\nmoduli 0 0\n[cocycle]\n1e1000000 * g:x1 * h:x2\n")
    code, out, err = run(["verdict", str(f)], capsys)
    assert (code, out) == (1, "")
    assert err == ("error: line 4: exponent of '1e1000000' is out of range "
                   "(its magnitude must be below 4300)\n")
    with pytest.raises(ProblemError) as e:
        parse_problem("[group]\nmoduli 0\n[cocycle]\n[tf]\ndensity 0 2E-4300\n")
    assert e.value.line_no == 5 and "exponent of '2E-4300' is out of range" in str(e.value)


# ---------------------------------------------------------------------------
# fixture round trip


def all_fixtures():
    return sorted(glob.glob(os.path.join(FIXTURES, "*.problem")))


def test_fixture_corpus_is_complete():
    names = {os.path.basename(f)[:-len(".problem")] for f in all_fixtures()}
    assert {"torus2", "torus2-rational", "g3", "heis-1-2", "heis-1-3",
            "h3-trivial", "z-times-h3-irr-irr", "z-times-h3-irr-rat",
            "z-times-h3-rat-irr", "z-times-h3-rat-rat"} <= names


def test_sources_parse_as_python_3_10():
    """pyproject.toml promises requires-python >= 3.10."""
    sources = glob.glob(os.path.join(os.path.dirname(cli.__file__), "*.py"))
    assert sources
    for path in sources:
        with open(path, encoding="utf-8") as fh:
            ast.parse(fh.read(), filename=path, feature_version=(3, 10))


def test_fixtures_reproduce_recorded_verdicts_and_trace_hashes():
    with open(os.path.join(FIXTURES, "expected.json")) as fh:
        expected = json.load(fh)
    for path in all_fixtures():
        name = os.path.basename(path)[:-len(".problem")]
        rec = expected[name]
        p = load_problem(path)
        assert validate_cocycle(p.cocycle) is None
        v = decide(p.cocycle, p.context)
        assert v.z_stable == rec["z_stable"], name
        blob = json.dumps(v.certificate.to_dict(), sort_keys=True, default=str)
        assert hashlib.sha256(blob.encode()).hexdigest() == rec["trace_sha256"], name


# ---------------------------------------------------------------------------
# command-line interface


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def error_report(command, path, code, message):
    """The --json report of a command that ends in an input error or an
    undecided outcome."""
    return json.dumps({"schema_version": 1, "command": command, "input": path,
                       "exit_code": code, "error": message}, indent=2) + "\n"


class Inline(str):
    """A problem file's text in an argument list, written to a file for the run."""


# a 2-cocycle (bilinear and carry-free) of degree 4 in x1: valid, but above
# the degree that validation supports
DEGREE_4 = Inline("[group]\nbuilder abelian 0 0\n\n[cocycle]\n1/2 * g:x1^4 * h:x2\n")


EXIT_MATRIX = [
    (["validate", fixture("g3")], 0),
    (["verdict", fixture("g3")], 0),
    (["verdict", fixture("torus2-rational")], 0),
    (["verdict", fixture("heis-1-2")], 0),          # two-step fallback decides it
    (["heisenberg", fixture("heis-1-2")], 0),       # the shortcut decides it
    (["torus", fixture("torus2")], 0),
    (["simplicity", fixture("z-times-h3-irr-irr")], 0),
    (["tf", fixture("z-times-h3-rat-irr")], 0),
    (["tf", fixture("z-times-h3-rat-rat")], 2),     # frame side stays undecided
    (["bound", "4"], 0),
    (["verdict", "no-such-file.problem"], 1),
    (["heisenberg", fixture("heis-1-2"), "--ctx", "nope=rational"], 1),
    (["torus", fixture("torus2-rational")], 0),
    (["validate", fixture("g3"), "--ctx", "nope=rational"], 1),
    (["product", fixture("torus2"), "--n1", "1"], 2),  # g1 h2 is no product form
    (["heisenberg", fixture("g3")], 2),             # a valid input of another shape
    # valid inputs on which the Heisenberg criterion does not apply
    (["heisenberg", fixture("torus2")], 2),
    (["heisenberg", fixture("z-times-h3-irr-irr")], 2),
    (["heisenberg", fixture("z-times-h3-irr-rat")], 2),
    (["heisenberg", fixture("z-times-h3-rat-irr")], 2),
    (["heisenberg", fixture("z-times-h3-rat-rat")], 2),
    # argparse usage errors are input errors, not "undecided"
    (["verdict", "--case-budget", "abc", fixture("g3")], 1),
    (["verdict"], 1),                               # no path
    (["no-such-command", fixture("g3")], 1),
    (["verdict", fixture("g3"), "--no-such-flag"], 1),
    # a phase above the supported degree is undecided, not invalid
    (["validate", DEGREE_4], 2),
    (["verdict", DEGREE_4], 2),
]


@pytest.mark.parametrize("argv,want", EXIT_MATRIX)
def test_exit_code_matrix(argv, want, capsys, tmp_path):
    path = tmp_path / "inline.problem"
    for a in argv:
        if isinstance(a, Inline):
            path.write_text(a)
    argv = [str(path) if isinstance(a, Inline) else a for a in argv]
    code, _, _ = run(argv, capsys)
    assert code == want


@pytest.mark.parametrize("command", ["validate", "verdict", "twisted-center"])
def test_a_phase_above_the_degree_bound_is_undecided_not_invalid(command, tmp_path, capsys):
    """The degree bound limits what validation checks; it says nothing about
    the cocycle, so the input is not reported invalid."""
    f = tmp_path / "degree4.problem"
    f.write_text(DEGREE_4)
    message = "phase degree exceeds the supported bound (3 per variable)"
    assert run([command, str(f)], capsys) == (2, "", f"undecided: {message}\n")
    assert run([command, "--json", str(f)], capsys) == (
        2, error_report(command, str(f), 2, message), f"undecided: {message}\n")


def test_usage_errors_keep_argparse_message_and_help_exits_0(capsys):
    code, _, err = run(["verdict", "--case-budget", "abc", fixture("g3")], capsys)
    assert code == 1
    assert err.startswith("usage: cocycle-lab verdict")
    assert "error: argument --case-budget: invalid int value: 'abc'" in err
    code, out, _ = run(["--help"], capsys)
    assert code == 0 and out.startswith("usage: cocycle-lab")


PARSER_ARGV = ([["--help"], [], ["nope"], ["verdict"], ["verdict", "f", "--bogus"],
                ["verdict", "--case-budget", "x", "f"], ["bound"], ["product", "f"],
                ["bound", "3", "--json"], ["verdict", fixture("g3"), "--json"]]
               + [[name, "--help"] for name in cli._COMMANDS])


@pytest.mark.parametrize("argv", PARSER_ARGV, ids=" ".join)
def test_a_narrowed_parse_prints_and_exits_as_the_full_parser(argv, capsys, monkeypatch):
    """main builds the parser of the named subcommand only; its output and
    exit code are the ones the parser of every subcommand gives."""
    got = run(argv, capsys)
    full = cli.build_parser
    monkeypatch.setattr(cli, "_parse_args", lambda argv: full().parse_args(argv))
    assert got == run(argv, capsys)
    if argv[-1:] == ["--bogus"]:  # reported by the top-level parser, every subcommand listed
        assert "{validate,center,twisted-center," in got[2]
        assert got[2].endswith("error: unrecognized arguments: --bogus\n")


def test_a_subcommand_builds_only_its_own_parser(capsys, monkeypatch):
    """verdict builds two parsers, the top level's and its own; the help
    builds all thirteen, as every command line did before."""
    built = []
    real_init = argparse.ArgumentParser.__init__
    monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                        lambda self, *a, **kw: built.append(self) or real_init(self, *a, **kw))
    assert run(["verdict", fixture("g3"), "--json"], capsys)[0] == 0
    assert len(built) == 2
    built.clear()
    assert run(["--help"], capsys)[0] == 0
    assert len(built) == 13


# valid, but z receives x*y + y*x, so the center's basis does not multiply
# coordinate-wise and the twisted center is outside the supported shapes
SYMMETRIC_CARRY = ("[group]\nmoduli 0 0 0\nnames x y z\nbilinear z x y 1\n"
                   "bilinear z y x 1\n\n[cocycle]\n")


@pytest.mark.parametrize("command, want", [
    ("validate", 0), ("center", 0), ("twisted-center", 2), ("quotient", 2),
    ("decompose", 2), ("verdict", 2), ("simplicity", 2), ("torus", 2), ("heisenberg", 2),
])
def test_unsupported_shape_is_undecided_not_an_input_error(tmp_path, capsys, command, want):
    f = tmp_path / "carry.problem"
    f.write_text(SYMMETRIC_CARRY)
    code, _, err = run([command, str(f)], capsys)
    assert code == want
    if want == 2 and command != "decompose":  # decompose prints its undecided trace
        assert err == ("undecided: subgroup elements do not multiply coordinate-wise; "
                       "unsupported presentation shape\n")


def test_verdict_output_mentions_all_three_flags(capsys):
    _, out, _ = run(["verdict", fixture("g3"), "--trace"], capsys)
    assert "Z-stable: yes" in out
    assert "pure: yes" in out
    assert "nowhere scattered: yes" in out
    assert "level 1" in out


def test_twisted_center_human_rendering(capsys):
    _, out, _ = run(["twisted-center", fixture("g3")], capsys)
    assert "1*r23" in out  # the r23-axis


def test_json_report_reparses_and_matches_engine(capsys):
    _, out, _ = run(["verdict", fixture("torus2"), "--json"], capsys)
    doc = json.loads(out)
    assert doc["schema_version"] == 1
    p = load_problem(fixture("torus2"))
    v = decide(p.cocycle, p.context)
    assert doc["verdict"]["z_stable"] == v.z_stable
    assert doc["verdict"]["trace"] == json.loads(
        json.dumps(v.certificate.to_dict(), default=str))


def test_bound_command_prints_recursion_value(capsys):
    _, out, _ = run(["bound", "4", "--json"], capsys)
    doc = json.loads(out)
    assert doc == {
        "schema_version": 1, "command": "bound", "input": None, "exit_code": 0,
        "n": 4, "m": 25509167, "windows": 25509168,
        "notes": ["recursion f(n+1) = 9^n (n+1) (f(n)+1) - 1 applied for all n >= 1 "
                  "with f(1) = 1"]}


@pytest.mark.parametrize("argv, n", [
    (["bound", "100"], 100),
    (["bound", "50", "50", "--json"], 100),
    (["bound", "100000000"], 100000000),  # returns at once: the recursion stops early
])
def test_bound_too_large_to_print_is_an_input_error(argv, n, capsys):
    code, out, err = run(argv, capsys)
    message = f"f({n}) has more than 4300 decimal digits and cannot be printed"
    assert (code, err) == (1, f"error: {message}\n")
    assert out == (error_report("bound", None, 1, message) if "--json" in argv else "")


def test_bound_prints_the_largest_printable_value(capsys):
    code, out, _ = run(["bound", "93", "--json"], capsys)
    assert code == 0
    assert len(str(json.loads(out)["m"])) == 4227


def test_unreadable_problem_path_is_an_input_error(tmp_path, capsys):
    code, out, err = run(["verdict", str(tmp_path)], capsys)
    assert code == 1 and not out
    assert err == f"error: [Errno 21] Is a directory: {str(tmp_path)!r}\n"


def test_bad_exponent_reports_its_line(tmp_path, capsys):
    f = tmp_path / "superscript.problem"
    f.write_text("[group]\nbuilder abelian 0\n[cocycle]\n1 * g:x1^\u00b2 * h:x1\n")
    code, out, err = run(["verdict", str(f)], capsys)
    assert code == 1 and not out
    assert err == "error: line 4: bad exponent '\u00b2'\n"


def test_ctx_flag_resolves_parameter(tmp_path, capsys):
    f = tmp_path / "param.problem"
    f.write_text("""
[symbols]
t param

[group]
builder abelian 0 0

[cocycle]
t * g:x1 * h:x2
""")
    code, out, _ = run(["verdict", str(f)], capsys)
    assert code == 0 and "Z-stable: no" in out  # rational branch dominates
    code, out, _ = run(["verdict", str(f), "--ctx", "t=irrational"], capsys)
    assert code == 0 and "Z-stable: yes" in out


@pytest.mark.parametrize("symbols, assertions", [
    (None, ["theta=rational"]),  # torus2 declares theta irrational
    ("x param", ["x=rational", "x=irrational"]),
    ("t rational 3", ["t=irrational"]),  # 3t is an integer
], ids=["declared-irrational", "both-ways", "torsion"])
def test_contradictory_ctx_assertions_are_input_errors(tmp_path, capsys, symbols, assertions):
    if symbols is None:
        f = fixture("torus2")
    else:
        name = symbols.split()[0]
        f = tmp_path / "ctx.problem"
        f.write_text(f"[symbols]\n{symbols}\n\n[group]\nbuilder abelian 0 0\n\n"
                     f"[cocycle]\n{name} * g:x1 * h:x2\n")
    argv = ["verdict", str(f)]
    for a in assertions:
        argv += ["--ctx", a]
    code, out, err = run(argv, capsys)
    assert code == 1 and not out
    assert "contradict" in err and all(a in err for a in assertions)


@pytest.mark.parametrize("n1", ["1", "2"])
def test_product_rules_reject_a_law_that_mixes_the_factors(tmp_path, capsys, n1):
    """z receives x*y, so no split point makes the group a direct product."""
    f = tmp_path / "carry.problem"
    f.write_text(SYMMETRIC_CARRY)
    code, out, err = run(["product", str(f), "--n1", n1], capsys)
    assert (code, out, err) == (2, "product rules inapplicable: cocycle is not in "
                                   "product form\n", "")


TORUS = "[group]\nbuilder abelian 0 0\n[cocycle]\n1 * g:x1 * h:x2\n"


@pytest.mark.parametrize("text, n1", [
    (TORUS, "-1"), (TORUS, "2"), (TORUS, "5"), ("[group]\nbuilder g3\n[cocycle]\n", "0"),
])
def test_product_split_point_outside_1_to_n_minus_1_is_an_input_error(tmp_path, capsys,
                                                                       text, n1):
    f = tmp_path / "product.problem"
    f.write_text(text)
    code, out, err = run(["product", str(f), "--n1", n1], capsys)
    assert code == 1 and not out
    assert err.startswith("error: n1 must lie in 1..") and err.endswith(f", got {n1}\n")


@pytest.mark.parametrize("builder, n", [("builder abelian 0", 1), ("builder abelian", 0)])
def test_product_on_fewer_than_two_coordinates_is_inapplicable(tmp_path, capsys, builder, n):
    """A split point needs a coordinate on each side, so --n1 has no valid
    value; the rules do not apply (exit 2) rather than the range 1..n-1
    being reported empty as an input error."""
    f = tmp_path / "product.problem"
    f.write_text(f"[group]\n{builder}\n[cocycle]\n")
    code, out, err = run(["product", str(f), "--n1", "1"], capsys)
    assert (code, out, err) == (2, "product rules inapplicable: a product needs two "
                                   f"coordinates, one per factor; the group has {n}\n", "")


@pytest.mark.parametrize("exc, code, err", [
    (RuntimeError("engine\nfault"), 3, "internal error: RuntimeError: engine fault\n"),
    (KeyError("k"), 3, "internal error: KeyError: 'k'\n"),
    (ZeroDivisionError("division by zero"), 3,
     "internal error: ZeroDivisionError: division by zero\n"),
    (InputError("bad"), 1, "error: bad\n"),  # the input-error mapping stays
    (ValueError("bad"), 3, "internal error: ValueError: bad\n"),  # a fault, not an input error
])
def test_unmapped_exception_is_an_internal_error(capsys, monkeypatch, exc, code, err):
    """An exception main does not map exits 3 with one stderr line and no
    traceback; only InputError is an input error."""
    def decide(analysis):
        raise exc

    monkeypatch.setattr(cli, "decide", decide)
    assert run(["verdict", fixture("g3")], capsys) == (code, "", err)


@pytest.mark.parametrize("owner, name", [
    (decision, "push_to_quotient"), (groups, "quotient_by_central"),
    (exact.RationalityContext, "classify"),
])
def test_a_fault_inside_the_engine_is_an_internal_error(capsys, monkeypatch, owner, name):
    """A ValueError raised by the push-down, the quotient or a classification
    is a fault: no handler on the way turns it into "undecided" (exit 2) or
    into an input error (exit 1)."""
    def fault(*args, **kwargs):
        raise ValueError(f"injected into {name}")

    monkeypatch.setattr(owner, name, fault)
    assert run(["verdict", fixture("g3")], capsys) == (
        3, "", f"internal error: ValueError: injected into {name}\n")


def test_tf_requires_density(tmp_path, capsys):
    f = tmp_path / "nodensity.problem"
    f.write_text("[group]\nbuilder abelian 0\n\n[cocycle]\n")
    code, _, err = run(["tf", str(f)], capsys)
    assert code == 1
    assert "density" in err


@pytest.mark.parametrize("tf, message", [
    ("density 1/2 3/5\ndensity 2 3\nhomogeneous true\nhomogeneous false\n",
     "line 17: repeated density line"),
    ("homogeneous true\ndensity 1/2 3/5\nhomogeneous false\n",
     "line 18: repeated homogeneous line"),
], ids=["density", "homogeneous"])
def test_repeated_tf_lines_are_input_errors(tf, message, tmp_path, capsys):
    """A second density or homogeneous line is rejected, as a second moduli
    or names line is, and not silently kept in place of the first."""
    with open(fixture("z-times-h3-irr-irr"), encoding="utf-8") as fh:
        text = fh.read()
    f = tmp_path / "repeated.problem"
    f.write_text(text[:text.index("[tf]")] + "[tf]\n" + tf)
    assert run(["tf", "--json", str(f)], capsys) == (
        1, error_report("tf", str(f), 1, message), f"error: {message}\n")


@pytest.mark.parametrize("bounds, valid", [
    ("3/5 2/5", False), ("2/5 3/5", True), ("2/4 1/2", True), ("-1/2 -3/5", False),
    ("-3/5 -1/2", True), ("0.6 1/2", False), ("1 0.9999", False), ("-0 0", True),
])
def test_a_density_interval_is_ordered_as_fractions_order_it(bounds, valid, tmp_path, capsys):
    """The parser compares the density bounds in integers; a lower bound
    above the upper one fails every command at its own line, as Fraction
    comparison would have it."""
    lo, up = (Fraction(tok) for tok in bounds.split())
    assert (lo <= up) == valid
    with open(fixture("z-times-h3-irr-irr"), encoding="utf-8") as fh:
        text = fh.read()
    text = text[:text.index("[tf]")] + f"[tf]\ndensity {bounds}\n"
    f = tmp_path / "density.problem"
    f.write_text(text)
    line = text.count("\n")
    code, out, err = run(["verdict", str(f)], capsys)
    if valid:
        assert code == 0 and not err
        assert parse_problem(text).density == ((lo.numerator, lo.denominator),
                                               (up.numerator, up.denominator))
    else:
        assert (code, out, err) == (1, "", f"error: line {line}: density interval "
                                           "has lower > upper\n")


def test_torus_keeps_torsion_and_coordinate_names(tmp_path, capsys):
    f = tmp_path / "torsion-torus.problem"
    f.write_text("""
[group]
builder abelian 0 0 4
names a b c

[cocycle]
1/2 * g:a * h:b
1/4 * g:a * h:c
""")
    code, out, _ = run(["torus", str(f), "--json"], capsys)
    trace = json.loads(out)["verdict"]["trace"]
    assert code == 0
    assert trace["group"] == {"moduli": [0, 0, 4], "names": ["a", "b", "c"]}
    [branch] = trace["branches"]
    assert branch["index"] == 16
    assert sorted(branch["notes"]) == ["-1/4*c + -1/2*b in Z", "1/2*a in Z",
                                       "1/4*a in Z", "rational point: the twisted "
                                       "center has finite index"]


def test_torus_on_a_finite_group_ends_at_the_finite_group_node(tmp_path, capsys):
    f = tmp_path / "finite-torus.problem"
    f.write_text("[group]\nbuilder abelian 2 2\n\n[cocycle]\n1/2 * g:x1 * h:x2\n")
    code, out, _ = run(["torus", str(f), "--json"], capsys)
    trace = json.loads(out)["verdict"]["trace"]
    assert code == 0
    assert trace["verdict"] == "NotZStable"
    assert trace["branches"] == []
    assert trace["notes"] == ["group is finite: index over the twisted center is finite"]


def test_torus_over_the_case_budget_is_undecided_on_stderr(tmp_path, capsys):
    f = tmp_path / "param-torus.problem"
    f.write_text("[symbols]\nx param\ny param\n\n[group]\nbuilder abelian 0 0 0\n\n"
                 "[cocycle]\nx * g:x1 * h:x2\ny * g:x2 * h:x3\n")
    assert run(["torus", str(f), "--case-budget", "1"], capsys) == (
        2, "", "undecided: case budget of 1 leaves exceeded\n")


@pytest.mark.parametrize("phase,want,stream,text", [
    ("0", 0, "out", "Z-stable: no"),  # C*(trivial group) = C is finite-dimensional
    ("", 0, "out", "simple: yes"),
    ("1/2", 1, "err", "cocycle invalid"),
])
def test_trivial_group_ends_in_verdict_or_input_error(tmp_path, capsys, phase, want,
                                                      stream, text):
    f = tmp_path / "trivial.problem"
    f.write_text(f"[group]\nbuilder abelian\n\n[cocycle]\n{phase}\n")
    code, out, err = run(["verdict", str(f)], capsys)
    assert code == want
    assert text in (out if stream == "out" else err)


@pytest.mark.parametrize("value", ["0", "-3"])
def test_case_budget_below_one_is_a_usage_error(value, monkeypatch, capsys):
    code, out, err = run(["verdict", fixture("g3"), "--case-budget", value], capsys)
    assert code == 1 and not out
    assert "--case-budget must be a positive integer" in err
    monkeypatch.setenv("COCYCLE_LAB_CASE_BUDGET", value)
    code, out, err = run(["verdict", fixture("g3")], capsys)
    assert code == 1 and not out
    assert "COCYCLE_LAB_CASE_BUDGET must be a positive integer" in err


def test_errors_without_a_line_carry_no_line_prefix(tmp_path, capsys):
    code, out, err = run(["verdict", fixture("g3"), "--case-budget", "0"], capsys)
    assert code == 1 and "line 0" not in err
    assert err == "error: --case-budget must be a positive integer, got 0\n"
    f = tmp_path / "no-group.problem"
    f.write_text("[cocycle]\n")
    code, out, err = run(["verdict", str(f)], capsys)
    assert code == 1 and err == "error: missing [group] section\n"
    with pytest.raises(ProblemError) as e:
        parse_problem("[cocycle]\n")
    assert e.value.line_no == 0
    with pytest.raises(ProblemError, match="^line 4: unknown tf line 'h_h2'$"):
        parse_problem("[group]\nbuilder g3\n[tf]\nh_h2 4\n[cocycle]\n")


def test_case_budget_env_override(monkeypatch):
    monkeypatch.setenv("COCYCLE_LAB_CASE_BUDGET", "7")
    assert cli._default_budget() == 7
    monkeypatch.delenv("COCYCLE_LAB_CASE_BUDGET")
    assert cli._default_budget() == 256


# ---------------------------------------------------------------------------
# one level-0 analysis per command: counted calls


def record_calls(monkeypatch):
    """First argument of every validate_cocycle and twisted_center call,
    whichever module's binding of the function the caller used."""
    seen = {"validate_cocycle": [], "twisted_center": []}
    for name, calls in seen.items():
        orig = getattr(cocycles, name)

        def counted(*args, _orig=orig, _calls=calls, **kwargs):
            _calls.append(args[0])
            return _orig(*args, **kwargs)

        for mod in (cocycles, decision, cli):
            if getattr(mod, name, None) is orig:
                monkeypatch.setattr(mod, name, counted)
    return seen


def file_command_argv(command, path):
    return [command, "--json", path] + (["--n1", "1"] if command == "product" else [])


@pytest.mark.parametrize("command", sorted(cli._FILE_COMMANDS))
def test_file_commands_validate_their_input_at_most_once(command, monkeypatch, capsys):
    monkeypatch.delenv("COCYCLE_LAB_CASE_BUDGET", raising=False)
    seen = record_calls(monkeypatch)
    loaded = []

    def load(path):
        loaded.append(load_problem(path))
        return loaded[-1]

    monkeypatch.setattr(cli, "load_problem", load)
    for path in all_fixtures():
        seen["validate_cocycle"].clear()
        run(file_command_argv(command, path), capsys)
        inputs = [c for c in seen["validate_cocycle"] if c is loaded[-1].cocycle]
        assert len(inputs) <= 1, os.path.basename(path)


def test_verdict_shares_the_level_0_analysis(monkeypatch, capsys):
    """decide and decide_simplicity read one twisted center, the fallback
    reuses it and each leaf's push-down, and the input is validated once;
    the other validations are the push-downs'."""
    monkeypatch.delenv("COCYCLE_LAB_CASE_BUDGET", raising=False)
    seen = record_calls(monkeypatch)
    for path in all_fixtures():
        run(file_command_argv("verdict", path), capsys)
    assert len(all_fixtures()) == 10
    # (20, 19) while the fallback pushed each level-0 leaf down again
    assert (len(seen["validate_cocycle"]), len(seen["twisted_center"])) == (17, 19)


def test_product_computes_each_twisted_center_once(tmp_path, monkeypatch, capsys):
    """The product's, and each factor's once, shared by the factor's verdict
    and the converse rule."""
    f = tmp_path / "z3.problem"
    f.write_text("[symbols]\ntheta irrational\n[group]\nbuilder abelian 0 0 0\n"
                 "[cocycle]\ntheta * g:x2 * h:x3\n")
    seen = record_calls(monkeypatch)
    code, _, _ = run(["product", str(f), "--n1", "1"], capsys)
    assert code == 2  # the first factor is rational, the second is not
    assert len(seen["twisted_center"]) == 3


def test_case_budget_overrun_computes_the_twisted_center_once(tmp_path, monkeypatch, capsys):
    """The Analysis keeps the level-0 BudgetExceeded: decide, its fallback and
    decide_simplicity all read the one failed twisted center."""
    f = tmp_path / "z3-params.problem"
    f.write_text("[symbols]\na param\nb param\n[group]\nbuilder abelian 0 0 0\n"
                 "[cocycle]\na * g:x1 * h:x2\nb * g:x2 * h:x3\n")
    seen = record_calls(monkeypatch)
    code, out, err = run(["verdict", str(f), "--case-budget", "1"], capsys)
    assert (code, out, err) == (2, "", "undecided: case budget of 1 leaves exceeded\n")
    assert len(seen["twisted_center"]) == 1


TWO_PARAMS = ("[symbols]\nx1 param\nx2 param\n[group]\nbuilder abelian 0 0 0\n"
              "[cocycle]\nx1 * g:x1 * h:x2\nx2 * g:x2 * h:x3\n")


@pytest.mark.parametrize("walk", ["product", "general"])
def test_a_case_budget_admits_as_many_leaves_as_it_names(walk, tmp_path, monkeypatch, capsys):
    """Two independent params give 4 case leaves: a budget of 4 decides and
    one of 3 is exceeded, on the product walk and on the general one (a
    budget of 3 admitted 4 leaves while the general walk left the node it
    was visiting out of its count)."""
    if walk == "general":
        monkeypatch.setattr(exact.RationalityContext, "product_residuals", lambda *args: None)
    f = tmp_path / "z3-params.problem"
    f.write_text(TWO_PARAMS)
    assert run(["verdict", str(f), "--case-budget", "4"], capsys)[0] == 0
    assert run(["verdict", str(f), "--case-budget", "3"], capsys) == (
        2, "", "undecided: case budget of 3 leaves exceeded\n")


@pytest.mark.parametrize("name, code", [("g3", 0), ("z-times-h3-irr-rat", 2)])
@pytest.mark.parametrize("mode", [["--json"], []], ids=["json", "plain"])
def test_a_closed_stdout_ends_with_the_commands_status(name, code, mode):
    """A reader that has gone away (``cocycle-lab verdict --json g3.problem
    | head -c 10``) is not a fault: the process writes nothing on stderr,
    at exit neither, and exits with the verdict's status."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        out = subprocess.run([sys.executable, "-m", "cocycle_lab.cli", "verdict", *mode,
                              fixture(name)], stdout=write_end, stderr=subprocess.PIPE,
                             env={**os.environ, "PYTHONPATH": SRC}, text=True, timeout=60)
    finally:
        os.close(write_end)
    assert (out.returncode, out.stderr) == (code, "")
