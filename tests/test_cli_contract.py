"""The CLI's exit contract on drawn problem files.

Every file subcommand, on a shipped fixture or a fixture mutated line by
line, with ``--json`` or not and with or without a ``--ctx`` assertion on a
symbol the file declares, ends in a certified verdict, an honest undecided
(exit 2) or an input error (exit 1): never an internal error.  Under
``--json`` stdout is one JSON document whose ``exit_code`` is the status.
"""

import contextlib
import io
import json
import os
import tempfile
from unittest import mock

from hypothesis import given, settings, strategies as st

from cocycle_lab import cli

from helpers import examples

FIXTURES = os.path.join(os.path.dirname(cli.__file__), "fixtures")
TEXTS = {}
for _name in sorted(os.listdir(FIXTURES)):
    if _name.endswith(".problem"):
        with open(os.path.join(FIXTURES, _name), encoding="utf-8") as _fh:
            TEXTS[_name] = _fh.read()

COMMANDS = ("validate", "center", "twisted-center", "quotient", "decompose", "verdict",
            "simplicity", "torus", "heisenberg", "tf", "product")
# lines a mutation inserts, each after the header of the section it is
# written for when the text has one, and tokens it puts in place of another
LINES = {"[symbols]": ("x param", "y param 2", "theta irrational", "t rational 3",
                       "u integral", "x irrational"),
         "[group]": ("builder abelian 0 0", "builder heisenberg_diag 1 2", "moduli 0 0 2",
                     "names a b c", "bilinear x3 x1 x2 1"),
         "[cocycle]": ("x * g:x1 * h:x2", "1/2 * g:x1^2 * h:x2", "y * g:a * h:b",
                       "-1/3 t * g:r * h:s1"),
         "[tf]": ("density 1/2", "density 1/3 2/3", "homogeneous")}
TOKENS = ("0", "1", "-1", "2", "3", "1/2", "-3/4", "0.5", "1e3", "1/0", "theta", "x", "param",
          "irrational", "rational", "integral", "*", "g:x1", "h:x2", "g:r^2", "h:s1^3",
          "g:x1^4", "h:nope", "builder", "abelian", "moduli", "names", "bilinear", "density",
          "[group]", "#")
# what a phase line's coefficient becomes: free parameters, a theta, a
# torsion symbol or a rational, and the declaration each symbol needs
COEFFICIENTS = ("x", "2 x", "-1/2 x", "y", "theta", "t", "3", "1/4")
DECLARATIONS = {"x": "x param", "y": "y param", "theta": "theta irrational",
                "t": "t rational 3"}


@st.composite
def problem_texts(draw):
    """A fixture's text after up to three mutations: a line deleted,
    duplicated or inserted, one of its tokens replaced, or a phase line's
    coefficient replaced (with the symbol it names declared, once)."""
    lines = TEXTS[draw(st.sampled_from(sorted(TEXTS)))].splitlines()
    for _ in range(draw(st.integers(0, 3))):
        # a phase rewrite keeps the text well-formed most often
        op = draw(st.sampled_from(("coefficient", "coefficient", "coefficient", "insert",
                                   "delete", "duplicate", "token")))
        i = draw(st.integers(0, max(len(lines) - 1, 0)))
        phases = [j for j, line in enumerate(lines) if " * g:" in line]
        if op == "coefficient" and phases:
            j = draw(st.sampled_from(phases))
            coefficient = draw(st.sampled_from(COEFFICIENTS))
            lines[j] = coefficient + lines[j][lines[j].index(" * g:"):]
            name = coefficient.split()[-1]
            if name in DECLARATIONS and name not in declared_symbols("\n".join(lines)):
                if "[symbols]" not in lines:
                    lines.insert(0, "[symbols]")
                lines.insert(lines.index("[symbols]") + 1, DECLARATIONS[name])
        elif op in ("insert", "coefficient") or not lines:
            section = draw(st.sampled_from(sorted(LINES)))
            line = draw(st.sampled_from(LINES[section] + ("# a comment", "")))
            lines.insert(lines.index(section) + 1 if section in lines else i, line)
        elif op == "delete":
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        else:
            tokens = lines[i].split() or [""]
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(st.sampled_from(TOKENS))
            lines[i] = " ".join(tokens)
    return "\n".join(lines) + "\n"


def declared_symbols(text):
    """The first word of each line of the text's [symbols] sections."""
    names, inside = [], False
    for line in text.splitlines():
        words = line.split()
        if line.startswith("["):
            inside = line.strip() == "[symbols]"
        elif inside and words and not words[0].startswith("#"):
            names.append(words[0])
    return names


@st.composite
def command_lines(draw):
    """A problem text and the arguments of one file subcommand on it."""
    text = draw(problem_texts())
    command = draw(st.sampled_from(COMMANDS))
    flags = [command]
    if command == "product":
        flags += ["--n1", str(draw(st.integers(1, 3)))]
    flags += [f for f in ("--json", "--trace") if draw(st.booleans())]
    names = declared_symbols(text)
    if names and draw(st.booleans()):
        status = draw(st.sampled_from(("irrational", "rational", "integral")))
        # one token, so a name that starts with "-" reads as the value
        flags.append(f"--ctx={draw(st.sampled_from(names))}={status}")
    return text, flags


@settings(max_examples=examples(3), deadline=None)
@given(command_lines())
def test_every_drawn_command_ends_in_a_verdict_an_undecided_or_an_input_error(case):
    text, flags = case
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ):
        os.environ.pop("COCYCLE_LAB_CASE_BUDGET", None)
        path = os.path.join(tmp, "drawn.problem")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([flags[0], path, *flags[1:]])
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2), (code, err)
    assert "internal error" not in out + err
    if "--json" in flags:
        report = json.loads(out)
        assert report["exit_code"] == code
