"""Command-line frontend.

Exit codes: 0 = decided; 2 = undecided: ``Unsupported`` (a valid input of
an unsupported shape, on which the rule asked for does not apply, or with an
indecisive certificate), ``BudgetExceeded`` or an honestly undecided verdict;
1 = ``InputError`` (``ProblemError`` among them) or a usage error; 3 =
internal error: any other exception, reported as the one line "internal
error: <Type>: <message>" on stderr, without a traceback.  With ``--json``
every outcome but a usage error and exit 3 writes one report.

``main`` returns the exit code; ``run``, the process entry, ends the process
with it and skips the interpreter's teardown.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import decision
from ._value import BudgetExceeded, InputError, Unsupported
from .decision import (NOT_ZSTABLE, UNDECIDED, ZSTABLE, Analysis, decide,
                       decide_heisenberg, decide_product, decide_simplicity)
from .exact import symbol
from .problem import load_problem

SCHEMA_VERSION = 1

OK, UNDECIDED_EXIT, INPUT_ERROR, INTERNAL_ERROR = 0, 2, 1, 3


def _positive_budget(value, source):
    try:
        budget = int(value)
    except ValueError:
        budget = 0
    if budget < 1:
        raise InputError(f"{source} must be a positive integer, got {value!r}")
    return budget


def _default_budget():
    raw = os.environ.get("COCYCLE_LAB_CASE_BUDGET", "")
    return _positive_budget(raw, "COCYCLE_LAB_CASE_BUDGET") if raw else decision.DEFAULT_CASE_BUDGET


def _apply_ctx_assertions(problem, assertions):
    """The problem's context with the --ctx assertions added."""
    ctx = problem.context
    for spec in assertions or ():
        name, _, status = spec.partition("=")
        if name not in problem.table.names:
            raise InputError(f"--ctx names unknown symbol {name!r}")
        x = symbol(problem.table, name)
        if status == "irrational":
            ctx = ctx.assume_irrational(x)
        elif status == "rational":
            ctx = ctx.assume_rational(x)
        elif status == "integral":
            ctx = ctx.assume_integral(x)
        else:
            raise InputError(f"--ctx status must be irrational, rational "
                             f"or integral, got {status!r}")
    if assertions and not ctx.is_consistent():
        raise InputError(f"--ctx assertions {', '.join(assertions)} contradict "
                         f"the declared symbols or each other")
    return ctx


def _lattice_lines(lattice, names):
    if lattice.is_trivial():
        return ["  trivial (only the identity)"]
    out = []
    for row in lattice.hnf_basis:
        terms = [f"{c}*{n}" for c, n in zip(row, names) if c]
        out.append("  " + " + ".join(terms))
    return out


def _render_trace(node, indent=0):
    pad = "  " * indent
    lines = [f"{pad}level {node.level}: moduli {tuple(node.group.moduli)} "
             f"-> {node.verdict}"]
    for note in node.notes:
        lines.append(f"{pad}  note: {note}")
    for b in node.branches:
        idx = "infinite" if b.index is math.inf else b.index
        lines.append(f"{pad}  case [{b.label}] index {idx} -> {b.verdict}")
        for note in b.notes:
            lines.append(f"{pad}    note: {note}")
        if b.child:
            lines.extend(_render_trace(b.child, indent + 2))
    return lines


def _emit(args, human_lines, payload, code):
    """Write the report and return the command's exit code, also when the
    reader of standard output has gone away: what it did not read is
    dropped, and so is what is still buffered, at exit."""
    if args.json:
        doc = {"schema_version": SCHEMA_VERSION, "command": args.command,
               "input": getattr(args, "file", None), "exit_code": code}
        doc.update(payload)
        human_lines = [json.dumps(doc, indent=2, default=str)]
    try:
        for line in human_lines:
            print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code


def _parse(args):
    """The problem and the one Analysis that every verdict of the command
    shares."""
    problem = load_problem(args.file)
    ctx = _apply_ctx_assertions(problem, args.ctx)
    return problem, Analysis(problem.cocycle, ctx, args.case_budget)


def _load(args):
    p, a = _parse(args)
    if a.violation is not None:
        raise InputError(f"cocycle invalid: {a.violation}")
    return p, a


def cmd_validate(args):
    _, a = _parse(args)
    viol = a.violation
    if viol is None:
        return _emit(args, ["ok: well-defined normalized 2-cocycle"],
                     {"valid": True}, OK)
    return _emit(args, [f"invalid: {viol}"], {"valid": False, "reason": viol},
                 INPUT_ERROR)


def cmd_center(args):
    p, _ = _load(args)
    lat = p.group.center()
    lines = ["center of the group:"] + _lattice_lines(lat, p.group.names)
    return _emit(args, lines,
                 {"center": [list(r) for r in lat.hnf_basis]}, OK)


def cmd_twisted_center(args):
    p, a = _load(args)
    lines, data = [], []
    for leaf in a.leaves:
        lines.append(f"case [{leaf.label}]:")
        lines.extend(_lattice_lines(leaf.lattice, p.group.names))
        for cond in leaf.conditions:
            lines.append(f"  from: {cond}")
        data.append({"assumptions": list(leaf.ctx.assumptions),
                     "lattice": [list(r) for r in leaf.lattice.hnf_basis],
                     "conditions": list(leaf.conditions),
                     "skipped": list(leaf.skipped)})
    return _emit(args, lines, {"twisted_center": data}, OK)


def cmd_quotient(args):
    _, a = _load(args)
    lines, data, code = [], [], OK
    for leaf in a.leaves:
        try:
            qd, _ = a.push_down(leaf)
            lines.append(f"case [{leaf.label}]: quotient moduli "
                         f"{tuple(qd.group.moduli)} names {qd.group.names}")
            data.append({"assumptions": list(leaf.ctx.assumptions),
                         "moduli": list(qd.group.moduli),
                         "names": list(qd.group.names)})
        except Unsupported as e:
            lines.append(f"case [{leaf.label}]: unsupported quotient: {e}")
            data.append({"assumptions": list(leaf.ctx.assumptions),
                         "error": str(e)})
            code = UNDECIDED_EXIT
    return _emit(args, lines, {"quotients": data}, code)


def _verdict_lines(v, with_trace):
    yes = {ZSTABLE: "yes", NOT_ZSTABLE: "no", UNDECIDED: "undecided"}
    lines = [f"Z-stable: {yes[v.z_stable]}",
             f"pure: {yes[v.pure]}",
             f"nowhere scattered: {yes[v.nowhere_scattered]}"]
    if v.simple != decision.SIMPLE_UNKNOWN or with_trace:
        lines.append(f"simple: {v.simple}")
    for note in v.notes:
        lines.append(f"note: {note}")
    if with_trace:
        lines.append("trace:")
        lines.extend(_render_trace(v.certificate, indent=1))
    return lines


def _finish_verdict(args, v):
    code = OK if v.z_stable in (ZSTABLE, NOT_ZSTABLE) else UNDECIDED_EXIT
    return _emit(args, _verdict_lines(v, args.trace), {"verdict": v.to_dict()}, code)


def cmd_verdict(args):
    _, a = _load(args)
    v = decide(a)
    simple, branches, notes = decide_simplicity(a)
    v = decision.Verdict(v.certificate, simple, notes)
    return _finish_verdict(args, v)


def cmd_decompose(args):
    _, a = _load(args)
    v = decide(a)
    lines = _render_trace(v.certificate)
    code = OK if v.z_stable != UNDECIDED else UNDECIDED_EXIT
    return _emit(args, lines, {"verdict": v.to_dict()}, code)


def cmd_simplicity(args):
    _, a = _load(args)
    simple, branches, notes = decide_simplicity(a)
    lines = [f"simple: {simple}"] + [f"note: {n}" for n in notes]
    for b in branches:
        lines.append(f"case [{b.label}] -> {b.verdict}")
    code = OK if simple in ("yes", "no") else UNDECIDED_EXIT
    return _emit(args, lines,
                 {"simple": simple, "notes": list(notes),
                  "branches": [b.to_dict() for b in branches]}, code)


def cmd_torus(args):
    _, a = _load(args)
    if not a.cocycle.group.is_abelian():
        raise InputError("torus criterion needs an abelian group")
    a.leaves  # the twisted center's BudgetExceeded or Unsupported exits 2
    return _finish_verdict(args, decide(a))


def cmd_heisenberg(args):
    _, a = _load(args)
    return _finish_verdict(args, decide_heisenberg(a))


def cmd_product(args):
    _, a = _load(args)
    out = decide_product(a, args.n1)
    if not out.applicable:
        lines = [f"product rules inapplicable: {out.reason}"]
        return _emit(args, lines, {"applicable": False, "reason": out.reason},
                     UNDECIDED_EXIT)
    lines = [f"product rule verdict: {out.verdict}", f"reason: {out.reason}"]
    return _emit(args, lines, {"applicable": True, "verdict": out.verdict,
                               "reason": out.reason}, OK)


def cmd_tf(args):
    from fractions import Fraction

    from .timefreq import DensityDatum, frame_verdict
    p, a = _load(args)
    if p.density is None:
        raise InputError("tf verdict needs a density line in the [tf] section")
    density = DensityDatum(*(Fraction(*bound) for bound in p.density))
    v = decide(a)
    if v.z_stable == UNDECIDED:
        return _emit(args, ["undecided: non-rationality of the cocycle could "
                            "not be determined"],
                     {"error": "nonrationality undecided"}, UNDECIDED_EXIT)
    nonrational = v.z_stable == ZSTABLE
    try:
        fv = frame_verdict(nonrational, density, p.homogeneous)
    except Unsupported as e:
        return _emit(args, [f"undecided: {e}"], {"error": str(e)}, UNDECIDED_EXIT)
    lines = [f"nonrational cocycle: {'yes' if nonrational else 'no'}",
             f"smooth frame exists: {fv.frame_exists_smooth}",
             f"smooth Riesz sequence exists: {fv.riesz_exists_smooth}"]
    lines += [f"why: {r}" for r in fv.rationale]
    payload = {"nonrational": nonrational}
    payload.update(fv.to_dict())
    decided = "undecided" not in (fv.frame_exists_smooth, fv.riesz_exists_smooth)
    return _emit(args, lines, payload, OK if decided else UNDECIDED_EXIT)


def cmd_bound(args):
    from .timefreq import multiwindow_bound
    if args.h_g is None:
        n, h_h2, h_g = args.n, args.n, 0
    else:
        h_h2, h_g = args.n, args.h_g
        n = h_h2 + h_g
    out = multiwindow_bound(h_h2, h_g)
    lines = [f"f({n}) = {out.m}", f"windows needed: at most {out.windows}",
             out.statement] + [f"note: {note}" for note in out.notes]
    return _emit(args, lines, {"n": n, "m": out.m, "windows": out.windows,
                               "notes": list(out.notes)}, OK)


_FILE_COMMANDS = {
    "validate": cmd_validate,
    "center": cmd_center,
    "twisted-center": cmd_twisted_center,
    "quotient": cmd_quotient,
    "decompose": cmd_decompose,
    "verdict": cmd_verdict,
    "simplicity": cmd_simplicity,
    "torus": cmd_torus,
    "heisenberg": cmd_heisenberg,
    "product": cmd_product,
    "tf": cmd_tf,
}


_COMMANDS = (*_FILE_COMMANDS, "bound")


def build_parser(commands=_COMMANDS):
    """The command-line parser, with the subcommands named in commands."""
    ap = argparse.ArgumentParser(
        prog="cocycle-lab",
        description="Exact decision procedures for twisted group algebras of "
                    "finitely generated 2-step nilpotent groups")
    sub = ap.add_subparsers(dest="command", required=True)
    for name in _FILE_COMMANDS:
        if name not in commands:
            continue
        sp = sub.add_parser(name)
        sp.add_argument("file", help="problem file")
        sp.add_argument("--json", action="store_true")
        sp.add_argument("--trace", action="store_true",
                        help="render the full decision tree")
        sp.add_argument("--case-budget", type=int, dest="case_budget",
                        help="maximum number of case leaves (default: "
                             f"$COCYCLE_LAB_CASE_BUDGET, else {decision.DEFAULT_CASE_BUDGET})")
        sp.add_argument("--ctx", action="append", metavar="NAME=STATUS",
                        help="extra rationality assumption "
                             "(irrational | rational | integral)")
        if name == "product":
            sp.add_argument("--n1", type=int, required=True,
                            help="coordinate count of the first factor")
    if "bound" in commands:
        bp = sub.add_parser("bound")
        bp.add_argument("n", type=int, help="h(H2) of the lattice, or the full "
                                            "recursion argument if h_g is omitted")
        bp.add_argument("h_g", type=int, nargs="?", default=None,
                        help="Hirsch length of the lattice")
        bp.add_argument("--json", action="store_true")
    return ap


def _parse_args(argv):
    """build_parser().parse_args(argv), building the parser of the named
    subcommand only.  argparse reports arguments that the subcommand leaves
    over from the top-level parser, whose usage lists every subcommand, so
    such a command line is parsed again with the full parser."""
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] in _COMMANDS:
        args, extra = build_parser({argv[0]}).parse_known_args(argv)
        if not extra:
            return args
    return build_parser().parse_args(argv)


def main(argv=None):
    try:
        args = _parse_args(argv)
    except SystemExit as e:
        # argparse has written its message; it exits 2 on a usage error, but
        # 2 means "undecided" here
        return INPUT_ERROR if e.code else OK
    try:
        if args.command == "bound":
            return cmd_bound(args)
        args.case_budget = (_default_budget() if args.case_budget is None else
                            _positive_budget(args.case_budget, "--case-budget"))
        return _FILE_COMMANDS[args.command](args)
    except InputError as e:
        return _fail(args, "error", e, INPUT_ERROR)
    except (Unsupported, BudgetExceeded) as e:
        return _fail(args, "undecided", e, UNDECIDED_EXIT)
    except Exception as e:
        message = " ".join(str(e).split())
        print(f"internal error: {type(e).__name__}: {message}", file=sys.stderr)
        return INTERNAL_ERROR


def _fail(args, tag, error, code):
    """The one stderr line of an input error or an undecided outcome and,
    under --json, its report."""
    print(f"{tag}: {error}", file=sys.stderr)
    if args.json:
        return _emit(args, (), {"error": str(error)}, code)
    return code


def run():
    """The process entry: main's exit code, with both streams flushed, ends
    the process at once.  A one-shot process holds nothing that needs
    freeing, and the interpreter's teardown costs each command several
    milliseconds.  A stream whose reader has gone away does not change the
    exit code."""
    code = main()
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except OSError:
            pass
    os._exit(code)


if __name__ == "__main__":
    run()
