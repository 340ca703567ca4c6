"""Parser for the line-oriented problem file format.

A problem file has up to four sections introduced by bracketed headers:

    [symbols]
    theta irrational          # axiomatically irrational symbol
    t1 rational 5             # rational with minimal denominator 5
    xi param                  # free parameter (rationality left open)
    xi2 param 3               # parameter with 3*xi2 integral

    [group]
    builder heisenberg_diag 1 3
    # or a raw presentation:
    # moduli 0 0 2
    # names x y z
    # bilinear z x y 1        # coordinate z gains (x of g) * (y of h) * 1

    [cocycle]
    1/3 * g:r * h:s1          # coefficient * g-monomial * h-monomial
    theta * g:s2 * h:t2
    -1/2 theta * g:t1 * h:s1^2

    [tf]
    density 2/5 3/5           # rational interval certificate for d_pi*covol
    homogeneous true

Blank lines and '#' comments are ignored.  Every diagnostic about a line
carries its 1-based line number.
"""

from __future__ import annotations

from fractions import Fraction

from . import groups
from ._value import Value
from .cocycles import phase_from_monomials
from .exact import KNumber, SymbolTable, empty_context, symbol
from .timefreq import DensityDatum


class ProblemError(Exception):
    """An input error; line_no 0 means the error belongs to no line."""

    def __init__(self, line_no, message):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}" if line_no else message)


class Problem(Value):
    """A parsed problem file.  Unlike the other value classes it is mutable,
    and so unhashable."""

    # table: SymbolTable; cocycle: Cocycle; density: DensityDatum | None
    __slots__ = _fields = ("group", "table", "cocycle", "context", "density", "homogeneous")
    _defaults = {"density": None, "homogeneous": False}
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None


_BUILDERS = {
    "abelian": lambda args: groups.abelian(tuple(args)),
    "heisenberg_diag": lambda args: groups.heisenberg_diag(tuple(args)),
    "g3": lambda args: groups.g3(),
    "z_times_h3": lambda args: groups.z_times_h3(),
}


def _strip(line):
    if "#" in line:
        line = line[:line.index("#")]
    return line.strip()


def _fraction(tok, line_no):
    try:
        return Fraction(tok)
    except (ValueError, ZeroDivisionError):
        raise ProblemError(line_no, f"expected a rational number, got {tok!r}")


def _sections(text):
    current = None
    out = {}
    for i, raw in enumerate(text.splitlines(), start=1):
        line = _strip(raw)
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip().lower()
            if current not in ("symbols", "group", "cocycle", "tf"):
                raise ProblemError(i, f"unknown section [{current}]")
            if current in out:
                raise ProblemError(i, f"duplicate section [{current}]")
            out[current] = []
            continue
        if current is None:
            raise ProblemError(i, "content before the first section header")
        out[current].append((i, line))
    return out


def _induced_name(name):
    """Whether name lies in the namespace of the symbols that the decision
    recursion induces: gamma<level>_<i> and gammaM_<i>."""
    if not name.startswith("gamma"):
        return False
    tag, sep, _ = name[len("gamma"):].partition("_")
    return bool(sep) and (tag == "M" or tag.isdecimal())


def _parse_symbols(lines):
    thetas, xis = [], []
    seen = set()
    for i, line in lines:
        parts = line.split()
        name = parts[0]
        if not name.isidentifier():
            raise ProblemError(i, f"symbol name {name!r} is not an identifier")
        if _induced_name(name):
            raise ProblemError(i, f"symbol name {name!r} is reserved: gamma<level>_<i> "
                                  "and gammaM_<i> name the symbols the recursion induces")
        if name in seen:
            raise ProblemError(i, f"symbol {name} declared twice")
        seen.add(name)
        if len(parts) < 2:
            raise ProblemError(i, "symbol declaration needs a status "
                                  "(irrational | rational <den> | param [order])")
        status = parts[1]
        if status == "irrational":
            if len(parts) != 2:
                raise ProblemError(i, "irrational takes no arguments")
            thetas.append(name)
        elif status == "rational":
            if len(parts) != 3 or not parts[2].isdecimal() or int(parts[2]) < 1:
                raise ProblemError(i, "rational needs a positive integer "
                                      "denominator: <name> rational <den>")
            xis.append((name, int(parts[2])))
        elif status == "param":
            if len(parts) == 2:
                xis.append((name, 0))
            elif len(parts) == 3 and parts[2].isdecimal():
                xis.append((name, int(parts[2])))
            else:
                raise ProblemError(i, "param takes an optional integer order")
        else:
            raise ProblemError(i, f"unknown symbol status {status!r}")
    return SymbolTable(thetas=tuple(thetas), xis=tuple(xis))


def _parse_group(lines):
    moduli = names = built = None
    bilinear = []
    for i, line in lines:
        parts = line.split()
        key = parts[0]
        if key == "builder":
            if moduli or bilinear or built:
                raise ProblemError(i, "builder cannot be mixed with raw lines "
                                      "or repeated")
            if len(parts) < 2 or parts[1] not in _BUILDERS:
                raise ProblemError(i, f"unknown builder; available: "
                                      f"{', '.join(sorted(_BUILDERS))}")
            try:
                args = [int(a) for a in parts[2:]]
            except ValueError:
                raise ProblemError(i, "builder arguments must be integers")
            try:
                built = _BUILDERS[parts[1]](args)
            except (TypeError, ValueError) as e:
                raise ProblemError(i, f"builder failed: {e}")
        elif key in ("moduli", "bilinear") and built is not None:
            raise ProblemError(i, "builder cannot be mixed with raw lines or repeated")
        elif key == "moduli":
            if moduli is not None:
                raise ProblemError(i, "repeated moduli line")
            try:
                moduli = tuple(int(a) for a in parts[1:])
            except ValueError:
                raise ProblemError(i, "moduli must be integers")
            if not moduli or any(m < 0 for m in moduli):
                raise ProblemError(i, "moduli must be nonnegative (0 = infinite)")
        elif key == "names":
            if names is not None:
                raise ProblemError(i, "repeated names line")
            names = tuple(parts[1:])
            for k, name in enumerate(names):
                if name in names[:k]:
                    raise ProblemError(i, f"duplicate coordinate name {name!r}")
        elif key == "bilinear":
            bilinear.append((i, parts[1:]))
        else:
            raise ProblemError(i, f"unknown group line {key!r}")
    if built is not None:
        if names is None:
            return built
        if len(names) != built.n:
            raise ProblemError(lines[0][0], "names length does not match the "
                                            "builder's coordinate count")
        return groups.GroupPresentation(built.moduli, built.bilinear, names)
    if moduli is None:
        raise ProblemError(lines[0][0] if lines else 0,
                           "group section needs a builder or moduli")
    if names is None:
        names = groups.abelian(moduli).names  # the x1..xn default
    if len(names) != len(moduli):
        raise ProblemError(lines[0][0], "names and moduli lengths differ")
    entries = []
    for i, parts in bilinear:
        if len(parts) != 4:
            raise ProblemError(i, "bilinear needs: <target> <i-name> <j-name> <int>")
        try:
            k, a, b = (names.index(p) for p in parts[:3])
        except ValueError:
            raise ProblemError(i, f"unknown coordinate name in {parts[:3]}")
        try:
            coef = int(parts[3])
        except ValueError:
            raise ProblemError(i, "bilinear coefficient must be an integer")
        entries.append((k, a, b, coef))
    return groups.GroupPresentation(moduli, tuple(entries), names)


def _parse_monomial(line, i, group, table):
    """One phase term: factors joined by '*'; variable factors are g:<name>
    or h:<name> with an optional ^exponent, everything else multiplies into
    the coefficient."""
    gex = [0] * group.n
    hex_ = [0] * group.n
    coef_rat = Fraction(1)
    coef_sym = None
    for part in (p.strip() for p in line.split("*")):
        if not part:
            raise ProblemError(i, "empty factor (double '*'?)")
        if part.startswith(("g:", "h:")):
            slot, spec = part[0], part[2:]
            name, _, exp = spec.partition("^")
            try:
                j = group.names.index(name)
            except ValueError:
                raise ProblemError(i, f"unknown coordinate {name!r}")
            e = 1
            if exp:
                if not exp.isdecimal() or int(exp) < 1:
                    raise ProblemError(i, f"bad exponent {exp!r}")
                e = int(exp)
            (gex if slot == "g" else hex_)[j] += e
        else:
            # coefficient factor(s): rational and/or symbol, space separated
            for tok in part.split():
                if tok in table.names:
                    if coef_sym is not None:
                        raise ProblemError(i, "at most one symbol per term")
                    coef_sym = tok
                elif tok.startswith("-") and tok[1:] in table.names:
                    if coef_sym is not None:
                        raise ProblemError(i, "at most one symbol per term")
                    coef_sym = tok[1:]
                    coef_rat = -coef_rat
                else:
                    coef_rat *= _fraction(tok, i)
    if coef_sym is None:
        coef = KNumber.make(table, coef_rat)
    else:
        coef = symbol(table, coef_sym).scale(coef_rat)
    return coef, tuple(gex), tuple(hex_)


def _parse_tf(lines, problem):
    for i, line in lines:
        parts = line.split()
        key = parts[0]
        if key == "density":
            if len(parts) != 3:
                raise ProblemError(i, "density needs: density <lower> <upper>")
            lo, up = _fraction(parts[1], i), _fraction(parts[2], i)
            try:
                problem.density = DensityDatum(lo, up)
            except ValueError as e:
                raise ProblemError(i, str(e))
        elif key == "homogeneous":
            if len(parts) != 2 or parts[1] not in ("true", "false"):
                raise ProblemError(i, "homogeneous needs true or false")
            problem.homogeneous = parts[1] == "true"
        else:
            raise ProblemError(i, f"unknown tf line {key!r}")


def parse_problem(text):
    sections = _sections(text)
    if "group" not in sections:
        raise ProblemError(0, "missing [group] section")
    if "cocycle" not in sections:
        raise ProblemError(0, "missing [cocycle] section")
    table = _parse_symbols(sections.get("symbols", []))
    group = _parse_group(sections["group"])
    mono = [_parse_monomial(line, i, group, table)
            for i, line in sections["cocycle"]]
    cocycle = phase_from_monomials(group, table, mono)
    problem = Problem(group=group, table=table, cocycle=cocycle,
                      context=empty_context(table))
    if "tf" in sections:
        _parse_tf(sections["tf"], problem)
    return problem


def load_problem(path):
    """Parse the file at path; a file that cannot be read is a ProblemError."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise ProblemError(0, str(e)) from e
    return parse_problem(text)
