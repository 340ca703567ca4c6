"""Exact scalars: rationals plus Q-linear combinations of named symbols.

A KNumber is c0 + sum(c_j * sym_j) over Fraction coefficients.  Symbols come
in two flavors: thetas (declared irrational, axiomatically Q-linearly
independent together with 1) and xis (free parameters, optionally carrying a
torsion order m meaning m*xi is an integer).

A RationalityContext records which symbol combinations are asserted to be
rational, integral, or irrational; classify() decides the status of a value
from those facts by exact linear algebra, and split() performs the binary
rational/irrational case split when the status is genuinely open; each child
extends its parent's span and classifications by its one new fact.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property

from . import zlinalg as zl
from ._value import Value

_ZERO = Fraction(0)

INTEGER = "integer"
RATIONAL = "rational"
IRRATIONAL = "irrational"
UNDETERMINED = "undetermined"


class SymbolTable(Value):
    _fields = ("thetas", "xis")

    def __init__(self, thetas=(), xis=()):
        # xis: (name, torsion order) pairs; order 0 = no torsion axiom
        names = list(thetas) + [n for n, _ in xis]
        if len(set(names)) != len(names):
            raise ValueError("duplicate symbol names")
        for _, m in xis:
            if m < 0:
                raise ValueError("torsion order must be >= 0")
        object.__setattr__(self, "thetas", thetas)
        object.__setattr__(self, "xis", xis)

    @cached_property
    def names(self):
        return tuple(self.thetas) + tuple(n for n, _ in self.xis)

    def torsion_order(self, name):
        for n, m in self.xis:
            if n == name:
                return m
        return 0

    def with_xis(self, new_xis):
        """Extended table with additional parameter symbols appended."""
        return SymbolTable(self.thetas, self.xis + tuple(new_xis))


class KNumber(Value):
    __slots__ = _fields = ("table", "const", "coeffs")

    def __init__(self, table, const, coeffs):
        object.__setattr__(self, "table", table)  # SymbolTable
        object.__setattr__(self, "const", const)  # Fraction
        object.__setattr__(self, "coeffs", coeffs)  # sorted (name, Fraction) pairs, no zeros

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.table, self.const, self.coeffs) == (other.table, other.const, other.coeffs)
        return NotImplemented

    def __hash__(self):
        return hash((self.table, self.const, self.coeffs))

    @staticmethod
    def make(table, const=0, coeffs=None):
        """Canonical KNumber; Fractions are taken as they are, anything else
        is converted once."""
        if type(const) is not Fraction:
            const = Fraction(const)
        if not coeffs:
            return KNumber(table, const, ())
        names = table.names
        seen = {}
        for n, c in (coeffs.items() if isinstance(coeffs, dict) else coeffs):
            if n not in names:
                raise ValueError(f"unknown symbol {n!r}")
            if type(c) is not Fraction:
                c = Fraction(c)
            seen[n] = seen[n] + c if n in seen else c
        items = [(n, c) for n, c in seen.items() if c]
        if len(items) > 1:
            items.sort(key=lambda p: names.index(p[0]))
        return KNumber(table, const, tuple(items))

    def _check(self, other):
        if self.table is not other.table and self.table != other.table:
            raise ValueError("symbol-table mismatch")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            return KNumber(self.table, self.const + other, self.coeffs)
        self._check(other)
        if not other.coeffs or not self.coeffs:
            return KNumber(self.table, self.const + other.const, self.coeffs or other.coeffs)
        d = dict(self.coeffs)
        for n, c in other.coeffs:
            d[n] = d.get(n, Fraction(0)) + c
        return KNumber.make(self.table, self.const + other.const, d)

    __radd__ = __add__

    def __neg__(self):
        return KNumber(self.table, -self.const, tuple((n, -c) for n, c in self.coeffs))

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, q):
        if type(q) is not Fraction:
            q = Fraction(q)
        if not q:
            return KNumber(self.table, _ZERO, ())
        return KNumber(self.table, self.const * q, tuple((n, c * q) for n, c in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check(other)
        if self.coeffs and other.coeffs:
            raise ValueError("products of symbols are not supported")
        if other.coeffs:
            return other.scale(self.const)
        return self.scale(other.const)

    __rmul__ = __mul__

    def is_zero(self):
        return self.const == 0 and not self.coeffs

    def is_constant(self):
        return not self.coeffs

    def symbol_names(self):
        return [n for n, _ in self.coeffs]

    def coeff(self, name):
        for n, c in self.coeffs:
            if n == name:
                return c
        return Fraction(0)

    def rebase(self, table):
        """Same value over an extended symbol table."""
        return KNumber.make(table, self.const, dict(self.coeffs))

    def __str__(self):
        parts = []
        if self.const or not self.coeffs:
            parts.append(str(self.const))
        for n, c in self.coeffs:
            if c == 1:
                parts.append(n)
            elif c == -1:
                parts.append(f"-{n}")
            else:
                parts.append(f"{c}*{n}")
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out


def knum(table, const=0, **coeffs):
    return KNumber.make(table, const, coeffs)


def symbol(table, name, q=1):
    return KNumber.make(table, 0, {name: q})


class Classification(Value):
    __slots__ = _fields = ("kind", "denominator")

    def __init__(self, kind, denominator=None):
        object.__setattr__(self, "kind", kind)
        # for integer/rational: m with m*x in Z (if known)
        object.__setattr__(self, "denominator", denominator)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.kind, self.denominator) == (other.kind, other.denominator)
        return NotImplemented

    def __hash__(self):
        return hash((self.kind, self.denominator))


class RationalityContext(Value):
    """Immutable set of facts; fact parts, the span, consistency and
    classify() results are cached per instance.  assume_*() fills a child's
    caches from the parent's computed parts (never the parent itself) plus
    the new fact x: the fact parts gain x's; a rational or integral child
    adds x to a copy of the span (reduced row-echelon form is unique, so
    reduce() answers equal a rebuild's); an irrational child keeps the span,
    gains x's residual, and is consistent iff the parent is and x is neither
    constant nor in the span.  A rational or irrational child's
    classify() memo starts with the parent's INTEGER/RATIONAL entries, since
    (c, v), the integral facts and span membership (the span only grows) are
    unchanged; an irrational child also keeps IRRATIONAL ones (same span, more
    residuals) and records x itself as IRRATIONAL when x's residual is
    nonzero, but a rational child cannot: a new theta pivot can leave a
    pure-theta residual undetermined.  UNDETERMINED entries are never kept,
    and an integral child starts empty: its denominators can change."""

    _fields = ("table", "rational", "integral", "irrational", "assumptions")

    def __init__(self, table, rational=(), integral=(), irrational=(), assumptions=()):
        # rational, integral, irrational: KNumbers asserted to lie in Q, in Z,
        # outside Q; assumptions: human-readable trail of split() choices
        for f in rational + integral + irrational:
            if f.table is not table and f.table != table:
                raise ValueError("fact does not belong to this symbol table")
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "rational", rational)
        object.__setattr__(self, "integral", integral)
        object.__setattr__(self, "irrational", irrational)
        object.__setattr__(self, "assumptions", assumptions)
        object.__setattr__(self, "_classified", {})  # classify() memo

    # -- internal vector views -------------------------------------------

    def _vec(self, x):
        coeffs = dict(x.coeffs)
        return [coeffs.get(n, _ZERO) for n in self.table.names]

    @cached_property
    def _fact_parts(self):
        """(symbol vector, constant) of rational and integral facts, torsion
        axioms included among the integral facts."""
        rat, integ = [], []
        for f in self.rational:
            v = self._vec(f)
            if any(v):
                rat.append((v, f.const))
        for f in self.integral:
            integ.append((self._vec(f), f.const))
        for n, m in self.table.xis:
            if m:
                integ.append((self._vec(symbol(self.table, n, m)), _ZERO))
        return tuple(rat), tuple(integ)

    @cached_property
    def _span(self):
        rat, integ = self._fact_parts
        ech = zl.QEchelon()
        for v, _ in rat + integ:
            ech.add(v)
        return ech

    @cached_property
    def _irrational_residuals(self):
        return tuple(self._span.reduce(self._vec(f)) for f in self.irrational)

    # -- public API -------------------------------------------------------

    def is_consistent(self):
        return self._consistent

    @cached_property
    def _consistent(self):
        names = self.table.names
        ntheta = len(self.table.thetas)
        span = self._span
        # the rational span must not contain a nonzero pure-theta vector:
        # find combinations of span basis rows with zero xi-part
        rows = [row for _, row in span.rows]
        if rows and ntheta:
            xi_cols = list(range(ntheta, len(names)))
            # integer matrix of xi-parts of the basis rows
            den = math.lcm(*(row[j].denominator for row in rows for j in xi_cols))
            mat = [[int(rows[i][j] * den) for i in range(len(rows))] for j in xi_cols]
            for combo in zl.kernel_int(mat) if xi_cols else zl.identity(len(rows)):
                vec = [sum(Fraction(combo[i]) * rows[i][j] for i in range(len(rows)))
                       for j in range(len(names))]
                if any(vec[:ntheta]):
                    return False
        implicit = [symbol(self.table, n) for n in self.table.thetas]
        for f in list(self.irrational) + implicit:
            v = self._vec(f)
            if not any(v):
                return False  # declared irrational but constant
            if span.contains(v):
                return False  # declared irrational but in the rational span
        return True

    def classify(self, x):
        key = _memo_key(x)
        cls = self._classified.get(key)
        if cls is None:
            cls = self._classified[key] = self._classify(x)
        return cls

    def _classify(self, x):
        c, v = x.const, self._vec(x)
        ntheta = len(self.table.thetas)
        if not any(v):
            den = c.denominator
            return Classification(INTEGER if den == 1 else RATIONAL, den)
        span = self._span
        residual = span.reduce(v)
        if any(residual):
            if not any(residual[ntheta:]):
                return Classification(IRRATIONAL)  # theta axiom
            for fres in self._irrational_residuals:
                q = _collinear(residual, fres)
                if q is not None and q != 0:
                    return Classification(IRRATIONAL)
            return Classification(UNDETERMINED)
        # rational: the integral facts u_j.sym + b_j in Z bound its
        # denominator.  If m*v = sum(n_j * u_j) with n_j integers, then
        # m*x = m*c - sum(n_j * b_j) + (an integer), so the least m with m*x
        # provably integral is the least m with m*(v, c) in the lattice
        # spanned by the (u_j, b_j) and (0, 1), all scaled by D to integers.
        integ = [(u, b) for u, b in self._fact_parts[1] if any(u)]
        if integ:
            D = math.lcm(c.denominator, *(x_.denominator for x_ in v),
                         *(x_.denominator for u, b in integ for x_ in (*u, b)))
            gens = [[int(x_ * D) for x_ in (*u, b)] for u, b in integ]
            gens.append([0] * len(v) + [D])
            m = zl.denominator_in_lattice(zl.row_hnf(gens), [int(x_ * D) for x_ in (*v, c)])
            if m is not None:
                return Classification(INTEGER if m == 1 else RATIONAL, m)
        return Classification(RATIONAL, None)

    def assume_rational(self, x, note=None):
        return self._extend("rational", x, note or f"{x} rational")

    def assume_integral(self, x, note=None):
        return self._extend("integral", x, note or f"{x} integral")

    def assume_irrational(self, x, note=None):
        return self._extend("irrational", x, note or f"{x} irrational")

    def _extend(self, kind, x, note):
        """Child with one more fact x of the given kind, its caches filled
        from this context's (see the class docstring)."""
        facts = {"rational": self.rational, "integral": self.integral,
                 "irrational": self.irrational}
        facts[kind] += (x,)
        child = RationalityContext(self.table, assumptions=self.assumptions + (note,), **facts)
        c, v = x.const, self._vec(x)
        rat, integ = self._fact_parts
        slots = child.__dict__  # where cached_property keeps its values
        if kind == "irrational":
            residual = self._span.reduce(v)
            slots.update(_span=self._span, _consistent=self._consistent and any(residual),
                         _irrational_residuals=self._irrational_residuals + (residual,))
            if any(residual):  # _classify finds x's own residual, or the theta axiom
                child._classified[_memo_key(x)] = Classification(IRRATIONAL)
        else:
            if kind == "rational":
                rat += ((v, c),) if any(v) else ()
            else:  # integral facts precede the torsion axioms
                integ = integ[:len(self.integral)] + ((v, c),) + integ[len(self.integral):]
            slots["_span"] = span = zl.QEchelon()
            span.rows = list(self._span.rows)  # add() replaces rows, never edits one
            span.add(v)
        slots["_fact_parts"] = (rat, integ)
        if kind != "integral":
            keep = (INTEGER, RATIONAL, IRRATIONAL) if kind == "irrational" else (INTEGER, RATIONAL)
            child._classified.update(kv for kv in self._classified.items() if kv[1].kind in keep)
        return child

    def split(self, x):
        """Binary rational/irrational case split on x.

        Returns (rational branch, irrational branch); a branch is None when the
        corresponding assumption is inconsistent with this context."""
        rat = self.assume_rational(x)
        irr = self.assume_irrational(x)
        return (rat if rat.is_consistent() else None,
                irr if irr.is_consistent() else None)


def _memo_key(x):
    """x's constant and coefficients, the only parts of x that _classify
    reads, as integers: hashing a Fraction computes a modular inverse."""
    return (x.const.numerator, x.const.denominator,
            tuple([(n, c.numerator, c.denominator) for n, c in x.coeffs]))


def _collinear(a, b):
    """q with a == q*b, or None."""
    q = None
    for x, y in zip(a, b):
        if y == 0:
            if x != 0:
                return None
        else:
            r = x / y
            if q is None:
                q = r
            elif q != r:
                return None
    if q is None:
        return Fraction(0) if not any(a) else None
    return q


def empty_context(table):
    return RationalityContext(table)
