"""Exact scalars: rationals plus Q-linear combinations of named symbols.

A KNumber is (c + sum(a_j * sym_j)) / d in integers over one positive
denominator d, stored as the tuple ``ints = (d, c, ((name, a_j), ...))``.  It
is canonical: d, c and the a_j have no common factor, no a_j is zero and the
names follow the symbol table's order, so equal values store equal tuples.
That tuple is the value's equality and hash and the classify() memo key, and
arithmetic works on it in integers.

Symbols come in two flavors: thetas (declared irrational, axiomatically
Q-linearly independent together with 1) and xis (free parameters, optionally
carrying a torsion order m meaning m*xi is an integer).

A RationalityContext records which symbol combinations are asserted to be
rational, integral, or irrational; classify() decides the status of a value
from those facts by exact linear algebra, and split() performs the binary
rational/irrational case split when the status is genuinely open; each child
extends its parent's span and classifications by its one new fact.
"""

from __future__ import annotations

import math
from functools import cached_property

from . import zlinalg as zl
from ._value import Value

INTEGER = "integer"
RATIONAL = "rational"
IRRATIONAL = "irrational"
UNDETERMINED = "undetermined"


class SymbolTable(Value):
    # xis: (name, torsion order) pairs; order 0 = no torsion axiom
    _fields = ("thetas", "xis")
    _defaults = {"thetas": (), "xis": ()}

    def _check(self):
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate symbol names")
        if any(m < 0 for _, m in self.xis):
            raise ValueError("torsion order must be >= 0")
        object.__setattr__(self, "_vectors", {})  # RationalityContext._vec's cache

    @cached_property
    def names(self):
        return tuple(self.thetas) + tuple(n for n, _ in self.xis)

    @cached_property
    def order(self):
        """Position of each name in ``names``."""
        return {n: i for i, n in enumerate(self.names)}

    def torsion_order(self, name):
        for n, m in self.xis:
            if n == name:
                return m
        return 0

    def with_xis(self, new_xis):
        """Extended table with additional parameter symbols appended."""
        return SymbolTable(self.thetas, self.xis + tuple(new_xis))


class KNumber(Value):
    """(c + sum(a_j * sym_j)) / d, stored as one tuple of integers
    ``ints = (d, c, ((name, a_j), ...))``; see the module docstring."""

    __slots__ = _fields = ("table", "ints")

    def __init__(self, table, ints):
        object.__setattr__(self, "table", table)  # SymbolTable
        object.__setattr__(self, "ints", ints)  # canonical (d, c, ((name, a), ...))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.ints == other.ints and (self.table is other.table or self.table == other.table)
        return NotImplemented

    def __hash__(self):
        return hash((self.table, self.ints))

    @staticmethod
    def make(table, const=0, coeffs=None):
        """Canonical KNumber from scalars of any type: a scalar with an integer
        numerator and denominator (int, Fraction) is taken as it is, anything
        else is converted to a Fraction once."""
        if not coeffs and type(const) is int:
            return KNumber(table, (1, const, ()))
        order = table.order
        seen = {}
        for n, c in (coeffs.items() if isinstance(coeffs, dict) else coeffs or ()):
            if n not in order:
                raise ValueError(f"unknown symbol {n!r}")
            c = _rational(c)
            seen[n] = seen[n] + c if n in seen else c
        items = sorted((p for p in seen.items() if p[1]), key=lambda p: order[p[0]])
        row, d = zl.clear_denominators([_rational(const)] + [c for _, c in items])
        return KNumber(table, (d, row[0], tuple(zip([n for n, _ in items], row[1:]))))

    @staticmethod
    def from_ints(table, d, c, pairs):
        """(c + sum(a * sym)) / d from integers: d > 0, pairs (name, a) in
        table order with no zero a; reduced by the common factor."""
        g = math.gcd(d, c, *[a for _, a in pairs])
        if g == 1:
            return KNumber(table, (d, c, tuple(pairs)))
        return KNumber(table, (d // g, c // g, tuple([(n, a // g) for n, a in pairs])))

    def _same_table(self, other):
        if self.table is not other.table and self.table != other.table:
            raise ValueError("symbol-table mismatch")

    def __add__(self, other):
        d, c, cs = self.ints
        if other.__class__ is not KNumber:
            if type(other) is int:  # (c + other*d)/d keeps the common factor 1
                return KNumber(self.table, (d, c + other * d, cs))
            other = KNumber.make(self.table, other)
        else:
            self._same_table(other)
        e, k, ks = other.ints
        if d != e:  # bring both over lcm(d, e)
            m = math.lcm(d, e)
            f, g = m // d, m // e
            d, c, k = m, c * f, k * g
            cs = [(n, a * f) for n, a in cs]
            ks = [(n, a * g) for n, a in ks]
        if not ks or not cs:
            return KNumber.from_ints(self.table, d, c + k, cs or ks)
        acc = dict(cs)
        for n, a in ks:
            acc[n] = acc[n] + a if n in acc else a
        order = self.table.order
        pairs = sorted(((n, a) for n, a in acc.items() if a), key=lambda p: order[p[0]])
        return KNumber.from_ints(self.table, d, c + k, pairs)

    __radd__ = __add__

    def __neg__(self):
        d, c, cs = self.ints
        return KNumber(self.table, (d, -c, tuple([(n, -a) for n, a in cs])))

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, q):
        if type(q) is not int:
            q = _rational(q)
        return self._times(q.numerator, q.denominator)

    def _times(self, p, r):
        """self * p / r for integers p and r > 0."""
        if not p:
            return KNumber(self.table, (1, 0, ()))
        d, c, cs = self.ints
        return KNumber.from_ints(self.table, d * r, c * p, [(n, a * p) for n, a in cs])

    def __mul__(self, other):
        if other.__class__ is not KNumber:
            return self.scale(other)
        self._same_table(other)
        if self.ints[2] and other.ints[2]:
            raise ValueError("products of symbols are not supported")
        x, q = (other, self) if other.ints[2] else (self, other)
        return x._times(q.ints[1], q.ints[0])

    __rmul__ = __mul__

    def is_zero(self):
        return not self.ints[1] and not self.ints[2]

    def is_constant(self):
        return not self.ints[2]

    def rebase(self, table):
        """Same value over an extended symbol table."""
        d, c, cs = self.ints
        order = table.order
        for n, _ in cs:
            if n not in order:
                raise ValueError(f"unknown symbol {n!r}")
        return KNumber(table, (d, c, tuple(sorted(cs, key=lambda p: order[p[0]]))))

    def __str__(self):
        d, c, cs = self.ints
        parts = []
        if c or not cs:
            parts.append(_fraction_str(c, d))
        for n, a in cs:
            if a == d:
                parts.append(n)
            elif a == -d:
                parts.append(f"-{n}")
            else:
                parts.append(f"{_fraction_str(a, d)}*{n}")
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out


def _rational(q):
    """q itself when it has a numerator and a denominator, else Fraction(q)."""
    if hasattr(q, "denominator"):
        return q
    from fractions import Fraction
    return Fraction(q)


def _fraction_str(a, d):
    """str(Fraction(a, d)) for d > 0, without building the Fraction."""
    g = math.gcd(a, d)
    return str(a // g) if d == g else f"{a // g}/{d // g}"


def knum(table, const=0, **coeffs):
    return KNumber.make(table, const, coeffs)


def symbol(table, name, q=1):
    if type(q) is int and q and name in table.order:
        return KNumber(table, (1, 0, ((name, q),)))
    return KNumber.make(table, 0, {name: q})


class Classification(Value):
    # denominator, for integer/rational: m with m*x in Z (if known)
    __slots__ = _fields = ("kind", "denominator")
    _defaults = {"denominator": None}

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.kind, self.denominator) == (other.kind, other.denominator)
        return NotImplemented

    def __hash__(self):
        return hash((self.kind, self.denominator))


_IRRATIONAL, _UNDETERMINED = Classification(IRRATIONAL), Classification(UNDETERMINED)
_RATIONAL = Classification(RATIONAL, None)


class RationalityContext(Value):
    """Immutable set of facts; fact parts, the span, consistency and
    classify() results are cached per instance.  assume_*() fills a child's
    caches from the parent's computed parts (never the parent itself) plus
    the new fact x, and checks only x against the table: the fact parts
    gain x's; a rational or integral child adds x to a copy of the span
    (reduced row-echelon form is unique, so reduce() answers equal a
    rebuild's); an irrational child keeps the span, gains x's residual, and
    is consistent iff the parent is and x is neither constant nor in the
    span.  Both take x's residual from the parent: _classify keeps the
    residual of each value it finds UNDETERMINED, so a split reduces x once.

    A rational or irrational child's classify() memo starts with the
    parent's INTEGER/RATIONAL entries, since (c, v), the integral facts and
    span membership (the span only grows) are unchanged.  An irrational
    child also keeps IRRATIONAL ones (same span, more residuals) and records
    x itself as IRRATIONAL when x's residual is nonzero.  So does the
    rational child of split(x) on a consistent context without thetas in
    which x is UNDETERMINED, and that child is consistent.  Proof: with P
    the projection modulo the rational span, y is IRRATIONAL there because
    P(y) = q*P(f) for an irrational fact f.  Then y - q*f lies in the old
    span, so in the new one, and P_new(y) = q*P_new(f), which is nonzero
    unless f lies in the new span.  That needs P_old(f) collinear with
    P_old(x), which would have made x IRRATIONAL.  So no irrational fact
    enters the span, none is constant (the parent is consistent), and the
    child is consistent.  With thetas a rational child keeps no IRRATIONAL
    entry: a new theta pivot can leave a pure-theta residual undetermined,
    so a theta-axiom entry can flip.  UNDETERMINED entries are never kept,
    and an integral child starts empty: its denominators can change.  So an
    irrational or settled rational child copies the memo less those keys.

    The rational child of split(x) on any x UNDETERMINED in its parent,
    thetas or not, records x itself as Classification(RATIONAL, None),
    which is what _classify finds there: x lies in the child's span, and no
    integral fact bounds its denominator, since a multiple of x's symbol
    part in the integral facts' lattice would lie in the parent's span,
    which holds every integral fact and not x's symbol part."""

    # rational, integral, irrational: KNumbers asserted to lie in Q, in Z,
    # outside Q; assumptions: human-readable trail of split() choices
    _fields = ("table", "rational", "integral", "irrational", "assumptions")
    _defaults = dict.fromkeys(_fields[1:], ())

    def _check(self):
        for f in self.rational + self.integral + self.irrational:
            if f.table is not self.table and f.table != self.table:
                raise ValueError("fact does not belong to this symbol table")
        self.__dict__.update(_classified={}, _residuals={})  # classify() memo, UNDETERMINED residuals

    # -- internal vector views -------------------------------------------

    def _vec(self, x):
        """x's symbol numerators, one per table name, cached per table: x's
        symbol part times its denominator, which is all a span question reads."""
        pairs = x.ints[2]
        v = self.table._vectors.get(pairs)
        if v is None:
            coeffs = dict(pairs)
            v = self.table._vectors[pairs] = tuple([coeffs.get(n, 0) for n in self.table.names])
        return v

    @cached_property
    def _fact_parts(self):
        """Symbol vectors of the rational facts, and (symbol vector,
        constant, denominator) numerators of the integral facts, torsion
        axioms included."""
        rat = tuple(v for v in map(self._vec, self.rational) if any(v))
        integ = [(self._vec(f), f.ints[1], f.ints[0]) for f in self.integral]
        for n, m in self.table.xis:
            if m:
                integ.append((self._vec(symbol(self.table, n, m)), 0, 1))
        return rat, tuple(integ)

    @cached_property
    def _span(self):
        rat, integ = self._fact_parts
        ech = zl.QEchelon()
        for v in rat + tuple(u for u, _, _ in integ):
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
        ntheta = len(self.table.thetas)
        span = self._span
        # the rational span must not contain a nonzero pure-theta vector:
        # find combinations of span basis rows with zero xi-part (scaling a
        # row by a positive factor scales its coefficient in the kernel)
        rows = [row for _, row in span.rows]
        if rows and ntheta:
            xi_cols = range(ntheta, len(self.table.names))
            mat = [[row[j] for row in rows] for j in xi_cols]
            for combo in zl.kernel_int(mat) if xi_cols else zl.identity(len(rows)):
                if any(sum(a * row[j] for a, row in zip(combo, rows)) for j in range(ntheta)):
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
        cls = self._classified.get(x.ints)
        if cls is None:
            cls = self._classified[x.ints] = self._classify(x)
        return cls

    def _classify(self, x):
        d, c, cs = x.ints
        if not cs:
            return Classification(INTEGER if d == 1 else RATIONAL, d)
        v = self._vec(x)
        residual = self._span.reduce(v)
        if any(residual):
            if not any(residual[len(self.table.thetas):]):
                return _IRRATIONAL  # theta axiom
            for fres in self._irrational_residuals:
                if _collinear(residual, fres):
                    return _IRRATIONAL
            self._residuals[x.ints] = residual  # for split(x)
            return _UNDETERMINED
        # rational: the integral facts (u_j.sym + b_j)/e_j in Z bound its
        # denominator.  If m*v/d = sum(n_j * u_j/e_j) with n_j integers, then
        # m*x = m*c/d - sum(n_j * b_j/e_j) + (an integer), so the least m with
        # m*x provably integral is the least m with m*(v, c)/d in the lattice
        # spanned by the (u_j, b_j)/e_j and (0, 1), all scaled by D to integers.
        integ = [(u, b, e) for u, b, e in self._fact_parts[1] if any(u)]
        if integ:
            D = math.lcm(d, *(e for _, _, e in integ))
            gens = [[y * (D // e) for y in (*u, b)] for u, b, e in integ]
            gens.append([0] * len(v) + [D])
            m = zl.denominator_in_lattice(zl.row_hnf(gens), [y * (D // d) for y in (*v, c)])
            if m is not None:
                return Classification(INTEGER if m == 1 else RATIONAL, m)
        return _RATIONAL

    def assume_rational(self, x):
        return self._extend("rational", x, f"{x} rational")

    def assume_integral(self, x):
        return self._extend("integral", x, f"{x} integral")

    def assume_irrational(self, x):
        return self._extend("irrational", x, f"{x} irrational")

    def _extend(self, kind, x, note, settled=False):
        """Child with one more fact x of the given kind, its caches filled
        from this context's (see the class docstring); ``settled`` marks a
        rational child of split() on an undetermined x in a consistent
        context without thetas.  Only x is checked against the table: the
        inherited facts passed this context's check."""
        if x.table is not self.table and x.table != self.table:
            raise ValueError("fact does not belong to this symbol table")
        child = object.__new__(RationalityContext)
        slots = child.__dict__  # the fields, and where cached_property keeps its values
        slots.update(table=self.table, rational=self.rational, integral=self.integral,
                     irrational=self.irrational, assumptions=self.assumptions + (note,),
                     _classified={}, _residuals={})
        slots[kind] += (x,)
        memo = child._classified
        if kind == "irrational" or settled:
            memo.update(self._classified)
            for key in self._residuals:  # the UNDETERMINED entries
                memo.pop(key, None)
        elif kind == "rational":
            memo.update(kv for kv in self._classified.items() if kv[1].kind in (INTEGER, RATIONAL))
        d, c, _ = x.ints
        v = self._vec(x)
        residual = self._residuals.get(x.ints) or self._span.reduce(v)
        rat, integ = self._fact_parts
        if kind == "irrational":
            slots.update(_span=self._span, _consistent=self._consistent and any(residual),
                         _irrational_residuals=self._irrational_residuals + (residual,))
            if any(residual):  # _classify finds x's own residual, or the theta axiom
                memo[x.ints] = _IRRATIONAL
        else:
            if kind == "rational":
                rat += (v,) if any(v) else ()
            else:  # integral facts precede the torsion axioms
                integ = integ[:len(self.integral)] + ((v, c, d),) + integ[len(self.integral):]
            slots["_span"] = span = zl.QEchelon()
            span.rows = list(self._span.rows)  # insert() replaces rows, never edits one
            span.insert(residual)
            if settled:
                slots["_consistent"] = True
        slots["_fact_parts"] = (rat, integ)
        return child

    def split(self, x):
        """Binary rational/irrational case split on x.

        Returns (rational branch, irrational branch); a branch is None when the
        corresponding assumption is inconsistent with this context."""
        # read from the memo, so classify's call count is unchanged
        undetermined = (self._classified.get(x.ints) or self._classify(x)).kind == UNDETERMINED
        rat = self._extend("rational", x, f"{x} rational",
                           undetermined and not self.table.thetas and self._consistent)
        if undetermined:
            rat._classified[x.ints] = _RATIONAL
        irr = self.assume_irrational(x)
        return (rat if rat.is_consistent() else None,
                irr if irr.is_consistent() else None)


def _collinear(a, b):
    """Whether the nonzero vector a is q*b for a rational q, by
    cross-multiplication against b's first nonzero entry."""
    k = next((i for i, y in enumerate(b) if y), None)
    return k is not None and all(x * b[k] == a[k] * y for x, y in zip(a, b))


def empty_context(table):
    return RationalityContext(table)
