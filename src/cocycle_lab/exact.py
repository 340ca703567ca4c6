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
is built bare and builds its span and classifications from its own facts on
first use.
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

    @cached_property
    def columns(self):
        """The names in RationalityContext's span-vector order: xis first."""
        return tuple(n for n, _ in self.xis) + tuple(self.thetas)

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


_IRRATIONAL, _UNDETERMINED = Classification(IRRATIONAL), Classification(UNDETERMINED)
_RATIONAL = Classification(RATIONAL, None)


class RationalityContext(Value):
    """Immutable set of facts; fact parts, the span, the irrational
    residuals, consistency and classify() results are cached per instance.

    Span vectors list a value's symbol numerators in SymbolTable.columns
    order, the xis first.  An echelon row pivots on its first nonzero
    column, so a row pivoting on a theta is pure-theta, and a span vector
    with zero xi-part has coefficient 0 on every row pivoting on a xi.  So
    the span holds a nonzero pure-theta vector, which the theta axiom
    forbids, iff a row pivots on a theta.  Reducing a pure-theta vector
    subtracts only such rows, so a value is congruent to a pure-theta
    vector outside the span, and IRRATIONAL by the theta axiom, iff its
    residual is nonzero with zero xi-part.

    assume_*() builds a child bare: its facts, its assumptions, and what
    this context already knows about the new fact x.  An irrational child
    takes its consistency from x's residual (the one a classify left here,
    else one reduction in this span): it is consistent iff this context is
    and the residual is nonzero, and then x is IRRATIONAL in its memo.  The
    rational child of split() on an undetermined x in a consistent context
    is consistent (see split).  Only x is checked against the table; every
    other cache is built from the child's own facts on first use.

    The irrational residuals are the irrational facts' residuals modulo the
    span, each a primitive integer vector made sign-normalized (first
    nonzero entry positive), zero ones left out.  Two nonzero primitive
    vectors are collinear over Q iff they are equal up to sign (a = (m/n)b
    in lowest terms gives n*a = m*b, so n divides every entry of b and m
    every entry of a, whose gcds are 1), so a value is IRRATIONAL by an
    irrational fact iff its sign-normalized residual is in that set.
    _classify keeps the residual of each value it finds UNDETERMINED, so a
    split reduces x once."""

    # rational, integral, irrational: KNumbers asserted to lie in Q, in Z,
    # outside Q; assumptions: human-readable trail of split() choices
    _fields = ("table", "rational", "integral", "irrational", "assumptions")
    _defaults = dict.fromkeys(_fields[1:], ())

    def _check(self):
        for f in self.rational + self.integral + self.irrational:
            if f.table is not self.table and f.table != self.table:
                raise ValueError("fact does not belong to this symbol table")
        # classify() memo and UNDETERMINED residuals
        self.__dict__.update(_classified={}, _residuals={})

    # -- internal vector views -------------------------------------------

    def _vec(self, x):
        """x's symbol numerators in the table's columns, cached per table:
        x's symbol part times its denominator, all a span question reads."""
        pairs = x.ints[2]
        v = self.table._vectors.get(pairs)
        if v is None:
            coeffs = dict(pairs)
            v = self.table._vectors[pairs] = tuple([coeffs.get(n, 0) for n in self.table.columns])
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
        return frozenset(filter(None, (_direction(self._span.reduce(self._vec(f)))
                                       for f in self.irrational)))

    # -- public API -------------------------------------------------------

    def is_consistent(self):
        return self._consistent

    @cached_property
    def _consistent(self):
        span = self._span
        # the rational span holds a nonzero pure-theta vector iff a row
        # pivots on a theta column (rows are sorted by pivot)
        if span.rows and span.rows[-1][0] >= len(self.table.xis):
            return False
        for f in self.irrational:
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
        direction = _direction(residual)
        if direction is not None:
            if not any(residual[:len(self.table.xis)]):
                return _IRRATIONAL  # theta axiom
            if direction in self._irrational_residuals:
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
        """Bare child with one more fact x of the given kind (see the class
        docstring); ``settled`` marks a rational child of split() on an
        undetermined x in a consistent context.  Only x is checked against
        the table: the other facts passed this context's check."""
        if x.table is not self.table and x.table != self.table:
            raise ValueError("fact does not belong to this symbol table")
        child = object.__new__(RationalityContext)
        slots = child.__dict__  # the fields, and where cached_property keeps its values
        slots.update(table=self.table, rational=self.rational, integral=self.integral,
                     irrational=self.irrational, assumptions=self.assumptions + (note,),
                     _classified={}, _residuals={})
        slots[kind] += (x,)
        if kind == "irrational":
            residual = self._residuals.get(x.ints)
            if residual is None:
                residual = self._span.reduce(self._vec(x))
            if not any(residual):
                slots["_consistent"] = False
            else:  # _classify finds x's own residual, or the theta axiom
                slots["_consistent"] = self._consistent
                child._classified[x.ints] = _IRRATIONAL
        elif settled:
            slots["_consistent"] = True
        return child

    def split(self, x):
        """Binary rational/irrational case split on x.

        Returns (rational branch, irrational branch); a branch is None when the
        corresponding assumption is inconsistent with this context, so both
        are None when this context is inconsistent.

        Lemma: in a consistent context with x UNDETERMINED, both children
        are consistent, x is IRRATIONAL in the irrational child and
        Classification(RATIONAL, None) in the rational one, and each child
        classifies every value this context classifies INTEGER, RATIONAL or
        IRRATIONAL exactly as this context does.  So a case walk may hand a
        child the classes read on its path.

        Proof.  x's residual r is nonzero and has a xi entry (else the theta
        axiom made x IRRATIONAL).  The irrational child has the same span
        and more irrational residuals, r among them, so it is consistent
        and keeps every class.  The rational child's one new row r pivots
        on a xi column p, so still no row pivots on a theta.  An INTEGER or
        RATIONAL y keeps its class: (c, v), the integral facts and span
        membership (the span only grows) are unchanged.  A y IRRATIONAL by
        the theta axiom has a residual w with zero xi-part: w[p] = 0, w is
        zero at every old pivot, so w reduces to itself and y stays
        IRRATIONAL.  Otherwise, with P the projection modulo the rational
        span, y is IRRATIONAL because P(y) = q*P(f) for an irrational fact
        f.  Then y - q*f lies in the old span, so in the new one, and
        P_new(y) = q*P_new(f), which is nonzero unless f lies in the new
        span.  That needs P_old(f) collinear with P_old(x), which would
        have made x IRRATIONAL.  So no irrational fact enters the span, none
        is constant (this context is consistent), no row pivots on a theta,
        and the rational child is consistent.  There x lies in the span,
        and no integral fact bounds its denominator, since a multiple of
        x's symbol part in the integral facts' lattice would lie in this
        span, which holds every integral fact and not x's symbol part.

        So nothing checks the rational child's consistency here, and x's
        class is written into each child's memo."""
        undetermined = self.classify(x).kind == UNDETERMINED
        note = str(x)
        rat = self._extend("rational", x, note + " rational", undetermined and self._consistent)
        if undetermined:
            rat._classified[x.ints] = _RATIONAL
        irr = self._extend("irrational", x, note + " irrational")
        return (rat if rat.is_consistent() else None,
                irr if irr.is_consistent() else None)

    def product_residuals(self, units):
        """The residuals of the unit values ``units`` (symbol name -> unit
        value) here, keyed by name, when the case tree over them is their
        full product, else None.  It is when there is a name, every name is
        a free xi (no theta, torsion order 0), this context is consistent,
        each unit classifies UNDETERMINED and no span row and no irrational
        residual has a nonzero entry at their coordinates
        (cocycles.condition_lattice proves it).  Each residual is then the
        unit vector itself."""
        free = {n for n, m in self.table.xis if not m}
        if not units or not free.issuperset(units) or not self._consistent:
            return None
        if any(self.classify(x).kind != UNDETERMINED for x in units.values()):
            return None
        cols = [self.table.columns.index(s) for s in units]
        for v in [row for _, row in self._span.rows] + list(self._irrational_residuals):
            if any(v[j] for j in cols):
                return None
        return {s: self._residuals[x.ints] for s, x in units.items()}

    def split_open(self, x, residual):
        """split(x) for an x known UNDETERMINED here with the given residual:
        both are seeded into the memo, so nothing is classified."""
        self._classified[x.ints] = _UNDETERMINED
        self._residuals[x.ints] = residual
        return self.split(x)


def _direction(r):
    """The primitive vector r with its first nonzero entry made positive, as
    a tuple; None when r is zero."""
    for y in r:
        if y:
            return tuple(r) if y > 0 else tuple([-z for z in r])
    return None


def empty_context(table):
    return RationalityContext(table)
