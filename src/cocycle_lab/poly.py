"""Sparse multivariate polynomials with exact symbolic coefficients.

Coefficients are KNumbers (rational plus Q-linear symbol terms, integers over
one denominator each); exponents are small non-negative integers.  make() and
substitute() work on the coefficients' integers: substitute() maps variables
to polynomials with integer coefficients, brings every input coefficient over
one common denominator and sums integers.

Integer-valuedness is decided in integers through the binomial
(falling-factorial) basis: writing x^k = sum_j S2(k,j) j! C(x,j), an integer
polynomial N has integer multi-binomial coefficients, and N/D takes integer
values on all of Z^n if and only if D divides every one of them (Polya 1915;
Cahen-Chabert, Integer-Valued Polynomials, 1997).
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

from ._value import Value
from .exact import KNumber


class Poly(Value):
    __slots__ = _fields = ("nv", "table", "terms")

    def __init__(self, nv, table, terms):
        object.__setattr__(self, "nv", nv)
        object.__setattr__(self, "table", table)  # SymbolTable of every coefficient
        # ((exps tuple, KNumber), ...) canonical: sorted, no zeros
        object.__setattr__(self, "terms", terms)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.nv, self.table, self.terms) == (other.nv, other.table, other.terms)
        return NotImplemented

    def __hash__(self):
        return hash((self.nv, self.table, self.terms))

    @staticmethod
    def make(nv, table, terms):
        acc = {}
        for exps, c in (terms.items() if isinstance(terms, dict) else terms):
            if type(exps) is not tuple:
                exps = tuple(map(int, exps))
            if len(exps) != nv or min(exps, default=0) < 0:
                raise ValueError("bad exponent vector")
            if not isinstance(c, KNumber):
                c = KNumber.make(table, c)
            acc[exps] = acc[exps] + c if exps in acc else c
        items = tuple(sorted((e, c) for e, c in acc.items() if c.ints[1] or c.ints[2]))
        return Poly(nv, table, items)

    @staticmethod
    def zero(nv, table):
        return Poly(nv, table, ())

    @staticmethod
    def const(nv, table, c):
        return Poly.make(nv, table, {(0,) * nv: c})

    @staticmethod
    def var(nv, table, i):
        e = [0] * nv
        e[i] = 1
        return Poly(nv, table, ((tuple(e), KNumber(table, (1, 1, ()))),))

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        if not isinstance(other, Poly):
            other = Poly.const(self.nv, self.table, other)
        if other.nv != self.nv:
            raise ValueError("variable count mismatch")
        return Poly.make(self.nv, self.table, list(self.terms) + list(other.terms))

    def __neg__(self):
        return Poly(self.nv, self.table, tuple((e, -c) for e, c in self.terms))

    def __sub__(self, other):
        if not isinstance(other, Poly):
            other = Poly.const(self.nv, self.table, other)
        return self + (-other)

    def scale(self, q):
        if isinstance(q, KNumber):
            return Poly.make(self.nv, self.table, [(e, c * q) for e, c in self.terms])
        if not q:
            return Poly.zero(self.nv, self.table)
        return Poly(self.nv, self.table, tuple((e, c.scale(q)) for e, c in self.terms))

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return self.scale(other)
        if other.nv != self.nv:
            raise ValueError("variable count mismatch")
        return Poly.make(self.nv, self.table, _times(dict(self.terms), dict(other.terms)))

    def substitute(self, mapping, nv):
        """Replace variable i by mapping[i], a Poly in the nv *target* variables
        with integer coefficients, or such a polynomial already given as its
        scalar terms {target exps: int}; variables absent from the mapping
        must not occur, and a mapped polynomial with a symbol or a
        non-integral coefficient raises ValueError.

        The image of each monomial is expanded in integers from cached powers
        of the mapped polynomials.  Every input coefficient c is brought over
        the common denominator of all of them, and each output coefficient is
        assembled once as the sum of q times c's numerators, one integer
        accumulator for the rational part and one per symbol, then divided by
        that denominator."""
        return _assemble(nv, self.table, *self._image(mapping, nv))

    def _image(self, mapping, nv, sign=1, into=None):
        """substitute's accumulators (den, consts, syms): den is the common
        denominator of self's coefficients, and the image is (consts + sum of
        the symbol parts) / den with consts {target exps: numerator} and syms
        {target exps: {symbol: numerator}}, every numerator scaled by sign.
        With into = (consts, syms) the image is added into those dicts."""
        powers = {}

        def power(i, e):
            if (i, e) not in powers:
                if e > 1:
                    powers[(i, e)] = _times(power(i, e - 1), power(i, 1))
                elif i not in mapping:
                    raise ValueError(f"variable {i} has no substitution")
                else:
                    m = mapping[i]
                    powers[(i, 1)] = m if type(m) is dict else _scalars(m, nv, self.table)
            return powers[(i, e)]

        one = {(0,) * nv: 1}
        den = math.lcm(*(c.ints[0] for _, c in self.terms))
        consts, syms = into or ({}, {})
        for exps, c in self.terms:
            image = one  # the monomial's image, {target exps: scalar}
            for i, e in enumerate(exps):
                if e:
                    image = power(i, e) if image is one else _times(image, power(i, e))
            d, c0, cs = c.ints
            f = sign * (den // d)
            if f != 1:
                c0, cs = c0 * f, [(n, a * f) for n, a in cs]
            for te, q in image.items():
                if c0:
                    consts[te] = consts.get(te, 0) + q * c0
                if cs:
                    acc = syms.setdefault(te, {})
                    for n, a in cs:
                        acc[n] = acc.get(n, 0) + q * a
        return den, consts, syms

    def compose_linear(self, matrix, tgt_nv):
        """Substitute variable i by the linear form sum matrix[i][j] * y_j of
        the integer matrix, each form handed to substitute as its scalar
        terms {e_j: matrix[i][j]}."""
        units = [tuple(int(t == j) for t in range(tgt_nv)) for j in range(tgt_nv)]
        mapping = {i: {units[j]: x for j, x in enumerate(matrix[i]) if x}
                   for i in range(self.nv)}
        return self.substitute(mapping, tgt_nv)

    def eval(self, point):
        if len(point) != self.nv:
            raise ValueError("point has wrong dimension")
        acc = KNumber.make(self.table, 0)
        for exps, c in self.terms:
            v = 1
            for x, e in zip(point, exps):
                for _ in range(e):
                    v *= x
            if v:
                acc = acc + c.scale(v)
        return acc

    def max_degree(self):
        return max((max(e, default=0) for e, _ in self.terms), default=0)

    def rebase(self, table):
        return Poly(self.nv, table, tuple((e, c.rebase(table)) for e, c in self.terms))


def _times(a, b):
    """Product of two {exps: coefficient} dicts, over KNumbers or scalars."""
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple([x + y for x, y in zip(e1, e2)])
            c = c1 * c2  # symbol-times-symbol products raise here
            out[e] = out[e] + c if e in out else c
    return out


def _scalars(p, nv, table):
    """p's terms as {exps: int}; p must have integer coefficients."""
    if p.nv != nv:
        raise ValueError("variable count mismatch")
    if p.table is not table and p.table != table:
        raise ValueError("symbol-table mismatch")
    out = {}
    for e, c in p.terms:
        d, c0, cs = c.ints
        if cs or d != 1:
            raise ValueError("a substituted polynomial must have integer coefficients")
        out[e] = c0
    return out


def _assemble(nv, table, den, consts, syms):
    """The Poly (consts + sum of the symbol parts) / den of _image's
    accumulators; zero accumulators are dropped."""
    order = table.order
    items = []
    for te in consts.keys() | syms.keys():
        pairs = [(n, v) for n, v in syms.get(te, {}).items() if v]
        if len(pairs) > 1:
            pairs.sort(key=lambda p: order[p[0]])
        const = consts.get(te, 0)
        if const or pairs:
            items.append((te, KNumber.from_ints(table, den, const, pairs)))
    return Poly(nv, table, tuple(sorted(items)))


@lru_cache(maxsize=None)
def _surjections(k):
    """((j, S2(k, j) * j!), ...) for the j with a nonzero term: the
    expansion x^k = sum_j S2(k, j) j! C(x, j) in the binomial basis."""
    row = [1]  # T(i, j) = S2(i, j) j! for j = 0..i, T(i, j) = j (T(i-1, j) + T(i-1, j-1))
    for i in range(1, k + 1):
        row = [0] + [j * (row[j - 1] + (row[j] if j < i else 0)) for j in range(1, i + 1)]
    return tuple((j, s) for j, s in enumerate(row) if s)


def _integer_valued(terms, den):
    """Whether the polynomial terms / den, terms {exps: int}, takes integer
    values on Z^n: whether den divides each multi-binomial coefficient of the
    integer polynomial."""
    if den == 1:
        return True
    acc = {}
    for exps, a in terms.items():
        for parts in itertools.product(*map(_surjections, exps)):
            js = tuple([j for j, _ in parts])
            acc[js] = acc.get(js, 0) + a * math.prod([s for _, s in parts])
    return all(v % den == 0 for v in acc.values())
