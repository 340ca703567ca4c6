"""Sparse multivariate polynomials with exact symbolic coefficients.

Coefficients are KNumbers (rational plus Q-linear symbol terms, integers over
one denominator each); exponents are small non-negative integers.  make() and
substitute() work on the coefficients' integers: substitute() brings every
input coefficient over one common denominator and sums integers.

Integer-valuedness of rational polynomials is decided exactly through the
binomial (falling-factorial) basis: writing
x^k = sum_j S2(k,j) j! C(x,j), a polynomial takes integer values on all of Z^n
if and only if all its multi-binomial coefficients are integers.
"""

from __future__ import annotations

import math
from fractions import Fraction
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
        with rational coefficients, or such a polynomial already given as its
        scalar terms {target exps: int or Fraction}; variables absent from the
        mapping must not occur, and a mapped polynomial with a symbol raises
        ValueError.

        The image of each monomial is expanded in rational scalars (Python
        ints while they are integral) from cached powers of the mapped
        polynomials.  Every input coefficient c is brought over the common
        denominator of all of them, and each output coefficient is assembled
        once as the sum of q times c's numerators, one integer accumulator for
        the rational part and one per symbol, then divided by that
        denominator."""
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
        consts, syms = {}, {}  # target exps -> rational part, -> {symbol: coefficient}
        for exps, c in self.terms:
            image = one  # the monomial's image, {target exps: scalar}
            for i, e in enumerate(exps):
                if e:
                    image = power(i, e) if image is one else _times(image, power(i, e))
            d, c0, cs = c.ints
            if d != den:
                c0, cs = c0 * (den // d), [(n, a * (den // d)) for n, a in cs]
            for te, q in image.items():
                if c0:
                    consts[te] = consts.get(te, 0) + q * c0
                if cs:
                    acc = syms.setdefault(te, {})
                    for n, a in cs:
                        acc[n] = acc.get(n, 0) + q * a
        order = self.table.order
        items = []
        for te in consts.keys() | syms.keys():
            pairs = [(n, v) for n, v in syms.get(te, {}).items() if v]
            if len(pairs) > 1:
                pairs.sort(key=lambda p: order[p[0]])
            const = consts.get(te, 0)
            if const or pairs:
                items.append((te, _over(self.table, den, const, pairs)))
        return Poly(nv, self.table, tuple(sorted(items)))

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

    def symbol_component(self, name):
        """Rational polynomial (Fraction terms dict) of the given symbol."""
        return {e: c.coeff(name) for e, c in self.terms if c.coeff(name)}

    def rational_component(self):
        return {e: c.const for e, c in self.terms if c.const}

    def used_symbols(self):
        out = []
        for _, c in self.terms:
            for n in c.symbol_names():
                if n not in out:
                    out.append(n)
        return out

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
    """p's terms as {exps: int or Fraction}; p must have rational coefficients."""
    if p.nv != nv:
        raise ValueError("variable count mismatch")
    if p.table is not table and p.table != table:
        raise ValueError("symbol-table mismatch")
    out = {}
    for e, c in p.terms:
        d, c0, cs = c.ints
        if cs:
            raise ValueError("a substituted polynomial must have rational coefficients")
        out[e] = c0 if d == 1 else Fraction(c0, d)
    return out


def _over(table, den, const, pairs):
    """KNumber (const + sum(a * sym)) / den: integers, or Fractions after a
    substitution by polynomials with non-integral coefficients."""
    if type(const) is int and all(type(a) is int for _, a in pairs):
        return KNumber.from_ints(table, den, const, pairs)
    return KNumber.make(table, Fraction(const, den), [(n, Fraction(a, den)) for n, a in pairs])


@lru_cache(maxsize=None)
def _stirling2(k, j):
    if k == j == 0:
        return 1
    if k == 0 or j == 0:
        return 0
    return j * _stirling2(k - 1, j) + _stirling2(k - 1, j - 1)


@lru_cache(maxsize=None)
def _fact(j):
    return 1 if j == 0 else j * _fact(j - 1)


def binomial_coefficients(rational_terms, nv):
    """Coefficients of a rational polynomial in the multi-binomial basis
    prod_i C(x_i, j_i).  The polynomial is integer-valued on Z^nv iff all of
    them are integers."""
    acc = {}
    for exps, c in rational_terms.items():
        # expand prod x_i^{k_i} = sum over j_i of S2(k_i,j_i) j_i! C(x_i, j_i)
        partial = {(): Fraction(c)}
        for k in exps:
            nxt = {}
            for js, coef in partial.items():
                for j in range(k + 1):
                    s = _stirling2(k, j)
                    if not s:
                        continue
                    key = js + (j,)
                    add = coef * s * _fact(j)
                    nxt[key] = nxt.get(key, Fraction(0)) + add
            partial = nxt
        for js, coef in partial.items():
            acc[js] = acc.get(js, Fraction(0)) + coef
    return acc


def is_integer_valued(rational_terms, nv):
    return all(c.denominator == 1 for c in binomial_coefficients(rational_terms, nv).values())
