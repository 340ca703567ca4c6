"""Sparse multivariate polynomials with exact symbolic coefficients.

Coefficients are KNumbers (rational plus Q-linear symbol terms); exponents are
small non-negative integers.  Integer-valuedness of rational polynomials is
decided exactly through the binomial (falling-factorial) basis: writing
x^k = sum_j S2(k,j) j! C(x,j), a polynomial takes integer values on all of Z^n
if and only if all its multi-binomial coefficients are integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .exact import KNumber


@dataclass(frozen=True)
class Poly:
    nv: int
    table: object  # SymbolTable of every coefficient
    terms: tuple  # ((exps tuple, KNumber), ...) canonical: sorted, no zeros

    @staticmethod
    def make(nv, table, terms):
        acc = {}
        for exps, c in (terms.items() if isinstance(terms, dict) else terms):
            exps = tuple(map(int, exps))
            if len(exps) != nv or min(exps, default=0) < 0:
                raise ValueError("bad exponent vector")
            if not isinstance(c, KNumber):
                c = KNumber.make(table, c)
            acc[exps] = acc[exps] + c if exps in acc else c
        items = tuple(sorted((e, c) for e, c in acc.items() if not c.is_zero()))
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
        return Poly.make(nv, table, {tuple(e): Fraction(1)})

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
        q = Fraction(q)
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
        """Replace variable i by mapping[i], a Poly in the nv *target* variables;
        variables absent from the mapping must not occur.

        Each monomial is expanded from cached powers of the mapped polynomials,
        kept as {exps: KNumber} dicts; the sum is canonicalized once."""
        powers = {}

        def power(i, e):
            if (i, e) not in powers:
                powers[(i, e)] = (dict(mapping[i].terms) if e == 1
                                  else _times(power(i, e - 1), power(i, 1)))
            return powers[(i, e)]

        acc = {}
        for exps, c in self.terms:
            term = {(0,) * nv: c}
            for i, e in enumerate(exps):
                if e:
                    if i not in mapping:
                        raise ValueError(f"variable {i} has no substitution")
                    term = _times(term, power(i, e))
            for te, tc in term.items():
                acc[te] = acc[te] + tc if te in acc else tc
        return Poly.make(nv, self.table, acc)

    def compose_linear(self, matrix, tgt_nv):
        """Substitute variable i by the linear form sum matrix[i][j] * y_j."""
        mapping = {}
        for i in range(self.nv):
            row = matrix[i]
            mapping[i] = Poly.make(tgt_nv, self.table,
                                   {tuple(1 if t == j else 0 for t in range(tgt_nv)): row[j]
                                    for j in range(tgt_nv) if row[j]})
            if not row or not any(row):
                mapping[i] = Poly.zero(tgt_nv, self.table)
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
    """Product of two {exps: KNumber} dicts."""
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple([x + y for x, y in zip(e1, e2)])
            c = c1 * c2  # symbol-times-symbol products raise here
            out[e] = out[e] + c if e in out else c
    return out


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
