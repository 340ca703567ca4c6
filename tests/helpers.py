"""Helpers that only the tests need: integer-matrix checks, the coset oracle
for HNF bases, brute-force group-law operations on a GroupPresentation,
inputs for the invariance oracles (coboundary twists, shifted quotient
sections), and references for the engine's kernels that share none of their
shortcuts: the group law as Polys, a KNumber's symbol coefficients, the
Fraction integrality test in the binomial basis, substitution by KNumber
products, the cocycle defect by four substitutions, an unabridged cocycle
validator, the antisymmetrization by substitution and a slot-by-slot
reference for the pairing rows."""

import itertools
import math
from fractions import Fraction

from cocycle_lab import zlinalg as zl
from cocycle_lab.cocycles import Cocycle, CocycleError, integrality_violation
from cocycle_lab.groups import Morphism, QuotientData
from cocycle_lab.poly import Poly


def mat_mul(a, b):
    if not a or not b:
        return []
    bt = zl.transpose(b)
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def mat_vec(a, v):
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def det(a):
    """Determinant by fraction-free Gaussian elimination (Bareiss)."""
    n = len(a)
    if n == 0:
        return 1
    m = [row[:] for row in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def rank_int(a):
    if not a or not a[0]:
        return 0
    return len(zl.row_hnf(a))


def reduce_mod_columns(hcols, v):
    """Canonical representative of v modulo the column span of an HNF basis:
    the coset oracle for index and membership tests."""
    r = list(v)
    for col in hcols:
        piv = next((i for i, x in enumerate(col) if x != 0), None)
        if piv is None:
            continue
        q = r[piv] // col[piv]
        if q:
            r = [x - q * c for x, c in zip(r, col)]
    return r


def commutator(g, a, b):
    ab = g.multiply(a, b)
    return g.multiply(ab, g.multiply(g.inverse(a), g.inverse(b)))


def box(g, radius):
    """Every element with free coordinates in [-radius, radius] and torsion
    coordinates in their residue range."""
    ranges = [range(-radius, radius + 1) if m == 0 else range(m) for m in g.moduli]
    return itertools.product(*ranges)


def law_polys(group, table, nv, first, second):
    """Polynomials (in nv variables) for the coordinates of x*y where x sits
    at variable offset ``first`` and y at offset ``second``."""
    def mono(*vs):
        return tuple(sum(v == i for v in vs) for i in range(nv))

    return [Poly.make(nv, table, [(mono(first + k), 1), (mono(second + k), 1)]
                      + [(mono(first + i, second + j), c)
                         for k2, i, j, c in group.bilinear if k2 == k])
            for k in range(group.n)]


def rational_part(x):
    """The rational part of a KNumber, as a Fraction."""
    return Fraction(x.ints[1], x.ints[0])


def symbol_coefficients(x):
    """(name, Fraction) pairs of a KNumber's symbols, in table order, no zeros."""
    d = x.ints[0]
    return tuple([(n, Fraction(a, d)) for n, a in x.ints[2]])


def coeff(x, name):
    """The coefficient of one symbol in a KNumber, as a Fraction."""
    return dict(symbol_coefficients(x)).get(name, Fraction(0))


def symbol_names(x):
    """The symbols of a KNumber, in table order."""
    return [n for n, _ in x.ints[2]]


def rational_component(p):
    """The rational part of a Poly, as {exps: Fraction}."""
    return {e: rational_part(c) for e, c in p.terms if c.ints[1]}


def symbol_component(p, name):
    """The coefficient polynomial of one symbol, as {exps: Fraction}."""
    return {e: coeff(c, name) for e, c in p.terms if coeff(c, name)}


def used_symbols(p):
    """The symbols of a Poly in the order its sorted terms first name them."""
    return list(dict.fromkeys(n for _, c in p.terms for n in symbol_names(c)))


def binomial_coefficients(rational_terms, nv):
    """Coefficients of a rational polynomial in the multi-binomial basis
    prod_i C(x_i, j_i), by x^k = sum_j S2(k,j) j! C(x,j) in Fractions; the
    polynomial is integer-valued on Z^nv iff all of them are integers."""
    def stirling2(k, j):
        if k == j == 0:
            return 1
        if k == 0 or j == 0:
            return 0
        return j * stirling2(k - 1, j) + stirling2(k - 1, j - 1)

    acc = {}
    for exps, c in rational_terms.items():
        partial = {(): Fraction(c)}
        for k in exps:
            nxt = {}
            for js, coef in partial.items():
                for j in range(k + 1):
                    if s := stirling2(k, j):
                        key = js + (j,)
                        nxt[key] = nxt.get(key, Fraction(0)) + coef * s * math.factorial(j)
            partial = nxt
        for js, coef in partial.items():
            acc[js] = acc.get(js, Fraction(0)) + coef
    return acc


def is_integer_valued(rational_terms, nv):
    return all(c.denominator == 1 for c in binomial_coefficients(rational_terms, nv).values())


def integrality_violation_reference(p, table):
    """Reference for cocycles.integrality_violation over Fractions: each
    symbol's component, then the rational part, through the Fraction
    binomial-basis test."""
    for name in used_symbols(p):
        comp = symbol_component(p, name)
        m = table.torsion_order(name)
        if not m:
            return f"non-vanishing coefficient of free symbol {name}"
        if not is_integer_valued({e: c / m for e, c in comp.items()}, p.nv):
            return f"coefficient of symbol {name} not divisible by its torsion order {m}"
    if not is_integer_valued(rational_component(p), p.nv):
        return "rational part is not integer-valued"
    return None


def twist_by_coboundary(c, phi):
    """c times the coboundary of e^{2 pi i phi}: the phase gains
    (d phi)(g, h) = phi(g*h) - phi(g) - phi(h), with phi a Poly in n
    variables and phi(e) an integer."""
    n = c.n
    nv = 2 * n
    t = c.table
    gh = law_polys(c.group, t, nv, 0, n)
    pg = phi.substitute({i: Poly.var(nv, t, i) for i in range(n)}, nv)
    ph = phi.substitute({i: Poly.var(nv, t, n + i) for i in range(n)}, nv)
    pgh = phi.substitute(dict(enumerate(gh)), nv)
    return Cocycle(c.group, t, c.phase + pgh - pg - ph, c.correction)


def shifted_section(qd, shift):
    """QuotientData with another linear section: shift maps a quotient
    coordinate t to an element of the subgroup N that is added to the lift
    of e_t; the torsion lifts d_t * lift(e_t) follow the new section."""
    cols = [list(col) for col in zip(*qd.section.matrix)]  # cols[t] = lift of e_t
    for t, s in shift.items():
        if not qd.subgroup.contains(list(s)):
            raise ValueError("section shift must lie in the subgroup")
        cols[t] = [x + y for x, y in zip(cols[t], s)]
    section = Morphism(qd.group, qd.section.target, tuple(zip(*cols)))
    lifts = tuple(tuple(d * x for x in col) if d else None
                  for d, col in zip(qd.group.moduli, cols))
    return QuotientData(qd.group, qd.projection, section, qd.subgroup, lifts)


def _knumber_product(a, b):
    """Product of two {exps: KNumber} dicts."""
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple([x + y for x, y in zip(e1, e2)])
            c = c1 * c2  # symbol-times-symbol products raise here
            out[e] = out[e] + c if e in out else c
    return out


def substitute_reference(p, mapping, nv):
    """Reference for Poly.substitute: variable i becomes mapping[i], a Poly in
    nv variables; every monomial is expanded by KNumber products from cached
    powers of the mapped polynomials, and the sum is canonicalized once."""
    powers = {}

    def power(i, e):
        if (i, e) not in powers:
            powers[(i, e)] = (dict(mapping[i].terms) if e == 1
                              else _knumber_product(power(i, e - 1), power(i, 1)))
        return powers[(i, e)]

    acc = {}
    for exps, c in p.terms:
        term = {(0,) * nv: c}
        for i, e in enumerate(exps):
            if e:
                if i not in mapping:
                    raise ValueError(f"variable {i} has no substitution")
                term = _knumber_product(term, power(i, e))
        for te, tc in term.items():
            acc[te] = acc[te] + tc if te in acc else tc
    return Poly.make(nv, p.table, acc)


def cocycle_defect_reference(c):
    """Reference for cocycles.cocycle_defect: the four phases of
    D(g,h,k) = Q(g,h) + Q(g*h, k) - Q(h,k) - Q(g, h*k) by substitution."""
    n = c.n
    nv = 3 * n
    t = c.table
    g, h, k = ([Poly.var(nv, t, offset + i) for i in range(n)] for offset in (0, n, 2 * n))
    gh = law_polys(c.group, t, nv, 0, n)
    hk = law_polys(c.group, t, nv, n, 2 * n)

    def q(xs, ys):
        return substitute_reference(c.phase, dict(enumerate(xs + ys)), nv)

    return q(g, h) + q(gh, k) - q(h, k) - q(g, hk)


def antisym_reference(c):
    """Reference for cocycles.antisym: Q(h, g) by substituting g and h for
    each other, then Q~ = Q(g, h) - Q(h, g) + correction."""
    n = c.n
    mapping = {i: Poly.var(2 * n, c.table, n + i) for i in range(n)}
    mapping.update({n + i: Poly.var(2 * n, c.table, i) for i in range(n)})
    swapped = substitute_reference(c.phase, mapping, 2 * n)
    out = c.phase - swapped
    if c.correction is not None:
        out = out + c.correction
    return out


def pairing_rows_two_slot(c, gens):
    """Reference for cocycles._pairing_rows: rows[a][j] = Q~(v_a, e_j), after
    checking the character property in each slot on its own, with g(z) =
    sum_a z_a v_a:
      Q~(g(z), y) = sum_j y_j Q~(g(z), e_j)   (second slot, checked first)
      Q~(g(z), e_j) = sum_a z_a Q~(v_a, e_j)  (first slot, j = 1..n)
    """
    n = c.n
    t = c.table
    k = len(gens)
    q = antisym_reference(c)
    nv = k + n  # z variables then y variables
    gz = []
    for i in range(n):
        gz.append(Poly.make(nv, t, {tuple(1 if v == a else 0 for v in range(nv)): Fraction(gens[a][i])
                                    for a in range(k) if gens[a][i]}))
    mapping = {i: gz[i] for i in range(n)}
    mapping.update({n + i: Poly.var(nv, t, k + i) for i in range(n)})
    qz = substitute_reference(q, mapping, nv)
    qzj = []
    for j in range(n):
        sub = {a: Poly.var(nv, t, a) for a in range(k)}
        sub.update({k + i: Poly.const(nv, t, Fraction(1 if i == j else 0)) for i in range(n)})
        qzj.append(substitute_reference(qz, sub, nv))
    lin = Poly.zero(nv, t)
    for j in range(n):
        lin = lin + Poly.var(nv, t, k + j) * qzj[j]
    viol = integrality_violation(qz - lin, t)
    if viol:
        raise CocycleError(
            f"pairing is not a character in its second argument: {viol}")
    rows = [[q.eval(tuple(gens[a]) + tuple(1 if i == j else 0 for i in range(n)))
             for j in range(n)] for a in range(k)]
    for j in range(n):
        lin = Poly.zero(nv, t)
        for a in range(k):
            lin = lin + Poly.var(nv, t, a).scale(rows[a][j])
        viol = integrality_violation(qzj[j] - lin, t)
        if viol:
            raise CocycleError(
                f"pairing is not a character in its first argument: {viol}")
    return rows


def validate_cocycle_reference(c):
    """Reference for cocycles.validate_cocycle: every check on every input,
    with no bilinear shortcut."""
    n = c.n
    t = c.table
    if c.phase.max_degree() > 3:
        return "phase degree exceeds the supported bound (3 per variable)"
    # normalization sigma(g, e) = sigma(e, g) = 1
    zero = [Poly.zero(n, t)] * n
    gvars = [Poly.var(n, t, i) for i in range(n)]
    mapping_ge = {i: gvars[i] for i in range(n)}
    mapping_ge.update({n + i: zero[i] for i in range(n)})
    viol = integrality_violation(substitute_reference(c.phase, mapping_ge, n), t)
    if viol:
        return f"normalization Q(g, e) not in Z: {viol}"
    mapping_eg = {i: zero[i] for i in range(n)}
    mapping_eg.update({n + i: gvars[i] for i in range(n)})
    viol = integrality_violation(substitute_reference(c.phase, mapping_eg, n), t)
    if viol:
        return f"normalization Q(e, g) not in Z: {viol}"
    # well-definedness modulo the torsion moduli, in each argument slot
    for arg in (0, 1):
        for i in range(n):
            m = c.group.moduli[i]
            if not m:
                continue
            mapping = {}
            for v in range(2 * n):
                p = Poly.var(2 * n, t, v)
                if v == arg * n + i:
                    p = p + Poly.const(2 * n, t, Fraction(m))
                mapping[v] = p
            shifted = substitute_reference(c.phase, mapping, 2 * n)
            viol = integrality_violation(shifted - c.phase, t)
            if viol:
                return (f"phase is not well defined modulo {m} on coordinate "
                        f"{c.group.names[i]} (argument {arg + 1}): {viol}")
    viol = integrality_violation(cocycle_defect_reference(c), t)
    if viol:
        return f"cocycle identity fails: {viol}"
    return None

