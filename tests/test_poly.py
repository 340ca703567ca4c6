import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from cocycle_lab import groups
from cocycle_lab.exact import KNumber, SymbolTable, knum
from cocycle_lab.poly import Poly

from helpers import (binomial_coefficients, coeff, is_integer_valued, law_polys,
                     rational_component, rational_part, substitute_reference,
                     symbol_coefficients, symbol_component, used_symbols)

T = SymbolTable(thetas=("th",), xis=(("xi", 3),))


def rand_poly(rng, nv, deg=3, symbols=False, den=4):
    """Coefficients k/d with d <= den, so integers for den = 1."""
    terms = []
    for _ in range(rng.randint(1, 6)):
        exps = tuple(rng.randint(0, deg) for _ in range(nv))
        c = Fraction(rng.randint(-6, 6), rng.randint(1, den))
        if symbols and rng.random() < 0.5:
            terms.append((exps, knum(T, c, th=rng.randint(-2, 2))))
        else:
            terms.append((exps, KNumber.make(T, c)))
    return Poly.make(nv, T, terms)


def test_arithmetic_matches_pointwise_eval():
    rng = random.Random(7)
    for _ in range(50):
        nv = rng.randint(1, 3)
        p, q = rand_poly(rng, nv), rand_poly(rng, nv)
        pt = tuple(rng.randint(-4, 4) for _ in range(nv))
        assert (p + q).eval(pt) == p.eval(pt) + q.eval(pt)
        assert (p - q).eval(pt) == p.eval(pt) - q.eval(pt)
        assert (-p).eval(pt) == p.eval(pt).scale(-1)
        assert p.scale(Fraction(3, 2)).eval(pt) == p.eval(pt).scale(Fraction(3, 2))


def test_product_eval_rational():
    rng = random.Random(8)
    for _ in range(50):
        nv = rng.randint(1, 3)
        p, q = rand_poly(rng, nv), rand_poly(rng, nv)
        pt = tuple(rng.randint(-4, 4) for _ in range(nv))
        lhs = (p * q).eval(pt)
        rhs = p.eval(pt).scale(rational_part(q.eval(pt)))
        assert lhs == rhs


def occurring(p):
    """The variables that occur in p."""
    return {i for e, _ in p.terms for i, x in enumerate(e) if x}


def test_substitute_matches_composition():
    """Poly.substitute by integer polynomials commutes with evaluation, and
    so does the Fraction oracle substitute_reference by rational ones, where
    Poly.substitute raises ValueError once a variable with a non-integral
    image occurs."""
    rng = random.Random(9)
    rejected = 0
    for _ in range(40):
        nv, mv = rng.randint(1, 3), rng.randint(1, 3)
        p = rand_poly(rng, nv, symbols=True)
        pt = tuple(rng.randint(-3, 3) for _ in range(mv))
        for den in (1, 4):
            mapping = {i: rand_poly(rng, mv, den=den) for i in range(nv)}
            inner = tuple(rational_part(mapping[i].eval(pt)) for i in range(nv))
            assert substitute_reference(p, mapping, mv).eval(pt) == p.eval(inner)
            if any(c.ints[0] != 1 for i in occurring(p) for _, c in mapping[i].terms):
                rejected += 1
                with pytest.raises(ValueError, match="must have integer coefficients"):
                    p.substitute(mapping, mv)
            else:
                assert p.substitute(mapping, mv).eval(pt) == p.eval(inner)
    assert rejected >= 20


def sparse_polys(nv):
    """Polys in nv variables with rational and theta coefficients; each
    monomial touches at most two variables, so group-law expansions stay small."""
    monomial = (st.lists(st.tuples(st.integers(0, nv - 1), st.integers(1, 3)), max_size=2)
                if nv else st.just([]))
    term = st.tuples(monomial, st.fractions(-4, 4, max_denominator=3), st.integers(-2, 2))

    def build(terms):
        out = []
        for mono, c, th in terms:
            exps = [0] * nv
            for i, e in mono:
                exps[i] = e
            out.append((tuple(exps), knum(T, c, th=th)))
        return Poly.make(nv, T, out)

    return st.lists(term, max_size=5).map(build)


def affine_forms(nv, mv):
    """Mappings sending each of nv variables to an affine form in mv variables."""
    form = st.tuples(st.lists(st.integers(-2, 2), min_size=mv, max_size=mv), st.integers(-2, 2))

    def build(forms):
        return {i: Poly.make(mv, T, [(tuple(int(t == j) for t in range(mv)), a)
                                     for j, a in enumerate(row)] + [((0,) * mv, c)])
                for i, (row, c) in enumerate(forms)}

    return st.lists(form, min_size=nv, max_size=nv).map(build)


def assert_substitution_commutes_with_eval(p, mapping, mv, pt):
    inner = [rational_part(mapping[i].eval(pt)) for i in range(p.nv)]
    assert p.substitute(mapping, mv).eval(pt) == p.eval(inner)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_substitute_linear_maps_commute_with_eval(data):
    nv, mv = data.draw(st.integers(0, 3)), data.draw(st.integers(0, 3))
    p = data.draw(sparse_polys(nv))
    mapping = data.draw(affine_forms(nv, mv))
    pt = data.draw(st.tuples(*[st.integers(-3, 3)] * mv))
    assert_substitution_commutes_with_eval(p, mapping, mv, pt)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_substitute_group_laws_commute_with_eval(data):
    group = data.draw(st.sampled_from([groups.heisenberg_diag((2,)), groups.g3(),
                                       groups.z_times_h3()]))
    n = group.n
    p = data.draw(sparse_polys(n))
    law = law_polys(group, T, 2 * n, 0, n)  # coordinates of x*y, quadratic
    pt = data.draw(st.tuples(*[st.integers(-3, 3)] * (2 * n)))
    assert_substitution_commutes_with_eval(p, dict(enumerate(law)), 2 * n, pt)


@st.composite
def substitution_problems(draw):
    """A polynomial in nv = 0..3 variables with exponents up to 3 and rational,
    theta and torsion-symbol coefficients, and a mapping of some of its
    variables to integer polynomials in mv = 0..3 variables."""
    nv, mv = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    sym = st.sampled_from((0, 0, 1, -2, Fraction(1, 2)))  # absent half the time
    coef = st.builds(lambda c, th, xi: knum(T, c, th=th, xi=xi),
                     st.fractions(-3, 3, max_denominator=3), sym, sym)
    p = Poly.make(nv, T, draw(st.lists(st.tuples(
        st.tuples(*[st.integers(0, 3)] * nv), coef), max_size=5)))
    image = st.lists(st.tuples(st.tuples(*[st.integers(0, 2)] * mv), st.integers(-3, 3)),
                     max_size=3)
    kept = draw(st.lists(st.booleans(), min_size=nv, max_size=nv))
    mapping = {i: Poly.make(mv, T, draw(image)) for i in range(nv) if kept[i]}
    return p, mapping, mv


def substitution_outcome(substitute, p, mapping, mv):
    try:
        return substitute(p, mapping, mv)
    except ValueError as e:
        return str(e)


@settings(max_examples=500, deadline=None)
@given(substitution_problems())
@example((Poly.make(2, T, [((0, 0), knum(T, 0, xi=1)), ((0, 1), knum(T, 0, th=1))]),
          {1: Poly.const(0, T, 1)}, 0))  # xi reaches the output term before th
def test_substitute_matches_the_knumber_product_reference(problem):
    p, mapping, mv = problem
    assert (substitution_outcome(Poly.substitute, p, mapping, mv)
            == substitution_outcome(substitute_reference, p, mapping, mv))


def test_substitute_keeps_rejecting_symbol_products():
    p = Poly.make(1, T, {(1,): knum(T, 0, th=1)})
    with pytest.raises(ValueError):
        p.substitute({0: p}, 1)


@pytest.mark.parametrize("image", [Fraction(1, 2), knum(T, 0, xi=1)], ids=["fraction", "symbol"])
def test_substitute_rejects_a_mapped_polynomial_without_integer_coefficients(image):
    p = Poly.make(1, T, {(2,): knum(T, 1, th=1)})
    with pytest.raises(ValueError, match="^a substituted polynomial must have integer coefficients$"):
        p.substitute({0: Poly.make(1, T, {(1,): 1, (0,): image})}, 1)


@pytest.mark.parametrize("exps", [(1,), (1, 0, 0), [1], (1, -1), [0, -2]])
def test_make_rejects_wrong_length_or_negative_exponents(exps):
    with pytest.raises(ValueError, match="bad exponent vector"):
        Poly.make(2, T, [(exps, Fraction(1))])


def test_compose_linear_matches_matrix_action():
    rng = random.Random(10)
    for _ in range(40):
        nv, mv = rng.randint(1, 3), rng.randint(1, 3)
        p = rand_poly(rng, nv, symbols=True)
        mat = [[rng.randint(-2, 2) for _ in range(mv)] for _ in range(nv)]
        pt = tuple(rng.randint(-3, 3) for _ in range(mv))
        inner = tuple(sum(mat[i][j] * pt[j] for j in range(mv)) for i in range(nv))
        assert p.compose_linear(mat, mv).eval(pt) == p.eval(inner)


def test_symbol_components_partition_the_polynomial():
    rng = random.Random(11)
    for _ in range(30):
        p = rand_poly(rng, 2, symbols=True)
        pt = (rng.randint(-3, 3), rng.randint(-3, 3))
        v = p.eval(pt)
        rc = sum((c * pt[0] ** e[0] * pt[1] ** e[1] for e, c in rational_component(p).items()),
                 Fraction(0))
        assert rational_part(v) == rc
        for name in used_symbols(p):
            sc = sum((c * pt[0] ** e[0] * pt[1] ** e[1]
                      for e, c in symbol_component(p, name).items()), Fraction(0))
            assert coeff(v, name) == sc


def test_integer_valuedness_oracle():
    # binomial-basis verdict must agree with dense grid evaluation
    rng = random.Random(12)
    for _ in range(60):
        nv = rng.randint(1, 2)
        terms = {}
        for _ in range(rng.randint(1, 4)):
            e = tuple(rng.randint(0, 3) for _ in range(nv))
            terms[e] = terms.get(e, Fraction(0)) + Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3)))
        verdict = is_integer_valued(terms, nv)
        pts = range(-8, 9)
        if nv == 1:
            grid = [(x,) for x in pts]
        else:
            grid = [(x, y) for x in pts for y in pts]
        brute = all(
            sum((c * pt[0] ** e[0] * (pt[1] ** e[1] if nv == 2 else 1)
                 for e, c in terms.items()), Fraction(0)).denominator == 1
            for pt in grid)
        assert verdict == brute


def test_known_integer_valued_polynomials():
    # x(x-1)/2 and binomial(x,3) are integer-valued without integer coefficients
    half = {(2,): Fraction(1, 2), (1,): Fraction(-1, 2)}
    assert is_integer_valued(half, 1)
    choose3 = {(3,): Fraction(1, 6), (2,): Fraction(-1, 2), (1,): Fraction(1, 3)}
    assert is_integer_valued(choose3, 1)
    assert not is_integer_valued({(2,): Fraction(1, 2)}, 1)
    assert binomial_coefficients({(1,): Fraction(1)}, 1) == {(1,): Fraction(1)}


def sympy_coefficient(sympy, c):
    """The KNumber c as a linear form in the symbols of T."""
    def rational(q):
        return sympy.Rational(q.numerator, q.denominator)

    return rational(rational_part(c)) + sum(rational(q) * sympy.Symbol(n)
                                            for n, q in symbol_coefficients(c))


def sympy_expr(sympy, p, xs):
    """p as a sympy expression in the variables xs and the symbols of T."""
    return sympy.Add(*(sympy_coefficient(sympy, c) * sympy.Mul(*(x ** e for x, e in zip(xs, exps)))
                       for exps, c in p.terms))


def assert_terms_match_sympy(sympy, got, expr, ys):
    """got's terms equal those of sympy's expansion of expr in ys, one
    coefficient (a linear form in the symbols of T) per exponent tuple."""
    want = {e: c for e, c in sympy.Poly(sympy.expand(expr), *ys).as_dict().items() if c != 0}
    mine = {e: sympy_coefficient(sympy, c) for e, c in got.terms}
    assert mine == want


def test_compose_linear_and_substitute_match_sympy_expansion():
    """Poly.compose_linear on random phases with symbol coefficients and
    random integer matrices, Poly.substitute by random integer polynomials
    and the Fraction oracle substitute_reference by random rational ones
    agree term by term with sympy's expansion."""
    sympy = pytest.importorskip("sympy")
    rng = random.Random(16)
    for _ in range(30):
        nv, mv = rng.randint(1, 3), rng.randint(1, 3)
        xs, ys = sympy.symbols(f"x0:{nv}"), sympy.symbols(f"y0:{mv}")
        p = rand_poly(rng, nv, symbols=True)
        mat = [[rng.randint(-3, 3) for _ in range(mv)] for _ in range(nv)]
        linear = {x: sum(a * y for a, y in zip(row, ys)) for x, row in zip(xs, mat)}
        assert_terms_match_sympy(sympy, p.compose_linear(mat, mv),
                                 sympy_expr(sympy, p, xs).subs(linear, simultaneous=True), ys)
        p = rand_poly(rng, nv, deg=2, symbols=True)
        for den, substitute in ((1, Poly.substitute), (4, substitute_reference)):
            mapping = {i: rand_poly(rng, mv, deg=2, den=den) for i in range(nv)}
            images = {x: sympy_expr(sympy, mapping[i], ys) for i, x in enumerate(xs)}
            assert_terms_match_sympy(sympy, substitute(p, mapping, mv),
                                     sympy_expr(sympy, p, xs).subs(images, simultaneous=True), ys)


def test_arithmetic_make_and_rebase_match_sympy_term_by_term():
    """+, -, *, scale, make and rebase on random polynomials with symbol
    coefficients agree with sympy's expansion, coefficient by coefficient."""
    sympy = pytest.importorskip("sympy")
    rng = random.Random(17)
    wide = T.with_xis((("zeta", 0),))
    for _ in range(40):
        nv = rng.randint(1, 3)
        xs = sympy.symbols(f"x0:{nv}")
        p, q = rand_poly(rng, nv, symbols=True), rand_poly(rng, nv, symbols=True)
        r = rand_poly(rng, nv)  # rational: a product stays linear in the symbols
        sp, sq, sr = (sympy_expr(sympy, f, xs) for f in (p, q, r))
        c = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        k = knum(T, c, th=rng.randint(-2, 2))
        assert_terms_match_sympy(sympy, p + q, sp + sq, xs)
        assert_terms_match_sympy(sympy, p - q, sp - sq, xs)
        assert_terms_match_sympy(sympy, -p, -sp, xs)
        assert_terms_match_sympy(sympy, p * r, sp * sr, xs)
        assert_terms_match_sympy(sympy, r * p, sp * sr, xs)
        assert_terms_match_sympy(sympy, p.scale(c), sp * sympy.Rational(c), xs)
        assert_terms_match_sympy(sympy, r.scale(k), sr * sympy_coefficient(sympy, k), xs)
        raw = [(tuple(rng.randint(0, 2) for _ in range(nv)),
                rng.choice((rng.randint(-3, 3), Fraction(rng.randint(-3, 3), rng.randint(1, 4)),
                            knum(T, Fraction(rng.randint(-3, 3), 2), xi=rng.randint(-2, 2)))))
               for _ in range(rng.randint(0, 8))]  # repeated exponents add up
        made = Poly.make(nv, T, raw)
        assert_terms_match_sympy(sympy, made, sympy.Add(*(
            (sympy_coefficient(sympy, c) if isinstance(c, KNumber) else sympy.Rational(c))
            * sympy.Mul(*(x ** e for x, e in zip(xs, exps))) for exps, c in raw)), xs)
        rebased = p.rebase(wide)
        assert rebased.table is wide and all(c.table is wide for _, c in rebased.terms)
        assert_terms_match_sympy(sympy, rebased, sp, xs)
