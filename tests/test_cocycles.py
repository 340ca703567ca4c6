import itertools
import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, example, find, given, settings, strategies as st

from cocycle_lab import groups, zlinalg as zl
from cocycle_lab.cocycles import (CaseLeaf, Cocycle, CocycleError, _pairing_rows, antisym,
                                  cocycle_defect, condition_lattice, induce_gamma,
                                  integrality_violation, phase_from_monomials, phi_map,
                                  phi_surjective, product_split, pull_back,
                                  push_to_quotient, twisted_center,
                                  validate_cocycle)
from cocycle_lab.exact import (INTEGER, KNumber, SymbolTable, empty_context,
                               knum, symbol)
from cocycle_lab.poly import Poly, _integer_valued

from helpers import (antisym_reference, cocycle_defect_reference, coeff, commutator,
                     integrality_violation_reference, is_integer_valued, pairing_rows_two_slot,
                     rational_component, rational_part, shifted_section, symbol_component, symbol_names,
                     twist_by_coboundary, validate_cocycle_reference)


def theta_table():
    return SymbolTable(thetas=("theta",))


def g3_cocycle(table=None):
    """Phase theta*(s13 r2 + s3(r1 r2 - r12) + s13 r1 + s3 r1(r1-1)/2
    + r3(s13 + r1 s3) + r1 s3(s3-1)/2) on the free 2-step group on three
    generators; variables g0..g5 = r, h0..h5 = s."""
    g = groups.g3()
    t = table or theta_table()
    th = Fraction(1)
    mono = [
        (knum(t, 0, theta=th), (0, 1, 0, 0, 0, 0), (0, 0, 0, 0, 1, 0)),   # s13 r2
        (knum(t, 0, theta=th), (1, 1, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0)),   # s3 r1 r2
        (knum(t, 0, theta=-th), (0, 0, 0, 1, 0, 0), (0, 0, 1, 0, 0, 0)),  # -s3 r12
        (knum(t, 0, theta=th), (1, 0, 0, 0, 0, 0), (0, 0, 0, 0, 1, 0)),   # s13 r1
        (knum(t, 0, theta=th / 2), (2, 0, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0)),
        (knum(t, 0, theta=-th / 2), (1, 0, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0)),
        (knum(t, 0, theta=th), (0, 0, 1, 0, 0, 0), (0, 0, 0, 0, 1, 0)),   # r3 s13
        (knum(t, 0, theta=th), (1, 0, 1, 0, 0, 0), (0, 0, 1, 0, 0, 0)),   # r3 r1 s3
        (knum(t, 0, theta=th / 2), (1, 0, 0, 0, 0, 0), (0, 0, 2, 0, 0, 0)),
        (knum(t, 0, theta=-th / 2), (1, 0, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0)),
    ]
    return Cocycle(g, t, phase_from_monomials(g, t, mono).phase)


def heis_cocycle(d2, p, table=None):
    """Phase (p/d2)(s1' r + t1 s1'(s1'-1)/2) + theta s2' t2 on H(1, d2);
    coordinates (r, s1, s2, t1, t2)."""
    g = groups.heisenberg_diag((1, d2))
    t = table or theta_table()
    q = Fraction(p, d2)
    mono = [
        (KNumber.make(t, q), (1, 0, 0, 0, 0), (0, 1, 0, 0, 0)),        # s1' r
        (KNumber.make(t, q / 2), (0, 0, 0, 1, 0), (0, 2, 0, 0, 0)),    # t1 s1'^2 / 2
        (KNumber.make(t, -q / 2), (0, 0, 0, 1, 0), (0, 1, 0, 0, 0)),   # -t1 s1' / 2
        (knum(t, 0, theta=1), (0, 0, 0, 0, 1), (0, 0, 1, 0, 0)),       # theta s2' t2
    ]
    return Cocycle(g, t, phase_from_monomials(g, t, mono).phase)


def knumber_is_integral(kn, table):
    """Integer phase for every admissible symbol assignment."""
    if rational_part(kn).denominator != 1:
        return False
    for name in symbol_names(kn):
        m = table.torsion_order(name)
        c = coeff(kn, name)
        if not m:
            if c:
                return False
        elif (c / m).denominator != 1:
            return False
    return True


# ---------------------------------------------------------------------------
# validation


def test_trivial_cocycle_is_valid():
    g = groups.g3()
    assert validate_cocycle(phase_from_monomials(g, SymbolTable(), [])) is None


def test_g3_cocycle_is_valid():
    assert validate_cocycle(g3_cocycle()) is None


def test_heisenberg_cocycle_is_valid():
    assert validate_cocycle(heis_cocycle(3, 2)) is None


def test_normalization_violation_detected():
    g = groups.heisenberg_diag((1,))
    t = theta_table()
    c = phase_from_monomials(g, t, [(knum(t, 0, theta=1), (1, 0, 0), (0, 0, 0))])
    rep = validate_cocycle(c)
    assert rep is not None and "Q(g, e)" in rep


def test_half_integer_bilinear_on_free_abelian_is_valid():
    g = groups.abelian((0, 0))
    t = theta_table()
    c = phase_from_monomials(g, t, [(KNumber.make(t, Fraction(1, 2)), (1, 0), (0, 1))])
    # bilinear phases on free abelian groups always satisfy the identity
    assert validate_cocycle(c) is None


def test_mod_torsion_well_definedness_enforced():
    g = groups.abelian((2, 0))
    t = theta_table()
    c = phase_from_monomials(g, t, [(KNumber.make(t, Fraction(1, 3)), (1, 0), (0, 1))])
    rep = validate_cocycle(c)
    assert rep is not None and "well defined" in rep


def rand_phase(rng, g, t, max_terms=4):
    mono = []
    n = g.n
    for _ in range(rng.randint(1, max_terms)):
        ge = [0] * n
        he = [0] * n
        ge[rng.randrange(n)] = rng.randint(1, 2)
        he[rng.randrange(n)] = rng.randint(1, 2)
        coef = (knum(t, 0, theta=Fraction(rng.randint(-3, 3)))
                if rng.random() < 0.4 else
                KNumber.make(t, Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3)))))
        mono.append((coef, tuple(ge), tuple(he)))
    return phase_from_monomials(g, t, mono)


def test_validator_agrees_with_pointwise_defect_oracle():
    rng = random.Random(21)
    base = [g3_cocycle(), heis_cocycle(2, 1), heis_cocycle(5, 3)]
    cands = list(base)
    for c in base:
        # corrupt with random extra monomials
        bad = rand_phase(rng, c.group, c.table)
        cands.append(Cocycle(c.group, c.table, c.phase + bad.phase))
    for c in cands:
        verdict = validate_cocycle(c)
        d = cocycle_defect(c)
        n = c.n
        ok = True
        for _ in range(200):
            pt = tuple(rng.randint(-6, 6) for _ in range(3 * n))
            if not knumber_is_integral(d.eval(pt), c.table):
                ok = False
                break
        if verdict is None:
            assert ok
        # normalization / well-definedness failures can leave the defect
        # integral, so only the accepted->integral direction is universal;
        # spot-check the converse when the defect itself is broken
        if not ok:
            assert verdict is not None


def test_defect_of_valid_cocycles_is_integral_on_random_points():
    rng = random.Random(22)
    for c in (g3_cocycle(), heis_cocycle(3, 1), phase_from_monomials(groups.z_times_h3(), SymbolTable(), [])):
        d = cocycle_defect(c)
        for _ in range(500):
            pt = tuple(rng.randint(-10, 10) for _ in range(3 * c.n))
            assert knumber_is_integral(d.eval(pt), c.table)


# ---------------------------------------------------------------------------
# antisymmetrization


def test_antisym_is_alternating_exactly():
    for c in (g3_cocycle(), heis_cocycle(4, 3)):
        q = antisym(c)
        n = c.n
        mapping = {i: Poly.var(2 * n, c.table, n + i) for i in range(n)}
        mapping.update({n + i: Poly.var(2 * n, c.table, i) for i in range(n)})
        assert (q + q.substitute(mapping, 2 * n)).is_zero()


def test_g3_antisym_matches_closed_form_for_central_first_argument():
    c = g3_cocycle()
    q = antisym(c)
    rng = random.Random(5)
    for _ in range(100):
        r = [0, 0, 0, rng.randint(-4, 4), rng.randint(-4, 4), rng.randint(-4, 4)]
        s = [rng.randint(-4, 4) for _ in range(6)]
        got = q.eval(tuple(r) + tuple(s))
        want = Fraction(-s[0] * r[4] - s[1] * r[4] - s[2] * (r[3] + r[4]))
        assert rational_part(got) == 0 and coeff(got, "theta") == want


# ---------------------------------------------------------------------------
# twisted centers


def leaf_lattices(leaves):
    return [leaf.lattice for leaf in leaves]


def test_twisted_center_of_trivial_cocycle_is_center():
    g = groups.g3()
    c = phase_from_monomials(g, SymbolTable(), [])
    leaves = twisted_center(c, empty_context(c.table))
    assert len(leaves) == 1
    assert leaves[0].lattice.same_subgroup(g.center())


def test_g3_twisted_center_is_r23_axis():
    c = g3_cocycle()
    ctx = empty_context(c.table).assume_irrational(symbol(c.table, "theta"))
    leaves = twisted_center(c, ctx)
    assert len(leaves) == 1
    want = zl.SubgroupLattice(c.group.moduli, ((0, 0, 0, 0, 0, 1),))
    assert leaves[0].lattice.same_subgroup(want)


def test_twisted_center_splits_on_undetermined_parameter():
    # Z x H3(Z) with phase t1*k1*l3 type pairing on an undeclared parameter
    g = groups.z_times_h3()
    t = SymbolTable(xis=(("t1", 0),))
    c = phase_from_monomials(g, t, [(knum(t, 0, t1=1), (1, 0, 0, 0), (0, 0, 1, 0))])
    leaves = twisted_center(c, empty_context(t))
    assert len(leaves) == 2
    # irrational branch kills k1; rational branch keeps it
    irr_leaf = [leaf for leaf in leaves
                if not leaf.lattice.contains((1, 0, 0, 0))]
    rat_leaf = [leaf for leaf in leaves if leaf not in irr_leaf]
    assert len(irr_leaf) == 1 and len(rat_leaf) == 1
    assert rat_leaf[0].lattice.contains((1, 0, 0, 0))


def test_condition_rows_are_cleared_to_their_least_denominator():
    """The coefficients 1 + t/2 and 2 + t/2 are stored over the denominator
    2, but their constants are integers: the form gives no constant
    congruence, and its t-row reads t/2 on both coordinates."""
    t = SymbolTable((), (("t", 0),))
    ctx = empty_context(t).assume_irrational(symbol(t, "t"))
    form = [knum(t, 1, t=Fraction(1, 2)), knum(t, 2, t=Fraction(1, 2))]
    (leaf,) = condition_lattice(ctx, [form], (0, 0), ("z1", "z2"))
    assert leaf.conditions == ("t*(1/2*z1 + 1/2*z2) = 0 forced (irrational factor)",)
    assert leaf.lattice.hnf_basis == ((1, -1),)


def test_heisenberg_twisted_center_is_d2_scaled_r_axis():
    c = heis_cocycle(3, 2)
    ctx = empty_context(c.table).assume_irrational(symbol(c.table, "theta"))
    leaves = twisted_center(c, ctx)
    assert len(leaves) == 1
    want = zl.SubgroupLattice(c.group.moduli, ((3, 0, 0, 0, 0),))
    assert leaves[0].lattice.same_subgroup(want)


def classify_membership(c, ctx, g_elt):
    q = antisym(c)
    n = c.n
    for j in range(n):
        ej = tuple(1 if i == j else 0 for i in range(n))
        val = q.eval(tuple(g_elt) + ej)
        if ctx.classify(val).kind != INTEGER:
            return False
    return True


def test_twisted_center_leaves_match_brute_force_membership():
    cases = [g3_cocycle(), heis_cocycle(2, 1)]
    rng = random.Random(17)
    for c in cases:
        ctx = empty_context(c.table).assume_irrational(symbol(c.table, "theta"))
        leaves = twisted_center(c, ctx)
        center = c.group.center()
        for leaf in leaves:
            for _ in range(300):
                cand = [rng.randint(-3, 3) for _ in range(c.n)]
                if not center.contains(cand):
                    continue
                assert leaf.lattice.contains(cand) == classify_membership(c, leaf.ctx, cand)


def test_pairing_not_a_character_in_second_argument():
    g = groups.abelian((0,))
    t = SymbolTable()
    c = Cocycle(g, t, Poly.make(2, t, {(2, 1): Fraction(1, 3)}))  # 1/3 g1^2 h1
    with pytest.raises(CocycleError) as err:
        twisted_center(c, empty_context(t))
    assert str(err.value) == ("pairing is not a character in its second argument: "
                              "rational part is not integer-valued")


def test_pairing_not_a_character_in_first_argument():
    g = groups.abelian((0,))
    t = SymbolTable()
    c = Cocycle(g, t, Poly.zero(2, t), Poly.make(2, t, {(2, 1): Fraction(1, 3)}))
    with pytest.raises(CocycleError) as err:
        twisted_center(c, empty_context(t))
    assert str(err.value) == ("pairing is not a character in its first argument: "
                              "rational part is not integer-valued")


PAIRING_TABLE = SymbolTable(thetas=("theta",), xis=(("xi", 0), ("tau", 3)))


def draw_coefficient(draw, t):
    q = Fraction(draw(st.integers(-3, 3)), draw(st.sampled_from((1, 2, 3, 6))))
    name = draw(st.sampled_from((None, "theta", "xi", "tau")))
    return KNumber.make(t, q) if name is None else symbol(t, name, q)


def draw_bilinear_exps(draw, n):
    e = [0] * (2 * n)
    e[draw(st.integers(0, n - 1))] = 1
    e[n + draw(st.integers(0, n - 1))] = 1
    return tuple(e)


@st.composite
def pairing_problems(draw, bilinear=None):
    """A phase and an optional correction on Z^n (n = 1..3), with rational,
    torsion-symbol and free-symbol coefficients, bilinear or not, and
    generators of a subgroup.  With ``bilinear`` every term has bidegree
    (1, 1), so Q~ does too; by default about half the draws are such."""
    n = draw(st.integers(1, 3))
    t = PAIRING_TABLE
    if bilinear is None:
        bilinear = draw(st.booleans())

    def poly():
        terms = []
        for _ in range(draw(st.integers(0, 3))):
            if bilinear or draw(st.booleans()):  # one g and one h coordinate
                e = draw_bilinear_exps(draw, n)
            else:
                e = draw(st.lists(st.integers(0, 2), min_size=2 * n, max_size=2 * n))
            terms.append((tuple(e), draw_coefficient(draw, t)))
        return Poly.make(2 * n, t, terms)

    phase = poly()
    correction = poly() if draw(st.booleans()) else None
    gens = draw(st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n),
                         min_size=1, max_size=n))
    return Cocycle(groups.abelian((0,) * n), t, phase, correction), [tuple(v) for v in gens]


@settings(max_examples=200, deadline=None)
@given(pairing_problems())
def test_antisym_renaming_matches_the_swap_substitution(problem):
    c, _ = problem
    assert antisym(c) == antisym_reference(c)


def pairing_outcome(rows_of, c, gens):
    try:
        return rows_of(c, gens)
    except CocycleError as e:
        return str(e)


@settings(max_examples=200, deadline=None)
@given(pairing_problems())
def test_pairing_rows_match_the_two_slot_reference(problem):
    c, gens = problem
    assert (pairing_outcome(_pairing_rows, c, gens)
            == pairing_outcome(pairing_rows_two_slot, c, gens))


TORSION_AND_FREE = Cocycle(
    groups.abelian((0, 0)), PAIRING_TABLE,
    Poly.make(4, PAIRING_TABLE, [((1, 0, 0, 1), symbol(PAIRING_TABLE, "tau", Fraction(1, 3))),
                                 ((0, 1, 1, 0), symbol(PAIRING_TABLE, "xi", 2))]),
    Poly.make(4, PAIRING_TABLE, [((0, 1, 0, 1), symbol(PAIRING_TABLE, "theta", -1))]))


@settings(max_examples=200, deadline=None)
@given(pairing_problems(bilinear=True))
@example((TORSION_AND_FREE, [(1, 2), (0, 3)]))
@example((Cocycle(TORSION_AND_FREE.group, PAIRING_TABLE, TORSION_AND_FREE.phase), [(2, -1)]))
def test_bilinear_pairing_rows_make_no_substitution(problem):
    """A bidegree-(1, 1) Q~ (torsion- and free-symbol coefficients, with and
    without a correction) has its rows read off its terms: no substitution,
    no error, and the rows of the two-slot reference."""
    c, gens = problem
    with mock.patch.object(Poly, "substitute", side_effect=AssertionError("substitute called")):
        rows = _pairing_rows(c, gens)
    assert rows == pairing_rows_two_slot(c, gens)


@st.composite
def bicharacter_problems(draw):
    """A phase and an optional correction on Z^n (n = 1..3) whose pairing is
    a bicharacter by construction: bilinear terms, symmetric pairs
    p(g, h) + p(h, g) (they cancel in the antisymmetrization) and
    integer-coefficient monomials; the correction has an integer constant
    term.  Coefficients are rational, torsion-symbol or free-symbol."""
    n = draw(st.integers(1, 3))
    t = PAIRING_TABLE

    def exps():
        return tuple(draw(st.lists(st.integers(0, 2), min_size=2 * n, max_size=2 * n)))

    terms = [(draw_bilinear_exps(draw, n), draw_coefficient(draw, t))
             for _ in range(draw(st.integers(0, 3)))]
    for _ in range(draw(st.integers(0, 2))):
        e, coef = exps(), draw_coefficient(draw, t)
        terms += [(e, coef), (e[n:] + e[:n], coef)]
    terms += [(exps(), KNumber.make(t, draw(st.integers(-2, 2))))
              for _ in range(draw(st.integers(0, 2)))]
    correction = None
    if draw(st.booleans()):
        correction = Poly.make(2 * n, t, [((0,) * (2 * n), KNumber.make(t, draw(st.integers(-2, 2))))]
                               + [(draw_bilinear_exps(draw, n), draw_coefficient(draw, t))
                                  for _ in range(draw(st.integers(0, 2)))])
    gens = draw(st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n),
                         min_size=1, max_size=n))
    c = Cocycle(groups.abelian((0,) * n), t, Poly.make(2 * n, t, terms), correction)
    return c, [tuple(v) for v in gens]


@settings(max_examples=200, deadline=None)
@given(bicharacter_problems())
def test_pairing_rows_are_the_antisymmetrization_at_unit_points(problem):
    c, gens = problem
    q = antisym(c)
    n = c.n
    assert _pairing_rows(c, gens) == [[q.eval(v + tuple(int(i == j) for i in range(n)))
                                       for j in range(n)] for v in gens]


@st.composite
def validation_problems(draw):
    """A phase on n = 1..3 coordinates with moduli from {0, 2, 3}, with or
    without a bilinear carry; bidegree-(1, 1) monomials mixed with g-only,
    h-only and higher-degree ones, with rational, torsion-symbol and
    free-symbol coefficients."""
    n = draw(st.integers(1, 3))
    t = PAIRING_TABLE
    moduli = draw(st.lists(st.sampled_from((0, 2, 3)), min_size=n, max_size=n))
    carry = ()
    if n > 1 and draw(st.booleans()):
        k = draw(st.integers(0, n - 1))
        i, j = (draw(st.sampled_from([v for v in range(n) if v != k])) for _ in "ij")
        moduli[i] = moduli[j] = 0  # a torsion coordinate cannot feed the law
        carry = ((k, i, j, draw(st.sampled_from((-1, 1, 2)))),)
    terms = []
    for _ in range(draw(st.integers(0, 3))):
        shape = draw(st.sampled_from(("gh", "gh", "g", "h", "any")))
        if shape == "gh":
            e = draw_bilinear_exps(draw, n)
        elif shape == "any":
            e = tuple(draw(st.lists(st.integers(0, 2), min_size=2 * n, max_size=2 * n)))
        else:
            e = [0] * (2 * n)
            e[(n if shape == "h" else 0) + draw(st.integers(0, n - 1))] = draw(st.integers(1, 2))
        terms.append((tuple(e), draw_coefficient(draw, t)))
    return Cocycle(groups.GroupPresentation(tuple(moduli), carry), t, Poly.make(2 * n, t, terms))


def is_bilinear_on_carry_free(c):
    n = c.n
    return not c.group.bilinear and all(sum(e[:n]) == sum(e[n:]) == 1 for e, _ in c.phase.terms)


@settings(max_examples=300, deadline=None)
@given(validation_problems())
@example(phase_from_monomials(groups.abelian((2,)), PAIRING_TABLE, [(Fraction(1, 3), (1,), (1,))]))
def test_validate_cocycle_matches_the_unabridged_reference(c):
    assert validate_cocycle(c) == validate_cocycle_reference(c)


def test_validation_strategy_reaches_torsion_failures_on_the_bilinear_path():
    c = find(validation_problems(),
             lambda c: is_bilinear_on_carry_free(c) and c.phase.terms
             and "well defined modulo" in (validate_cocycle_reference(c) or ""),
             settings=settings(max_examples=2000, database=None))
    assert "well defined modulo" in validate_cocycle(c)


INTEGRALITY_TABLE = SymbolTable(thetas=("th",), xis=(("xi", 0), ("eta", 4), ("tau", 6)))


def binomial_poly(nv, js):
    """prod_i C(x_i, js[i]) as a Poly with rational coefficients."""
    t = INTEGRALITY_TABLE
    out = Poly.const(nv, t, 1)
    for i, j in enumerate(js):
        for r in range(j):
            out = out * (Poly.var(nv, t, i) - r)
        out = out.scale(Fraction(1, math.factorial(j)))
    return out


@st.composite
def integrality_problems(draw):
    """A polynomial in nv = 1..2 variables of degree <= 3 in each: a sum of
    multi-binomials prod C(x_i, j_i) times coefficients, plus at most one
    plain monomial.  In half the draws every coefficient is integral in each
    part (the rational one, and each torsion symbol's a multiple of its
    order), so the polynomial is integer-valued without integer
    coefficients; in the other half any part may fail."""
    t = INTEGRALITY_TABLE
    nv = draw(st.integers(1, 2))
    js = st.tuples(*[st.integers(0, 3)] * nv)
    valid = draw(st.booleans())
    bad = () if valid else (Fraction(1, 2), Fraction(-1, 3), Fraction(5, 6))
    coef = st.builds(lambda c, th, xi, eta, tau: knum(t, c, th=th, xi=xi, eta=eta, tau=tau),
                     st.sampled_from((0, 1, -2, 3) + bad),
                     st.sampled_from((0,) * 9 + (0 if valid else 1,)),
                     st.sampled_from((0,) * 9 + (0 if valid else Fraction(-1, 2),)),
                     st.sampled_from((0, 4, -8) + (() if valid else (2, Fraction(1, 2)))),
                     st.sampled_from((0, 6, -12) + (() if valid else (3, Fraction(3, 2)))))
    p = Poly.zero(nv, t)
    for exps, c in draw(st.lists(st.tuples(js, coef), max_size=4)):
        p = p + binomial_poly(nv, exps).scale(c)
    extra = st.tuples(js, st.sampled_from((Fraction(1, 2), Fraction(-2, 3),
                                           knum(t, 0, eta=Fraction(1, 2)))))
    for exps, c in draw(st.lists(extra, max_size=0 if valid else 1)):
        p = p + Poly.make(nv, t, [(exps, c)])
    return p


@settings(max_examples=400, deadline=None)
@given(integrality_problems())
@example(binomial_poly(1, (2,)) + binomial_poly(1, (3,)).scale(knum(INTEGRALITY_TABLE, 0, eta=8)))
@example(binomial_poly(2, (1, 2)).scale(knum(INTEGRALITY_TABLE, 0, tau=3, eta=2)))
def test_integer_integrality_test_matches_the_fraction_oracle_and_a_box(p):
    """integrality_violation's integer divisibility test, by den for the
    rational part and by m * den for a torsion symbol of order m, gives the
    Fraction binomial-basis oracle's exact reason, and passes exactly when
    every value on the box {-2..3}^nv, which holds {0..3}^nv and so decides
    integer-valuedness at degree <= 3, is integral for every admissible
    symbol assignment.  Each component's integer test also agrees with the
    oracle on its own."""
    t = INTEGRALITY_TABLE
    viol = integrality_violation(p, t)
    assert viol == integrality_violation_reference(p, t)
    box = itertools.product(range(-2, 4), repeat=p.nv)
    assert (viol is None) == all(knumber_is_integral(p.eval(pt), t) for pt in box)
    den = math.lcm(*(c.ints[0] for _, c in p.terms))
    for name, m in (("", 1), ("eta", 4), ("tau", 6)):  # the torsion symbols' own tests
        comp = symbol_component(p, name) if name else rational_component(p)
        numerators = {e: int(c * den) for e, c in comp.items()}
        assert _integer_valued(numerators, m * den) == is_integer_valued(
            {e: c / m for e, c in comp.items()}, p.nv)


@st.composite
def defect_problems(draw):
    """A phase with exponents up to 2 and rational, torsion-symbol and
    free-symbol coefficients on a random 2-step presentation of n = 1..4
    coordinates: each coordinate feeds the law, receives carries or neither;
    up to three carries; moduli from {0, 2, 3} on the non-feeding ones."""
    n = draw(st.integers(1, 4))
    t = PAIRING_TABLE
    roles = draw(st.lists(st.sampled_from(("feed", "receive", "none")), min_size=n, max_size=n))
    feed = [i for i in range(n) if roles[i] == "feed"]
    receive = [i for i in range(n) if roles[i] == "receive"]
    carries = []
    if feed and receive:
        for _ in range(draw(st.integers(0, 3))):
            carries.append((draw(st.sampled_from(receive)), draw(st.sampled_from(feed)),
                            draw(st.sampled_from(feed)), draw(st.sampled_from((-2, -1, 1, 3)))))
    moduli = [0 if roles[i] == "feed" else draw(st.sampled_from((0, 2, 3))) for i in range(n)]
    terms = [(tuple(draw(st.lists(st.integers(0, 2), min_size=2 * n, max_size=2 * n))),
              draw_coefficient(draw, t)) for _ in range(draw(st.integers(0, 4)))]
    group = groups.GroupPresentation(tuple(moduli), tuple(carries))
    return Cocycle(group, t, Poly.make(2 * n, t, terms))


@settings(max_examples=200, deadline=None)
@given(defect_problems())
def test_cocycle_defect_by_renaming_matches_four_substitutions(c):
    assert cocycle_defect(c) == cocycle_defect_reference(c)


@st.composite
def normalization_failures(draw):
    """A validation problem plus one g-only or h-only term whose coefficient
    is not integral: the normalization check sees it unless another term
    cancels it."""
    c = draw(validation_problems())
    n = c.n
    e = [0] * (2 * n)
    e[draw(st.sampled_from((0, n))) + draw(st.integers(0, n - 1))] = draw(st.integers(1, 2))
    t = c.table
    coef = draw(st.sampled_from((KNumber.make(t, Fraction(1, 2)), KNumber.make(t, Fraction(-1, 3)),
                                 symbol(t, "theta"), symbol(t, "xi"), symbol(t, "tau"))))
    return Cocycle(c.group, t, c.phase + Poly.make(2 * n, t, [(tuple(e), coef)]), c.correction)


@settings(max_examples=200, deadline=None)
@given(normalization_failures())
def test_normalization_by_restriction_matches_the_substitution_reference(c):
    want = validate_cocycle_reference(c)
    assume(want is not None and want.startswith("normalization"))
    assert validate_cocycle(c) == want


# ---------------------------------------------------------------------------
# coboundaries


def rand_phi(rng, g, t):
    n = g.n
    terms = []
    for _ in range(rng.randint(1, 3)):
        e = [0] * n
        e[rng.randrange(n)] = rng.randint(1, 2)
        coef = (knum(t, 0, theta=Fraction(rng.randint(-2, 2)))
                if rng.random() < 0.5 else
                KNumber.make(t, Fraction(rng.randint(-3, 3), rng.choice((1, 2)))))
        terms.append((tuple(e), coef))
    return Poly.make(n, t, terms)


def test_coboundary_twists_stay_valid_and_cohomologous():
    rng = random.Random(31)
    for base in (g3_cocycle(), heis_cocycle(3, 1)):
        g = base.group
        for _ in range(10):
            phi = rand_phi(rng, g, base.table)
            twisted = twist_by_coboundary(base, phi)
            assert validate_cocycle(twisted) is None
            for _ in range(20):
                x, y = (tuple(rng.randint(-3, 3) for _ in range(g.n)) for _ in "xy")
                diff = twisted.phase.eval(x + y) - base.phase.eval(x + y)
                assert diff == phi.eval(g.multiply(x, y)) - phi.eval(x) - phi.eval(y)


def test_twisted_center_invariant_under_coboundary():
    rng = random.Random(32)
    base = g3_cocycle()
    ctx = empty_context(base.table).assume_irrational(symbol(base.table, "theta"))
    want = leaf_lattices(twisted_center(base, ctx))
    for _ in range(5):
        phi = rand_phi(rng, base.group, base.table)
        got = leaf_lattices(twisted_center(twist_by_coboundary(base, phi), ctx))
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a.same_subgroup(b)


# ---------------------------------------------------------------------------
# quotients, inflation, induction


def heis_quotient(d2=3, p=2):
    c = heis_cocycle(d2, p)
    ctx = empty_context(c.table).assume_irrational(symbol(c.table, "theta"))
    [leaf] = twisted_center(c, ctx)
    qd = groups.quotient_by_central(c.group, leaf.lattice)
    return c, ctx, leaf, qd


def test_pull_back_composes_and_fixes_identity():
    rng = random.Random(47)
    t = theta_table()
    for _ in range(30):
        n1, n2, n3 = (rng.randint(1, 3) for _ in range(3))
        g1, g2, g3 = (groups.abelian((0,) * n) for n in (n1, n2, n3))
        a = [[rng.randint(-2, 2) for _ in range(n1)] for _ in range(n2)]
        b = [[rng.randint(-2, 2) for _ in range(n2)] for _ in range(n3)]
        ba = [[sum(b[i][k] * a[k][j] for k in range(n2)) for j in range(n1)]
              for i in range(n3)]
        base = rand_phase(rng, g3, t)
        c = Cocycle(g3, t, base.phase, rand_phase(rng, g3, t).phase)
        step_b = pull_back(c, groups.Morphism(g2, g3, tuple(map(tuple, b))))
        two_steps = pull_back(step_b, groups.Morphism(g1, g2, tuple(map(tuple, a))))
        direct = pull_back(c, groups.Morphism(g1, g3, tuple(map(tuple, ba))))
        assert direct.group == two_steps.group == g1
        assert (direct.phase - two_steps.phase).is_zero()
        assert (direct.correction - two_steps.correction).is_zero()
        ident = pull_back(c, groups.Morphism(g3, g3, tuple(map(tuple, zl.identity(n3)))))
        assert ident == c


def test_push_to_quotient_heisenberg_valid():
    c, ctx, leaf, qd = heis_quotient()
    w = push_to_quotient(c, qd)
    assert w.group.moduli == (3, 0, 0, 0, 0)
    assert validate_cocycle(w) is None


def test_inflation_of_pushdown_is_cohomologous_to_original():
    c, ctx, leaf, qd = heis_quotient()
    w = push_to_quotient(c, qd)
    back = pull_back(w, qd.projection)
    # sigma and Inf(omega) differ by the coboundary of a phase supported on
    # the killed coordinate; equality mod Z on the section image is exact
    rng = random.Random(41)
    n = c.n
    for _ in range(200):
        x = [rng.randint(0, 2), *(rng.randint(-4, 4) for _ in range(n - 1))]
        y = [rng.randint(0, 2), *(rng.randint(-4, 4) for _ in range(n - 1))]
        diff = c.phase.eval(tuple(x + y)) - back.phase.eval(tuple(x + y))
        assert knumber_is_integral(diff, c.table)


def test_induce_gamma_mints_free_symbol_and_correction():
    c, ctx, leaf, qd = heis_quotient()
    w = push_to_quotient(c, qd)
    wg = induce_gamma(w, qd)
    assert wg.table.torsion_order("gamma1") == 0
    assert "gamma1" in wg.table.names
    assert wg.correction is not None


def test_induced_antisym_matches_closed_form_heisenberg_formula():
    d2, p = 3, 2
    c, ctx, leaf, qd = heis_quotient(d2, p)
    w = push_to_quotient(c, qd)
    wg = induce_gamma(w, qd)
    q = antisym(wg)
    rng = random.Random(43)
    checked = 0
    grp = wg.group
    while checked < 120:
        x = [rng.randint(0, d2 - 1), d2 * rng.randint(-2, 2), rng.randint(-3, 3),
             rng.randint(-3, 3), rng.randint(-3, 3)]
        y = [rng.randint(0, d2 - 1), d2 * rng.randint(-2, 2), rng.randint(-3, 3),
             rng.randint(-3, 3), rng.randint(-3, 3)]
        if commutator(grp, x, y) != grp.identity():
            continue
        checked += 1
        got = q.eval(tuple(x) + tuple(y))
        # expected: gamma((t1 s1' - t1' s1 + d2(t2 s2' - t2' s2), 0, 0))
        #            * e^{2 pi i theta (s2' t2 - s2 t2')}
        # our gamma1 is the phase of gamma at the lattice generator (d2,0,0):
        # gamma((k,0,0)) = e^{2 pi i gamma1 k / d2}
        kcomm = x[3] * y[1] - y[3] * x[1] + d2 * (x[4] * y[2] - y[4] * x[2])
        want_gamma = Fraction(kcomm, d2)
        want_theta = Fraction(y[2] * x[4] - x[2] * y[4])
        assert (coeff(got, "gamma1") - want_gamma).denominator == 1
        assert coeff(got, "theta") == want_theta
        assert rational_part(got).denominator == 1


def test_section_choice_does_not_change_downstream_twisted_centers():
    c, ctx, leaf, qd = heis_quotient()
    # alternative section: lift [r,s,t] to (r + d2*s1, s, t)
    qd2 = shifted_section(qd, {1: (3, 0, 0, 0, 0)})
    w1 = induce_gamma(push_to_quotient(c, qd), qd)
    w2 = induce_gamma(push_to_quotient(c, qd2), qd2)
    l1 = twisted_center(w1, ctx)
    l2 = twisted_center(w2, ctx)
    assert len(l1) == len(l2)
    for a, b in zip(l1, l2):
        assert a.lattice.same_subgroup(b.lattice)


def test_g3_induction_adds_bilinear_gamma_phase_without_correction():
    c = g3_cocycle()
    ctx = empty_context(c.table).assume_irrational(symbol(c.table, "theta"))
    [leaf] = twisted_center(c, ctx)
    qd = groups.quotient_by_central(c.group, leaf.lattice)
    w = push_to_quotient(c, qd)
    wg = induce_gamma(w, qd)
    assert wg.correction is None
    # defect of the linear section is r1 s2 into the killed coordinate
    diff = wg.phase - w.phase.rebase(wg.table)
    pts = [(1, 0, 0, 0, 0, 0, 1, 0, 0, 0), (2, 0, 0, 0, 0, 0, 3, 0, 0, 0)]
    for pt in pts:
        assert coeff(diff.eval(pt), "gamma1") == pt[0] * pt[6]


# ---------------------------------------------------------------------------
# phi_D and products


def test_phi_map_heisenberg_kernel_and_surjectivity():
    d2, p = 3, 2
    c, ctx, leaf, qd = heis_quotient(d2, p)
    w = push_to_quotient(c, qd)
    dlat = zl.SubgroupLattice(w.group.moduli, ((1, 0, 0, 0, 0),))
    leaves, rows, zmods = phi_map(w, dlat, ctx)
    assert len(leaves) == 1
    want = zl.SubgroupLattice(w.group.moduli, (
        (1, 0, 0, 0, 0), (0, d2, 0, 0, 0), (0, 0, 1, 0, 0),
        (0, 0, 0, 1, 0), (0, 0, 0, 0, 1)))
    assert leaves[0].lattice.same_subgroup(want)
    full, reason = phi_surjective(rows, zmods, w.group, ctx)
    assert full is True


def test_phi_map_trivial_d():
    c = g3_cocycle()
    ctx = empty_context(c.table)
    dlat = zl.zero_lattice(c.group.moduli)
    leaves, rows, zmods = phi_map(c, dlat, ctx)
    assert leaves[0].lattice.same_subgroup(c.group.full_lattice())


def test_product_split_torus():
    g = groups.abelian((0, 0))
    t = theta_table()
    c = phase_from_monomials(g, t, [(knum(t, 0, theta=1), (0, 1), (1, 0))])
    out = product_split(c, 1)
    assert out is not None
    s1, s2, fmat = out
    assert s1.phase.is_zero() and s2.phase.is_zero()
    assert fmat[0][0] == knum(t, 0, theta=1)


def test_product_split_rejects_cubic_cross_terms():
    g = groups.abelian((0, 0))
    t = theta_table()
    c = phase_from_monomials(g, t, [(knum(t, 0, theta=1), (0, 2), (1, 0))])
    assert product_split(c, 1) is None
