import itertools
import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from cocycle_lab.exact import (
    INTEGER,
    Classification,
    IRRATIONAL,
    RATIONAL,
    UNDETERMINED,
    KNumber,
    RationalityContext,
    SymbolTable,
    empty_context,
    knum,
    symbol,
)

from cocycle_lab.exact import _direction
from helpers import (coeff, collinear, consistent_reference, examples, rational_part,
                     symbol_coefficients, theta_axiom_reference)

T = SymbolTable(thetas=("theta",), xis=(("xi", 0), ("eta", 3)))


def test_add_inverse():
    th = symbol(T, "theta")
    assert (th + (-th)).is_zero()


def test_scale_distributes():
    x = knum(T, Fraction(1, 2), theta=1)
    assert x.scale(2) == knum(T, 1, theta=2)


def test_scalar_multiple():
    # 3 * t1 with a symbol standing for a product of reals
    t = SymbolTable(xis=(("t1", 0),))
    x = symbol(t, "t1") * 3
    assert x == knum(t, 0, t1=3)
    # oracle: evaluate both sides at a random rational value of t1
    rng = random.Random(1)
    for _ in range(20):
        val = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        assert rational_part(x) + coeff(x, "t1") * val == 3 * val


def test_symbol_products_rejected():
    th = symbol(T, "theta")
    xi = symbol(T, "xi")
    with pytest.raises(ValueError):
        th * xi


def test_add_assoc_comm_random():
    rng = random.Random(5)

    def rand_k():
        return knum(
            T,
            Fraction(rng.randint(-4, 4), rng.randint(1, 4)),
            theta=Fraction(rng.randint(-4, 4), rng.randint(1, 4)),
            xi=rng.randint(-3, 3),
        )

    for _ in range(100):
        a, b, c = rand_k(), rand_k(), rand_k()
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        q = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        assert (a + b).scale(q) == a.scale(q) + b.scale(q)


def test_classify_constants():
    ctx = empty_context(T)
    assert ctx.classify(knum(T, 3)).kind == INTEGER
    c = ctx.classify(knum(T, Fraction(3, 2)))
    assert c.kind == RATIONAL and c.denominator == 2


def test_classify_theta_axiom():
    ctx = empty_context(T)
    assert ctx.classify(symbol(T, "theta")).kind == IRRATIONAL
    assert ctx.classify(knum(T, Fraction(1, 2), theta=Fraction(2, 3))).kind == IRRATIONAL


def test_classify_free_parameter():
    ctx = empty_context(T)
    assert ctx.classify(symbol(T, "xi")).kind == UNDETERMINED
    # asserting rationality must yield a rational class, never Undetermined
    ctx2 = ctx.assume_rational(symbol(T, "xi"))
    c = ctx2.classify(symbol(T, "xi"))
    assert c.kind == RATIONAL and c.denominator is None


def test_classify_torsion_parameter():
    ctx = empty_context(T)
    c = ctx.classify(symbol(T, "eta"))  # 3*eta is an integer by declaration
    assert c.kind == RATIONAL and c.denominator == 3
    c = ctx.classify(symbol(T, "eta", 3))
    assert c.kind == INTEGER
    c = ctx.classify(symbol(T, "eta", 2))
    assert c.kind == RATIONAL and c.denominator == 3


def test_classify_integral_fact():
    ctx = empty_context(T).assume_integral(symbol(T, "xi", 2))
    c = ctx.classify(symbol(T, "xi", 4))
    assert c.kind == INTEGER
    c = ctx.classify(symbol(T, "xi") + Fraction(1, 2))
    # 2*xi in Z, so xi + 1/2 in (1/2)Z
    assert c.kind == RATIONAL and c.denominator == 2
    # a fact with a constant: xi + 1/3 in Z puts xi in -1/3 + Z
    ctx = empty_context(T).assume_integral(symbol(T, "xi") + Fraction(1, 3))
    assert ctx.classify(symbol(T, "xi") + Fraction(4, 3)).kind == INTEGER
    c = ctx.classify(symbol(T, "xi", 2))
    assert c.kind == RATIONAL and c.denominator == 3


def test_classify_with_torsion_and_integral_facts_matches_closed_form():
    """When every parameter xi_i has m_i * xi_i in Z, by its torsion order or
    by an integral fact, and nothing else is known, xi_i ranges over
    (1/m_i)Z independently, so c + sum(v_i * xi_i) has least denominator
    lcm(den c, den(v_i / m_i))."""
    rng = random.Random(71)
    for _ in range(150):
        k = rng.randint(1, 3)
        ms = [rng.randint(1, 6) for _ in range(k)]
        by_fact = [rng.random() < 0.5 for _ in range(k)]
        table = SymbolTable(xis=tuple((f"x{i}", 0 if f else m)
                                      for i, (m, f) in enumerate(zip(ms, by_fact))))
        ctx = empty_context(table)
        for i, (m, f) in enumerate(zip(ms, by_fact)):
            if f:
                ctx = ctx.assume_integral(symbol(table, f"x{i}", m))
        c = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        vs = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(k)]
        x = knum(table, c, **{f"x{i}": v for i, v in enumerate(vs)})
        den = math.lcm(c.denominator, *((v / m).denominator for v, m in zip(vs, ms)))
        got = ctx.classify(x)
        assert (got.kind, got.denominator) == (INTEGER if den == 1 else RATIONAL, den)


def test_classify_mixed_theta_xi():
    ctx = empty_context(T)
    x = symbol(T, "theta") + symbol(T, "xi")
    assert ctx.classify(x).kind == UNDETERMINED
    # once xi is rational, theta + xi is forced irrational
    ctx2 = ctx.assume_rational(symbol(T, "xi"))
    assert ctx2.classify(x).kind == IRRATIONAL
    # once xi is declared irrational collinearly, xi itself is irrational
    ctx3 = ctx.assume_irrational(symbol(T, "xi"))
    assert ctx3.classify(symbol(T, "xi", 5)).kind == IRRATIONAL


def test_split_binary_dichotomy():
    ctx = empty_context(T)
    rat, irr = ctx.split(symbol(T, "xi"))
    assert rat is not None and irr is not None
    assert rat.classify(symbol(T, "xi")).kind == RATIONAL
    assert irr.classify(symbol(T, "xi")).kind == IRRATIONAL


def test_split_inconsistent_branch_dropped():
    ctx = empty_context(T).assume_rational(symbol(T, "xi"))
    x = symbol(T, "xi") + symbol(T, "theta")
    rat, irr = ctx.split(x)
    assert rat is None  # xi + theta rational would force theta rational
    assert irr is not None


def test_consistency_rejects_rational_theta():
    ctx = empty_context(T).assume_rational(symbol(T, "theta"))
    assert not ctx.is_consistent()
    # combination: xi rational and xi + theta rational => theta rational
    ctx = (
        empty_context(T)
        .assume_rational(symbol(T, "xi"))
        .assume_rational(symbol(T, "xi") + symbol(T, "theta"))
    )
    assert not ctx.is_consistent()


def test_consistency_irrational_in_span():
    ctx = empty_context(T).assume_rational(symbol(T, "xi")).assume_irrational(symbol(T, "xi", 2))
    assert not ctx.is_consistent()
    ctx = empty_context(T).assume_irrational(knum(T, Fraction(7, 2)))
    assert not ctx.is_consistent()


def test_rebase_to_extended_table():
    x = knum(T, 1, theta=2)
    t2 = T.with_xis((("gamma1", 5),))
    y = x.rebase(t2)
    assert rational_part(y) == 1 and coeff(y, "theta") == 2
    assert t2.torsion_order("gamma1") == 5


def brute_force_span_member(target, forms, coeff_range=2):
    """Exhaustive small-coefficient Q-combination search (consistency oracle)."""
    from fractions import Fraction as F

    ratios = [F(p, q) for p in range(-coeff_range, coeff_range + 1) for q in (1, 2)]
    for combo in itertools.product(ratios, repeat=len(forms)):
        acc = [sum(c * f[i] for c, f in zip(combo, forms)) for i in range(len(target))]
        if acc == list(target):
            return True
    return False


def test_span_membership_matches_brute_force():
    rng = random.Random(9)
    t = SymbolTable(thetas=("a", "b"), xis=(("c", 0), ("d", 0)))
    for _ in range(30):
        forms = [tuple(Fraction(rng.randint(-2, 2)) for _ in range(4)) for _ in range(2)]
        target = tuple(Fraction(rng.randint(-2, 2)) for _ in range(4))
        ctx = RationalityContext(
            t,
            rational=tuple(
                KNumber.make(t, 0, dict(zip(t.names, f))) for f in forms if any(f)
            ),
        )
        x = KNumber.make(t, 0, dict(zip(t.names, target)))
        in_span = ctx.classify(x).kind in (INTEGER, RATIONAL) if any(target) else True
        brute = brute_force_span_member(target, [f for f in forms if any(f)])
        if brute:
            assert in_span  # small-coefficient representation found by brute force
        # (brute force misses large-coefficient representations; one-sided check
        # suffices with coefficients this small a false negative did not occur)


@settings(deadline=None)
@given(
    st.integers(-6, 6),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)
def test_classify_monotone_under_refinement(k, a, b):
    # refining a context never moves a determined value back to Undetermined
    x = knum(T, Fraction(k, 3), theta=a, xi=b)
    base = empty_context(T)
    refined = base.assume_rational(symbol(T, "xi"))
    k0 = base.classify(x).kind
    k1 = refined.classify(x).kind
    if k0 != UNDETERMINED:
        assert k1 != UNDETERMINED


def test_split_soundness_by_sampling():
    # for concrete assignments, exactly one child admits the value
    ctx = empty_context(T)
    rat, irr = ctx.split(symbol(T, "xi"))
    # rational sample xi = 5/7 belongs to the rational child only
    assert rat.classify(symbol(T, "xi")).kind in (INTEGER, RATIONAL)
    assert irr.classify(symbol(T, "xi")).kind == IRRATIONAL
    # both children stay consistent
    assert rat.is_consistent() and irr.is_consistent()


# memoized classification: strategies over a table with a theta, a free
# parameter pair and a torsion parameter
U = SymbolTable(thetas=("theta",), xis=(("xi", 0), ("zeta", 0), ("eta", 3)))
small = st.fractions(min_value=-2, max_value=2, max_denominator=3)
knumbers = st.builds(lambda c, th, x, z, e: knum(U, c, theta=th, xi=x, zeta=z, eta=e),
                     small, st.integers(-2, 2), small, st.integers(-2, 2), st.integers(-1, 1))


@st.composite
def contexts(draw):
    ctx = empty_context(U)
    for method in draw(st.lists(st.sampled_from(["assume_rational", "assume_integral",
                                                 "assume_irrational"]), max_size=3)):
        ctx = getattr(ctx, method)(draw(knumbers))
    return ctx


def fresh_copy(ctx):
    return RationalityContext(ctx.table, ctx.rational, ctx.integral, ctx.irrational,
                              ctx.assumptions)


@settings(deadline=None)
@given(contexts(), st.lists(knumbers, min_size=1, max_size=3), small)
def test_memoized_classify_agrees_with_fresh_context(ctx, xs, shift):
    xs = xs + list(ctx.rational + ctx.integral)  # values with a known denominator
    xs = xs + [x + shift for x in xs]  # same symbol part, another constant
    first = [ctx.classify(x) for x in xs]
    assert [ctx.classify(x) for x in xs] == first  # answered from the memo
    assert fresh_copy(ctx) == ctx
    assert [fresh_copy(ctx).classify(x) for x in xs] == first  # one empty memo each


@settings(deadline=None)
@given(contexts(), knumbers)
def test_split_children_do_not_share_the_parent_memo(ctx, x):
    assume(ctx.is_consistent() and ctx.classify(x).kind == UNDETERMINED)
    rat, irr = ctx.split(x)
    if rat is not None:
        assert rat.classify(x).kind in (INTEGER, RATIONAL)
    if irr is not None:
        assert irr.classify(x).kind == IRRATIONAL
    assert ctx.classify(x).kind == UNDETERMINED
    assert fresh_copy(ctx).classify(x).kind == UNDETERMINED


def test_split_settles_a_rational_child_only_where_the_proof_holds():
    """The rational child of split(x) is set consistent only for an
    undetermined x in a consistent context, a theta in the table or not:
    split on an irrational x, or in an inconsistent context, still finds
    the rational child inconsistent."""
    for thetas in ((), ("theta",)):
        t = SymbolTable(thetas=thetas, xis=(("xi", 0), ("zeta", 0)))
        xi, zeta = symbol(t, "xi"), symbol(t, "zeta")
        ctx = empty_context(t).assume_irrational(xi + zeta)
        assert ctx.split(xi + zeta)[0] is None
        assert ctx.split(xi)[0].is_consistent()
        broken = ctx.assume_irrational(knum(t, Fraction(1, 2)))
        assert broken.split(xi) == (None, None)


def test_a_mixed_rational_fact_leaves_both_its_symbols_irrational():
    """With theta + x rational, x = q - theta for a rational q, so theta and
    x are both irrational by the theta axiom, and split(x) has no rational
    child.  Span vectors list the xis first, so the span's one row pivots
    on x and theta's vector reduces to itself."""
    t = SymbolTable(thetas=("theta",), xis=(("x", 0),))
    theta, x = symbol(t, "theta"), symbol(t, "x")
    ctx = empty_context(t).assume_rational(theta + x)
    assert ctx.is_consistent()
    assert [ctx.classify(y).kind for y in (theta, x, x.scale(3) + 1)] == [IRRATIONAL] * 3
    assert ctx.classify(theta + x + Fraction(1, 2)) == Classification(RATIONAL, None)
    rat, irr = ctx.split(x)
    assert rat is None and irr.is_consistent()


@st.composite
def primitive_vectors(draw, n):
    v = draw(st.lists(st.integers(-6, 6), min_size=n, max_size=n).filter(any))
    g = math.gcd(*v)
    return [x // g for x in v]


@st.composite
def residual_sets(draw):
    """A nonzero primitive residual and a list of irrational residuals of
    its length: primitive vectors, the residual itself with either sign,
    and the zero vector an inconsistent context's constant fact leaves."""
    n = draw(st.integers(1, 5))
    a = draw(primitive_vectors(n))
    b = st.one_of(primitive_vectors(n), st.sampled_from([a, [-x for x in a], [0] * n]))
    return a, draw(st.lists(b, max_size=4))


@settings(max_examples=examples(2), deadline=None)
@given(residual_sets())
def test_the_irrational_set_test_is_the_collinear_scan(case):
    """A residual is collinear with an irrational fact's residual exactly
    when its sign-normalized tuple lies in the set of theirs: two nonzero
    primitive vectors are collinear over Q iff they agree up to sign."""
    a, residuals = case
    directions = {_direction(b) for b in residuals} - {None}
    assert (_direction(a) in directions) == any(collinear(a, b) for b in residuals)
    assert _direction(a) == _direction([-x for x in a]) and next(filter(None, _direction(a))) > 0


# extended children: a child made by assume_*() or split() is built bare and
# fills its caches from its own facts.  Tables with zero to three thetas, free parameters, and
# torsion parameters before, between or after the free ones.
EXTENSION_TABLES = [
    SymbolTable(thetas=("theta", "phi"), xis=(("xi", 0), ("zeta", 0), ("eta", 3))),
    SymbolTable(thetas=("theta", "phi"), xis=(("eta", 2), ("xi", 0), ("zeta", 0))),
    SymbolTable(thetas=("theta",), xis=(("xi", 0), ("eta", 2), ("zeta", 0), ("mu", 6))),
    SymbolTable(thetas=("theta", "phi", "psi"), xis=(("xi", 0), ("eta", 4))),
    SymbolTable(thetas=(), xis=(("xi", 0), ("zeta", 0), ("eta", 3))),
]
KINDS = ("rational", "integral", "irrational")
COEFFS = st.sampled_from((0, 0, 1, -1, 2, Fraction(1, 2)))
CONSTS = st.sampled_from((0, 1, -1, Fraction(1, 2), Fraction(-2, 3)))


def table_values(table):
    return st.builds(lambda c, cs: KNumber.make(table, c, dict(zip(table.names, cs))),
                     CONSTS, st.tuples(*[COEFFS] * len(table.names)))


EXTENSION_VALUES = [(t, table_values(t)) for t in EXTENSION_TABLES]


@st.composite
def extension_chains(draw):
    """A table, then up to 4 steps (an assume_*() or a split() kept on one
    side), each with values the parent classifies first and probes, values
    the parent classifies after the step, and whether the parent classifies
    the step's value first: split() then hands both children the residual
    that classify left, or reduces it."""
    table, values = draw(st.sampled_from(EXTENSION_VALUES))
    steps = draw(st.lists(st.tuples(st.sampled_from(("assume", "split")),
                                    st.sampled_from(KINDS), values,
                                    st.lists(values, max_size=3), st.lists(values, max_size=3),
                                    st.lists(values, max_size=3), st.booleans()),
                          min_size=1, max_size=4))
    return table, steps


def fresh_child(ctx, kind, x):
    facts = {k: getattr(ctx, k) for k in KINDS}
    facts[kind] += (x,)
    return RationalityContext(ctx.table, **facts)


CACHES = ("_span", "_fact_parts", "_irrational_residuals")


@settings(max_examples=examples(3), deadline=None)
@given(extension_chains())
def test_extended_children_agree_with_fresh_contexts(chain):
    """Every child, both of a split's included, classifies as a context
    built from its facts does, right after the step and again after its
    parent has classified further values.  A child nothing has classified
    in has built no cache and holds no memo entry but x's; only split()'s
    rational child with an open consistency builds its span, to check it,
    and an irrational child takes its consistency from x's residual in the
    parent (its classify's or a new one).  The chain goes on from the child
    of the drawn kind."""
    table, steps = chain
    ctx = empty_context(table)
    for how, kind, x, warm, probes, later, first in steps:
        warm = warm + ([x, x.scale(Fraction(1, 2)), x + Fraction(1, 3)] if first else [])
        parent = [ctx.classify(y) for y in warm]
        children, checked = [], None
        if how == "split" and kind != "integral":
            fresh = fresh_copy(ctx)  # whether split() knows the rational child's consistency
            settled = fresh.is_consistent() and fresh.classify(x).kind == UNDETERMINED
            rat, irr = ctx.split(x)
            checked = None if settled else rat
            for got, k in ((rat, "rational"), (irr, "irrational")):
                assert (got is None) == (not fresh_child(ctx, k, x).is_consistent())
            children = [c for c in (rat, irr) if c is not None]
            child = rat if kind == "rational" else irr
        else:
            child = None
        if child is None:  # keep going from an inconsistent child too
            child = getattr(ctx, "assume_" + kind)(x)
            children.append(child)
        for c in children:
            assert set(c._classified) <= {x.ints}
            assert c is checked or not set(CACHES) & c.__dict__.keys()
        for c in children:
            fresh = fresh_copy(c)
            assert c.is_consistent() == fresh.is_consistent()
            ys = warm + [x] + probes + list(c.rational + c.integral + c.irrational)
            assert [c.classify(y) for y in ys] == [fresh.classify(y) for y in ys]
        # the parent is left as it was
        assert [ctx.classify(y) for y in warm] == parent
        assert [ctx.classify(y) for y in probes] == [fresh_copy(ctx).classify(y) for y in probes]
        # classifying further values in the parent leaves each child as it was
        assert [ctx.classify(y) for y in later] == [fresh_copy(ctx).classify(y) for y in later]
        for c in children:
            assert [c.classify(y) for y in later] == [fresh_copy(c).classify(y) for y in later]
        ctx = child


@st.composite
def theta_contexts(draw):
    """A table with zero to three thetas and up to three xis, free or with a
    torsion order, facts of each kind over it that mix thetas and xis, and
    values to classify."""
    thetas = ("theta", "phi", "psi")[:draw(st.integers(0, 3))]
    orders = draw(st.lists(st.sampled_from((0, 0, 2, 3)), min_size=0 if thetas else 1,
                           max_size=3))
    table = SymbolTable(thetas=thetas, xis=tuple((f"x{i}", m) for i, m in enumerate(orders)))
    values = table_values(table)
    facts = {k: tuple(draw(st.lists(values, max_size=2))) for k in KINDS}
    return table, facts, draw(st.lists(values, min_size=1, max_size=4))


@settings(max_examples=examples(3), deadline=None)
@given(theta_contexts())
def test_consistency_and_the_theta_axiom_agree_with_ranks(case):
    """is_consistent() and the theta axiom's IRRATIONAL answers agree with
    the rank-based references of tests/helpers.py, which use no QEchelon,
    for a context built from its facts and one built fact by fact.  Without
    irrational facts a value is IRRATIONAL only by the theta axiom."""
    table, facts, xs = case
    rational, integral, irrational = (facts[k] for k in KINDS)
    want = consistent_reference(table, rational, integral, irrational)
    chained = empty_context(table)
    for kind in KINDS:
        for f in facts[kind]:
            chained = getattr(chained, "assume_" + kind)(f)
    assert RationalityContext(table, **facts).is_consistent() == chained.is_consistent() == want
    span_only = RationalityContext(table, rational, integral)
    if span_only.is_consistent():
        for x in xs + list(irrational):
            assert ((span_only.classify(x).kind == IRRATIONAL)
                    == theta_axiom_reference(table, rational, integral, x))


@st.composite
def undetermined_splits(draw):
    """A context over any extension table, grown by up to three facts of
    any kind, and a value it leaves undetermined."""
    table, values = draw(st.sampled_from(EXTENSION_VALUES))
    ctx = empty_context(table)
    for kind in draw(st.lists(st.sampled_from(KINDS), max_size=3)):
        ctx = getattr(ctx, "assume_" + kind)(draw(values))
    x = draw(values)
    assume(ctx.classify(x).kind == UNDETERMINED)
    return ctx, x


def classify_counting_misses(ctx, x):
    misses = []
    real = RationalityContext._classify
    with mock.patch.object(RationalityContext, "_classify",
                           lambda self, y: misses.append(y) or real(self, y)):
        return ctx.classify(x), misses


@settings(deadline=None)
@given(undetermined_splits())
def test_rational_split_child_knows_the_value_it_split_on(split):
    """The rational child of split(x) answers classify(x) from its memo,
    with thetas or without, beside integral facts with a symbol part and
    torsion axioms or not, and the answer is a freshly built context's."""
    ctx, x = split
    rat, _ = ctx.split(x)
    assume(rat is not None)
    got, misses = classify_counting_misses(rat, x)
    assert misses == []
    assert got == fresh_copy(rat).classify(x) == Classification(RATIONAL, None)


@settings(max_examples=examples(3), deadline=None)
@given(undetermined_splits(), st.data())
def test_split_children_classify_what_their_parent_settled_as_it_did(split, data):
    """split()'s lemma: in a consistent context with x UNDETERMINED both
    children are consistent, and every value the context classified
    INTEGER, RATIONAL or IRRATIONAL before the split classifies the same in
    each child, in the context and in a context built from the child's
    facts.  This is what lets condition_lattice hand a child its path's
    classes.  The drawn values include the facts and their multiples and
    shifts, so each kind occurs."""
    ctx, x = split
    assume(ctx.is_consistent())
    table = ctx.table
    drawn = data.draw(st.lists(table_values(table), max_size=4))
    facts = list(ctx.rational + ctx.integral + ctx.irrational)
    ys = drawn + facts + [f.scale(q) + c for f in facts
                          for q, c in ((2, 0), (Fraction(1, 2), 1), (-1, Fraction(1, 3)))]
    settled = [(y, cls) for y in ys if (cls := ctx.classify(y)).kind != UNDETERMINED]
    rat, irr = ctx.split(x)
    assert rat is not None and irr is not None
    assert (rat.classify(x), irr.classify(x)) == (Classification(RATIONAL, None),
                                                  Classification(IRRATIONAL))
    for child in (rat, irr):
        fresh = fresh_copy(child)
        assert fresh.is_consistent()
        for y, cls in settled:
            assert child.classify(y) == ctx.classify(y) == fresh.classify(y) == cls


def test_only_split_records_the_value_it_split_on():
    """assume_rational(x) classifies x afresh, to the answer split(x)'s
    rational child records, thetas, an integral fact with a symbol part
    and a torsion axiom present or not."""
    for thetas in (("theta",), ()):
        t = SymbolTable(thetas=thetas, xis=(("xi", 0), ("zeta", 0), ("eta", 2)))
        xi, zeta = symbol(t, "xi"), symbol(t, "zeta")
        ctx = empty_context(t).assume_integral(xi + zeta)
        assert ctx.classify(xi).kind == UNDETERMINED
        for child, recorded in ((ctx.split(xi)[0], True), (ctx.assume_rational(xi), False)):
            got, misses = classify_counting_misses(child, xi)
            assert misses == ([] if recorded else [xi])
            assert got == fresh_copy(child).classify(xi) == Classification(RATIONAL, None)


# canonical constructors: inputs of any scalar type, outputs always canonical
scalars = st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=4))
raw_coeffs = st.lists(st.tuples(st.sampled_from(U.names), scalars), max_size=6)


def model(const, coeffs):
    """Value of make(U, const, coeffs) as (Fraction, {name: nonzero Fraction})."""
    out = {}
    for n, c in coeffs:
        out[n] = out.get(n, 0) + Fraction(c)
    return Fraction(const), {n: c for n, c in out.items() if c}


def assert_canonical(x, value):
    assert type(rational_part(x)) is Fraction
    assert all(type(c) is Fraction and c for _, c in symbol_coefficients(x))
    order = [U.names.index(n) for n, _ in symbol_coefficients(x)]
    assert order == sorted(set(order))  # table order, each symbol once
    assert (rational_part(x), dict(symbol_coefficients(x))) == value


@settings(max_examples=examples(3), deadline=None)
@given(scalars, raw_coeffs, st.booleans(), scalars, raw_coeffs, scalars)
def test_constructors_and_arithmetic_stay_canonical(c1, k1, as_dict, c2, k2, q):
    a = KNumber.make(U, c1, model(0, k1)[1] if as_dict else k1)
    b = KNumber.make(U, c2, k2)
    va, vb = model(c1, k1), model(c2, k2)
    assert_canonical(a, va)
    assert_canonical(b, vb)

    def lin(u, su, v, sv):
        names = set(u[1]) | set(v[1])
        coeffs = {n: su * u[1].get(n, 0) + sv * v[1].get(n, 0) for n in names}
        return su * u[0] + sv * v[0], {n: c for n, c in coeffs.items() if c}

    zero = (Fraction(0), {})
    assert_canonical(a + b, lin(va, 1, vb, 1))
    assert_canonical(a - b, lin(va, 1, vb, -1))
    assert_canonical(a + q, lin(va, 1, (Fraction(q), {}), 1))
    assert_canonical(q - a, lin((Fraction(q), {}), 1, va, -1))
    assert_canonical(a.scale(q), lin(va, Fraction(q), zero, 0))
    assert_canonical(a * q, lin(va, Fraction(q), zero, 0))
    rational_b = KNumber.make(U, c2)
    assert_canonical(a * rational_b, lin(va, Fraction(c2), zero, 0))
    assert_canonical(rational_b * a, lin(va, Fraction(c2), zero, 0))


def assert_matches_sympy(sympy, got, expr):
    """got's constant and symbol coefficients equal those of expr, term by term."""
    syms = [sympy.Symbol(n) for n in got.table.names]
    want = {e: c for e, c in sympy.Poly(sympy.expand(expr), *syms).as_dict().items() if c != 0}
    mine = {tuple(int(n == m) for m in got.table.names): sympy.Rational(c.numerator, c.denominator)
            for n, c in (("", rational_part(got)),) + symbol_coefficients(got) if c}
    assert mine == want


def test_arithmetic_matches_sympy_term_by_term():
    """+, -, *, scale, make and rebase agree with sympy's arithmetic on the
    same linear forms, coefficient by coefficient."""
    sympy = pytest.importorskip("sympy")
    rng = random.Random(61)
    wide = T.with_xis((("zeta", 0),))

    def scalar():
        return rng.choice((rng.randint(-4, 4), Fraction(rng.randint(-6, 6), rng.randint(1, 6))))

    def raw():
        return [(rng.choice(T.names), scalar()) for _ in range(rng.randint(0, 5))]

    def form(const, coeffs):
        return sympy.Rational(const) + sum(sympy.Rational(c) * sympy.Symbol(n) for n, c in coeffs)

    for _ in range(200):
        ka, kb, ca, cb, q = raw(), raw(), scalar(), scalar(), scalar()
        a, b, rb = KNumber.make(T, ca, ka), KNumber.make(T, cb, kb), KNumber.make(T, cb)
        sa, sb, sq = form(ca, ka), form(cb, kb), sympy.Rational(q)
        assert_matches_sympy(sympy, a, sa)
        assert_matches_sympy(sympy, a + b, sa + sb)
        assert_matches_sympy(sympy, a - b, sa - sb)
        assert_matches_sympy(sympy, -a, -sa)
        assert_matches_sympy(sympy, a + q, sa + sq)
        assert_matches_sympy(sympy, q - a, sq - sa)
        assert_matches_sympy(sympy, a.scale(q), sq * sa)
        assert_matches_sympy(sympy, a * rb, sa * sympy.Rational(cb))
        assert_matches_sympy(sympy, rb * a, sa * sympy.Rational(cb))
        rebased = a.rebase(wide)
        assert rebased.table is wide
        assert_matches_sympy(sympy, rebased, sa)
