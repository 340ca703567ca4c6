import collections
import hashlib
import itertools
import json
import math
import random
import sys
from fractions import Fraction

import pytest

from cocycle_lab import cocycles, decision, exact, groups, zlinalg as zl
from cocycle_lab.cocycles import CocycleError, phase_from_monomials, twisted_center
from cocycle_lab.decision import (NOT_ZSTABLE, SIMPLE_NO, SIMPLE_UNKNOWN,
                                  SIMPLE_YES, UNDECIDED, ZSTABLE, Analysis,
                                  Inapplicable, decide, decide_abelian, decide_heisenberg,
                                  decide_product, decide_simplicity,
                                  decide_two_step)
from cocycle_lab.exact import KNumber, SymbolTable, empty_context, knum, symbol
from cocycle_lab.poly import Poly
from cocycle_lab.problem import load_problem, parse_problem

from helpers import box, commutator, symbol_names, twist_by_coboundary
from test_cli import all_fixtures, fixture
from test_cocycles import g3_cocycle, heis_cocycle, theta_table


def trace_depth(node):
    below = [trace_depth(b.child) for b in node.branches if b.child]
    return 1 + (max(below) if below else 0)


def walk(node):
    yield node
    for b in node.branches:
        if b.child:
            yield from walk(b.child)


# ---------------------------------------------------------------------------
# the general recursion on worked examples


def test_heisenberg_trivial_cocycle_is_rational():
    g = groups.heisenberg_diag((1,))
    v = decide(phase_from_monomials(g, SymbolTable(), []))
    assert v.z_stable == NOT_ZSTABLE
    assert v.pure == NOT_ZSTABLE and v.nowhere_scattered == NOT_ZSTABLE


def test_free_two_step_theta_phase_is_zstable():
    v = decide(g3_cocycle())
    assert v.z_stable == ZSTABLE
    # stabilizes after one quotient: every level-1 leaf is terminal
    assert trace_depth(v.certificate) == 2


def test_zstable_flags_agree():
    for c in (g3_cocycle(), phase_from_monomials(groups.abelian((0, 0)), SymbolTable(), [])):
        v = decide(c)
        assert v.pure == v.z_stable == v.nowhere_scattered


def test_integer_lattice_trivial_cocycle_is_rational():
    v = decide(phase_from_monomials(groups.abelian((0,)), SymbolTable(), []))
    assert v.z_stable == NOT_ZSTABLE


def test_finite_group_is_always_rational():
    v = decide(phase_from_monomials(groups.abelian((2, 4)), SymbolTable(), []))
    assert v.z_stable == NOT_ZSTABLE
    assert "finite" in v.certificate.notes[0]


def test_recursion_depth_bounded_by_free_rank():
    for c in (g3_cocycle(), heis_cocycle(3, 2), phase_from_monomials(groups.g3(), SymbolTable(), [])):
        v = decide(c)
        hirsch = sum(1 for m in c.group.moduli if m == 0)
        assert trace_depth(v.certificate) <= hirsch + 1


def test_node_verdicts_are_conjunctions_of_branches():
    for c in (g3_cocycle(), heis_cocycle(2, 1), phase_from_monomials(groups.g3(), SymbolTable(), [])):
        v = decide(c)
        for node in walk(v.certificate):
            if not node.branches:
                continue
            vs = [b.verdict for b in node.branches]
            if NOT_ZSTABLE in vs:
                assert node.verdict == NOT_ZSTABLE
            elif UNDECIDED in vs:
                assert node.verdict == UNDECIDED
            else:
                assert node.verdict == ZSTABLE


def test_trace_serializes_to_plain_data():
    import json

    v = decide(heis_cocycle(3, 2))
    json.dumps(v.to_dict())


def test_invalid_cocycle_is_rejected():
    g = groups.abelian((2, 0))
    t = theta_table()
    bad = phase_from_monomials(g, t, [(KNumber.make(t, Fraction(1, 3)), (1, 0), (0, 1))])
    with pytest.raises(CocycleError):
        decide(bad)
    with pytest.raises(CocycleError, match="^input is not a 2-cocycle: "):
        decide_abelian(Analysis(bad, empty_context(t)))


def test_one_analysis_serves_every_verdict():
    p = load_problem(fixture("heis-1-2"))  # decided by the fallback
    a = Analysis(p.cocycle, p.context)
    assert decide(a).to_dict() == decide(p.cocycle, p.context).to_dict()
    simple, branches, notes = decide_simplicity(a)
    want = decide_simplicity(p.cocycle, p.context)
    assert (simple, [b.to_dict() for b in branches], notes) == (
        want[0], [b.to_dict() for b in want[1]], want[2])
    for extra in ({"ctx": p.context}, {"case_budget": 8}):
        with pytest.raises(ValueError, match="carries its own context"):
            decide(a, **extra)


# ---------------------------------------------------------------------------
# abelian groups and tori


def theta_entry():
    t = theta_table()
    return t, knum(t, 0, theta=1), KNumber.make(t, 0)


def torus(t, n, upper):
    """The phase sum Theta[i][j] g_i h_j on Z^n over the entries (i, j) ->
    Theta[i][j], i < j, of an alternating matrix: its antisymmetrization is
    Theta."""
    def unit(i):
        return tuple(int(k == i) for k in range(n))

    return phase_from_monomials(groups.abelian((0,) * n), t,
                                [(x, unit(i), unit(j)) for (i, j), x in upper.items()])


def test_irrational_rotation_torus_is_zstable():
    t, th, _ = theta_entry()
    v = decide_abelian(torus(t, 2, {(0, 1): th}))
    assert v.z_stable == ZSTABLE


def test_rational_rotation_torus_has_finite_index():
    t, _, _ = theta_entry()
    v = decide_abelian(torus(t, 2, {(0, 1): KNumber.make(t, Fraction(2, 5))}))
    assert v.z_stable == NOT_ZSTABLE
    # brute-force oracle: {g : (2/5)g_i integral} = (5Z)^2, index 25
    pts = [g for g in itertools.product(range(5), repeat=2)
           if (Fraction(2, 5) * g[0]).denominator == 1
           and (Fraction(2, 5) * g[1]).denominator == 1]
    assert len(pts) == 1
    assert v.certificate.branches[0].index == 25


def test_mixed_torus_is_zstable_by_infinite_index():
    # one irrational block is enough: the twisted center loses free rank
    t, th, _ = theta_entry()
    v = decide_abelian(torus(t, 4, {(0, 1): th, (2, 3): KNumber.make(t, Fraction(2, 5))}))
    assert v.z_stable == ZSTABLE


def test_fully_rational_four_torus_is_not_zstable():
    t, _, _ = theta_entry()
    v = decide_abelian(torus(t, 4, {(0, 1): KNumber.make(t, Fraction(1, 2)),
                                    (2, 3): KNumber.make(t, Fraction(1, 3))}))
    assert v.z_stable == NOT_ZSTABLE
    assert v.certificate.branches[0].index == 4 * 9


def test_abelian_rule_rejects_nonabelian_groups():
    with pytest.raises(ValueError):
        decide_abelian(phase_from_monomials(groups.g3(), SymbolTable(), []))


def test_abelian_splits_on_undetermined_parameter():
    t = SymbolTable(xis=(("t1", 0),))
    g = groups.abelian((0, 0))
    c = phase_from_monomials(g, t, [(symbol(t, "t1"), (1, 0), (0, 1))])
    v = decide_abelian(c)
    verdicts = sorted(b.verdict for b in v.certificate.branches)
    assert verdicts == [NOT_ZSTABLE, ZSTABLE]
    assert v.z_stable == NOT_ZSTABLE  # the rational branch sinks the conjunction


ABELIAN_SYMBOLS = {"theta": "irrational", "t": "rational 3", "s": "rational 4",
                   "x": "param", "y": "param", "u": "param 2"}


def random_abelian_text(rng):
    """Problem text of a random abelian group with 2..5 coordinates, about a
    third of them torsion, and 1..5 phase monomials: bilinear ones with a
    symbol of every kind or a rational constant (over the order of a torsion
    coordinate it touches), and quadratic ones k/2 g_i^2 h_j, which are
    2-cocycles on an abelian group.  A symbol against a torsion coordinate
    is often not well defined; the caller drops what does not validate."""
    n = rng.randint(2, 5)
    moduli = [0 if rng.random() < 0.65 else rng.choice((2, 3, 4, 6)) for _ in range(n)]
    lines = ["[symbols]"] + [f"{name} {status}" for name, status in ABELIAN_SYMBOLS.items()]
    lines += ["[group]", "builder abelian " + " ".join(map(str, moduli)), "[cocycle]"]
    for _ in range(rng.randint(1, 5)):
        i, j = rng.sample(range(1, n + 1), 2)
        kind = rng.random()
        if kind < 0.1:
            lines.append(f"{rng.choice((1, -1, 3))}/2 * g:x{i}^2 * h:x{j}")
            continue
        if kind < 0.3:
            orders = [m for m in (moduli[i - 1], moduli[j - 1]) if m]
            den = math.lcm(*orders) if orders else rng.choice((1, 2, 3, 4, 6))
            coef = f"{rng.choice((1, 2, 3, -1, -2, -3))}/{den}"
        else:
            coef = f"{rng.choice((1, 2, 3, -1))} {rng.choice(list(ABELIAN_SYMBOLS))}"
        lines.append(f"{coef} * g:x{i} * h:x{j}")
    return "\n".join(lines) + "\n"


def conjunction(verdicts):
    if NOT_ZSTABLE in verdicts:
        return NOT_ZSTABLE
    return UNDECIDED if UNDECIDED in verdicts else ZSTABLE


def old_level_one(a):
    """The recursion's answer on an abelian input before abelian levels
    ended at the index rule, replayed one level deep with the public
    quotient_by_central, push_to_quotient, induce_gamma and twisted_center.
    Each level-0 leaf of infinite index with an infinite twisted center is
    quotiented, and its quotient's leaves are read by the finite-index and
    finite-center rules.  A leaf whose push-down fails, or one of whose
    quotient leaves would need a second quotient, is Undecided."""
    c = a.cocycle
    if c.group.is_finite():
        return NOT_ZSTABLE
    verdicts = []
    for leaf in a.leaves:
        if leaf.lattice.index() is not math.inf:
            verdicts.append(NOT_ZSTABLE)
        elif leaf.lattice.is_finite():
            verdicts.append(ZSTABLE)
        else:
            qd = groups.quotient_by_central(c.group, leaf.lattice)
            try:
                w = cocycles.push_to_quotient(c, qd)
            except CocycleError:
                verdicts.append(UNDECIDED)
                continue
            wg = cocycles.induce_gamma(w, qd, prefix="gamma1_")
            verdicts.append(conjunction([
                NOT_ZSTABLE if inner.lattice.index() is not math.inf
                else ZSTABLE if inner.lattice.is_finite() else UNDECIDED
                for inner in twisted_center(wg, leaf.ctx)]))
    return conjunction(verdicts)


def test_abelian_nodes_agree_with_decide_abelian_and_the_old_level_one():
    """Differential test of the abelian index rule on seeded random abelian
    problems with torsion, `rational k` and `param` symbols: decide equals
    decide_abelian on every one, its certificate has no level-1 child, and
    it equals the replayed old level 1 wherever that replay decides.  The
    replay is Undecided where a leaf skipped a congruence and its push-down
    is no 2-cocycle, as on MIXED_SYMBOLS."""
    rng = random.Random(18)
    seen = collections.Counter()
    for _ in range(500):
        p = parse_problem(random_abelian_text(rng))
        if cocycles.validate_cocycle(p.cocycle) is not None:
            continue
        a = Analysis(p.cocycle, p.context)
        v = decide(p.cocycle, p.context)
        assert v.z_stable == decide_abelian(a).z_stable
        assert trace_depth(v.certificate) == 1
        old = old_level_one(a)
        assert old in (v.z_stable, UNDECIDED)
        skipped = any(leaf.skipped for leaf in a.leaves)
        seen[v.z_stable, old] += 1
        seen["skipped with torsion"] += skipped and any(p.group.moduli)
        seen["quotiented"] += any(leaf.lattice.index() is math.inf and not leaf.lattice.is_finite()
                                  for leaf in a.leaves)
    assert seen[ZSTABLE, ZSTABLE] >= 20 and seen[NOT_ZSTABLE, NOT_ZSTABLE] >= 20
    assert seen[ZSTABLE, UNDECIDED] >= 3
    assert seen["skipped with torsion"] >= 10 and seen["quotiented"] >= 40


def chain_torus_text(n, rng):
    """A chain torus Z^n: free parameters x1..x(n-1), the i-th coupling two
    coordinates consecutive along a random path with a random coefficient."""
    path = rng.sample(range(1, n + 1), n)
    lines = ["[symbols]"] + [f"x{i} param" for i in range(1, n)]
    lines += ["[group]", "builder abelian" + " 0" * n, "[cocycle]"]
    lines += [f"{rng.choice((1, 2, 3, -1, -2, -3))} x{i} * g:x{path[i - 1]} * h:x{path[i]}"
              for i in range(1, n)]
    return "\n".join(lines) + "\n"


def test_decide_equals_decide_abelian_on_chain_tori():
    """100 chain tori Z^3..Z^7: decide and decide_abelian give the same
    verdict, and decide's certificate stays at level 0."""
    rng = random.Random("chain-tori")
    for n in (3, 4, 5, 6, 7):
        for _ in range(20):
            p = parse_problem(chain_torus_text(n, rng))
            v = decide(p.cocycle, p.context)
            assert v.z_stable == decide_abelian(p.cocycle, p.context).z_stable == NOT_ZSTABLE
            assert trace_depth(v.certificate) == 1


# ---------------------------------------------------------------------------
# the 2-step shortcut


def test_heisenberg_with_torsion_and_theta_is_zstable():
    for d2, p in ((2, 1), (3, 2), (5, 3)):
        v = decide_heisenberg(heis_cocycle(d2, p))
        assert v.z_stable == ZSTABLE


def test_heisenberg_trivial_cocycle_via_shortcut():
    g = groups.heisenberg_diag((1, 3))
    assert decide_heisenberg(phase_from_monomials(g, SymbolTable(), [])).z_stable == NOT_ZSTABLE


def test_shortcut_and_recursion_agree():
    # the generic recursion alone gives up on this example (its level-2
    # quotient is outside the supported constructions); decide falls back to
    # the single-quotient criterion and must match the explicit shortcut
    c = heis_cocycle(3, 2)
    assert decide_heisenberg(c).z_stable == ZSTABLE
    v = decide(c)
    assert v.z_stable == ZSTABLE
    assert any("single-quotient" in n for n in v.certificate.notes)


def test_shortcut_verdict_is_coboundary_invariant():
    c = heis_cocycle(3, 2)
    t = c.table
    phi = Poly.make(5, t, [((1, 0, 0, 1, 0), KNumber.make(t, 1)),
                           ((0, 0, 1, 0, 1), knum(t, 0, theta=1))])
    assert decide_heisenberg(twist_by_coboundary(c, phi)).z_stable == ZSTABLE


def test_two_step_reports_hypothesis_failures():
    # torus2: theta * g1 * h2 is not trivial on D x D with D = Z^2;
    # g3: D = the image of the center is free, so phi_D cannot be surjective
    for name, fragment in (("torus2", "hypothesis (ii) fails"),
                           ("g3", "hypothesis (iii) fails or is undetermined: D has a free factor")):
        p = load_problem(fixture(name))
        out = decide_two_step(p.cocycle, p.context)
        assert isinstance(out, Inapplicable)
        assert out.reason.startswith(fragment), out.reason


def test_two_step_quotients_satisfy_the_unchecked_hypotheses():
    """decide_two_step takes D = p(Z(G)) in Q = G/Z(G, sigma) and does not
    check that D contains [Q, Q] or that D is central: both follow from p
    being a surjective homomorphism of a 2-step group.  Brute force on the
    quotient of every shipped fixture's twisted-center leaves."""
    nonabelian = 0
    for path in all_fixtures():
        p = load_problem(path)
        for leaf in twisted_center(p.cocycle, p.context):
            if leaf.lattice.index() is math.inf:
                qd = groups.quotient_by_central(p.group, leaf.lattice)
                quo = qd.group
                d = zl.SubgroupLattice(quo.moduli, tuple(qd.projection.apply_raw(list(col))
                                                         for col in p.group.center().hnf_basis))
                assert all(quo.center().contains(list(col)) for col in d.gens)
                for a, b in itertools.product(list(box(quo, 1)), repeat=2):
                    assert d.contains(list(commutator(quo, a, b)))
                nonabelian += not quo.is_abelian()
    assert nonabelian == 7  # g3, heis-1-2, heis-1-3 and four z-times-h3 quotients


def random_two_step_cocycle(rng):
    """A bilinear phase on a random small 2-step group: rational, theta and
    free-parameter coefficients, mostly between coordinates that receive no
    carry (those phases are cocycles; the rest may not be)."""
    t = SymbolTable(("theta",), (("x", 0),))
    g = rng.choice([groups.heisenberg_diag((rng.randint(1, 3),)),
                    groups.heisenberg_diag((rng.randint(1, 2), rng.randint(1, 3))),
                    groups.GroupPresentation((rng.randint(2, 4), 0, 0), ((0, 2, 1, 1),)),
                    groups.z_times_h3(), groups.g3()])
    coords = [k for k in range(g.n) if k not in g.receiving_coords()]
    monomials = []
    for _ in range(rng.randint(1, 4)):
        i, j = (rng.choice(coords if rng.random() < 0.9 else range(g.n)) for _ in range(2))
        kind = rng.random()
        if kind < 0.4:
            c = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
        elif kind < 0.8:
            c = knum(t, Fraction(rng.randint(-2, 2), rng.randint(1, 3)),
                     theta=rng.choice((1, -1, Fraction(1, 2))))
        else:
            c = knum(t, 0, x=rng.choice((1, 2)))
        monomials.append((c, [int(k == i) for k in range(g.n)], [int(k == j) for k in range(g.n)]))
    return phase_from_monomials(g, t, monomials)


def test_decide_agrees_with_the_single_quotient_criterion_on_random_instances():
    """Differential oracle: on seeded random 2-step instances where
    decide_two_step returns a Verdict, decide gives the same z_stable.  Most
    of them the generic recursion decides without the fallback, so the two
    decision routes are compared, not one route with itself."""
    rng = random.Random(29)
    routes = collections.Counter()
    for _ in range(120):
        c = random_two_step_cocycle(rng)
        if cocycles.validate_cocycle(c) is not None:
            continue
        two = decide_two_step(c)
        if isinstance(two, Inapplicable):
            continue
        v = decide(c)
        assert v.z_stable == two.z_stable
        fallback = any("single-quotient" in n for n in v.certificate.notes)
        routes["fallback" if fallback else "recursion", v.z_stable] += 1
    assert routes["recursion", ZSTABLE] >= 10 and routes["recursion", NOT_ZSTABLE] >= 10


def test_heisenberg_shortcut_rejects_multiple_receiving_coords():
    with pytest.raises(cocycles.UnsupportedShape):
        decide_heisenberg(g3_cocycle())


# ---------------------------------------------------------------------------
# product rules


def product_fixture(phase_terms, table):
    g = groups.abelian((0, 0, 0, 0))
    return phase_from_monomials(g, table, phase_terms)


def test_product_forward_rule_applies():
    t, th, _ = theta_entry()
    c = product_fixture([(th, (1, 0, 0, 0), (0, 1, 0, 0))], t)
    out = decide_product(c, 2)
    assert out.applicable and out.verdict == ZSTABLE


def test_product_converse_rule_applies():
    t = theta_table()
    c = phase_from_monomials(groups.abelian((0, 0, 0, 0)), t, [])
    out = decide_product(c, 2)
    assert out.applicable and out.verdict == NOT_ZSTABLE


def test_product_rules_stay_silent_on_irrational_coupling():
    # sigma lives entirely in the coupling term; neither one-sided rule
    # applies, and indeed the verdict they would need is not theirs to give
    t, th, _ = theta_entry()
    c = product_fixture([(th, (0, 0, 1, 0), (1, 0, 0, 0))], t)
    out = decide_product(c, 2)
    assert not out.applicable
    assert decide_abelian(c).z_stable == ZSTABLE


def test_product_rules_require_abelian_factors():
    g = groups.GroupPresentation((0,) * 7, groups.g3().bilinear)  # G(3) x Z
    out = decide_product(phase_from_monomials(g, SymbolTable(), []), 6)
    assert not out.applicable


@pytest.mark.parametrize("n1", [-1, 0, 4, 5])
def test_product_split_point_outside_1_to_n_minus_1_is_rejected(n1):
    t, th, _ = theta_entry()
    c = product_fixture([(th, (1, 0, 0, 0), (0, 1, 0, 0))], t)
    with pytest.raises(ValueError, match=rf"^n1 must lie in 1\.\.3 .*, got {n1}$"):
        decide_product(c, n1)


# ---------------------------------------------------------------------------
# simplicity


def test_simplicity_of_irrational_rotation_algebra():
    t, th, _ = theta_entry()
    c = phase_from_monomials(groups.abelian((0, 0)), t, [(th, (1, 0), (0, 1))])
    verdict, branches, notes = decide_simplicity(c)
    assert verdict == SIMPLE_YES
    assert any("FC" in n for n in notes)


def test_simplicity_fails_with_nontrivial_twisted_center():
    verdict, _, _ = decide_simplicity(heis_cocycle(3, 2))
    assert verdict == SIMPLE_NO
    verdict, _, _ = decide_simplicity(phase_from_monomials(groups.abelian((0, 0)),
                                                           theta_table(), []))
    assert verdict == SIMPLE_NO


def test_simplicity_depends_on_parameter_when_undetermined():
    t = SymbolTable(xis=(("t1", 0),))
    c = phase_from_monomials(groups.abelian((0, 0)), t,
                             [(symbol(t, "t1"), (1, 0), (0, 1))])
    verdict, branches, _ = decide_simplicity(c)
    assert verdict == SIMPLE_UNKNOWN
    assert sorted(b.verdict for b in branches) == [SIMPLE_NO, SIMPLE_YES]


def test_simplicity_not_determined_beyond_central_fc():
    # commutators landing in a torsion coordinate make every conjugacy class
    # finite, so FC(G) strictly contains the center and the supported
    # criterion does not apply
    g = groups.GroupPresentation((0, 0, 2), ((2, 0, 1, 1),), ("x", "y", "z"))
    verdict, branches, notes = decide_simplicity(phase_from_monomials(g, SymbolTable(), []))
    assert verdict == SIMPLE_UNKNOWN
    assert branches == ()


# ---------------------------------------------------------------------------
# pinned parametric case splits (no shipped fixture declares a `param`)


CHAIN_Z5 = """[symbols]
x1 param
x2 param
x3 param
x4 param

[group]
builder abelian 0 0 0 0 0
names a1 a2 a3 a4 a5

[cocycle]
2 x1 * g:a3 * h:a1
-1 x2 * g:a1 * h:a5
3 x3 * g:a5 * h:a2
-2 x4 * g:a2 * h:a4
"""

# theta is forced to vanish, t gives congruences mod 3, the params split and
# then skip their congruences, and the 1/2 term is a constant congruence
MIXED_SYMBOLS = """[symbols]
theta irrational
t rational 3
x param
y param

[group]
builder abelian 0 0 0 0 2
names a1 a2 a3 a4 a5

[cocycle]
theta * g:a1 * h:a2
t * g:a2 * h:a3
2 x * g:a3 * h:a4
y * g:a4 * h:a1
1/2 * g:a1 * h:a5
"""

# Z^4 x H3(Z): a param chain on the abelian factor, linked to the Heisenberg
# factor by x4, and an irrational phase that keeps z out of every twisted
# center, so 11 of the 16 case leaves quotient to a non-abelian group
CHAIN_Z4_H3 = """[symbols]
t irrational
x1 param
x2 param
x3 param
x4 param

[group]
moduli 0 0 0 0 0 0 0
names a1 a2 a3 a4 z x y
bilinear z x y 1

[cocycle]
t * g:x * h:z
1/2 t * g:x^2 * h:y
2 x1 * g:a2 * h:a1
-1 x2 * g:a2 * h:a3
3 x3 * g:a4 * h:a3
-2 x4 * g:a4 * h:y
"""
CHAIN_Z4_H3_SHA = "6fcd75f3ef5223aa5dd50756c61c25f59921f4329adf82f82c6642a19bea4094"


def sha256_of(doc):
    return hashlib.sha256(json.dumps(doc, sort_keys=True, default=str).encode()).hexdigest()


# chain-z5 was d9fc6c41... and mixed-symbols Undecided with 14017a6a... while
# abelian levels quotiented and recursed: chain-z5's 12 level-1 children are
# gone, and mixed-symbols' two x-rational leaves, whose push-downs through a
# lattice with a skipped congruence were not 2-cocycles, now end ZStable
@pytest.mark.parametrize("text, z_stable, simple, trace_sha, simple_sha", [
    (CHAIN_Z5, NOT_ZSTABLE, SIMPLE_UNKNOWN,
     "81ad98edb62ea48953001c3d08dc18eef77632e67d000bb7aacf7ba55970732e",
     "ed03935504d503686bc4cc2af7788dc842a58481088039b232e886a0d03ecc03"),
    (MIXED_SYMBOLS, ZSTABLE, SIMPLE_UNKNOWN,
     "bb2bd58884d2348efce590632560f7b1cb0ee06b3a140f546f0f030f2bc208df",
     "77f704ecdd122a2a1623136288bff96aff167b4d47202080cfd14bfaf1464dd3"),
    (CHAIN_Z4_H3, ZSTABLE, SIMPLE_UNKNOWN, CHAIN_Z4_H3_SHA,
     "94545cf18e263b062df6076e3be7d10a2a578098e340d0e3be3d4b048aa6c5f6"),
], ids=["chain-z5", "mixed-symbols", "chain-z4-h3"])
def test_parametric_case_splits_reproduce_recorded_hashes(text, z_stable, simple,
                                                          trace_sha, simple_sha):
    p = parse_problem(text)
    v = decide(p.cocycle, p.context)
    assert v.z_stable == z_stable
    assert sha256_of(v.certificate.to_dict()) == trace_sha
    verdict, branches, notes = decide_simplicity(p.cocycle, p.context)
    assert verdict == simple
    assert sha256_of({"simple": verdict, "notes": list(notes),
                      "branches": [b.to_dict() for b in branches]}) == simple_sha


@pytest.mark.parametrize("p, defects", [
    (parse_problem(CHAIN_Z5), False),
    (load_problem(fixture("torus2")), False),
    (load_problem(fixture("heis-1-2")), True),
], ids=["chain-z5", "torus2", "heis-1-2"])
def test_bilinear_phases_without_carry_skip_the_cocycle_identity(p, defects, monkeypatch):
    """Every validation on a carry-free group with a bidegree-(1, 1) phase,
    push-downs included, takes validate_cocycle's bilinear shortcut; a group
    with a carry still builds the cocycle defect."""
    calls = []
    real = cocycles.cocycle_defect
    monkeypatch.setattr(cocycles, "cocycle_defect", lambda c: calls.append(c) or real(c))
    decide(p.cocycle, p.context)
    decide_simplicity(p.cocycle, p.context)
    assert bool(calls) == defects


def test_case_split_children_reuse_their_parents_classifications(monkeypatch):
    """On the chain Z^5 with 4 params every split child starts from its
    parent's settled classifications and extended span, so few values are
    classified anew and no consistency check searches a kernel."""
    p = parse_problem(CHAIN_Z5)
    classified, kernels = [], []
    real_classify = exact.RationalityContext._classify
    monkeypatch.setattr(exact.RationalityContext, "_classify",
                        lambda self, x: classified.append(x) or real_classify(self, x))
    real_kernel = zl.kernel_int

    def kernel_int(mat):
        # exact calls kernel_int only from the consistency check
        if sys._getframe(1).f_globals["__name__"] == exact.__name__:
            kernels.append(mat)
        return real_kernel(mat)

    monkeypatch.setattr(zl, "kernel_int", kernel_int)
    decide(p.cocycle, p.context)
    decide_simplicity(p.cocycle, p.context)
    # 59, all of them in the two level-0 case trees; 93 while a rational
    # split child dropped its parent's IRRATIONAL entries (also 93 while 12
    # level-1 children recursed, each classifying in its leaf's own context;
    # 147 while each child rebuilt it, 249 when every child classified from
    # empty)
    assert len(classified) <= 59
    assert kernels == []  # 52 when the pure-theta search ran without thetas


def test_recursion_classifies_each_symbol_once_per_case_node(monkeypatch):
    """Inside condition_lattice each case node (a context popped by one
    call) classifies each distinct symbol once: on Z^4 x H3(Z) with 4
    params, 305 classify calls for the 305 (node, symbol) pairs of 73 nodes
    in 13 calls, 11 of them level-1 children.  The memo misses stay at 125
    and the trace at its recorded hash.  (Pinned on the chain Z^5 with 4
    params until abelian levels ended at the index rule: 250 calls for 74
    nodes in 14 calls, 402 while each (form, symbol) term was classified,
    93 misses.)"""
    p = parse_problem(CHAIN_Z4_H3)
    calls, misses, nodes = [], [], []
    real_lattice = cocycles.condition_lattice
    real_classify = exact.RationalityContext.classify
    real_miss = exact.RationalityContext._classify

    def condition_lattice(*args):
        nodes.append([])
        return real_lattice(*args)

    def classify(self, x):
        if sys._getframe(1).f_code.co_name == "condition_lattice":
            if not any(ctx is self for ctx in nodes[-1]):
                nodes[-1].append(self)
            node = next(i for i, ctx in enumerate(nodes[-1]) if ctx is self)
            calls.append((len(nodes), node, symbol_names(x)[0]))
        return real_classify(self, x)

    monkeypatch.setattr(cocycles, "condition_lattice", condition_lattice)
    monkeypatch.setattr(exact.RationalityContext, "classify", classify)
    monkeypatch.setattr(exact.RationalityContext, "_classify",
                        lambda self, x: misses.append(x) or real_miss(self, x))
    v = decide(p.cocycle, p.context)
    decide_simplicity(p.cocycle, p.context)
    assert (len(nodes), sum(map(len, nodes))) == (13, 73)
    assert len(calls) == len(set(calls)) == 305
    assert len(misses) == 125
    assert sha256_of(v.certificate.to_dict()) == CHAIN_Z4_H3_SHA


# Z x H3(Z) with the z-times-h3 phase and both symbols left open
Z_TIMES_H3_PARAMS = """[symbols]
t1 param
t2 param

[group]
builder z_times_h3

[cocycle]
-1 t1 * g:k1 * h:k3
t2 * g:k4 * h:k2
1/2 t2 * g:k4^2 * h:k3
"""


@pytest.mark.xfail(strict=True, reason="a non-abelian node quotients a leaf that skipped "
                                       "a congruence by a superlattice of its twisted "
                                       "center, and the push-down is not a 2-cocycle")
def test_skipped_congruences_on_a_nonabelian_node_leave_no_leaf_undecided():
    """Both t2-rational leaves skip t2's congruence, so the lattice each
    one quotients by is larger than its twisted center; the push-down then
    fails the cocycle identity and the leaf ends undecided."""
    p = parse_problem(Z_TIMES_H3_PARAMS)
    assert decide(p.cocycle, p.context).z_stable != UNDECIDED


def test_gamma_free_children_classify_in_their_leafs_context(monkeypatch):
    """On Z^4 x H3(Z) with 4 params every twisted center lies in the abelian
    factor, so no push-down gains a gamma term: induce_gamma hands back the
    pushed cocycle over its parent's table and each of the 11 level-1
    children, all on non-abelian quotients, solves its conditions in its
    leaf's own RationalityContext, span and classify memo included.  (12
    children on the chain Z^5 with 4 params until abelian levels ended at
    the index rule.)"""
    p = parse_problem(CHAIN_Z4_H3)
    a = Analysis(p.cocycle, p.context)
    parents = [leaf.ctx for leaf in a.leaves
               if leaf.lattice.index() is math.inf and not leaf.lattice.is_finite()]
    seen, quotients = [], []
    real = cocycles.condition_lattice
    real_induce = decision.induce_gamma

    def condition_lattice(ctx, *args):
        seen.append(ctx)
        return real(ctx, *args)

    def induce_gamma(w, qd, prefix):
        out = real_induce(w, qd, prefix=prefix)
        quotients.append((out is w, qd.group.is_abelian()))
        return out

    monkeypatch.setattr(cocycles, "condition_lattice", condition_lattice)
    monkeypatch.setattr(decision, "induce_gamma", induce_gamma)
    decide(a)
    assert len(seen) == len(parents) == 11
    assert all(child is leaf for child, leaf in zip(seen, parents))
    assert quotients == [(True, False)] * 11


def test_abelian_inputs_take_no_quotient(monkeypatch):
    """An abelian node ends at the index rule: deciding the chain Z^5 and
    the mixed-symbol torus (12 and 3 quotients before, every one of them
    abelian, the third in the two-step fallback) calls quotient_by_central, push_to_quotient and induce_gamma
    not once."""
    calls = []
    for name in ("quotient_by_central", "push_to_quotient", "induce_gamma"):
        owner = groups if name == "quotient_by_central" else decision
        monkeypatch.setattr(owner, name, lambda *args, _name=name, **kw: calls.append(_name))
    for text in (CHAIN_Z5, MIXED_SYMBOLS):
        p = parse_problem(text)
        decide(p.cocycle, p.context)
        decide_simplicity(p.cocycle, p.context)
    assert calls == []


def test_children_with_gamma_terms_gain_their_gamma_symbols(monkeypatch):
    """On heis-1-2 the push-down does gain gamma terms: the recursion's
    child table gains gamma1_1 and the fallback's gammaM_1."""
    p = load_problem(fixture("heis-1-2"))
    induced = []
    real = decision.induce_gamma

    def induce_gamma(w, qd, prefix):
        out = real(w, qd, prefix=prefix)
        induced.append((prefix, w.table.names, out.table.names))
        return out

    monkeypatch.setattr(decision, "induce_gamma", induce_gamma)
    decide(p.cocycle, p.context)
    assert induced == [("gamma1_", ("theta",), ("theta", "gamma1_1")),
                       ("gammaM_", ("theta",), ("theta", "gammaM_1"))]


def test_decide_computes_each_leaf_quotient_smith_form_once(monkeypatch):
    """On heis-1-2 the recursion and then the two-step fallback read every
    level-0 leaf's index and quotient by it; the quotient's Smith form is
    computed once per lattice (4 times when each read recomputed it)."""
    p = load_problem(fixture("heis-1-2"))
    a = Analysis(p.cocycle, p.context)
    leaves = a.leaves
    calls = []
    real = zl._structure

    def structure(rel_cols, k):
        caller = sys._getframe(1)
        if caller.f_code.co_name == "quotient_structure":
            calls.append(caller.f_locals["self"])
        return real(rel_cols, k)

    monkeypatch.setattr(zl, "_structure", structure)
    decide(a)
    assert leaves and all(sum(lat is leaf.lattice for lat in calls) == 1 for leaf in leaves)


def test_substitution_counts_of_validation_and_one_fixture_pass(monkeypatch):
    """validate_cocycle reads Q(g, e), Q(e, g), Q(g, h) and Q(h, k) by
    renaming or restriction, so on g3 (no torsion) only Q(g*h, k) and
    Q(g, h*k) expand a monomial image (6 when all six phases were
    substituted); one pass of decide and decide_simplicity over the ten
    shipped fixtures makes 76 expansions (170 when all six were, 102 while
    the torsion slots and the bilinear pairing rows substituted too).
    Poly._image is the expansion behind substitute and the one the integer
    defect and pairing checks call directly."""
    calls = []
    real = Poly._image
    monkeypatch.setattr(Poly, "_image", lambda self, mapping, nv, *args:
                        calls.append(nv) or real(self, mapping, nv, *args))
    problems = [load_problem(f) for f in all_fixtures()]
    cocycles.validate_cocycle(load_problem(fixture("g3")).cocycle)
    assert len(calls) == 2
    calls.clear()
    for p in problems:
        decide(p.cocycle, p.context)
        decide_simplicity(p.cocycle, p.context)
    assert len(problems) == 10
    assert len(calls) == 76


def test_validation_and_one_fixture_pass_build_no_fractions(monkeypatch):
    """The engine computes in integers: validate_cocycle on the ten shipped
    fixtures builds no Fraction (130 while integrality was tested over Q),
    and one pass of decide and decide_simplicity builds none either (1960
    before the integer validation, pairing rows, lattice denominators,
    surjectivity test and induced carries; both counts on Python 3.11).  A
    Fraction is counted when its constructor runs and, on Python >= 3.12,
    when arithmetic builds one through _from_coprime_ints, which bypasses
    the constructor.  Parsing, before the count starts, builds some."""
    built = []
    real_new = Fraction.__new__
    monkeypatch.setattr(Fraction, "__new__",
                        lambda cls, *args, **kw: built.append(cls) or real_new(cls, *args, **kw))
    if "_from_coprime_ints" in vars(Fraction):
        real_from = Fraction._from_coprime_ints
        monkeypatch.setattr(Fraction, "_from_coprime_ints", classmethod(
            lambda cls, n, d: built.append(cls) or real_from(n, d)))
    problems = [load_problem(f) for f in all_fixtures()]
    assert built  # the count sees the parser's Fractions
    built.clear()
    for p in problems:
        assert cocycles.validate_cocycle(p.cocycle) is None
    assert len(problems) == 10 and built == []
    for p in problems:
        decide(p.cocycle, p.context)
        decide_simplicity(p.cocycle, p.context)
    assert built == []


def stack_names(depth):
    """Function names on the call stack, starting ``depth`` frames up."""
    frame, names = sys._getframe(depth + 1), []
    while frame:
        names.append(frame.f_code.co_name)
        frame = frame.f_back
    return names


def test_recursion_substitutes_only_to_push_down_and_indexes_without_smith_forms(monkeypatch):
    """On Z^4 x H3(Z) with 4 params the pairing rows are read off the
    bilinear Q~, so every Poly.substitute is a push-down's pull-back, one
    per level-1 child; index() and is_finite() read the HNF basis, so no
    Smith form is computed under them; and induce_gamma parametrizes no
    kernel when the push-down has neither a section defect nor a torsion
    carry, so the 24 Smith forms are the 13 twisted centers'
    parametrizations and the 11 quotients' structures.  (Pinned on the
    chain Z^5 with 4 params until abelian levels ended at the index rule:
    12 substitutions, 26 when the rows were substituted too, and 26 Smith
    forms, 71 of 85 under index() and is_finite() before they read the HNF
    and 38 when each of the 12 push-downs parametrized a kernel.)"""
    p = parse_problem(CHAIN_Z4_H3)
    subs, smith = [], []
    real_substitute, real_structure = Poly.substitute, zl._structure

    def substitute(self, mapping, nv):
        subs.append(stack_names(1))
        return real_substitute(self, mapping, nv)

    def structure(rel_cols, k):
        smith.append(stack_names(1))
        return real_structure(rel_cols, k)

    monkeypatch.setattr(Poly, "substitute", substitute)
    monkeypatch.setattr(zl, "_structure", structure)
    decide(p.cocycle, p.context)
    decide_simplicity(p.cocycle, p.context)
    assert len(subs) == 11 and all(s[:3] == ["compose_linear", "pull_back", "push_to_quotient"]
                                   for s in subs)
    assert collections.Counter(s[0] for s in smith) == {"parametrization": 13,
                                                        "quotient_structure": 11}
    assert not [s for s in smith if {"index", "is_finite"} & set(s)]
