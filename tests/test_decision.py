import collections
import hashlib
import itertools
import json
import math
import random
import sys
import traceback
from fractions import Fraction

import pytest

from cocycle_lab import cocycles, decision, exact, groups, zlinalg as zl
from cocycle_lab._value import BudgetExceeded, InputError, Unsupported, Value
from cocycle_lab.cocycles import phase_from_monomials, twisted_center
from cocycle_lab.decision import (NOT_ZSTABLE, SIMPLE_NO, SIMPLE_UNKNOWN,
                                  SIMPLE_YES, UNDECIDED, ZSTABLE, Analysis, Branch,
                                  Verdict, decide, decide_heisenberg, decide_product,
                                  decide_simplicity, decide_two_step)
from cocycle_lab.exact import KNumber, SymbolTable, empty_context, knum, symbol
from cocycle_lab.poly import Poly
from cocycle_lab.problem import load_problem, parse_problem

from helpers import abelian_index_rule, box, commutator, symbol_names, twist_by_coboundary
from test_cli import all_fixtures, fixture, run
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
    with pytest.raises(InputError):
        decide(bad)
    with pytest.raises(InputError, match="^input is not a 2-cocycle: "):
        decide(Analysis(bad, empty_context(t)))


def test_one_analysis_serves_every_verdict():
    p = load_problem(fixture("heis-1-2"))  # decided by the fallback
    a = Analysis(p.cocycle, p.context)
    assert decide(a).to_dict() == decide(p.cocycle, p.context).to_dict()
    simple, branches, notes = decide_simplicity(a)
    want = decide_simplicity(p.cocycle, p.context)
    assert (simple, [b.to_dict() for b in branches], notes) == (
        want[0], [b.to_dict() for b in want[1]], want[2])
    with pytest.raises(ValueError, match="carries its own context"):
        decide(a, p.context)
    with pytest.raises(TypeError):
        decide(a, case_budget=8)  # the case budget lives on the Analysis


def test_a_certificate_reads_its_case_leaves():
    """A Branch keeps its case leaf and the verdict taken on it, and a
    Verdict its certificate: every other field is read off those."""
    assert Branch._fields == ("leaf", "verdict", "notes", "child")
    assert Verdict._fields == ("certificate", "simple", "notes")
    p = load_problem(fixture("heis-1-2"))
    v = decide(p.cocycle, p.context)
    assert v.z_stable == v.pure == v.nowhere_scattered == v.certificate.verdict == ZSTABLE
    for node in walk(v.certificate):
        for b in node.branches:
            d = b.to_dict()
            assert d["label"] == b.label == b.leaf.label
            assert d["assumptions"] == list(b.leaf.ctx.assumptions)
            assert d["lattice"] == [list(col) for col in b.leaf.lattice.hnf_basis]
            assert b.index == b.leaf.lattice.index()


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
    v = decide(torus(t, 2, {(0, 1): th}))
    assert v.z_stable == ZSTABLE


def test_rational_rotation_torus_has_finite_index():
    t, _, _ = theta_entry()
    v = decide(torus(t, 2, {(0, 1): KNumber.make(t, Fraction(2, 5))}))
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
    v = decide(torus(t, 4, {(0, 1): th, (2, 3): KNumber.make(t, Fraction(2, 5))}))
    assert v.z_stable == ZSTABLE


def test_fully_rational_four_torus_is_not_zstable():
    t, _, _ = theta_entry()
    v = decide(torus(t, 4, {(0, 1): KNumber.make(t, Fraction(1, 2)),
                            (2, 3): KNumber.make(t, Fraction(1, 3))}))
    assert v.z_stable == NOT_ZSTABLE
    assert v.certificate.branches[0].index == 4 * 9


def test_abelian_rule_rejects_nonabelian_groups(capsys):
    assert run(["torus", fixture("g3")], capsys) == (
        1, "", "error: torus criterion needs an abelian group\n")


def test_abelian_splits_on_undetermined_parameter():
    t = SymbolTable(xis=(("t1", 0),))
    g = groups.abelian((0, 0))
    c = phase_from_monomials(g, t, [(symbol(t, "t1"), (1, 0), (0, 1))])
    v = decide(c)
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
            except Unsupported:
                verdicts.append(UNDECIDED)
                continue
            wg = cocycles.induce_gamma(w, qd, prefix="gamma1_")
            verdicts.append(conjunction([
                NOT_ZSTABLE if inner.lattice.index() is not math.inf
                else ZSTABLE if inner.lattice.is_finite() else UNDECIDED
                for inner in twisted_center(wg, leaf.ctx)]))
    return conjunction(verdicts)


def test_abelian_nodes_agree_with_the_index_rule_and_the_old_level_one():
    """Differential test of the abelian index rule on seeded random abelian
    problems with torsion, `rational k` and `param` symbols: decide equals
    helpers.abelian_index_rule on every one, its certificate has no level-1
    child, and it equals the replayed old level 1 wherever that replay
    decides.  The replay is Undecided where a leaf skipped a congruence and
    its push-down is no 2-cocycle, as on MIXED_SYMBOLS."""
    rng = random.Random(18)
    seen = collections.Counter()
    for _ in range(500):
        p = parse_problem(random_abelian_text(rng))
        if cocycles.validate_cocycle(p.cocycle) is not None:
            continue
        a = Analysis(p.cocycle, p.context)
        v = decide(p.cocycle, p.context)
        assert v.z_stable == abelian_index_rule(p.cocycle, p.context)
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


def test_decide_equals_the_index_rule_on_chain_tori():
    """100 chain tori Z^3..Z^7: decide and helpers.abelian_index_rule give
    the same verdict, and decide's certificate stays at level 0."""
    rng = random.Random("chain-tori")
    for n in (3, 4, 5, 6, 7):
        for _ in range(20):
            p = parse_problem(chain_torus_text(n, rng))
            v = decide(p.cocycle, p.context)
            assert v.z_stable == abelian_index_rule(p.cocycle, p.context) == NOT_ZSTABLE
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
        with pytest.raises(Unsupported) as out:
            decide_two_step(p.cocycle, p.context)
        assert str(out.value).startswith(fragment), out.value


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
        try:
            two = decide_two_step(c)
        except Unsupported:
            continue
        v = decide(c)
        assert v.z_stable == two.z_stable
        fallback = any("single-quotient" in n for n in v.certificate.notes)
        routes["fallback" if fallback else "recursion", v.z_stable] += 1
    assert routes["recursion", ZSTABLE] >= 10 and routes["recursion", NOT_ZSTABLE] >= 10


def all_coordinate_phi(rng, c):
    """A phi of degree 1 or 2 per term over every coordinate, coefficients
    in -3..3 over 1..3."""
    terms = []
    for _ in range(rng.randint(1, 3)):
        e = [0] * c.n
        for _ in range(rng.randint(1, 2)):
            e[rng.randrange(c.n)] += 1
        terms.append((tuple(e), KNumber.make(c.table, Fraction(rng.randint(-3, 3),
                                                               rng.randint(1, 3)))))
    return Poly.make(c.n, c.table, terms)


def test_valid_inputs_end_in_a_verdict_or_a_typed_outcome():
    """The exit-code contract on valid inputs: decide, decide_simplicity,
    decide_two_step and decide_heisenberg return, or raise Unsupported or
    BudgetExceeded (exit 2); any other exception is a fault and fails here.
    Seeded: 200 random 2-step cocycles and 200 coboundary twists of the
    fixtures with phi over all coordinates, each rule sharing one Analysis
    per input as the CLI does."""
    rng = random.Random(7)
    inputs = [(c, None) for c in (random_two_step_cocycle(rng) for _ in range(200))]
    problems = [load_problem(path) for path in all_fixtures()]
    rng = random.Random(5)
    for _ in range(200):
        p = rng.choice(problems)
        inputs.append((twist_by_coboundary(p.cocycle, all_coordinate_phi(rng, p.cocycle)),
                       p.context))
    outcomes = collections.Counter()
    for c, ctx in inputs:
        if cocycles.validate_cocycle(c) is not None:
            continue
        a = Analysis(c, ctx or empty_context(c.table))
        for rule in (decide, decide_simplicity, decide_two_step, decide_heisenberg):
            try:
                rule(a)
                outcomes[rule.__name__, "returned"] += 1
            except (Unsupported, BudgetExceeded) as e:
                outcomes[rule.__name__, type(e).__name__] += 1
    assert all(outcomes[rule, "returned"] >= 50 for rule in
               ("decide", "decide_simplicity", "decide_two_step", "decide_heisenberg"))
    assert outcomes["decide_two_step", "Unsupported"] >= 50, outcomes


def test_heisenberg_shortcut_rejects_multiple_receiving_coords():
    with pytest.raises(Unsupported):
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
    assert decide(c).z_stable == ZSTABLE


def test_product_rules_require_abelian_factors():
    g = groups.GroupPresentation((0,) * 7, groups.g3().bilinear)  # G(3) x Z
    out = decide_product(phase_from_monomials(g, SymbolTable(), []), 6)
    assert not out.applicable


PRODUCT_Z4 = "[symbols]\ntheta irrational\n[group]\nbuilder abelian 0 0 0 0\n[cocycle]\n{}\n"


@pytest.mark.parametrize("body, verdict", [
    ("theta * g:x1 * h:x2\n1/2 * g:x3 * h:x4", ZSTABLE),     # forward rule, one factor
    ("1/2 * g:x1 * h:x2\n1/3 * g:x3 * h:x4", NOT_ZSTABLE),  # converse rule, both factors
])
def test_decide_product_validates_the_product_once_and_never_a_factor(monkeypatch, body, verdict):
    """decide_product validates its input as decide does: once for a bare
    cocycle, not at all for an Analysis whose violation was read.  A factor
    is a pull-back of the product along a homomorphism, so it stays a valid
    2-cocycle and is never validated."""
    calls = []
    real = decision.validate_cocycle
    monkeypatch.setattr(decision, "validate_cocycle", lambda c: calls.append(c) or real(c))
    p = parse_problem(PRODUCT_Z4.format(body))
    out = decide_product(p.cocycle, 2, p.context)
    assert out.applicable and out.verdict == verdict
    assert calls == [p.cocycle]
    a = Analysis(p.cocycle, p.context)
    assert a.violation is None
    calls.clear()
    assert decide_product(a, 2) == out
    assert calls == []


def test_decide_product_rejects_an_invalid_product_as_an_input_error():
    # the cocycle identity fails; without validation the twisted center
    # would report the failing pairing as Unsupported instead
    p = parse_problem(PRODUCT_Z4.format("1/3 * g:x1^2 * h:x2\ntheta * g:x3 * h:x4"))
    with pytest.raises(InputError, match=r"^input is not a 2-cocycle: cocycle identity fails"):
        decide_product(p.cocycle, 2, p.context)


@pytest.mark.parametrize("n1", [-1, 0, 4, 5])
def test_product_split_point_outside_1_to_n_minus_1_is_rejected(n1):
    t, th, _ = theta_entry()
    c = product_fixture([(th, (1, 0, 0, 0), (0, 1, 0, 0))], t)
    with pytest.raises(InputError, match=rf"^n1 must lie in 1\.\.3 .*, got {n1}$"):
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

# the chain Z^5 with a theta in the table that no form names: the product
# walk runs over the params while the table holds a theta
CHAIN_Z5_THETA = CHAIN_Z5.replace("[symbols]\n", "[symbols]\ntheta irrational\n")

# H(1, 2) with an irrational phase beside two params: theta is among the
# symbols the forms name, so both levels' case trees take the general walk,
# and the level-0 leaf recurses into a tree over x, gamma1_1 and y
HEIS_1_2_PARAMS = """[symbols]
theta irrational
x param
y param

[group]
builder heisenberg_diag 1 2

[cocycle]
x * g:t1 * h:s1
theta * g:t2 * h:s2
y * g:s1 * h:t2
"""


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
    (CHAIN_Z5_THETA, NOT_ZSTABLE, SIMPLE_UNKNOWN,
     "81ad98edb62ea48953001c3d08dc18eef77632e67d000bb7aacf7ba55970732e",
     "ed03935504d503686bc4cc2af7788dc842a58481088039b232e886a0d03ecc03"),
    (HEIS_1_2_PARAMS, ZSTABLE, SIMPLE_NO,
     "5bd52c78ba0f18e5e79d3297b8916db9143d777069b925c5b75477eab4c65159",
     "ef1def051d2858f0bf66c0606bf22445c57189636cb7061945182aaaeaf59a6b"),
], ids=["chain-z5", "mixed-symbols", "chain-z4-h3", "chain-z5-theta", "heis-1-2-params"])
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
    """On the chain Z^5 with 4 params every split child is handed the
    classes read on its path and classifies only the symbols after its
    split one, so few values are classified anew, and the exact layer
    searches no kernel: its consistency check reads the span's pivots."""
    p = parse_problem(CHAIN_Z5)
    classified, kernels = [], []
    real_classify = exact.RationalityContext._classify
    monkeypatch.setattr(exact.RationalityContext, "_classify",
                        lambda self, x: classified.append(x) or real_classify(self, x))
    real_kernel = zl.kernel_int

    def kernel_int(mat):
        # the consistency check once searched the span's rows for
        # combinations with zero xi-part here
        if sys._getframe(1).f_globals["__name__"] == exact.__name__:
            kernels.append(mat)
        return real_kernel(mat)

    monkeypatch.setattr(zl, "kernel_int", kernel_int)
    decide(p.cocycle, p.context)
    decide_simplicity(p.cocycle, p.context)
    # 4 on the product walk, one per param at the root (see
    # test_product_trees_classify_only_at_their_root); 29 on the general
    # walk, all of them in the two level-0 case trees; 59 while a rational
    # split child classified its split value afresh, 93 while it dropped its
    # parent's IRRATIONAL entries (also 93 while 12 level-1 children
    # recursed, each classifying in its leaf's own context; 147 while each
    # child rebuilt it, 249 when every child classified from empty)
    assert len(classified) <= 29
    assert kernels == []  # 52 when that search ran, even without thetas


def general_walk_only(monkeypatch):
    """Send every case tree through condition_lattice's general walk."""
    monkeypatch.setattr(exact.RationalityContext, "product_residuals", lambda self, units: None)


def test_a_split_reduces_its_value_once(monkeypatch):
    """On the chain Z^5 with 4 params, walked in general, each split(x)
    costs one reduction of x's symbol vector: the one in the classify that
    found x undetermined, whose residual gives the irrational child its
    consistency; the rational child is consistent by the split's lemma.
    (3 per split before: that classify, the rational child's insertion and
    the irrational child's residual.)"""
    general_walk_only(monkeypatch)
    p = parse_problem(CHAIN_Z5)
    reduced, classified, per_split = [], [], []
    real_reduce = zl.QEchelon.reduce
    real_classify = exact.RationalityContext._classify
    real_split = exact.RationalityContext.split
    monkeypatch.setattr(zl.QEchelon, "reduce",
                        lambda self, v: reduced.append(tuple(v)) or real_reduce(self, v))

    def _classify(self, x):
        start = len(reduced)
        out = real_classify(self, x)
        classified.append((self, x.ints, reduced[start:].count(tuple(self._vec(x)))))
        return out

    def split(self, x):
        before = sum(k for ctx, ints, k in classified if ctx is self and ints == x.ints)
        start = len(reduced)
        out = real_split(self, x)
        per_split.append(before + reduced[start:].count(tuple(self._vec(x))))
        return out

    monkeypatch.setattr(exact.RationalityContext, "_classify", _classify)
    monkeypatch.setattr(exact.RationalityContext, "split", split)
    decide(p.cocycle, p.context)
    decide_simplicity(p.cocycle, p.context)
    assert per_split == [1] * 30


def test_chain_case_leaves_build_no_exact_layer_cache(monkeypatch):
    """On the chain Z^5 with 4 params, walked in general, every case leaf
    reads its classes off its path, so decide and decide_simplicity build a
    span (and fact parts and irrational residuals) only in the internal
    case nodes, each of which classified a value its path had not settled,
    and never in a leaf."""
    general_walk_only(monkeypatch)
    _, leaves, internal = chain_z5_case_trees(monkeypatch)
    assert len(leaves) == 32
    assert len(internal) == 2 * 14 + 1  # two trees of 15 internal nodes, one root
    assert all("_span" in ctx.__dict__ for ctx in internal)
    caches = {"_span", "_fact_parts", "_irrational_residuals"}
    assert [leaf for leaf in leaves if caches & leaf.ctx.__dict__.keys()] == []


def chain_z5_case_trees(monkeypatch, text=CHAIN_Z5):
    """The case leaves of decide and decide_simplicity on the chain Z^5 with
    4 params (or another problem ``text``), and every context above them:
    the receivers of RationalityContext.split, whose returned children are
    exactly the other internal contexts and the leaves' contexts."""
    p = parse_problem(text)
    leaves, internal, children = [], {}, {}
    real_lattice = cocycles.condition_lattice
    real_split = exact.RationalityContext.split

    def split(self, x):
        out = real_split(self, x)
        internal[id(self)] = self
        children.update((id(child), child) for child in out if child is not None)
        return out

    monkeypatch.setattr(cocycles, "condition_lattice",
                        lambda *args: leaves.extend(out := real_lattice(*args)) or out)
    monkeypatch.setattr(exact.RationalityContext, "split", split)
    decide(p.cocycle, p.context)
    decide_simplicity(p.cocycle, p.context)
    below = (internal.keys() - {id(p.context)}) | {id(leaf.ctx) for leaf in leaves}
    assert children.keys() == below
    return p.context, leaves, list(internal.values())


def test_product_trees_classify_only_at_their_root(monkeypatch):
    """The chain Z^5's params are independent free symbols, so both case
    trees are built as the product over them: _classify runs on the root
    context alone, once per symbol (29 calls in 29 contexts when walked in
    general), and the rational span reduces nothing below the root."""
    classified, reduced = [], []
    real_classify = exact.RationalityContext._classify
    real_reduce = zl.QEchelon.reduce
    monkeypatch.setattr(exact.RationalityContext, "_classify",
                        lambda self, x: classified.append((self, x)) or real_classify(self, x))
    monkeypatch.setattr(zl.QEchelon, "reduce",
                        lambda self, v: reduced.append(self) or real_reduce(self, v))
    root, leaves, internal = chain_z5_case_trees(monkeypatch)
    assert len(leaves) == 32 and len(internal) == 2 * 14 + 1
    assert len(classified) == 4 and all(ctx is root for ctx, _ in classified)
    assert sorted(symbol_names(x)[0] for _, x in classified) == ["x1", "x2", "x3", "x4"]
    assert reduced and all(span is root._span for span in reduced)


@pytest.mark.parametrize("text", [CHAIN_Z5, CHAIN_Z5_THETA], ids=["chain-z5", "chain-z5-theta"])
def test_product_tree_nodes_build_no_exact_layer_cache(text, monkeypatch):
    """Below the root no internal node or leaf of the chain Z^5's product
    trees builds a span, fact parts or irrational residuals: each split
    takes its value's residual and consistency from the root's answers, a
    theta in the table or not.  (With the theta, 44 of the 60 contexts
    built a span while a rational split child's consistency was set only
    without thetas.)"""
    root, leaves, internal = chain_z5_case_trees(monkeypatch, text)
    caches = {"_span", "_fact_parts", "_irrational_residuals"}
    below = [ctx for ctx in internal if ctx is not root] + [leaf.ctx for leaf in leaves]
    assert len(below) == 2 * 14 + 32
    assert [ctx for ctx in below if caches & ctx.__dict__.keys()] == []


def test_chain_records_skip_the_generic_constructor(monkeypatch):
    """Deciding the chain Z^5 with 4 params builds its 32 case leaves and 32
    branches with their own constructors, never the generic Value.__init__
    (its field loop and _check hook were about 5% of a chain-free pass)."""
    built = []
    real = Value.__init__
    monkeypatch.setattr(Value, "__init__",
                        lambda self, *a, **k: built.append(type(self)) or real(self, *a, **k))
    p = parse_problem(CHAIN_Z5)
    v = decide(p.cocycle, p.context)
    _, branches, _ = decide_simplicity(p.cocycle, p.context)
    assert len(v.certificate.branches) == len(branches) == 16
    assert built and not {cocycles.CaseLeaf, Branch} & set(built)


@pytest.mark.parametrize("text, branches", [(CHAIN_Z5, 16), (CHAIN_Z4_H3, 27)],
                         ids=["chain-z5", "chain-z4-h3"])
def test_each_recursion_branch_indexes_its_leaf_once(text, branches, monkeypatch):
    """decide and decide_simplicity compute a leaf lattice's index once per
    branch of the recursion, where the index rule reads it, and a Branch
    stores none: 16 on the chain Z^5 with 4 params (48 while every Branch
    stored its leaf's index, decide_simplicity's too) and 27 on Z^4 x H3(Z)
    with 4 params (70)."""
    p = parse_problem(text)
    calls = []
    real = zl.SubgroupLattice.index
    monkeypatch.setattr(zl.SubgroupLattice, "index", lambda self: calls.append(self) or real(self))
    decide(p.cocycle, p.context)
    decide_simplicity(p.cocycle, p.context)
    assert len(calls) == branches


def test_chain_case_leaves_need_no_hermite_form(monkeypatch):
    """Every condition row of a chain torus's case leaves, and every
    commutator row of its groups, is a singleton equality, so the presolve
    (once per row, zlinalg.presolve) fixes each constrained coordinate and
    solve_mixed_system builds no Hermite form.  (36 row_hnf calls, 30 of
    them inside kernel_int, before the presolve.)"""
    p = parse_problem(CHAIN_Z5)
    calls = []
    real = zl.row_hnf
    monkeypatch.setattr(zl, "row_hnf", lambda *a, **k: calls.append(a) or real(*a, **k))
    v = decide(p.cocycle, p.context)
    decide_simplicity(p.cocycle, p.context)
    assert calls == []
    assert v.z_stable == NOT_ZSTABLE


def test_recursion_classifies_each_symbol_once_per_case_node(monkeypatch):
    """Inside condition_lattice each case node (a context popped by one
    call) classifies each distinct symbol at most once, and a split child
    reads the symbols settled on its path off the classes it is handed: on
    Z^4 x H3(Z) with 4 params, 77 classify calls for 77 distinct (node,
    symbol) pairs of 41 classifying nodes in 13 calls, 11 of them level-1
    children (305 calls in 73 nodes while a child read its ancestors' memos
    through a parent link, 187 while each child was handed its parent's
    settled classifications).  The memo misses are 69: a level-1 tree
    classifies afresh in its leaf's context what the leaf read off its path
    (45 while that leaf read its ancestors' memos, 95 while a rational split
    child of a context with a theta kept none of its parent's IRRATIONAL
    entries, 125 while it also classified its split value afresh), and the
    trace stays at its recorded hash.  (Pinned on the chain Z^5 with 4
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
    assert (len(nodes), sum(map(len, nodes))) == (13, 41)
    assert len(calls) == len(set(calls)) == 77
    assert len(misses) == 69
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


# (Z/5)^2 with two rational symbols of denominator 5 on one phase term: at
# t = 1/5, u = 4/5 the phase is g:x1 * h:x2, which is integer-valued
TWO_FIFTHS = """[symbols]
t rational 5
u rational 5

[group]
moduli 5 5

[cocycle]
t * g:x1 * h:x2
u * g:x1 * h:x2
"""


def test_the_specialized_two_fifths_phase_is_not_simple():
    """At t = 1/5, u = 4/5 the twisted center of TWO_FIFTHS is the whole
    group, and the specialized problem is not simple."""
    p = parse_problem(TWO_FIFTHS.replace("t * g", "1/5 * g").replace("u * g", "4/5 * g"))
    assert decide_simplicity(p.cocycle, p.context)[0] == SIMPLE_NO


@pytest.mark.xfail(strict=True, reason="a case leaf takes one congruence per rational "
                                       "symbol, so two symbols whose sum is an integer "
                                       "go unseen")
def test_rational_symbols_with_an_integer_sum_do_not_make_the_algebra_simple():
    """The leaf requires t*F and u*F integral for every t and u with 5t and
    5u integers, each alone, and finds the twisted center trivial, so
    simplicity reads yes with exit 0; at t = 1/5, u = 4/5 it is no (the
    rational-symbol analogue of ROADMAP item 15)."""
    p = parse_problem(TWO_FIFTHS)
    assert decide_simplicity(p.cocycle, p.context)[0] != SIMPLE_YES


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


@pytest.mark.parametrize("name", ["heis-1-2", "heis-1-3", "z-times-h3-irr-rat"])
def test_recursion_and_fallback_share_each_leaf_push_down(name, monkeypatch):
    """On the fixtures where decide falls back to the two-step criterion,
    the recursion and the fallback both read each pushed level-0 leaf's
    push-down, and it is computed once: one level-0 quotient_by_central and
    one push_to_quotient per pushed leaf (two each while the fallback built
    its own)."""
    p = load_problem(fixture(name))
    c = p.cocycle
    quotients, pushes, readers = [], [], []
    real_quotient, real_push = groups.quotient_by_central, decision.push_to_quotient
    real_read = Analysis.push_down

    def quotient(g, lat):
        if g is c.group:
            quotients.append(lat)
        return real_quotient(g, lat)

    def push(w, qd):
        if w is c:
            pushes.append(qd.subgroup)
        return real_push(w, qd)

    def read(self, leaf):
        if self.cocycle is c:
            readers.append((sys._getframe(1).f_code.co_name, leaf.lattice))
        return real_read(self, leaf)

    monkeypatch.setattr(groups, "quotient_by_central", quotient)
    monkeypatch.setattr(decision, "push_to_quotient", push)
    monkeypatch.setattr(Analysis, "push_down", read)
    decide(c, p.context)
    pushed = []
    for _, lat in readers:
        if not any(lat is seen for seen in pushed):
            pushed.append(lat)
    assert {reader for reader, _ in readers} == {"_decide_node", "_two_step_leaf"}
    assert len(readers) > len(pushed) == len(quotients) == len(pushes) >= 1
    assert all(q is lat and w is lat for q, w, lat in zip(quotients, pushes, pushed))


def test_a_failed_push_down_is_kept_and_raised_to_every_reader(monkeypatch):
    """The g3 cocycle twisted by the coboundary of 1/2 * r13 * r23 pushes
    down to no 2-cocycle.  The Analysis keeps that Unsupported: the
    recursion, every later read and the two-step fallback see the same
    error, which the fallback reports as "quotient construction failed:
    <reason>", and the push-down runs once."""
    p = load_problem(fixture("g3"))
    t = p.cocycle.table
    phi = Poly.make(6, t, [((0, 0, 0, 0, 1, 1), KNumber.make(t, Fraction(1, 2)))])
    a = Analysis(twist_by_coboundary(p.cocycle, phi), p.context)
    pushes = []
    real_push = decision.push_to_quotient
    monkeypatch.setattr(decision, "push_to_quotient",
                        lambda w, qd: pushes.append(qd) or real_push(w, qd))
    v = decide(a)
    [leaf] = a.leaves
    errors = []
    for _ in range(2):
        with pytest.raises(Unsupported) as out:
            a.push_down(leaf)
        errors.append(out.value)
    with pytest.raises(Unsupported) as fallback:
        decide_two_step(a)
    assert v.z_stable == UNDECIDED and len(pushes) == 1
    assert errors[0] is errors[1] is fallback.value.__cause__
    assert str(errors[0]).startswith("push-down is not a 2-cocycle")
    assert str(fallback.value) == f"quotient construction failed: {errors[0]}"
    assert v.certificate.branches[0].notes[-1] == f"undecided: {errors[0]}"


def kept_error_tracebacks(read, reads=1000):
    """The one error that every call of read raises, and its traceback's
    length after the first and after the last of reads calls."""
    errors, lengths = [], []
    for _ in range(reads):
        try:
            read()
        except (BudgetExceeded, Unsupported) as e:
            errors.append(e)
            lengths.append(len(traceback.extract_tb(e.__traceback__)))
    assert len(errors) == reads and all(e is errors[0] for e in errors)
    return lengths[0], lengths[-1]


def test_a_kept_error_raised_again_keeps_its_traceback():
    """Analysis.leaves and a failed push_down raise their kept error with
    the traceback it was caught with: 1000 reads leave it as long as one
    (a bare raise appended each reader's frames, 5 entries after one read
    of leaves and 2003 after 1000)."""
    p = parse_problem("[symbols]\na param\nb param\nc param\n[group]\n"
                      "builder abelian 0 0 0 0\n[cocycle]\na * g:x1 * h:x2\n"
                      "b * g:x2 * h:x3\nc * g:x3 * h:x4\n")
    a = Analysis(p.cocycle, p.context, 1)
    first, last = kept_error_tracebacks(lambda: a.leaves)
    assert first == last
    g3 = load_problem(fixture("g3"))
    t = g3.cocycle.table
    phi = Poly.make(6, t, [((0, 0, 0, 0, 1, 1), KNumber.make(t, Fraction(1, 2)))])
    a = Analysis(twist_by_coboundary(g3.cocycle, phi), g3.context)
    [leaf] = a.leaves
    first, last = kept_error_tracebacks(lambda: a.push_down(leaf))
    assert first == last


def test_substitution_counts_of_validation_and_one_fixture_pass(monkeypatch):
    """validate_cocycle reads Q(g, e), Q(e, g), Q(g, h) and Q(h, k) by
    renaming or restriction, so on g3 (no torsion) only Q(g*h, k) and
    Q(g, h*k) expand a monomial image (6 when all six phases were
    substituted); one pass of decide and decide_simplicity over the ten
    shipped fixtures makes 67 expansions (76 while the two-step fallback
    pushed each level-0 leaf down again, 170 when all six were substituted,
    102 while the torsion slots and the bilinear pairing rows substituted
    too).
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
    assert len(calls) == 67  # 76 before the fallback shared the push-downs


def test_validation_and_one_fixture_pass_build_no_fractions(monkeypatch):
    """The engine computes in integers: validate_cocycle on the ten shipped
    fixtures builds no Fraction (130 while integrality was tested over Q),
    and one pass of decide and decide_simplicity builds none either (1960
    before the integer validation, pairing rows, lattice denominators,
    surjectivity test and induced carries; both counts on Python 3.11).  A
    Fraction is counted when its constructor runs and, on Python >= 3.12,
    when arithmetic builds one through _from_coprime_ints, which bypasses
    the constructor.  Parsing builds none either: the [tf] density bounds
    stay integer pairs until the tf command reads them."""
    built = []
    real_new = Fraction.__new__
    monkeypatch.setattr(Fraction, "__new__",
                        lambda cls, *args, **kw: built.append(cls) or real_new(cls, *args, **kw))
    if "_from_coprime_ints" in vars(Fraction):
        real_from = Fraction._from_coprime_ints
        monkeypatch.setattr(Fraction, "_from_coprime_ints", classmethod(
            lambda cls, n, d: built.append(cls) or real_from(n, d)))
    assert Fraction(1, 2) + Fraction(1, 3) and built  # the count sees Fractions
    built.clear()
    problems = [load_problem(f) for f in all_fixtures()]
    assert built == []
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
    carry, so the 23 Smith forms are the 12 parametrizations of the 13
    twisted centers' centers (the level-0 center is computed once, for
    decide and decide_simplicity alike; 13 while each call recomputed it)
    and the 11 quotients' structures.  (Pinned on the
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
    # parametrization 13 before the presentation kept its center
    assert collections.Counter(s[0] for s in smith) == {"parametrization": 12,
                                                        "quotient_structure": 11}
    assert not [s for s in smith if {"index", "is_finite"} & set(s)]
