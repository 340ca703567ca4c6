"""End-to-end acceptance checks.

Each test covers one headline guarantee of the package and prints a single
[PASS] line when it holds; timing limits are asserted where the guarantee
includes one.
"""

import math
import random
import time
from fractions import Fraction

from cocycle_lab import groups, zlinalg as zl
from cocycle_lab.cocycles import (Cocycle, CocycleError, antisym, cocycle_defect,
                                  induce_gamma, phase_from_monomials,
                                  push_to_quotient, twisted_center,
                                  validate_cocycle)
from cocycle_lab.decision import (NOT_ZSTABLE, SIMPLE_NO, SIMPLE_YES,
                                  UNDECIDED, ZSTABLE, decide, decide_abelian,
                                  decide_heisenberg, decide_simplicity)
from cocycle_lab.exact import (KNumber, SymbolTable, empty_context, knum,
                               symbol)
from cocycle_lab.poly import Poly
from cocycle_lab.problem import load_problem
from cocycle_lab.timefreq import (NO_BY_NECESSITY, UNDECIDED_TF, YES,
                                  DensityDatum, frame_verdict,
                                  multiwindow_bound, multiwindow_f)

from helpers import coeff, det, mat_mul, shifted_section, symbol_names, twist_by_coboundary
from test_cli import FIXTURES, fixture
from test_cocycles import (g3_cocycle, heis_cocycle, knumber_is_integral,
                           rand_phase, theta_table)
from test_decision import torus, trace_depth, walk

ALL_FIXTURES = ("torus2", "torus2-rational", "h3-trivial", "g3", "heis-1-2",
                "heis-1-3", "z-times-h3-irr-irr", "z-times-h3-rat-irr",
                "z-times-h3-irr-rat", "z-times-h3-rat-rat")


def theta_ctx(table):
    return empty_context(table).assume_irrational(symbol(table, "theta"))


def branch_labels(node):
    for nd in walk(node):
        for b in nd.branches:
            yield b.label


# ---------------------------------------------------------------------------
# 1. two-dimensional torus: irrational theta vs theta = p/q


def test_acceptance_1_torus():
    start = time.monotonic()
    t = theta_table()
    v = decide_abelian(torus(t, 2, {(0, 1): knum(t, 0, theta=1)}), theta_ctx(t))
    assert v.z_stable == ZSTABLE

    for q in (2, 3, 5):
        for p in (1, q - 1):
            if math.gcd(p, q) != 1:
                continue
            v = decide_abelian(torus(SymbolTable(), 2, {(0, 1): Fraction(p, q)}))
            assert v.z_stable == NOT_ZSTABLE
            [branch] = v.certificate.branches
            assert branch.index == q * q
            # brute-force residue count of the twisted centre mod q
            residues = sum(1 for a in range(q) for b in range(q)
                           if (p * a) % q == 0 and (p * b) % q == 0)
            assert q * q == (q * q) // residues
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    print(f"[PASS] 1. torus: irrational theta Z-stable, p/q gives index q^2 "
          f"for q in 2,3,5 ({elapsed:.2f}s)")


# ---------------------------------------------------------------------------
# 2. free 2-step group on three generators


def test_acceptance_2_g3():
    start = time.monotonic()
    c = g3_cocycle()
    ctx = theta_ctx(c.table)
    [leaf] = twisted_center(c, ctx)
    axis = zl.SubgroupLattice(c.group.moduli,
                              ((0, 0, 0, 0, 0, 1),))
    assert leaf.lattice.same_subgroup(axis)

    qd = groups.quotient_by_central(c.group, leaf.lattice)
    wg = induce_gamma(push_to_quotient(c, qd), qd)
    q = antisym(wg)
    rng = random.Random(101)
    basis = wg.group.center().hnf_basis
    checked = 0
    for _ in range(200):
        coeffs = [rng.randint(-4, 4) for _ in basis]
        z = [sum(a * v[i] for a, v in zip(coeffs, basis))
             for i in range(wg.n)]
        assert wg.group.center().contains(z)
        h = [rng.randint(-4, 4) for _ in range(wg.n)]
        val = q.eval(tuple(z) + tuple(h))
        for name in symbol_names(val):
            if name.startswith("gamma"):
                assert coeff(val, name) == 0
        checked += 1
    assert checked >= 20

    v = decide(c, ctx)
    assert v.z_stable == ZSTABLE
    assert trace_depth(v.certificate) == 2
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    print(f"[PASS] 2. g3: twisted centre is the r23 axis, induced gamma-phase "
          f"vanishes on central arguments, Z-stable at depth 1 ({elapsed:.2f}s)")


# ---------------------------------------------------------------------------
# 3. discrete Heisenberg H(1, d2) with rational p/d2 and irrational theta


def test_acceptance_3_heisenberg():
    from cocycle_lab.cocycles import phi_map

    start = time.monotonic()
    for d2, p in ((2, 1), (3, 1), (3, 2)):
        c = heis_cocycle(d2, p)
        ctx = theta_ctx(c.table)
        [leaf] = twisted_center(c, ctx)
        qd = groups.quotient_by_central(c.group, leaf.lattice)
        w = push_to_quotient(c, qd)
        dlat = zl.SubgroupLattice(w.group.moduli, ((1, 0, 0, 0, 0),))
        leaves, rows, zmods = phi_map(w, dlat, ctx)
        want = zl.SubgroupLattice(w.group.moduli, (
            (1, 0, 0, 0, 0), (0, d2, 0, 0, 0), (0, 0, 1, 0, 0),
            (0, 0, 0, 1, 0), (0, 0, 0, 0, 1)))
        assert len(leaves) == 1
        assert leaves[0].lattice.same_subgroup(want)

        general = decide(c, ctx)
        shortcut = decide_heisenberg(c, ctx)
        assert general.z_stable == shortcut.z_stable == ZSTABLE
        labels = list(branch_labels(shortcut.certificate))
        assert any("gammaM_1 irrational" in s for s in labels)
        assert any("gammaM_1 rational" in s for s in labels)
    elapsed = time.monotonic() - start
    assert elapsed < 2.0
    print(f"[PASS] 3. H(1,d2): M = {{s1 in d2*Z}} exact, decide and "
          f"decide_heisenberg agree on Z-stable, trace splits on the induced "
          f"parameter ({elapsed:.2f}s)")


# ---------------------------------------------------------------------------
# 4. the Z x H3(Z) family in all four parameter assignments


def gabor(name):
    """Cocycle and context of a shipped Z x H3(Z) fixture."""
    p = load_problem(fixture(f"z-times-h3-{name}"))
    return p.cocycle, p.context


def test_acceptance_4_gabor():
    start = time.monotonic()
    c, ctx = gabor("irr-irr")
    [leaf] = twisted_center(c, ctx)
    assert leaf.lattice.is_trivial()
    assert decide_simplicity(c, ctx)[0] == SIMPLE_YES
    assert decide(c, ctx).z_stable == ZSTABLE

    c, ctx = gabor("rat-irr")  # t1 rational 5
    [leaf] = twisted_center(c, ctx)
    assert leaf.lattice.hnf_basis == ((5, 0, 0, 0),)
    assert decide_simplicity(c, ctx)[0] == SIMPLE_NO
    assert decide(c, ctx).z_stable == ZSTABLE

    c, ctx = gabor("irr-rat")  # t2 rational 4
    [leaf] = twisted_center(c, ctx)
    assert leaf.lattice.hnf_basis == ((0, 4, 0, 0),)
    assert decide_simplicity(c, ctx)[0] == SIMPLE_NO

    c, ctx = gabor("rat-rat")  # t1 rational 3, t2 rational 4
    [leaf] = twisted_center(c, ctx)
    assert leaf.lattice.hnf_basis == ((3, 0, 0, 0), (0, 4, 0, 0))
    assert decide_simplicity(c, ctx)[0] == SIMPLE_NO
    assert decide(c, ctx).z_stable == NOT_ZSTABLE
    # recorded hand computation: the quotient by the twisted centre has
    # invariant factors (12, 0, 0) and the rational branch keeps free rank 2
    qd = groups.quotient_by_central(c.group, leaf.lattice)
    assert qd.group.moduli == (12, 0, 0)

    elapsed = time.monotonic() - start
    assert elapsed < 2.0
    print(f"[PASS] 4. Z x H3(Z): centres, simplicity iff both irrational, "
          f"non-rational when t2 irrational, both-rational not Z-stable "
          f"({elapsed:.2f}s)")


# ---------------------------------------------------------------------------
# 5. frame and Riesz verdicts from density certificates


def test_acceptance_5_frames():
    low = DensityDatum(Fraction(2, 5), Fraction(3, 5))
    v = frame_verdict(True, low)
    assert v.frame_exists_smooth == YES

    high = DensityDatum(Fraction(3, 2), Fraction(8, 5))
    v = frame_verdict(True, high)
    assert v.riesz_exists_smooth == YES
    assert v.frame_exists_smooth == UNDECIDED_TF
    v = frame_verdict(True, high, homogeneous=True)
    assert v.riesz_exists_smooth == YES
    assert v.frame_exists_smooth == NO_BY_NECESSITY

    v = frame_verdict(False, low)
    assert v.frame_exists_smooth == UNDECIDED_TF
    assert v.riesz_exists_smooth == UNDECIDED_TF
    print("[PASS] 5. frames: density below 1 gives frames, above 1 gives "
          "Riesz sequences with necessity under homogeneity, rational case "
          "stays undecided")


# ---------------------------------------------------------------------------
# 6. multiwindow window-count recursion


def test_acceptance_6_multiwindow():
    assert multiwindow_f(1) == 1
    assert multiwindow_f(2) == 35
    assert multiwindow_f(3) == 8747
    assert multiwindow_f(4) == 25509167
    for n in range(1, 13):
        assert multiwindow_f(n + 1) + 1 == 9 ** n * (n + 1) * (multiwindow_f(n) + 1)
    b = multiwindow_bound(4, 0)
    assert b.windows == multiwindow_f(4) + 1
    print("[PASS] 6. multiwindow: f(1..4) = 1, 35, 8747, 25509167 and the "
          "recursion identity holds through n = 12")


# ---------------------------------------------------------------------------
# 7. randomized oracle suites


def rand_two_step(rng):
    """Random class-2 presentation with free feeding coordinates and a
    bilinear theta/rational phase supported on them."""
    while True:
        n = rng.randint(2, 4)
        feed = list(range(n - 1))
        target = n - 1
        moduli = [0] * n
        moduli[target] = rng.choice((0, 0, 2, 3, 4))
        entries = []
        for i in feed:
            for j in feed:
                if i < j and rng.random() < 0.7:
                    entries.append((target, i, j, rng.randint(-2, 2)))
        try:
            g = groups.GroupPresentation(tuple(moduli), tuple(entries))
        except ValueError:
            continue
        t = theta_table()
        mono = []
        for i in feed:
            for j in feed:
                if rng.random() < 0.6:
                    coef = (knum(t, 0, theta=Fraction(rng.randint(-2, 2)))
                            if rng.random() < 0.5 else
                            KNumber.make(t, Fraction(rng.randint(-3, 3),
                                                     rng.choice((1, 2, 3)))))
                    ge = [0] * n
                    he = [0] * n
                    ge[i] = 1
                    he[j] = 1
                    mono.append((coef, tuple(ge), tuple(he)))
        c = Cocycle(g, t, phase_from_monomials(g, t, mono).phase)
        if validate_cocycle(c) is not None:
            continue
        try:
            # skip presentations whose centre is not coordinate-additive;
            # the engine rejects those up front
            twisted_center(c, theta_ctx(t))
        except CocycleError:
            continue
        return c


def brute_member(c, ctx, g_elt):
    q = antisym(c)
    from cocycle_lab.exact import INTEGER
    for j in range(c.n):
        ej = tuple(1 if i == j else 0 for i in range(c.n))
        if ctx.classify(q.eval(tuple(g_elt) + ej)).kind != INTEGER:
            return False
    return True


def test_acceptance_7_oracles():
    start = time.monotonic()
    rng = random.Random(77)
    mismatches = 0

    # (a) twisted-centre membership vs brute force on random 2-step groups
    for _ in range(100):
        c = rand_two_step(rng)
        ctx = theta_ctx(c.table)
        leaves = twisted_center(c, ctx)
        center = c.group.center()
        for leaf in leaves:
            for _ in range(40):
                cand = [rng.randint(-4, 4) for _ in range(c.n)]
                if not center.contains(cand):
                    continue
                if leaf.lattice.contains(cand) != brute_member(c, leaf.ctx, cand):
                    mismatches += 1
    assert mismatches == 0

    # (b) validator vs pointwise defect evaluation on valid + corrupted phases
    bases = [g3_cocycle(), heis_cocycle(2, 1), heis_cocycle(3, 2),
             heis_cocycle(5, 3)]
    cands = []
    i = 0
    while len(cands) < 50:
        base = bases[i % len(bases)]
        from test_cocycles import rand_phi
        cands.append(twist_by_coboundary(base, rand_phi(rng, base.group,
                                                        base.table)))
        i += 1
    while len(cands) < 100:
        base = bases[i % len(bases)]
        bad = rand_phase(rng, base.group, base.table)
        cands.append(Cocycle(base.group, base.table, base.phase + bad.phase))
        i += 1
    for c in cands:
        accepted = validate_cocycle(c) is None
        d = cocycle_defect(c)
        ok = all(knumber_is_integral(
                     d.eval(tuple(rng.randint(-6, 6) for _ in range(3 * c.n))),
                     c.table)
                 for _ in range(500))
        if accepted != ok:
            mismatches += 1
    assert mismatches == 0

    # (c) HNF / SNF structure on random integer matrices
    for _ in range(200):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        a = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        at = zl.transpose(a)  # the column HNF of a is the row HNF of its transpose
        h, uu = zl.row_hnf(at, with_transform=True)
        assert abs(det(uu)) == 1
        assert mat_mul(uu, at) == h
        u, d, v, _ = zl.snf(a)
        assert abs(det(u)) == 1 and abs(det(v)) == 1
        assert mat_mul(mat_mul(u, a), v) == d
        diag = [d[i][i] for i in range(min(rows, cols))]
        for i in range(rows):
            for j in range(cols):
                if i != j:
                    assert d[i][j] == 0
        assert all(x >= 0 for x in diag)
        for x, y in zip(diag, diag[1:]):
            if x:
                assert y % x == 0
            else:
                assert y == 0

    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print(f"[PASS] 7. oracles: centre membership, validator, and HNF/SNF "
          f"suites all agree with brute force, zero mismatches "
          f"({elapsed:.2f}s)")


# ---------------------------------------------------------------------------
# 8. invariance: coboundary twists, section swaps, flag equality


# coordinates that are safe to perturb: not receiving a commutator and not
# acquiring torsion in any quotient the recursion takes
SAFE_COORDS = {
    "torus2": (0, 1), "torus2-rational": (0, 1), "h3-trivial": (1, 2),
    "g3": (0, 1, 2), "heis-1-2": (1, 2, 3, 4), "heis-1-3": (1, 2, 3, 4),
    "z-times-h3-irr-irr": (2, 3), "z-times-h3-rat-irr": (2, 3),
    "z-times-h3-irr-rat": (2, 3), "z-times-h3-rat-rat": (2, 3),
}


def safe_phi(rng, c, coords):
    terms = []
    for _ in range(rng.randint(1, 3)):
        e = [0] * c.n
        e[rng.choice(coords)] += 1
        e[rng.choice(coords)] += 1
        coef = KNumber.make(c.table, Fraction(rng.randint(-3, 3),
                                              rng.choice((1, 2, 3))))
        terms.append((tuple(e), coef))
    return Poly.make(c.n, c.table, terms)


def check_flags(v):
    assert v.pure == v.nowhere_scattered == v.z_stable


def test_acceptance_8_invariance():
    rng = random.Random(88)
    for name in ALL_FIXTURES:
        p = load_problem(fixture(name))
        base = decide(p.cocycle, p.context)
        check_flags(base)
        for _ in range(3):
            phi = safe_phi(rng, p.cocycle, SAFE_COORDS[name])
            twisted = twist_by_coboundary(p.cocycle, phi)
            assert validate_cocycle(twisted) is None
            v = decide(twisted, p.context)
            check_flags(v)
            assert v.z_stable == base.z_stable, (name, phi)

    # section swap: re-run the recursion from an induced cocycle built with a
    # shifted linear section and compare with the default section
    swaps = {"g3": 0, "heis-1-2": 1, "heis-1-3": 1, "z-times-h3-rat-irr": 2,
             "z-times-h3-irr-rat": 2, "z-times-h3-rat-rat": 2}
    for name, coord in swaps.items():
        p = load_problem(fixture(name))
        leaves = twisted_center(p.cocycle, p.context)
        leaf = next(lf for lf in leaves if not lf.lattice.is_trivial())
        qd1 = groups.quotient_by_central(p.cocycle.group, leaf.lattice)
        qd2 = shifted_section(qd1, {coord: leaf.lattice.hnf_basis[0]})
        w1 = induce_gamma(push_to_quotient(p.cocycle, qd1), qd1)
        w2 = induce_gamma(push_to_quotient(p.cocycle, qd2), qd2)
        v1 = decide(w1)
        v2 = decide(w2)
        check_flags(v1)
        check_flags(v2)
        assert v1.z_stable == v2.z_stable, name
    print("[PASS] 8. invariance: verdicts stable under coboundary twists and "
          "section swaps; purity, nowhere-scattered, and Z-stability flags "
          "agree in every report")
