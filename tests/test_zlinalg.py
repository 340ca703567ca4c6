import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cocycle_lab import zlinalg as zl

from helpers import det, mat_mul, mat_vec, rank_int, reduce_mod_columns


def rand_matrix(rng, rows, cols, lo=-9, hi=9):
    return [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]


def test_row_hnf_small_known():
    h = zl.row_hnf([[2, 4], [1, 3]])
    assert h == [[1, 1], [0, 2]]


def test_snf_known():
    _, d, _, _ = zl.snf([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    diag = [d[i][i] for i in range(3)]
    assert diag == [2, 2, 156]


def test_hnf_properties_random():
    rng = random.Random(7)
    for _ in range(200):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        a = rand_matrix(rng, rows, cols)
        h, u = zl.row_hnf(a, with_transform=True)
        assert abs(det(u)) == 1
        assert mat_mul(u, a) == h
        # echelon shape with positive pivots and reduced entries above
        last = -1
        for row in h:
            piv = next((j for j, x in enumerate(row) if x != 0), None)
            if piv is None:
                continue
            assert piv > last
            last = piv
            assert row[piv] > 0


def test_hnf_canonical_across_generating_sets():
    rng = random.Random(11)
    for _ in range(100):
        n = rng.randint(1, 4)
        k = rng.randint(1, 4)
        gens = [tuple(rng.randint(-6, 6) for _ in range(n)) for _ in range(k)]
        lat = zl.SubgroupLattice((0,) * n, tuple(gens))
        # regenerate with random unimodular recombinations and duplicates
        g2 = [list(g) for g in gens]
        for _ in range(6):
            i, j = rng.randrange(k), rng.randrange(k)
            if i != j:
                q = rng.randint(-3, 3)
                g2[i] = [x + q * y for x, y in zip(g2[i], g2[j])]
        g2.append([sum(x) for x in zip(*g2)] if g2 else [0] * n)
        lat2 = zl.SubgroupLattice((0,) * n, tuple(tuple(g) for g in g2))
        assert lat.same_subgroup(lat2)


def test_snf_properties_random():
    rng = random.Random(13)
    for _ in range(200):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        a = rand_matrix(rng, rows, cols)
        u, d, v, _ = zl.snf(a)
        assert abs(det(u)) == 1
        assert abs(det(v)) == 1
        assert mat_mul(mat_mul(u, a), v) == d
        diag = [d[i][i] for i in range(min(rows, cols))]
        for i in range(rows):
            for j in range(cols):
                if i != j:
                    assert d[i][j] == 0
        for x, y in zip(diag, diag[1:]):
            if x:
                assert y % x == 0
            else:
                assert y == 0
        assert all(x >= 0 for x in diag)


def test_kernel_int_random():
    rng = random.Random(17)
    for _ in range(100):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 5)
        a = rand_matrix(rng, rows, cols, -5, 5)
        ker = zl.kernel_int(a)
        for col in ker:
            assert not any(mat_vec(a, col))
        # rank-nullity over Q
        assert len(ker) == cols - rank_int(a)


def test_kernel_is_saturated():
    # saturated: any integer vector in Q-span of kernel and in the kernel is a
    # Z-combination of the basis
    rng = random.Random(19)
    for _ in range(60):
        a = rand_matrix(rng, 2, 4, -4, 4)
        ker = zl.kernel_int(a)
        if not ker:
            continue
        lat = zl.SubgroupLattice((0,) * 4, tuple(tuple(c) for c in ker))
        for _ in range(20):
            v = [rng.randint(-8, 8) for _ in range(4)]
            if not any(mat_vec(a, v)):
                assert lat.contains(v)


def test_membership_matches_residues_mod_det():
    """A full-rank L contains d*Z^n, d = |det|, so v lies in L iff v mod d is
    a sum of generators mod d; the coordinates rebuild v from the HNF basis."""
    rng = random.Random(23)
    checked = 0
    while checked < 40:
        n = rng.randint(1, 3)
        gens = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        d = abs(det(gens))
        if not 0 < d <= 12:
            continue
        checked += 1
        residues = {tuple(sum(x * g[i] for x, g in zip(xs, gens)) % d for i in range(n))
                    for xs in itertools.product(range(d), repeat=n)}
        lat = zl.SubgroupLattice((0,) * n, tuple(map(tuple, gens)))
        for v in itertools.product(range(-5, 6), repeat=n):
            c = lat.coordinates(v)
            assert (c is not None) == (tuple(x % d for x in v) in residues)
            if c is not None:
                assert mat_vec(zl.transpose(lat.hnf_basis), c) == list(v)


def test_membership_small_known():
    # the integer systems 2x = 1, 2x + 4y = 3 and (x, 0) = (0, 1) have no solution
    assert not zl.SubgroupLattice((0,), ((2,),)).contains([1])
    assert not zl.SubgroupLattice((0,), ((2,), (4,))).contains([3])
    assert not zl.SubgroupLattice((0, 0), ((1, 0),)).contains([0, 1])
    assert zl.SubgroupLattice((0,), ((4,), (6,))).contains([2])


def brute_index(lat):
    """Count residues of the lattice in a box; only valid when index is small."""
    n = lat.n
    seen = set()
    span = range(0, 13)
    import itertools

    for v in itertools.product(span, repeat=n):
        seen.add(tuple(reduce_mod_columns(lat.hnf_basis, list(v))))
    return len(seen)


def test_index_vs_residue_count():
    rng = random.Random(29)
    checked = 0
    while checked < 25:
        n = rng.randint(1, 3)
        gens = tuple(tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(n))
        lat = zl.SubgroupLattice((0,) * n, gens)
        idx = lat.index()
        if idx is math.inf or idx > 120:
            continue
        assert brute_index(lat) == idx
        checked += 1


def test_index_with_torsion():
    # Z x Z/4, subgroup generated by (2,1): index?
    lat = zl.SubgroupLattice((0, 4), (((2, 1)),))
    # elements: (2k mod -, k mod 4)... brute force over representatives
    import itertools

    reps = set()
    for a, b in itertools.product(range(8), range(4)):
        reps.add(tuple(reduce_mod_columns(lat.hnf_basis, [a, b])))
    assert lat.index() == len(reps)


def test_quotient_structure_known():
    # Z^2 / <(2,0),(0,3)> = Z/2 x Z/3 = Z/6
    lat = zl.SubgroupLattice((0, 0), ((2, 0), (0, 3)))
    assert lat.quotient_structure.moduli == (1, 6) and lat.index() == 6
    # Z^3 / <(1,0,0)> = Z^2
    lat = zl.SubgroupLattice((0, 0, 0), ((1, 0, 0),))
    assert lat.quotient_structure.moduli == (1, 0, 0) and lat.index() is math.inf


def test_subgroup_structure():
    lat = zl.SubgroupLattice((0, 0), ((2, 0), (0, 3)))
    assert lat.parametrization.moduli == (0, 0)
    assert not lat.is_finite()
    # inside Z x Z/4: subgroup gen by (0,2) is Z/2
    lat = zl.SubgroupLattice((0, 4), ((0, 2),))
    par = lat.parametrization
    assert par.moduli == (2,) and par.gens == ((0, 2),)
    assert par.coordinates([0, 6]) == (1,) and par.coordinates([0, 1]) is None
    assert lat.is_finite()


def test_mixed_system_vs_direct_check():
    rng = random.Random(31)
    import itertools

    for _ in range(40):
        n = rng.randint(1, 3)
        moduli = tuple(rng.choice([0, 0, 2, 3, 4]) for _ in range(n))
        n_eq = rng.randint(0, 2)
        n_cong = rng.randint(0, 2)
        eqs = []
        for _ in range(n_eq):
            # equalities must vanish on torsion coordinates to be well defined
            row = [0 if moduli[i] else rng.randint(-2, 2) for i in range(n)]
            eqs.append(row)
        congs = []
        for _ in range(n_cong):
            m = rng.randint(2, 5)
            row = []
            for i in range(n):
                c = rng.randint(-3, 3)
                if moduli[i] and (c * moduli[i]) % m != 0:
                    c = 0  # keep the condition well defined on the quotient
                row.append(c)
            congs.append((row, m))
        lat = zl.solve_mixed_system(moduli, eqs, congs)

        def satisfies(v):
            for row in eqs:
                if sum(a * x for a, x in zip(row, v)) != 0:
                    return False
            for row, m in congs:
                if sum(a * x for a, x in zip(row, v)) % m != 0:
                    return False
            return True

        for v in itertools.product(range(-4, 5), repeat=n):
            assert lat.contains(list(v)) == satisfies(v), (moduli, eqs, congs, v)


def test_mixed_system_fraction_rows():
    """solve_mixed_system takes integer rows; a rational row is cleared
    first, and the cleared system has the rational one's solutions."""
    # x/2 + y/3 = 0 over Z^2  <=>  3x + 2y = 0
    row, d = zl.clear_denominators([Fraction(1, 2), Fraction(1, 3)])
    assert (row, d) == ([3, 2], 6)
    lat = zl.solve_mixed_system((0, 0), [row], [])
    assert lat.contains([2, -3])
    assert not lat.contains([1, 1])
    # x/2 = 0 mod 1  <=>  x = 0 mod 2
    row, d = zl.clear_denominators([Fraction(1, 2)])
    lat = zl.solve_mixed_system((0,), [], [(row, 1 * d)])
    assert lat.contains([2]) and not lat.contains([1])


def test_denominator_in_lattice():
    cols = [(2, 0), (0, 3)]
    assert zl.denominator_in_lattice(cols, [1, 0]) == 2
    assert zl.denominator_in_lattice(cols, [1, 1]) == 6
    assert zl.denominator_in_lattice(cols, [2, 3]) == 1
    assert zl.denominator_in_lattice(cols, [Fraction(1, 2), 0]) == 4
    assert zl.denominator_in_lattice([(1, 0)], [0, 1]) is None


def rand_rational_rows(rng, rows, cols):
    """Random rational rows, some of them combinations of earlier ones."""
    out = []
    for _ in range(rows):
        if out and rng.random() < 0.3:
            a, b = rng.choice(out), rng.choice(out)
            q = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            out.append([x + q * y for x, y in zip(a, b)])
        else:
            out.append([Fraction(rng.choice((0, 0, rng.randint(-5, 5))), rng.randint(1, 4))
                        for _ in range(cols)])
    return out


def test_qechelon_rows_match_sympy_rref():
    """QEchelon takes integer rows (a rational row is cleared first).  Each
    row is primitive with a positive pivot and is sympy's rref row times that
    pivot; reduce() gives sympy's residual times a positive factor."""
    sympy = pytest.importorskip("sympy")
    rng = random.Random(53)
    for _ in range(80):
        a = rand_rational_rows(rng, rng.randint(1, 5), rng.randint(1, 6))
        ech = zl.QEchelon()
        for row in a:
            ech.add(zl.clear_denominators(row)[0])
        ref, pivots = sympy.Matrix(a).rref()
        assert [p for p, _ in ech.rows] == list(pivots)
        assert [[Fraction(x, row[p]) for x in row] for p, row in ech.rows] == [
            [Fraction(int(x.p), int(x.q)) for x in ref.row(i)] for i in range(len(pivots))]
        assert all(row[p] > 0 and math.gcd(*row) == 1 for p, row in ech.rows)
        v = [rng.randint(-6, 6) for _ in a[0]]
        r = ech.reduce(v)
        want = [Fraction(int(x.p), int(x.q)) for x in
                sympy.Matrix([v]) - sum((v[p] * ref.row(i) for i, p in enumerate(pivots)),
                                        sympy.zeros(1, len(v)))]
        scale = next((Fraction(x, y) for x, y in zip(r, want) if y), 1)
        assert scale > 0 and r == [scale * y for y in want]
        assert math.gcd(*r) in (0, 1)
        assert ech.contains(zl.clear_denominators([x - y for x, y in zip(v, want)])[0])


def test_denominator_matches_sympy_and_brute_force():
    """The least m with m*v in the lattice is the lcm of the denominators of
    v's rational coefficients in the HNF basis (sympy's solve), and the first
    of m = 1, 2, ... whose m*v the lattice contains."""
    sympy = pytest.importorskip("sympy")
    rng = random.Random(59)
    for _ in range(80):
        n, k = rng.randint(1, 4), rng.randint(1, 4)
        gens = tuple(tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(k))
        lat = zl.SubgroupLattice((0,) * n, gens)
        basis = lat.hnf_basis
        if not basis:
            continue
        if rng.random() < 0.5:
            coeffs = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in basis]
            v = [sum(c * col[i] for c, col in zip(coeffs, basis)) for i in range(n)]
        else:
            v = [Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(n)]
        got = zl.denominator_in_lattice(basis, v)
        rhs = sympy.Matrix([sympy.Rational(x.numerator, x.denominator) for x in v])
        try:
            sol, _ = sympy.Matrix(basis).T.gauss_jordan_solve(rhs)
        except ValueError:  # no rational solution
            sol = None
        assert got == (None if sol is None else math.lcm(*(int(x.q) for x in sol)))

        def inside(m):
            w = [m * x for x in v]
            return all(x.denominator == 1 for x in w) and lat.contains([int(x) for x in w])

        if got is None:
            assert not any(inside(m) for m in range(1, 50))
        else:
            assert inside(got) and not any(inside(m) for m in range(1, got))


def test_hnf_spans_the_lattice_of_sympys_hnf():
    """sympy's hermite_normal_form, in another convention, spans the same
    lattice: each basis lies in the other's integer span."""
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import hermite_normal_form
    rng = random.Random(67)
    for _ in range(100):
        n, k = rng.randint(1, 4), rng.randint(1, 5)
        gens = [[rng.choice((0, rng.randint(-6, 6))) for _ in range(n)] for _ in range(k)]
        lat = zl.SubgroupLattice((0,) * n, tuple(map(tuple, gens)))
        h = hermite_normal_form(sympy.Matrix(gens).T)
        theirs = [[int(x) for x in h.col(j)] for j in range(h.cols)]
        assert len(theirs) == len(lat.hnf_basis)
        assert all(lat.contains(col) for col in theirs)
        for col in lat.hnf_basis:
            sol, params = h.gauss_jordan_solve(sympy.Matrix(col))
            assert params.shape[0] == 0 and all(x.is_integer for x in sol)


def test_snf_and_kernel_match_sympy():
    """|diag D| are sympy's invariant factors, U*a*V = D, the returned U^-1
    is U's integer inverse, and the kernel has sympy's nullspace rank."""
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors
    rng = random.Random(61)
    for _ in range(150):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        a = rand_matrix(rng, rows, cols, -4, 4)
        u, d, v, ui = zl.snf(a)
        diag = [abs(d[i][i]) for i in range(min(rows, cols))]
        assert diag == [int(x) for x in invariant_factors(sympy.Matrix(a), domain=sympy.ZZ)]
        assert mat_mul(mat_mul(u, a), v) == d
        assert all(type(x) is int for row in ui for x in row)
        assert mat_mul(ui, u) == zl.identity(rows)
        assert len(zl.kernel_int(a)) == len(sympy.Matrix(a).nullspace())


def test_det_matches_fraction_elimination():
    rng = random.Random(37)
    for _ in range(100):
        n = rng.randint(1, 4)
        a = rand_matrix(rng, n, n, -6, 6)
        # Fraction-based reference
        m = [[Fraction(x) for x in row] for row in a]
        ref = Fraction(1)
        sign = 1
        for k in range(n):
            piv = next((i for i in range(k, n) if m[i][k] != 0), None)
            if piv is None:
                ref = Fraction(0)
                break
            if piv != k:
                m[k], m[piv] = m[piv], m[k]
                sign = -sign
            ref *= m[k][k]
            for i in range(k + 1, n):
                f = m[i][k] / m[k][k]
                m[i] = [x - f * y for x, y in zip(m[i], m[k])]
        assert det(a) == (sign * ref if ref else 0)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.lists(st.integers(-20, 20), min_size=3, max_size=3), min_size=1, max_size=4))
def test_hnf_idempotent(rows):
    h = zl.row_hnf(rows)
    assert zl.row_hnf(h) == h


def member_2x2(a, v):
    """Whether v is an integer combination of the columns of the 2x2 matrix a:
    by Cramer's rule, or, when det a = 0, along the one primitive direction p
    the columns span, where the lattice is gcd(s_j) * Z * p for columns s_j * p."""
    d = a[0][0] * a[1][1] - a[0][1] * a[1][0]
    if d:
        return ((v[0] * a[1][1] - v[1] * a[0][1]) % d == 0
                and (a[0][0] * v[1] - a[1][0] * v[0]) % d == 0)
    cols = [c for c in zip(*a) if any(c)]
    if not cols:
        return not any(v)
    g = math.gcd(*cols[0])
    p = (cols[0][0] // g, cols[0][1] // g)
    norm = p[0] ** 2 + p[1] ** 2
    s = [(c[0] * p[0] + c[1] * p[1]) // norm for c in cols]
    if v[0] * p[1] - v[1] * p[0]:
        return False
    return (v[0] * p[0] + v[1] * p[1]) // norm % math.gcd(*s) == 0


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.lists(st.integers(-10, 10), min_size=2, max_size=2), min_size=2, max_size=2),
    st.lists(st.integers(-10, 10), min_size=2, max_size=2),
)
def test_membership_matches_cramer(a, v):
    lat = zl.SubgroupLattice((0, 0), tuple(tuple(col) for col in zip(*a)))
    assert lat.contains(v) == member_2x2(a, v)


@st.composite
def torsion_lattices(draw):
    """A subgroup of Z^n / (moduli), n = 1..4, with at least one torsion
    modulus, given by 0..n generators."""
    n = draw(st.integers(1, 4))
    moduli = draw(st.lists(st.sampled_from((0, 0, 2, 3, 4, 6)), min_size=n, max_size=n))
    moduli[draw(st.integers(0, n - 1))] = draw(st.sampled_from((2, 3, 4, 6)))
    gens = draw(st.lists(st.tuples(*[st.integers(-6, 6)] * n), max_size=n))
    return zl.SubgroupLattice(tuple(moduli), tuple(gens))


@settings(max_examples=300, deadline=None)
@given(torsion_lattices())
def test_index_and_finiteness_match_the_smith_form_reads(lat):
    """index() and is_finite() read the HNF basis; the Smith forms of the
    quotient and of the subgroup's relations must say the same."""
    quotient = lat.quotient_structure.moduli
    assert lat.index() == (math.inf if 0 in quotient else math.prod(quotient))
    assert lat.is_finite() == (0 not in lat.parametrization.moduli)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4).flatmap(lambda c: st.lists(
    st.lists(st.integers(-5, 5), min_size=c, max_size=c), min_size=1, max_size=3)))
def test_kernel_int_is_the_kernels_hnf_basis(a):
    """kernel_int returns the kernel's own HNF basis: reducing it as
    generators gives it back, and a brute-force box finds the same lattice."""
    c = len(a[0])
    ker = zl.kernel_int(a)
    lat = zl.SubgroupLattice((0,) * c, tuple(map(tuple, ker)))
    assert lat.hnf_basis == tuple(map(tuple, ker))
    for v in itertools.product(range(-2, 3), repeat=c):
        assert lat.contains(list(v)) == (not any(mat_vec(a, v)))


@st.composite
def mixed_systems(draw):
    """(moduli, equalities, congruences) over Z^n / (moduli), n = 1..4,
    each row well defined modulo the torsion."""
    n = draw(st.integers(1, 4))
    moduli = tuple(draw(st.lists(st.sampled_from((0, 0, 2, 3, 4)), min_size=n, max_size=n)))
    row = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
    eqs = [[0 if m else c for c, m in zip(r, moduli)]
           for r in draw(st.lists(row, max_size=2))]
    congs = [([0 if m and c * m % q else c for c, m in zip(r, moduli)], q)
             for r, q in draw(st.lists(st.tuples(row, st.integers(2, 6)), max_size=3))]
    return moduli, eqs, congs


def two_hnf_solve(moduli, eqs, congs):
    """The solver with a Hermite form per step: the kernel of the
    equalities, the congruences' kernel in its coordinates, then the
    reducing constructor on the generators found."""
    n = len(moduli)
    eqs = [r for r in eqs if any(r)]
    gens = kern = zl.kernel_int(eqs) if eqs else zl.identity(n)
    if congs and kern:
        aug = [mat_vec(kern, r) + [m if t == s else 0 for t in range(len(congs))]
               for s, (r, m) in enumerate(congs)]
        gens = [[sum(y * v[i] for y, v in zip(col, kern)) for i in range(n)]
                for col in zl.kernel_int(aug)]
    return zl.SubgroupLattice(moduli, tuple(map(tuple, gens)))


@settings(max_examples=300, deadline=None)
@given(mixed_systems())
def test_mixed_system_matches_the_two_hnf_replay(system):
    """One Hermite form per system gives the basis the two-step solve and a
    reduction give, torsion moduli and congruences included."""
    lat = zl.solve_mixed_system(*system)
    assert lat.hnf_basis == two_hnf_solve(*system).hnf_basis
    assert lat == zl.SubgroupLattice(lat.moduli, lat.hnf_basis)


@settings(max_examples=200, deadline=None)
@given(torsion_lattices())
def test_hnf_constructor_keeps_the_reduced_basis(lat):
    kept = zl.SubgroupLattice.from_hnf(lat.moduli, lat.hnf_basis)
    assert kept.hnf_basis == lat.hnf_basis
    assert kept == zl.SubgroupLattice(lat.moduli, lat.hnf_basis)
    assert kept.same_subgroup(lat) and kept.index() == lat.index()
