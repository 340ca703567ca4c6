import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cocycle_lab import zlinalg as zl

from helpers import det, mat_mul, rank_int


def rand_matrix(rng, rows, cols, lo=-9, hi=9):
    return [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]


def test_row_hnf_small_known():
    h = zl.row_hnf([[2, 4], [1, 3]])
    assert h == [[1, 1], [0, 2]]


def test_snf_known():
    u, d, v = zl.snf([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
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
        u, d, v = zl.snf(a)
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
            assert not any(zl.mat_vec(a, col))
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
            if not any(zl.mat_vec(a, v)):
                assert lat.contains(v)


def test_solve_int_random():
    rng = random.Random(23)
    for _ in range(200):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        a = rand_matrix(rng, rows, cols, -5, 5)
        x0 = [rng.randint(-4, 4) for _ in range(cols)]
        b = zl.mat_vec(a, x0)
        x = zl.solve_int(a, b)
        assert x is not None
        assert zl.mat_vec(a, x) == b


def test_solve_int_unsolvable():
    assert zl.solve_int([[2]], [1]) is None
    assert zl.solve_int([[2, 4]], [3]) is None
    assert zl.solve_int([[1, 0], [0, 0]], [0, 1]) is None


def brute_index(lat):
    """Count residues of the lattice in a box; only valid when index is small."""
    n = lat.n
    seen = set()
    span = range(0, 13)
    import itertools

    for v in itertools.product(span, repeat=n):
        seen.add(tuple(lat.reduce(list(v))))
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
        reps.add(tuple(lat.reduce([a, b])))
    assert lat.index() == len(reps)


def test_quotient_structure_known():
    # Z^2 / <(2,0),(0,3)> = Z/2 x Z/3 = Z/6
    lat = zl.SubgroupLattice((0, 0), ((2, 0), (0, 3)))
    q = lat.quotient_structure()
    assert q.free_rank == 0
    assert q.factors == (6,) or set(q.factors) == {2, 3}
    # Z^3 / <(1,0,0)> = Z^2
    lat = zl.SubgroupLattice((0, 0, 0), ((1, 0, 0),))
    q = lat.quotient_structure()
    assert q.free_rank == 2 and q.factors == ()


def test_subgroup_structure():
    lat = zl.SubgroupLattice((0, 0), ((2, 0), (0, 3)))
    s = lat.subgroup_structure()
    assert s.free_rank == 2 and s.factors == ()
    # inside Z x Z/4: subgroup gen by (0,2) is Z/2
    lat = zl.SubgroupLattice((0, 4), ((0, 2),))
    s = lat.subgroup_structure()
    assert s.free_rank == 0 and s.factors == (2,)
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
    # x/2 + y/3 = 0 over Z^2  <=>  3x + 2y = 0
    lat = zl.solve_mixed_system((0, 0), [[Fraction(1, 2), Fraction(1, 3)]], [])
    assert lat.contains([2, -3])
    assert not lat.contains([1, 1])
    # x/2 = 0 mod 1  <=>  x even
    lat = zl.solve_mixed_system((0,), [], [([Fraction(1, 2)], 1)])
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
    sympy = pytest.importorskip("sympy")
    rng = random.Random(53)
    for _ in range(80):
        a = rand_rational_rows(rng, rng.randint(1, 5), rng.randint(1, 6))
        ech = zl.QEchelon()
        for row in a:
            ech.add(row)
        ref, pivots = sympy.Matrix(a).rref()
        assert [p for p, _ in ech.rows] == list(pivots)
        assert [row for _, row in ech.rows] == [
            [Fraction(int(x.p), int(x.q)) for x in ref.row(i)] for i in range(len(pivots))]
        v = [Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in a[0]]
        r = ech.reduce(v)
        assert not any(r[p] for p in pivots)
        assert ech.contains([x - y for x, y in zip(v, r)])


def test_solve_rational_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(59)
    checked = 0
    while checked < 80:
        n, k = rng.randint(1, 5), rng.randint(1, 4)
        cols = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(k)]
        m = sympy.Matrix(cols).T
        if m.rank() != k:
            continue
        checked += 1
        coeffs = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(k)]
        v = [sum(c * col[i] for c, col in zip(coeffs, cols)) for i in range(n)]
        sol, params = m.gauss_jordan_solve(sympy.Matrix(v))
        assert params.shape[0] == 0
        assert zl.solve_rational(cols, v) == [Fraction(int(x.p), int(x.q)) for x in sol]
        w = [rng.randint(-6, 6) for _ in range(n)]
        inside = m.rank() == m.row_join(sympy.Matrix(w)).rank()
        assert (zl.solve_rational(cols, w) is not None) == inside


def test_inverse_unimodular_of_elementary_products():
    rng = random.Random(61)
    for _ in range(100):
        n = rng.randint(1, 5)
        u = zl.identity(n)
        for _ in range(rng.randint(0, 8)):
            i, j = rng.randrange(n), rng.randrange(n)
            op = rng.randrange(3)
            if op == 0 and i != j:
                q = rng.randint(-3, 3)
                u[i] = [x + q * y for x, y in zip(u[i], u[j])]
            elif op == 1:
                u[i], u[j] = u[j], u[i]
            else:
                u[i] = [-x for x in u[i]]
        inv = zl.inverse_unimodular(u)
        assert mat_mul(inv, u) == zl.identity(n)
        assert all(type(x) is int for row in inv for x in row)


@pytest.mark.parametrize("u", [[[1, 1], [1, 1]], [[2, 0], [0, 1]], [[0, 0], [0, 0]]])
def test_inverse_unimodular_rejects_singular_and_non_unimodular(u):
    with pytest.raises(ValueError):
        zl.inverse_unimodular(u)


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


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.lists(st.integers(-10, 10), min_size=2, max_size=2), min_size=2, max_size=2),
    st.lists(st.integers(-10, 10), min_size=2, max_size=2),
)
def test_membership_consistent_with_solve(a, v):
    lat = zl.SubgroupLattice((0, 0), tuple(tuple(col) for col in zip(*a)))
    has = zl.solve_int(a, v) is not None
    assert lat.contains(v) == has
