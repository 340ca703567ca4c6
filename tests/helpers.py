"""Helpers that only the tests need: integer-matrix checks and brute-force
group-law operations on a GroupPresentation."""

import itertools

from cocycle_lab import zlinalg as zl


def mat_mul(a, b):
    if not a or not b:
        return []
    bt = zl.transpose(b)
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


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


def commutator(g, a, b):
    ab = g.multiply(a, b)
    return g.multiply(ab, g.multiply(g.inverse(a), g.inverse(b)))


def box(g, radius):
    """Every element with free coordinates in [-radius, radius] and torsion
    coordinates in their residue range."""
    ranges = [range(-radius, radius + 1) if m == 0 else range(m) for m in g.moduli]
    return itertools.product(*ranges)
