"""Exact integer-matrix normal forms and lattice computations.

Matrices are lists of rows of Python ints (arbitrary precision).  Subgroups
of a coordinate module Z^n / (torsion moduli) are represented by generator
columns; the canonical form is a column-style Hermite normal form that always
includes the torsion generators m_i * e_i.  There is one Hermite routine,
``row_hnf``, which builds no transform; ``kernel_int`` reads a kernel's own
HNF basis off one HNF of [a^T | I].
``solve_mixed_system`` takes integer rows only (a caller with rational
conditions clears each row once, with ``clear_denominators``), singleton
equalities as the coordinates they force (``presolve``, once per row), and
costs at most one Hermite form per system; none when only forced
coordinates are constrained.  Its answer is already the subgroup's HNF basis,
which ``SubgroupLattice.from_hnf`` keeps without reducing it again.  A
vector is written in a lattice by one back-substitution down the HNF pivots,
over Z (``coordinates``) or over Q (``denominator_in_lattice``, in
integers).  The index and finiteness are read off the HNF basis.  Each
subgroup computes at most two Smith forms, once each: of the quotient
(``quotient_structure``, which a quotient group needs) and of the subgroup's
relations (``parametrization``, which says what the subgroup is and reads an
element's coordinates in it).  Work over Q goes through one reduced
row-echelon form, QEchelon, kept in integer rows.
"""

from __future__ import annotations

import bisect
import math
from functools import cached_property, lru_cache

from ._value import Value


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def transpose(a):
    return [list(col) for col in zip(*a)] if a else []


def row_hnf(a):
    """Row-style Hermite normal form.

    Returns H (same shape, zero rows trimmed) with pivots positive, entries
    above each pivot reduced into [0, pivot).
    """
    cols = len(a[0]) if a else 0
    h = [row[:] for row in a]
    rows = len(h)
    r = 0
    for c in range(cols):
        # find a pivot row at or below r with nonzero entry in column c
        piv = None
        for i in range(r, rows):
            if h[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        h[r], h[piv] = h[piv], h[r]
        # euclidean elimination below
        while True:
            nz = [i for i in range(r + 1, rows) if h[i][c] != 0]
            if not nz:
                break
            # pick smallest nonzero |entry| among r..rows as pivot
            best = min([r] + nz, key=lambda i: abs(h[i][c]))
            if best != r:
                h[r], h[best] = h[best], h[r]
            for i in range(r + 1, rows):
                if h[i][c] != 0:
                    q = h[i][c] // h[r][c]
                    h[i] = [x - q * y for x, y in zip(h[i], h[r])]
        if h[r][c] < 0:
            h[r] = [-x for x in h[r]]
        # reduce entries above the pivot
        for i in range(r):
            q = h[i][c] // h[r][c]
            if q:
                h[i] = [x - q * y for x, y in zip(h[i], h[r])]
        r += 1
        if r == rows:
            break
    return [row for row in h if any(row)]


def kernel_int(a):
    """HNF basis (list of rows) of {x in Z^c : a*x = 0}.

    U*[a^T | I] = [H | U] for the row HNF H of a^T, so the rows of the row
    HNF of [a^T | I] whose a^T part is zero are the rows u of U with
    a*u = 0.  They form a basis of the kernel (U is unimodular), and since
    they are the trailing rows of a Hermite form they are the kernel's own
    row HNF (Cohen, GTM 138, 2.4)."""
    if not a or not a[0]:
        return []
    r, c = len(a), len(a[0])
    aug = [[*col, *[0] * j, 1, *[0] * (c - j - 1)] for j, col in enumerate(zip(*a))]
    return [row[r:] for row in row_hnf(aug) if not any(row[:r])]


def snf(a):
    """Smith normal form: U*a*V = D with D diagonal, d1 | d2 | ..., U,V unimodular.

    Returns (U, D, U^-1); V is not built.  Each row operation on U is mirrored on U^-1 as
    the inverse column operation (Cohen, GTM 138, 2.4): a row swap becomes the
    same column swap, row_i -= q*row_j becomes col_j += q*col_i, and a row
    negation the same column negation."""
    m = [row[:] for row in a]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    u = identity(rows)
    ui = identity(rows)

    def swap_rows(i, j):
        m[i], m[j] = m[j], m[i]
        u[i], u[j] = u[j], u[i]
        for row in ui:
            row[i], row[j] = row[j], row[i]

    def swap_cols(i, j):
        for row in m:
            row[i], row[j] = row[j], row[i]

    def addmul_row(i, j, q):  # row_i -= q*row_j
        m[i] = [x - q * y for x, y in zip(m[i], m[j])]
        u[i] = [x - q * y for x, y in zip(u[i], u[j])]
        for row in ui:
            row[j] += q * row[i]

    def addmul_col(i, j, q):  # col_i -= q*col_j
        for row in m:
            row[i] -= q * row[j]

    t = 0
    while t < min(rows, cols):
        # find smallest nonzero entry in the trailing block
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                if m[i][j] != 0 and (best is None or abs(m[i][j]) < abs(m[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        swap_rows(t, best[0])
        swap_cols(t, best[1])
        again = False
        for i in range(t + 1, rows):
            if m[i][t] != 0:
                addmul_row(i, t, m[i][t] // m[t][t])
                if m[i][t] != 0:
                    again = True
        for j in range(t + 1, cols):
            if m[t][j] != 0:
                addmul_col(j, t, m[t][j] // m[t][t])
                if m[t][j] != 0:
                    again = True
        if again:
            continue
        # divisibility fix-up: m[t][t] must divide the rest of the block
        bad = None
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if m[i][j] % m[t][t] != 0:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is not None:
            addmul_row(t, bad, -1)
            continue
        if m[t][t] < 0:
            m[t] = [-x for x in m[t]]
            u[t] = [-x for x in u[t]]
            for row in ui:
                row[t] = -row[t]
        t += 1
    return u, m, ui


class QEchelon:
    """Span over Q of integer vectors, in reduced row-echelon form without
    fractions.

    ``rows`` holds (pivot, row) pairs sorted by pivot.  Each row is a
    primitive integer vector with a positive entry at its pivot and zeros in
    every other pivot column, so row / row[pivot] is the reduced row-echelon
    row.  reduce() returns the canonical representative of v modulo the span
    scaled by a positive factor to a primitive integer vector: enough to tell
    whether it is zero, where it is zero and what it is collinear with."""

    def __init__(self):
        self.rows = []

    def reduce(self, v):
        for piv, row in self.rows:
            f = v[piv]
            if f:
                p = row[piv]
                v = [p * x - f * y for x, y in zip(v, row)]
        g = math.gcd(*v)
        return [x // g for x in v] if g > 1 else list(v)

    def add(self, v):
        """Extend the span by v; False when v already lies in it."""
        return self.insert(self.reduce(v))

    def insert(self, r):
        """add(v) for a v already reduced to r = reduce(v)."""
        piv = next((i for i, x in enumerate(r) if x), None)
        if piv is None:
            return False
        if r[piv] < 0:
            r = [-x for x in r]
        p = r[piv]
        for t, (q, row) in enumerate(self.rows):
            f = row[piv]
            if f:
                row = [p * x - f * y for x, y in zip(row, r)]
                g = math.gcd(*row)
                self.rows[t] = (q, [x // g for x in row])
        bisect.insort(self.rows, (piv, r), key=lambda pr: pr[0])
        return True

    def contains(self, v):
        return not any(self.reduce(v))


class QuotientStructure(Value):
    """ambient/sub as prod Z/moduli_i, with coordinate map y = coords*x."""

    # coords: rows of the full unimodular coordinate map U; moduli: modulus
    # per U-coordinate, 0 is free, 1 means the coord dies; inverse: rows of
    # U^-1, whose columns lift the U-coordinates back
    __slots__ = _fields = ("coords", "moduli", "inverse")


class Parametrization(Value):
    """A subgroup as Z^k / diag(moduli): parameter t maps to gens[t].

    With the subgroup's HNF basis B and the Smith form U*R*V = D of the
    relations R among B's columns, gens are the columns of B*U^-1 whose
    invariant factor is not 1, and an element with coordinates c in B has
    parameters U*c, reduced modulo each modulus (unique, since the map
    Z^k / diag(moduli) -> subgroup is an isomorphism)."""

    # basis: the subgroup's HNF basis; moduli: 0 marks a free parameter;
    # rows: the rows of U that the kept parameters read
    __slots__ = _fields = ("basis", "gens", "moduli", "rows")

    def coordinates(self, v):
        """Parameters of v, or None when v lies outside the subgroup."""
        c = _echelon_coordinates(self.basis, v)
        if c is None:
            return None
        ys = (sum(r * x for r, x in zip(row, c)) for row in self.rows)
        return tuple(y % m if m else y for y, m in zip(ys, self.moduli))


def _echelon_coordinates(hcols, v):
    """Integer coefficients of v in the column-echelon basis hcols, found by
    back-substitution down the pivots, or None when v is not in the basis's
    Z-span."""
    r = list(v)
    out = []
    for col in hcols:
        piv = next(i for i, x in enumerate(col) if x)
        q, rem = divmod(r[piv], col[piv])
        if rem:
            return None
        if q:
            r = [x - q * c for x, c in zip(r, col)]
        out.append(q)
    return None if any(r) else out


class SubgroupLattice(Value):
    """Subgroup of Z^n / (moduli) given by generator columns, canonical via HNF.

    ``moduli[i] == 0`` marks a free coordinate; ``m > 0`` a Z/m coordinate.
    The HNF basis always contains the torsion generators m_i * e_i, so two
    generating sets of the same subgroup yield identical bases.  Equality and
    the hash read the constructor fields, not ``hnf_basis``.
    """

    # gens: tuple of generator columns (tuples of ints)
    _fields = ("moduli", "gens")

    def _check(self):
        n = len(self.moduli)
        cols = [list(c) for c in self.gens]
        for c in cols:
            if len(c) != n:
                raise ValueError("generator length does not match ambient rank")
        for i, m in enumerate(self.moduli):
            if m:
                cols.append([m if j == i else 0 for j in range(n)])
        # the columns of the column HNF of [cols] are the rows of the row HNF of cols
        object.__setattr__(self, "hnf_basis", tuple(map(tuple, row_hnf(cols))))

    @classmethod
    def from_hnf(cls, moduli, basis):
        """The subgroup whose preimage in Z^n has the row-HNF basis
        ``basis``, which must contain the torsion generators' span: the
        basis is kept as given, the same lattice the reducing constructor
        builds from it, without a second reduction."""
        lat = object.__new__(cls)
        lat.__dict__.update(moduli=moduli, gens=basis, hnf_basis=basis)
        return lat

    @property
    def n(self):
        return len(self.moduli)

    def coordinates(self, v):
        """Integer coordinates of v in the HNF basis, or None when v is outside."""
        return _echelon_coordinates(self.hnf_basis, v)

    def contains(self, v):
        return self.coordinates(v) is not None

    def same_subgroup(self, other):
        return (self.moduli, self.hnf_basis) == (other.moduli, other.hnf_basis)

    def index(self):
        """[ambient : self] as an int, or math.inf, read off the HNF basis.

        The basis contains the torsion generators, so it spans the preimage L
        of the subgroup in Z^n and [Z^n/M : L/M] = [Z^n : L].  Its columns are
        independent; with fewer than n of them the index is infinite, and
        with n the basis is lower triangular, so [Z^n : L] = |det| is the
        product of the pivots on its diagonal (Cohen, GTM 138, 2.4)."""
        basis = self.hnf_basis
        if len(basis) < self.n:
            return math.inf
        return math.prod(col[t] for t, col in enumerate(basis))

    @cached_property
    def quotient_structure(self):
        """ambient/self, read off one Smith form of the HNF basis."""
        return _structure([list(c) for c in self.hnf_basis], self.n)

    @cached_property
    def parametrization(self):
        """The subgroup itself as Z^k / diag(moduli).  Its relations are the
        ambient torsion generators, which lie in the basis by construction."""
        basis = self.hnf_basis
        rel_cols = [self.coordinates([m * (j == i) for j in range(self.n)])
                    for i, m in enumerate(self.moduli) if m]
        q = _structure(rel_cols, len(basis))
        kept = [t for t, m in enumerate(q.moduli) if m != 1]
        gens = tuple(tuple(sum(q.inverse[a][t] * col[i] for a, col in enumerate(basis))
                           for i in range(self.n)) for t in kept)
        return Parametrization(basis, gens, tuple(q.moduli[t] for t in kept),
                               tuple(q.coords[t] for t in kept))

    def is_finite(self):
        """L contains the torsion lattice M, so L/M is finite iff L has M's
        rank: one basis column per nonzero modulus."""
        return len(self.hnf_basis) == sum(1 for m in self.moduli if m)

    def is_trivial(self):
        """Whether the basis is just the torsion generators m_i * e_i."""
        return self.hnf_basis == tuple(tuple(m * (j == i) for j in range(self.n))
                                       for i, m in enumerate(self.moduli) if m)


def _structure(rel_cols, k):
    """Z^k modulo the span of ``rel_cols``, read off a Smith normal form."""
    u, d, ui = snf(transpose(rel_cols) if rel_cols else [[0] for _ in range(k)])
    diag = [abs(d[i][i]) if i < len(d[0]) else 0 for i in range(k)]
    return QuotientStructure(
        coords=tuple(tuple(r) for r in u),
        moduli=tuple(diag),
        inverse=tuple(tuple(r) for r in ui),
    )


def full_lattice(moduli):
    """The whole ambient group: the identity is its HNF basis, torsion
    included (m_i * e_i lies in the span of e_i)."""
    return SubgroupLattice.from_hnf(tuple(moduli), tuple(map(tuple, identity(len(moduli)))))


def zero_lattice(moduli):
    return SubgroupLattice(tuple(moduli), ())


def clear_denominators(row):
    d = math.lcm(*(x.denominator for x in row))  # int and Fraction both have one
    return [x.numerator * (d // x.denominator) for x in row], d


def presolve(equalities):
    """Equality rows as solve_mixed_system takes them: the coordinates that
    rows with one nonzero entry force to 0, and the rows with more."""
    supports = [[i for i, x in enumerate(r) if x] for r in equalities]
    return ([s[0] for s in supports if len(s) == 1],
            [r for r, s in zip(equalities, supports) if len(s) > 1])


def solve_mixed_system(moduli, forced, equalities, congruences):
    """Integer points with x_i = 0 for i in forced, row.x = 0 for equalities
    and row.x = 0 (mod m) per congruence.

    Rows are lists of ints; a caller with rational rows clears them first
    (``clear_denominators``: r/d.x = 0 iff r.x = 0, and r/d.x = 0 (mod m) iff
    r.x = 0 (mod m*d)).  The result is a SubgroupLattice over the given
    ambient moduli.  Equalities, forced coordinates included, must not touch
    torsion coordinates (the condition would not be well defined on the
    quotient).  Callers presolve each row once (``presolve``), not per system.

    x solves the system iff (x, y) lies in the kernel of [E 0; C diag(m)]
    for an integer y, which x fixes, so no kernel row has a zero x-part and
    the x-parts of the kernel's HNF basis, x first, are the HNF basis of the
    solutions L in Z^n.  The checks below put every torsion generator m_i*e_i
    in L, so that basis is the subgroup's canonical basis as it stands.

    The forced columns are dropped from every row, rows left zero go, and
    the kernel of the rest (the kept unit vectors when nothing is left) gets
    zeros put back in the forced columns.  That is L's row HNF basis again:
    a zero column holds no pivot and changes no reduction above one, so the
    embedded basis is still in Hermite form, and a lattice has one row HNF
    (Cohen, GTM 138, 2.4)."""
    n, k = len(moduli), len(congruences)
    torsion = [(i, m) for i, m in enumerate(moduli) if m] if any(moduli) else ()
    if torsion and (any(moduli[i] for i in forced)
                    or any(r[i] for r in equalities for i, _ in torsion)):
        raise ValueError("equality row is not well defined modulo ambient torsion")
    kept = tuple([i for i in range(n) if i not in forced])
    rows = [[*row, *[0] * k] for row in ([r[i] for i in kept] for r in equalities) if any(row)]
    for s, (r, m) in enumerate(congruences):
        if m <= 0:
            raise ValueError("congruence modulus must be positive")
        if any(r[i] * mi % m for i, mi in torsion):
            raise ValueError("congruence row is not well defined modulo ambient torsion")
        rows.append([*[r[i] for i in kept], *[0] * s, m, *[0] * (k - s - 1)])
    if not rows:
        return SubgroupLattice.from_hnf(tuple(moduli), _unit_rows(n, kept))
    basis = []
    for row in kernel_int(rows):
        x = [0] * n
        for i, v in zip(kept, row):  # the y-part falls off the end
            x[i] = v
        basis.append(tuple(x))
    return SubgroupLattice.from_hnf(tuple(moduli), tuple(basis))


@lru_cache(maxsize=256)
def _unit_rows(n, kept):
    """The unit vectors e_i of Z^n for i in kept, as a basis of tuples."""
    return tuple([(0,) * i + (1,) + (0,) * (n - i - 1) for i in kept])


def denominator_in_lattice(hcols, v):
    """Least m >= 1 with m*v in the span of the column-echelon basis hcols,
    or None when v is outside its Q-span.  With v = r / d in integers, each
    coefficient of v has a denominator dividing den = d * (product of the
    pivots), so den*v has integer coefficients c, and m is the lcm of the
    den / gcd(c, den)."""
    r, d = clear_denominators(v)
    den = d * abs(math.prod(next(x for x in col if x) for col in hcols))
    c = _echelon_coordinates(hcols, [x * (den // d) for x in r])
    return None if c is None else math.lcm(*(den // math.gcd(x, den) for x in c))
