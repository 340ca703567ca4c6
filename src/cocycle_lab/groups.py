"""Finitely generated 2-step nilpotent groups in central coordinates.

A presentation is Z^n with per-coordinate torsion moduli and a bilinear
correction tensor B: (a*b)_k = a_k + b_k + sum B[k][i][j] a_i b_j.  The
2-step shape is enforced structurally: coordinates that feed B never receive
corrections, and torsion lives only on central coordinates.  This covers the
abelian groups, the generalized Heisenberg groups H(B), G(3), Z x H3(Z), and
everything reachable from them by central quotients.
"""

from __future__ import annotations

from . import zlinalg as zl
from ._value import Value


def _canon_bilinear(entries):
    acc = {}
    for k, i, j, c in entries:
        if c:
            acc[(k, i, j)] = acc.get((k, i, j), 0) + int(c)
    return tuple(sorted((k, i, j, c) for (k, i, j), c in acc.items() if c))


class GroupPresentation(Value):
    # moduli: per-coordinate torsion order, 0 = free; bilinear: sparse
    # ((k, i, j, coeff), ...); names: coordinate names for display,
    # generated if empty
    __slots__ = _fields = ("moduli", "bilinear", "names")
    _defaults = {"bilinear": (), "names": ()}

    def _check(self):
        object.__setattr__(self, "moduli", tuple(int(m) for m in self.moduli))
        object.__setattr__(self, "bilinear", _canon_bilinear(self.bilinear))
        n = len(self.moduli)
        object.__setattr__(self, "names", self.names or tuple(f"x{i+1}" for i in range(n)))
        if len(self.names) != n:
            raise ValueError("coordinate name count mismatch")
        for k, i, j, _ in self.bilinear:
            if not (0 <= k < n and 0 <= i < n and 0 <= j < n):
                raise ValueError("bilinear entry out of range")
        feeding = self.feeding_coords()
        receiving = self.receiving_coords()
        if feeding & receiving:
            raise ValueError("a coordinate both feeds and receives corrections "
                             "(not a 2-step presentation in central coordinates)")
        for i in feeding:
            if self.moduli[i]:
                raise ValueError("torsion coordinate feeds the group law")
        for m in self.moduli:
            if m < 0:
                raise ValueError("negative modulus")

    @property
    def n(self):
        return len(self.moduli)

    def feeding_coords(self):
        return {i for _, i, _, _ in self.bilinear} | {j for _, _, j, _ in self.bilinear}

    def receiving_coords(self):
        return {k for k, _, _, _ in self.bilinear}

    def b(self, k, i, j):
        for k2, i2, j2, c in self.bilinear:
            if (k2, i2, j2) == (k, i, j):
                return c
        return 0

    def identity(self):
        return (0,) * self.n

    def reduce(self, coords):
        return tuple(x % m if m else x for x, m in zip(coords, self.moduli))

    def multiply(self, a, b):
        out = [x + y for x, y in zip(a, b)]
        for k, i, j, c in self.bilinear:
            out[k] += c * a[i] * b[j]
        return self.reduce(out)

    def inverse(self, a):
        out = [-x for x in a]
        for k, i, j, c in self.bilinear:
            out[k] += c * a[i] * a[j]
        return self.reduce(out)

    def is_abelian(self):
        return all(self.b(k, i, j) == self.b(k, j, i)
                   for k, i, j, _ in self.bilinear)

    def _commutator_rows(self, targets):
        """Linear forms in g: for each (target k, generator j) the coefficient
        row of the k-th commutator coordinate of [g, e_j]."""
        rows = []
        n = self.n
        anti = {}
        for k, i, j, c in self.bilinear:
            anti[(k, i, j)] = anti.get((k, i, j), 0) + c
            anti[(k, j, i)] = anti.get((k, j, i), 0) - c
        for k in targets:
            for j in range(n):
                row = [anti.get((k, i, j), 0) for i in range(n)]
                if any(row):
                    rows.append((k, row))
        return rows

    def center(self):
        eqs, congs = [], []
        for k, row in self._commutator_rows(range(self.n)):
            if self.moduli[k]:
                congs.append((row, self.moduli[k]))
            else:
                eqs.append(row)
        return zl.solve_mixed_system(self.moduli, eqs, congs)

    def fc_center(self):
        """Elements with finite conjugacy class: the commutator image of g must
        land in the torsion coordinates."""
        free = [k for k in range(self.n) if not self.moduli[k]]
        eqs = [row for _, row in self._commutator_rows(free)]
        return zl.solve_mixed_system(self.moduli, eqs, [])

    def hirsch(self):
        return sum(1 for m in self.moduli if m == 0)

    def is_finite(self):
        return self.hirsch() == 0

    def full_lattice(self):
        return zl.full_lattice(self.moduli)


class Morphism(Value):
    # source, target: GroupPresentations; matrix: rows, the target
    # coordinates as Z-forms in source coordinates
    __slots__ = _fields = ("source", "target", "matrix")

    def apply(self, x):
        y = [sum(r * v for r, v in zip(row, x)) for row in self.matrix]
        return self.target.reduce(y)

    def apply_raw(self, x):
        """Integer-linear action without target reduction (for lifts)."""
        return tuple(sum(r * v for r, v in zip(row, x)) for row in self.matrix)


class QuotientData(Value):
    # group: G/N; projection: Morphism G -> G/N; section: Morphism G/N -> G,
    # linear lift on canonical representatives; subgroup: SubgroupLattice N;
    # torsion_lifts: per quotient coord, d_k * lift(e_k) in N, or None
    __slots__ = _fields = ("group", "projection", "section", "subgroup", "torsion_lifts")


def quotient_by_central(g, sub):
    """Quotient of g by a central subgroup given as a SubgroupLattice.

    Returns QuotientData with a multiplicative projection and a linear section
    (section(e) = e, projection o section = id).

    The subgroup must avoid the feeding coordinates; quotients that collapse
    feeding coordinates would leave the 2-step coordinate model and are
    rejected.  That check also proves the subgroup central, so centrality is
    not checked separately: (x*y)_k - (y*x)_k = sum B[k][i][j] (x_i y_j -
    y_i x_j), where i and j are feeding coordinates, so an x whose feeding
    coordinates are all 0 commutes with every y.
    """
    feeding = g.feeding_coords()
    for col in sub.hnf_basis:
        if any(col[i] for i in feeding):
            raise ValueError("quotient collapses a coordinate that feeds the group law; "
                             "unsupported presentation shape")
    q = sub.quotient_structure
    u = [list(r) for r in q.coords]
    p = q.inverse
    n = g.n
    new_moduli_full = list(q.moduli)
    kept = [k for k in range(n) if new_moduli_full[k] != 1]
    # push the bilinear tensor through the coordinate change
    bil = {}
    for k, i, j, c in g.bilinear:
        for knew in kept:
            uk = u[knew][k]
            if not uk:
                continue
            for inew in kept:
                pii = p[i][inew]
                if not pii:
                    continue
                for jnew in kept:
                    pjj = p[j][jnew]
                    if not pjj:
                        continue
                    key = (knew, inew, jnew)
                    bil[key] = bil.get(key, 0) + uk * c * pii * pjj
    # reindex kept coordinates and reduce entries modulo the new torsion
    pos = {k: t for t, k in enumerate(kept)}
    entries = []
    for (k, i, j), c in bil.items():
        m = new_moduli_full[k]
        if m:
            c %= m
        if c:
            entries.append((pos[k], pos[i], pos[j], c))
    names = tuple(f"[{g.names[k]}]" if u[k] == [1 if t == k else 0 for t in range(n)]
                  else f"y{pos[k]+1}" for k in kept)
    quo = GroupPresentation(tuple(new_moduli_full[k] for k in kept), tuple(entries), names)
    proj = Morphism(g, quo, tuple(tuple(u[k]) for k in kept))
    sec_cols = [[p[i][k] for i in range(n)] for k in kept]
    sec = Morphism(quo, g, tuple(tuple(sec_cols[t][i] for t in range(len(kept)))
                                 for i in range(n)))
    lifts = []
    for t, k in enumerate(kept):
        m = new_moduli_full[k]
        if m:
            lift = tuple(m * sec_cols[t][i] for i in range(n))
            lifts.append(lift)
        else:
            lifts.append(None)
    return QuotientData(quo, proj, sec, sub, tuple(lifts))


# ---------------------------------------------------------------------------
# builders


def abelian(moduli):
    return GroupPresentation(tuple(moduli))


def heisenberg_diag(ds):
    """Generalized discrete Heisenberg group H(d_1..d_m) = Z x Z^m x Z^m with
    (r,s,t)(r',s',t') = (r + r' + sum_i d_i t_i s'_i, s + s', t + t')."""
    m = len(ds)
    entries = []
    for i in range(m):
        if ds[i]:
            entries.append((0, 1 + m + i, 1 + i, ds[i]))
    names = ("r",) + tuple(f"s{i+1}" for i in range(m)) + tuple(f"t{i+1}" for i in range(m))
    return GroupPresentation((0,) * (1 + 2 * m), tuple(entries), names)


def g3():
    """Free 2-step nilpotent group on three generators, coordinates
    (r1, r2, r3, r12, r13, r23) with (a*b)_{ij} = a_{ij} + b_{ij} + a_i b_j."""
    entries = ((3, 0, 1, 1), (4, 0, 2, 1), (5, 1, 2, 1))
    return GroupPresentation((0,) * 6, entries,
                             ("r1", "r2", "r3", "r12", "r13", "r23"))


def z_times_h3():
    """The lattice Z x H3(Z) with coordinates (k1, k2, k3, k4) and group law
    (k1+l1, k2+l2+k4*l3, k3+l3, k4+l4)."""
    entries = ((1, 3, 2, 1),)
    return GroupPresentation((0, 0, 0, 0), entries, ("k1", "k2", "k3", "k4"))
