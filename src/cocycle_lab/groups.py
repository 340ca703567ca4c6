"""Finitely generated 2-step nilpotent groups in central coordinates.

A presentation is Z^n with per-coordinate torsion moduli and a bilinear
correction tensor B: (a*b)_k = a_k + b_k + sum B[k][i][j] a_i b_j.  The
2-step shape is enforced structurally: coordinates that feed B never receive
corrections, and torsion lives only on central coordinates.  This covers the
abelian groups, the generalized Heisenberg groups H(B), G(3), Z x H3(Z), and
everything reachable from them by central quotients.

The law is read numerically in one place, GroupPresentation.carry, and a
presentation is derived from another by one transport, GroupPresentation.on:
the central quotient here and the subgroup and product-factor presentations
of cocycles all read their generators' carries in their new coordinates.
The induction of cocycles reads a quotient only through these, its
projection, its section and GroupPresentation.commutator_rows.
"""

from __future__ import annotations

import itertools
from functools import cached_property

from . import zlinalg as zl
from ._value import InputError, Unsupported, Value


def _canon_bilinear(entries):
    acc = {}
    for k, i, j, c in entries:
        if c:
            acc[(k, i, j)] = acc.get((k, i, j), 0) + int(c)
    return tuple(sorted((k, i, j, c) for (k, i, j), c in acc.items() if c))


class GroupPresentation(Value):
    # moduli: per-coordinate torsion order, 0 = free; bilinear: sparse
    # ((k, i, j, coeff), ...); names: coordinate names for display,
    # generated if empty.  No __slots__: the commutator rows, the center and
    # the FC-center are cached_properties, each computed once per presentation
    _fields = ("moduli", "bilinear", "names")
    _defaults = {"bilinear": (), "names": ()}

    def _check(self):
        object.__setattr__(self, "moduli", tuple(int(m) for m in self.moduli))
        object.__setattr__(self, "bilinear", _canon_bilinear(self.bilinear))
        n = len(self.moduli)
        object.__setattr__(self, "names", self.names or tuple(f"x{i+1}" for i in range(n)))
        if len(self.names) != n:
            raise InputError("coordinate name count mismatch")
        for k, i, j, _ in self.bilinear:
            if not (0 <= k < n and 0 <= i < n and 0 <= j < n):
                raise InputError("bilinear entry out of range")
        feeding = self.feeding_coords()
        receiving = self.receiving_coords()
        if feeding & receiving:
            raise InputError("a coordinate both feeds and receives corrections "
                             "(not a 2-step presentation in central coordinates)")
        for i in feeding:
            if self.moduli[i]:
                raise InputError("torsion coordinate feeds the group law")
        for m in self.moduli:
            if m < 0:
                raise InputError("negative modulus")

    @property
    def n(self):
        return len(self.moduli)

    def feeding_coords(self):
        return {i for _, i, _, _ in self.bilinear} | {j for _, _, j, _ in self.bilinear}

    def receiving_coords(self):
        return {k for k, _, _, _ in self.bilinear}

    def identity(self):
        return (0,) * self.n

    def reduce(self, coords):
        return tuple(x % m if m else x for x, m in zip(coords, self.moduli))

    def carry(self, a, b):
        """The law's unreduced integer carry B(a, b), (a*b)_k = a_k + b_k +
        B(a, b)_k, as a list: the one place the law is read numerically."""
        out = [0] * len(self.moduli)
        for k, i, j, c in self.bilinear:
            out[k] += c * a[i] * b[j]
        return out

    def multiply(self, a, b):
        return self.reduce([x + y + c for x, y, c in zip(a, b, self.carry(a, b))])

    def inverse(self, a):
        # B(a, a^-1) = -B(a, a): the feeding coordinates of a^-1 are -a's
        return self.reduce([c - x for x, c in zip(a, self.carry(a, a))])

    def is_abelian(self):
        return not self.commutator_rows

    def on(self, gens, read, moduli, names=()):
        """The presentation whose coordinate a is gens[a]: entry (t, a, b) is
        coordinate t of read(carry(gens[a], gens[b])), where read writes an
        element of self in the new coordinates, reduced modulo moduli.  This
        is the one transport of the law to a quotient or a subgroup; a result
        outside the 2-step shape is Unsupported, not an input defect."""
        entries = []
        for (a, ga), (b, gb) in itertools.product(enumerate(gens), repeat=2):
            vec = self.carry(ga, gb)
            if any(vec):
                entries += [(t, a, b, c) for t, c in enumerate(read(vec)) if c]
        try:
            return GroupPresentation(moduli, tuple(entries), names)
        except InputError as e:
            raise Unsupported(str(e)) from e

    @cached_property
    def commutator_rows(self):
        """Linear forms in g, built from the bilinear entries alone: for each
        target k and generator j, in that order, (k, j, row) with row the
        nonzero coefficient row of the k-th commutator coordinate of [g, e_j],
        row[i] = kappa_k(e_i, e_j) = B(e_i, e_j)_k - B(e_j, e_i)_k."""
        anti = {}
        for k, i, j, c in self.bilinear:
            anti[(k, i, j)] = anti.get((k, i, j), 0) + c
            anti[(k, j, i)] = anti.get((k, j, i), 0) - c
        rows = {}
        for (k, i, j), c in anti.items():
            if c:
                rows.setdefault((k, j), [0] * self.n)[i] = c
        return [(k, j, rows[k, j]) for k, j in sorted(rows)]

    def center(self):
        return self._center

    @cached_property
    def _center(self):
        eqs, congs = [], []
        for k, _, row in self.commutator_rows:
            if self.moduli[k]:
                congs.append((row, self.moduli[k]))
            else:
                eqs.append(row)
        return zl.solve_mixed_system(self.moduli, *zl.presolve(eqs), congs)

    def fc_center(self):
        """Elements with finite conjugacy class: the commutator image of g must
        land in the torsion coordinates."""
        return self._fc_center

    @cached_property
    def _fc_center(self):
        eqs = [row for k, _, row in self.commutator_rows if not self.moduli[k]]
        return zl.solve_mixed_system(self.moduli, *zl.presolve(eqs), [])

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
    # linear lift on canonical representatives; subgroup: SubgroupLattice N
    __slots__ = _fields = ("group", "projection", "section", "subgroup")


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

    The law is transported by GroupPresentation.on: the lifts (the columns of
    U^-1 kept by the quotient's Smith form) are the new generators, and a
    carry is read through the kept rows of U.
    """
    feeding = g.feeding_coords()
    for col in sub.hnf_basis:
        if any(col[i] for i in feeding):
            raise Unsupported("quotient collapses a coordinate that feeds the group law; "
                             "unsupported presentation shape")
    q = sub.quotient_structure
    kept = [k for k, m in enumerate(q.moduli) if m != 1]
    moduli = tuple(q.moduli[k] for k in kept)
    rows = tuple(tuple(q.coords[k]) for k in kept)
    sec = tuple(tuple(row[k] for k in kept) for row in q.inverse)  # kept columns of U^-1
    lifts = tuple(zip(*sec))
    names = tuple(f"[{g.names[k]}]" if row == tuple(int(i == k) for i in range(g.n))
                  else f"y{t+1}" for t, (k, row) in enumerate(zip(kept, rows)))
    quo = g.on(lifts, Morphism(g, GroupPresentation(moduli), rows).apply, moduli, names)
    return QuotientData(quo, Morphism(g, quo, rows), Morphism(quo, g, sec), sub)


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
