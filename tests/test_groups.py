import itertools
import random

import pytest

from cocycle_lab import groups as gr
from cocycle_lab import zlinalg as zl

from helpers import box, commutator, reduce_mod_columns, shifted_section


def small_box(g, radius=2):
    return list(box(g, radius))


def rand_presentation(rng, max_n=4):
    """Random valid 2-step presentation: pick disjoint feeding/receiving sets."""
    n = rng.randint(1, max_n)
    coords = list(range(n))
    rng.shuffle(coords)
    cut = rng.randint(0, n)
    feeders = coords[:cut]
    others = coords[cut:]
    entries = []
    for _ in range(rng.randint(0, 4)):
        if not feeders or not others:
            break
        k = rng.choice(others)
        i = rng.choice(feeders)
        j = rng.choice(feeders)
        entries.append((k, i, j, rng.randint(-2, 2)))
    moduli = [0] * n
    for k in others:
        if rng.random() < 0.3:
            moduli[k] = rng.randint(2, 4)
    return gr.GroupPresentation(tuple(moduli), tuple(entries))


def heisenberg_b(b):
    """H(B) = Z x Z^m x Z^m with (r,s,t)(r',s',t') = (r + r' + t B s'^T,
    s + s', t + t'), for any square integer matrix B."""
    m = len(b)
    entries = [(0, 1 + m + i, 1 + j, b[i][j]) for i in range(m) for j in range(m)]
    return gr.GroupPresentation((0,) * (1 + 2 * m), tuple(entries))


def test_h1_law():
    h = gr.heisenberg_diag([1])
    assert h.multiply((1, 1, 1), (1, 1, 1)) == (3, 2, 2)


def test_g3_law():
    g = gr.g3()
    a = (1, 0, 0, 0, 0, 0)
    b = (0, 1, 0, 0, 0, 0)
    assert g.multiply(a, b) == (1, 1, 0, 1, 0, 0)


def test_z_times_h3_law():
    g = gr.z_times_h3()
    a = (1, 2, 3, 4)
    b = (5, 6, 7, 8)
    assert g.multiply(a, b) == (6, 2 + 6 + 4 * 7, 10, 12)


def test_inverse_axiom():
    rng = random.Random(3)
    for g in [gr.g3(), gr.z_times_h3(), heisenberg_b([[1, 2], [0, 3]])]:
        for _ in range(30):
            a = tuple(rng.randint(-4, 4) for _ in range(g.n))
            a = g.reduce(a)
            assert g.multiply(a, g.inverse(a)) == g.identity()
            assert g.multiply(g.inverse(a), a) == g.identity()


def test_associativity_on_boxes():
    rng = random.Random(7)
    builders = [gr.g3(), gr.z_times_h3(), gr.heisenberg_diag([1]),
                gr.heisenberg_diag([1, 2]), heisenberg_b([[2, 4], [6, 8]])]
    for _ in range(20):
        builders.append(rand_presentation(rng, max_n=3))
    for g in builders:
        pts = small_box(g, 1) if g.n <= 4 else []
        if g.n > 4:
            pts = [tuple(rng.randint(-1, 1) for _ in range(g.n)) for _ in range(12)]
        sample = pts if len(pts) <= 200 else random.Random(1).sample(pts, 200)
        for a, b, c in itertools.islice(itertools.product(sample, repeat=3), 800):
            assert g.multiply(g.multiply(a, b), c) == g.multiply(a, g.multiply(b, c))


def test_commutator_central_and_formula():
    rng = random.Random(11)
    for g in [gr.g3(), gr.z_times_h3(), heisenberg_b([[2, 1], [1, 1]])]:
        center = g.center()
        for _ in range(40):
            a = g.reduce(tuple(rng.randint(-3, 3) for _ in range(g.n)))
            b = g.reduce(tuple(rng.randint(-3, 3) for _ in range(g.n)))
            c = commutator(g, a, b)
            assert center.contains(list(c))
            # closed form: [a,b]_k = sum B[k][i][j] (a_i b_j - b_i a_j)
            expect = [0] * g.n
            for k, i, j, coef in g.bilinear:
                expect[k] += coef * (a[i] * b[j] - b[i] * a[j])
            assert c == g.reduce(expect)


def test_center_known_groups():
    g = gr.g3()
    c = g.center()
    # central elements are exactly the span of r12, r13, r23
    expected = zl.SubgroupLattice(g.moduli, (
        (0, 0, 0, 1, 0, 0), (0, 0, 0, 0, 1, 0), (0, 0, 0, 0, 0, 1)))
    assert c.same_subgroup(expected)

    h = gr.heisenberg_diag([1, 2])
    c = h.center()
    expected = zl.SubgroupLattice(h.moduli, ((1, 0, 0, 0, 0),))
    assert c.same_subgroup(expected)


def test_center_abelian_is_everything():
    g = gr.abelian((0, 0, 5))
    assert g.center().same_subgroup(g.full_lattice())


def test_center_brute_force_random():
    rng = random.Random(13)
    for _ in range(100):
        g = rand_presentation(rng, max_n=3)
        center = g.center()
        pts = small_box(g, 2)
        for a in pts:
            is_central = all(commutator(g, a, b) == g.identity() for b in pts)
            # brute force over a box is only a necessary check for membership;
            # bilinearity makes the box test exact for commutation
            assert center.contains(list(a)) == is_central, (g, a)


def test_fc_center_brute_force_random():
    rng = random.Random(17)
    for _ in range(60):
        g = rand_presentation(rng, max_n=3)
        fc = g.fc_center()
        pts = small_box(g, 2)
        for a in pts:
            # commutator image is bilinear in h: finite iff the image of the
            # generators lies in torsion coordinates
            gens = [tuple(1 if t == j else 0 for t in range(g.n)) for j in range(g.n)]
            finite = all(
                all(commutator(g, a, e)[t] == 0 for t in range(g.n) if g.moduli[t] == 0)
                for e in gens
            )
            assert fc.contains(list(a)) == finite, (g, a)


def test_fc_center_torsion_receiver():
    # all commutators land in a Z/3 coordinate: every element has a finite class
    g = gr.GroupPresentation((0, 0, 3), ((2, 0, 1, 1),))
    assert g.fc_center().same_subgroup(g.full_lattice())
    # same shape into a free coordinate: fc-center = center
    g2 = gr.GroupPresentation((0, 0, 0), ((2, 0, 1, 1),))
    assert g2.fc_center().same_subgroup(g2.center())


def test_hirsch():
    assert gr.z_times_h3().hirsch() == 4
    assert gr.g3().hirsch() == 6
    assert gr.abelian((2, 3)).hirsch() == 0


def test_quotient_g3_by_r23_axis():
    g = gr.g3()
    n = zl.SubgroupLattice(g.moduli, ((0, 0, 0, 0, 0, 1),))
    qd = gr.quotient_by_central(g, n)
    assert qd.group.n == 5
    assert qd.group.moduli == (0,) * 5
    # projection is multiplicative, section is a right inverse fixing e
    rng = random.Random(19)
    for _ in range(50):
        a = tuple(rng.randint(-3, 3) for _ in range(6))
        b = tuple(rng.randint(-3, 3) for _ in range(6))
        assert qd.projection.apply(g.multiply(a, b)) == qd.group.multiply(
            qd.projection.apply(a), qd.projection.apply(b))
    assert qd.section.apply(qd.group.identity()) == g.identity()
    for _ in range(50):
        x = tuple(rng.randint(-3, 3) for _ in range(5))
        x = qd.group.reduce(x)
        assert qd.projection.apply(qd.section.apply(x)) == x


def test_quotient_with_torsion_result():
    # H(1,d2) / (d2 Z x 0 x 0): first coordinate becomes Z/d2
    h = gr.heisenberg_diag([1, 3])
    n = zl.SubgroupLattice(h.moduli, ((3, 0, 0, 0, 0),))
    qd = gr.quotient_by_central(h, n)
    assert sorted(qd.group.moduli) == [0, 0, 0, 0, 3]
    # the d2-entry of the law must be reduced away mod the new torsion
    torsion_coord = qd.group.moduli.index(3)
    for k, i, j, c in qd.group.bilinear:
        if k == torsion_coord:
            assert 0 < c < 3
    rng = random.Random(23)
    for _ in range(60):
        a = tuple(rng.randint(-3, 3) for _ in range(5))
        b = tuple(rng.randint(-3, 3) for _ in range(5))
        assert qd.projection.apply(h.multiply(a, b)) == qd.group.multiply(
            qd.projection.apply(a), qd.projection.apply(b))
    for _ in range(40):
        x = qd.group.reduce(tuple(rng.randint(-4, 4) for _ in range(5)))
        assert qd.projection.apply(qd.section.apply(x)) == x
    # torsion lift lands in N
    for lift in qd.torsion_lifts:
        if lift is not None:
            assert n.contains(list(lift))


def test_quotient_trivial_subgroup():
    g = gr.z_times_h3()
    n = zl.zero_lattice(g.moduli)
    qd = gr.quotient_by_central(g, n)
    assert qd.group.n == g.n
    assert qd.group.moduli == g.moduli


def test_quotient_z_times_h3_by_aZ():
    g = gr.z_times_h3()
    n = zl.SubgroupLattice(g.moduli, ((5, 0, 0, 0),))
    qd = gr.quotient_by_central(g, n)
    assert sorted(qd.group.moduli) == [0, 0, 0, 5]


def test_quotient_rejects_noncentral():
    g = gr.g3()
    n = zl.SubgroupLattice(g.moduli, ((1, 0, 0, 0, 0, 0),))
    with pytest.raises(ValueError):
        gr.quotient_by_central(g, n)


def test_quotient_hirsch_additive():
    rng = random.Random(29)
    done = 0
    while done < 40:
        g = rand_presentation(rng, max_n=4)
        center = g.center()
        if not center.hnf_basis:
            continue
        cols = [c for c in center.hnf_basis]
        pick = rng.sample(cols, rng.randint(1, len(cols)))
        n = zl.SubgroupLattice(g.moduli, tuple(pick))
        if any(col[i] for col in n.hnf_basis for i in g.feeding_coords()):
            continue
        qd = gr.quotient_by_central(g, n)
        h_n = n.parametrization.moduli.count(0)
        assert g.hirsch() == h_n + qd.group.hirsch()
        done += 1


def test_alternate_section():
    h = gr.heisenberg_diag([1, 3])
    n = zl.SubgroupLattice(h.moduli, ((3, 0, 0, 0, 0),))
    qd = shifted_section(gr.quotient_by_central(h, n), {0: (3, 0, 0, 0, 0)})
    rng = random.Random(31)
    for _ in range(40):
        x = qd.group.reduce(tuple(rng.randint(-4, 4) for _ in range(5)))
        assert qd.projection.apply(qd.section.apply(x)) == x
    assert qd.section.apply(qd.group.identity()) == h.identity()


def test_parametrization_presents_the_subgroup():
    """The parameters are an isomorphism Z^k / diag(moduli) -> subgroup."""
    rng = random.Random(41)
    for _ in range(150):
        g = rand_presentation(rng)
        gens = tuple(tuple(rng.randint(-4, 4) for _ in range(g.n))
                     for _ in range(rng.randint(0, 3)))
        lat = zl.SubgroupLattice(g.moduli, gens)
        par = lat.parametrization
        assert zl.SubgroupLattice(g.moduli, par.gens).same_subgroup(lat)
        for gen, m in zip(par.gens, par.moduli):  # m * gen lies in the torsion lattice
            assert all((m * x) % mi == 0 if mi else m * x == 0 for x, mi in zip(gen, g.moduli))
        for _ in range(10):
            x = [rng.randint(-6, 6) for _ in par.gens]
            v = [sum(a * gen[i] for a, gen in zip(x, par.gens)) for i in range(g.n)]
            assert par.coordinates(v) == tuple(a % m if m else a for a, m in zip(x, par.moduli))
            w = [rng.randint(-6, 6) for _ in range(g.n)]
            outside = any(reduce_mod_columns(lat.hnf_basis, w))
            assert (par.coordinates(w) is None) == outside


def test_subgroups_avoiding_the_feeding_coordinates_are_central():
    """quotient_by_central checks only that the HNF basis avoids the feeding
    coordinates; that alone makes the subgroup central."""
    rng = random.Random(43)
    for _ in range(60):
        g = rand_presentation(rng)
        feeding = g.feeding_coords()
        gens = tuple(tuple(0 if i in feeding else rng.randint(-3, 3) for i in range(g.n))
                     for _ in range(rng.randint(1, 3)))
        lat = zl.SubgroupLattice(g.moduli, gens)
        assert not any(col[i] for col in lat.hnf_basis for i in feeding)
        for col in lat.hnf_basis:
            x = g.reduce(col)
            assert all(g.multiply(x, y) == g.multiply(y, x) for y in small_box(g, 1))
            assert g.center().contains(col)
