import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from cocycle_lab import groups as gr
from cocycle_lab import zlinalg as zl
from cocycle_lab._value import Unsupported
from cocycle_lab.cocycles import _check_additive, sub_presentation

from helpers import box, commutator, examples, reduce_mod_columns, shifted_section


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


def dense_commutator_rows(g):
    """Every (k, j, row) in order, each row read entry by entry off the
    group law's bilinear coefficients: n^3 reads."""
    n = g.n
    b = {(k, i, j): c for k, i, j, c in g.bilinear}
    rows = []
    for k in range(n):
        for j in range(n):
            row = [b.get((k, i, j), 0) - b.get((k, j, i), 0) for i in range(n)]
            if any(row):
                rows.append((k, j, row))
    return rows


def test_commutator_rows_match_the_dense_construction():
    """The rows built from the bilinear entries alone are the dense rows, in
    the same order, so center() and fc_center() solve the same systems."""
    rng = random.Random(19)
    for _ in range(300):
        g = rand_presentation(rng, max_n=5)
        dense = dense_commutator_rows(g)
        assert g.commutator_rows == dense, g
        congs = [(row, g.moduli[k]) for k, _, row in dense if g.moduli[k]]
        eqs = [row for k, _, row in dense if not g.moduli[k]]
        assert g.center() == zl.solve_mixed_system(g.moduli, [], eqs, congs)
        assert g.fc_center() == zl.solve_mixed_system(g.moduli, [], eqs, [])


@st.composite
def two_step_presentations(draw, max_n=5):
    """Random valid 2-step presentations: entries from feeding coordinates
    into the others, torsion only on the others."""
    n = draw(st.integers(1, max_n))
    coords = draw(st.permutations(range(n)))
    cut = draw(st.integers(0, n))
    feeders, others = coords[:cut], coords[cut:]
    entries = []
    if feeders and others:
        entries = draw(st.lists(st.tuples(st.sampled_from(others), st.sampled_from(feeders),
                                          st.sampled_from(feeders), st.integers(-3, 3)),
                                max_size=5))
    moduli = [0] * n
    for k in others:
        moduli[k] = draw(st.sampled_from((0, 0, 2, 3, 4)))
    return gr.GroupPresentation(tuple(moduli), tuple(entries))


@settings(max_examples=examples(2), deadline=None)
@given(two_step_presentations())
def test_cached_centers_replay_the_commutator_rows(g):
    """center() and fc_center() are computed once per presentation and equal
    a fresh solve_mixed_system on the dense commutator rows; reading them
    leaves the presentation's equality, hash and repr as they were."""
    twin = gr.GroupPresentation(g.moduli, g.bilinear, g.names)
    before = (hash(g), repr(g))
    dense = dense_commutator_rows(g)
    congs = [(row, g.moduli[k]) for k, _, row in dense if g.moduli[k]]
    eqs = [row for k, _, row in dense if not g.moduli[k]]
    assert g.center() is g.center() and g.fc_center() is g.fc_center()
    assert g.center() == zl.solve_mixed_system(g.moduli, [], eqs, congs)
    assert g.fc_center() == zl.solve_mixed_system(g.moduli, [], eqs, [])
    assert g.is_abelian() == (not dense)
    assert g == twin and (hash(g), repr(g)) == before == (hash(twin), repr(twin))


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
    # d * lift(e_k) lands in N for a torsion coordinate k of modulus d
    for d, lift in zip(qd.group.moduli, zip(*qd.section.matrix)):
        if d:
            assert n.contains([d * x for x in lift])


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
    with pytest.raises(Unsupported):
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


# ---------------------------------------------------------------------------
# every consumer of the law's carry


def random_central_subgroup(rng, g):
    """A subgroup spanned by 1..3 random vectors that avoid the feeding
    coordinates, torsion coordinates included: central, see
    test_subgroups_avoiding_the_feeding_coordinates_are_central."""
    feeding = g.feeding_coords()
    gens = tuple(tuple(0 if i in feeding else rng.randint(-3, 3) for i in range(g.n))
                 for _ in range(rng.randint(1, 3)))
    return zl.SubgroupLattice(g.moduli, gens)


def quotient_replay(g, sub):
    """quotient_by_central with the law pushed through the coordinate change
    U entry by entry: B'[k'][i'][j'] = sum U[k'][k] B[k][i][j] P[i][i']
    P[j][j'] over the sparse entries of B, with P = U^-1, then reduced
    modulo the new torsion."""
    q = sub.quotient_structure
    u, p, n = q.coords, q.inverse, g.n
    kept = [k for k in range(n) if q.moduli[k] != 1]
    pos = {k: t for t, k in enumerate(kept)}
    bil = {}
    for k, i, j, c in g.bilinear:
        for k2, i2, j2 in itertools.product(kept, repeat=3):
            v = u[k2][k] * c * p[i][i2] * p[j][j2]
            if v:
                bil[k2, i2, j2] = bil.get((k2, i2, j2), 0) + v
    entries = tuple((pos[k], pos[i], pos[j], c % q.moduli[k] if q.moduli[k] else c)
                    for (k, i, j), c in bil.items())
    names = tuple(f"[{g.names[k]}]" if list(u[k]) == [int(t == k) for t in range(n)]
                  else f"y{pos[k] + 1}" for k in kept)
    quo = gr.GroupPresentation(tuple(q.moduli[k] for k in kept), entries, names)
    sec_cols = [[p[i][k] for i in range(n)] for k in kept]
    return gr.QuotientData(
        quo, gr.Morphism(g, quo, tuple(tuple(u[k]) for k in kept)),
        gr.Morphism(quo, g, tuple(tuple(col[i] for col in sec_cols) for i in range(n))),
        sub)


def test_quotient_transport_matches_the_entrywise_replay():
    """The one transport (carries of the lifts read through the kept rows of
    U) builds the same quotient as the entrywise tensor push, down to the
    names and the section."""
    rng = random.Random(47)
    torsion_carries = 0
    for _ in range(300):
        g = rand_presentation(rng)
        sub = random_central_subgroup(rng, g)
        qd = gr.quotient_by_central(g, sub)
        assert qd == quotient_replay(g, sub), (g, sub)
        torsion_carries += any(qd.group.moduli[k] for k, _, _, _ in qd.group.bilinear)
    assert torsion_carries >= 10  # the reduction modulo the new torsion is reached


def test_random_quotients_project_homomorphically_and_split():
    rng = random.Random(53)
    for _ in range(150):
        g = rand_presentation(rng, max_n=3)
        qd = gr.quotient_by_central(g, random_central_subgroup(rng, g))
        pts = small_box(g, 1)
        proj = qd.projection.apply
        for a, b in itertools.product(pts, repeat=2):
            assert proj(g.multiply(a, b)) == qd.group.multiply(proj(a), proj(b)), (g, a, b)
        for x in small_box(qd.group, 2):
            assert proj(qd.section.apply(x)) == x
        assert qd.section.apply(qd.group.identity()) == g.identity()


def random_block_subgroup(rng, g):
    """A subgroup spanned by 1..3 random vectors, each supported on the
    feeding coordinates or on the others, so not central in general.  A
    generator mixing both can give a parameter that both feeds and
    receives, which GroupPresentation rejects."""
    feeding = g.feeding_coords()
    gens = []
    for _ in range(rng.randint(1, 3)):
        side = rng.random() < 0.5
        gens.append(tuple(rng.randint(-2, 2) if (i in feeding) == side else 0
                          for i in range(g.n)))
    return zl.SubgroupLattice(g.moduli, tuple(gens))


def parameter_carries(g, par):
    """(t, a, b) for each parameter t in which the product of generators a
    and b, written in the parameters by the brute-force law, differs from
    e_a + e_b: the entries of the subgroup's law."""
    out = set()
    for (a, ga), (b, gb) in itertools.product(enumerate(par.gens), repeat=2):
        u = par.coordinates(g.multiply(ga, gb))
        for t, (x, m) in enumerate(zip(u, par.moduli)):
            d = x - (t == a) - (t == b)
            if d % m if m else d:
                out.add((t, a, b))
    return out


def test_sub_presentation_fails_exactly_off_closed_subgroups():
    """sub_presentation refuses a subgroup when a product of two of its
    generators leaves it, and a closed subgroup whose law has a parameter
    that both feeds and receives, which is no 2-step presentation in central
    coordinates; otherwise the parameter map is a homomorphism from the
    presentation it returns."""
    rng = random.Random(59)
    inputs = [(g, random_block_subgroup(rng, g))
              for g in (rand_presentation(rng) for _ in range(1000))]
    # closed in H(1), with parametrization generators (1, 2, 2) and (0, 4, 4):
    # the first parameter's carry lands on the second, which also feeds
    inputs.append((gr.heisenberg_diag((1,)),
                   zl.SubgroupLattice((0, 0, 0), ((2, 0, 0), (1, -2, -2)))))
    seen, carrying, mixed = set(), 0, 0
    for g, lat in inputs:
        par = lat.parametrization
        closed = all(lat.contains(g.multiply(a, b)) for a in par.gens for b in par.gens)
        seen.add(closed)
        if not closed:
            with pytest.raises(Unsupported, match="not closed under the group law"):
                sub_presentation(g, par)
            continue
        entries = parameter_carries(g, par)
        if {t for t, _, _ in entries} & {x for _, a, b in entries for x in (a, b)}:
            mixed += 1
            with pytest.raises(Unsupported, match="^a coordinate both feeds and receives"):
                sub_presentation(g, par)
            continue
        sub = sub_presentation(g, par)
        assert sub.moduli == par.moduli
        carrying += bool(sub.bilinear)

        def emb(x):
            return g.reduce([sum(t * gen[i] for t, gen in zip(x, par.gens)) for i in range(g.n)])

        pts = list(itertools.islice(box(sub, 1), 40))
        for x, y in itertools.product(pts, repeat=2):
            assert emb(sub.multiply(x, y)) == g.multiply(emb(x), emb(y)), (g, lat, x, y)
        assert {(t, a, b) for t, a, b, _ in sub.bilinear} == entries
    assert seen == {True, False} and carrying >= 20 and mixed >= 1


def test_check_additive_fails_exactly_on_a_carrying_basis_pair():
    rng = random.Random(61)
    seen = set()
    for _ in range(400):
        g = rand_presentation(rng)
        lat = random_block_subgroup(rng, g) if rng.random() < 0.5 else zl.SubgroupLattice(
            g.moduli, tuple(tuple(rng.randint(-2, 2) for _ in range(g.n))
                            for _ in range(rng.randint(0, 3))))
        basis = lat.hnf_basis
        carries = any(g.multiply(va, vb) != g.reduce([x + y for x, y in zip(va, vb)])
                      for va in basis for vb in basis)
        seen.add(carries)
        if carries:
            with pytest.raises(Unsupported):
                _check_additive(g, lat)
        else:
            _check_additive(g, lat)
    assert seen == {True, False}
