import itertools
from fractions import Fraction

import pytest

from cocycle_lab._value import InputError, Unsupported
from cocycle_lab.cocycles import twisted_center, validate_cocycle
from cocycle_lab.decision import (NOT_ZSTABLE, SIMPLE_NO, SIMPLE_YES, ZSTABLE,
                                  decide, decide_simplicity)
from cocycle_lab.problem import load_problem, parse_problem
from cocycle_lab.timefreq import (NO_BY_NECESSITY, UNDECIDED_TF, YES, DensityDatum,
                                  FrameVerdict, frame_verdict, multiwindow_bound,
                                  multiwindow_f)

from test_cli import fixture


# ---------------------------------------------------------------------------
# multiwindow bound recursion


def test_multiwindow_base_and_first_steps():
    assert multiwindow_f(1) == 1
    assert multiwindow_f(2) == 9 * 2 * (1 + 1) - 1 == 35
    assert multiwindow_f(3) == 81 * 3 * 36 - 1 == 8747
    assert multiwindow_f(4) == 9 ** 3 * 4 * (8747 + 1) - 1 == 25509167


def test_multiwindow_recursion_identity():
    for n in range(1, 13):
        assert multiwindow_f(n + 1) + 1 == 9 ** n * (n + 1) * (multiwindow_f(n) + 1)


def test_multiwindow_strictly_increasing():
    vals = [multiwindow_f(n) for n in range(1, 13)]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_multiwindow_bound_reports_window_count():
    out = multiwindow_bound(1, 1)
    assert (out.m, out.windows) == (35, 36)
    assert "eta_1, ..., eta_36" in out.statement
    assert any("n >= 1" in n for n in out.notes)


def test_multiwindow_stops_once_the_value_cannot_be_printed():
    assert len(str(multiwindow_f(93))) == 4227  # below Python's 4300-digit limit
    for n in (94, 100, 10 ** 8):  # 10**8 steps would never finish
        with pytest.raises(InputError, match=rf"^f\({n}\) has more than 4300 decimal digits"):
            multiwindow_f(n)
    with pytest.raises(InputError, match=r"^f\(100\) "):
        multiwindow_bound(50, 50)


def test_multiwindow_bound_rejects_zero():
    with pytest.raises(InputError):
        multiwindow_bound(0, 0)
    with pytest.raises(InputError):
        multiwindow_bound(-1, 2)


# ---------------------------------------------------------------------------
# frame / Riesz verdicts


def test_frame_yes_below_one_when_nonrational():
    v = frame_verdict(True, DensityDatum(Fraction(2, 5), Fraction(3, 5)))
    assert v.frame_exists_smooth == YES
    assert v.riesz_exists_smooth == UNDECIDED_TF


def test_riesz_yes_above_one_and_frame_impossible_when_homogeneous():
    v = frame_verdict(True, DensityDatum(Fraction(3, 2), Fraction(8, 5)),
                      homogeneous=True)
    assert v.riesz_exists_smooth == YES
    assert v.frame_exists_smooth == NO_BY_NECESSITY


def test_rational_cocycle_gives_no_existence_claim():
    for lo, up in ((Fraction(2, 5), Fraction(3, 5)), (Fraction(3, 2), Fraction(8, 5))):
        v = frame_verdict(False, DensityDatum(lo, up))
        assert YES not in (v.frame_exists_smooth, v.riesz_exists_smooth)


def test_necessity_requires_homogeneous_flag():
    v = frame_verdict(True, DensityDatum(Fraction(3, 2), Fraction(8, 5)))
    assert v.frame_exists_smooth == UNDECIDED_TF


def test_density_one_is_undecided():
    v = frame_verdict(True, DensityDatum(Fraction(1), Fraction(1)))
    assert v.frame_exists_smooth == UNDECIDED_TF
    assert v.riesz_exists_smooth == UNDECIDED_TF


def test_indecisive_interval_is_rejected():
    with pytest.raises(Unsupported):
        frame_verdict(True, DensityDatum(Fraction(1, 2), Fraction(3, 2)))
    with pytest.raises(InputError):
        DensityDatum(Fraction(2), Fraction(1))


def test_shrinking_interval_never_flips_yes_to_undecided():
    wide = DensityDatum(Fraction(1, 10), Fraction(9, 10))
    for num in range(11, 89):
        narrow = DensityDatum(Fraction(num, 100), Fraction(num + 2, 100))
        assert narrow.lower >= wide.lower and narrow.upper <= wide.upper
        if frame_verdict(True, wide).frame_exists_smooth == YES:
            assert frame_verdict(True, narrow).frame_exists_smooth == YES


# ---------------------------------------------------------------------------
# the Z x H3(Z) family


IRR, FREE = "irrational", "param"


def gabor(t1, t2):
    """The z-times-h3 fixture family with the given [symbols] statuses of t1
    and t2 (an int a stands for 'rational a')."""
    with open(fixture("z-times-h3-irr-irr"), encoding="utf-8") as fh:
        text = fh.read()
    for name, status in (("t1", t1), ("t2", t2)):
        text = text.replace(f"{name} irrational", f"{name} {status}" if status in (IRR, FREE)
                            else f"{name} rational {status}")
    p = parse_problem(text)
    return p.cocycle, p.context


def center_of(c, ctx):
    leaves = twisted_center(c, ctx)
    assert len(leaves) == 1
    return leaves[0].lattice


def test_gabor_family_is_the_shipped_fixtures():
    for name, t1, t2 in (("irr-irr", IRR, IRR), ("rat-irr", 5, IRR), ("irr-rat", IRR, 4),
                         ("rat-rat", 3, 4)):
        shipped = load_problem(fixture(f"z-times-h3-{name}"))
        assert gabor(t1, t2) == (shipped.cocycle, shipped.context)


def test_gabor_cocycle_is_valid_in_all_assignments():
    for t1, t2 in itertools.product((IRR, 5, FREE), repeat=2):
        c, ctx = gabor(t1, t2)
        assert validate_cocycle(c) is None


def test_gabor_twisted_center_matches_known_displays():
    # {(k1, k2, 0, 0) : t1 k1 and t2 k2 integral} in each assignment
    c, ctx = gabor(IRR, IRR)
    assert center_of(c, ctx).is_trivial()
    c, ctx = gabor(5, IRR)
    assert center_of(c, ctx).hnf_basis == ((5, 0, 0, 0),)
    c, ctx = gabor(IRR, 4)
    assert center_of(c, ctx).hnf_basis == ((0, 4, 0, 0),)
    c, ctx = gabor(3, 4)
    assert center_of(c, ctx).hnf_basis == ((3, 0, 0, 0), (0, 4, 0, 0))


def test_gabor_simplicity_iff_both_irrational():
    for t1, t2 in ((IRR, IRR), (5, IRR), (IRR, 4), (3, 4)):
        c, ctx = gabor(t1, t2)
        verdict, _, _ = decide_simplicity(c, ctx)
        expected = SIMPLE_YES if t1 == t2 == IRR else SIMPLE_NO
        assert verdict == expected


def test_gabor_nonrational_whenever_t2_is_irrational():
    # including rational t1, where the quotient is Z/a x H3(Z) and the induced
    # cocycle picks up no character dependence
    for t1 in (IRR, 2, 5):
        c, ctx = gabor(t1, IRR)
        assert decide(c, ctx).z_stable == ZSTABLE


def test_gabor_both_rational_is_not_zstable():
    c, ctx = gabor(3, 4)
    v = decide(c, ctx)
    assert v.z_stable == NOT_ZSTABLE


def test_gabor_both_rational_level_two_oracle():
    # hand oracle for the level-1 quotient Z/3 x Z/4 x Z^2 = Z/12 x Z^2
    # (invariant-factor form): elements with 4 | k3, k4 are central there, and
    # on the character branch where the induced phase is rational the twisted
    # center keeps full free rank 2, certifying a finite-index (rational) point
    c, ctx = gabor(3, 4)
    v = decide(c, ctx)
    level1 = [b.child for b in v.certificate.branches if b.child]
    assert len(level1) == 1
    node = level1[0]
    assert tuple(node.group.moduli) == (12, 0, 0)
    rational_leaves = [b for b in node.branches if b.verdict == NOT_ZSTABLE]
    assert rational_leaves
    import math
    for b in rational_leaves:
        assert b.index is not None and b.index is not math.inf


def test_gabor_free_parameters_split():
    c, ctx = gabor(FREE, IRR)
    leaves = twisted_center(c, ctx)
    assert len(leaves) >= 2
    lattices = {lf.lattice.hnf_basis for lf in leaves}
    assert () in lattices  # irrational branch: trivial twisted center


def test_gabor_center_membership_brute_force():
    # oracle: g is in the twisted center iff it commutes with everything and
    # the antisymmetrized phase against every generator is integral; check on
    # a box for the (3, 4) assignment
    c, ctx = gabor(3, 4)
    lat = center_of(c, ctx)
    from cocycle_lab.cocycles import antisym
    from cocycle_lab.exact import INTEGER
    qt = antisym(c)
    g = c.group
    for pt in itertools.product(range(-4, 5), repeat=4):
        commutes = pt[2] == pt[3] == 0
        integral = all(
            ctx.classify(qt.eval(list(pt) + [1 if i == j else 0 for i in range(4)])).kind == INTEGER
            for j in range(4))
        assert lat.contains(list(pt)) == (commutes and integral)
