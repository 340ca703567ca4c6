"""Frame and Riesz-sequence existence verdicts for coherent systems over
lattices in nilpotent Lie groups, plus the multiwindow bound recursion.

The sufficiency directions require the non-rationality flag produced by the
decision module; the necessity directions are only known for homogeneous
groups and are gated behind an explicit flag.  All density comparisons use
exact rational interval certificates.
"""

from __future__ import annotations

from fractions import Fraction

from ._value import Value

YES = "yes"
NO_BY_NECESSITY = "no-by-necessity"
UNDECIDED_TF = "undecided"


class DensityDatum(Value):
    """Certified value of d_pi * covol(Gamma): an exact rational interval
    [lower, upper] containing the real number."""

    __slots__ = _fields = ("lower", "upper")

    def _check(self):
        object.__setattr__(self, "lower", Fraction(self.lower))
        object.__setattr__(self, "upper", Fraction(self.upper))
        if self.lower > self.upper:
            raise ValueError("density interval has lower > upper")

    def versus_one(self):
        """-1, 0, or +1 when the certificate decides the comparison with 1;
        raises when the interval straddles 1 indecisively."""
        if self.upper < 1:
            return -1
        if self.lower > 1:
            return 1
        if self.lower == self.upper == 1:
            return 0
        raise ValueError(
            f"density interval [{self.lower}, {self.upper}] does not decide the "
            "comparison with 1; supply a tighter certificate")


class FrameVerdict(Value):
    # each verdict is yes | no-by-necessity | undecided
    __slots__ = _fields = ("frame_exists_smooth", "riesz_exists_smooth", "rationale")

    def to_dict(self):
        return {
            "frame_exists_smooth": self.frame_exists_smooth,
            "riesz_exists_smooth": self.riesz_exists_smooth,
            "rationale": list(self.rationale),
        }


def frame_verdict(nonrational, density, homogeneous=False):
    """Existence of smooth coherent frames / Riesz sequences at the certified
    density.  Sufficiency needs a non-rational cocycle and a strict inequality;
    the converse 'no' directions apply to homogeneous groups only."""
    side = density.versus_one()
    rationale = []
    if side == 0:
        return FrameVerdict(UNDECIDED_TF, UNDECIDED_TF,
                            ("density value equals 1: neither inequality is strict",))
    if side < 0:
        if nonrational:
            frame = YES
            rationale.append("nonrational cocycle and density < 1: "
                             "a smooth frame exists")
        else:
            frame = UNDECIDED_TF
            rationale.append("density < 1 but the cocycle is not known "
                             "nonrational: sufficiency does not apply")
        if homogeneous:
            riesz = NO_BY_NECESSITY
            rationale.append("homogeneous group with density < 1: a smooth "
                             "Riesz sequence requires density > 1")
        else:
            riesz = UNDECIDED_TF
            rationale.append("necessity of density > 1 for Riesz sequences is "
                             "only known for homogeneous groups")
        return FrameVerdict(frame, riesz, tuple(rationale))
    if nonrational:
        riesz = YES
        rationale.append("nonrational cocycle and density > 1: a smooth "
                         "Riesz sequence exists")
    else:
        riesz = UNDECIDED_TF
        rationale.append("density > 1 but the cocycle is not known "
                         "nonrational: sufficiency does not apply")
    if homogeneous:
        frame = NO_BY_NECESSITY
        rationale.append("homogeneous group with density > 1: a smooth frame "
                         "requires density < 1")
    else:
        frame = UNDECIDED_TF
        rationale.append("necessity of density < 1 for frames is only known "
                         "for homogeneous groups")
    return FrameVerdict(frame, riesz, tuple(rationale))


MULTIWINDOW_CONVENTION = (
    "recursion f(n+1) = 9^n (n+1) (f(n)+1) - 1 applied for all n >= 1 with "
    "f(1) = 1")


class MultiwindowBound(Value):
    __slots__ = _fields = ("m", "windows", "statement", "notes")
    _defaults = {"notes": (MULTIWINDOW_CONVENTION,)}


# f(n) and f(n) + 1 are reported in full, and Python converts an int of more
# than 4300 decimal digits to a string only when its default limit is lifted.
# A value of at most this many bits stays below 10^4300, so it prints.
MAX_F_DIGITS = 4300
_MAX_F_BITS = (10 ** MAX_F_DIGITS).bit_length() - 1


def multiwindow_f(n):
    """The recursion f(1) = 1, f(k+1) = 9^k (k+1) (f(k) + 1) - 1; it stops
    with ValueError as soon as f(n) would be too large to print."""
    if n < 1:
        raise ValueError("multiwindow recursion needs n >= 1")
    v = 1
    for k in range(1, n):
        v = 9 ** k * (k + 1) * (v + 1) - 1
        if v.bit_length() > _MAX_F_BITS:
            raise ValueError(f"f({n}) has more than {MAX_F_DIGITS} decimal digits "
                             f"and cannot be printed")
    return v


def multiwindow_bound(h_h2, h_g):
    """Upper bound m on the number of extra smooth windows: m+1 windows give a
    multiwindow frame at density < 1.  h_h2 is the Hirsch length of the second
    homology of the lattice (user input; for Z^n it is n(n-1)/2) and h_g the
    Hirsch length of the lattice itself."""
    n = h_h2 + h_g
    if h_h2 < 0 or h_g < 0 or n < 1:
        raise ValueError("Hirsch lengths must be nonnegative with positive sum")
    m = multiwindow_f(n)
    return MultiwindowBound(
        m, m + 1,
        f"there exist eta_1, ..., eta_{m + 1} smooth windows forming a "
        f"multiwindow frame (m = f({n}) = {m})")
