"""Verdict engine for Z-stability of twisted group C*-algebras.

The central notion is non-rationality of the 2-cocycle: every iterated
quotient by twisted centers must have infinite index over its twisted center.
For finitely generated nilpotent groups this is equivalent to Z-stability,
pureness and nowhere-scatteredness of the reduced twisted group C*-algebra,
so a single flag drives all three.
"""

from __future__ import annotations

import math
from functools import cached_property

from . import groups, zlinalg as zl
from ._value import Value
from .cocycles import (BudgetExceeded, CocycleError, UnsupportedShape,
                       induce_gamma, integrality_violation, phi_map,
                       phi_surjective, product_split, push_to_quotient,
                       restrict_to_lattice, twisted_center, validate_cocycle)
from .exact import INTEGER, KNumber, empty_context

ZSTABLE = "ZStable"
NOT_ZSTABLE = "NotZStable"
UNDECIDED = "Undecided"

SIMPLE_YES = "yes"
SIMPLE_NO = "no"
SIMPLE_UNKNOWN = "not-determined"

DEFAULT_CASE_BUDGET = 256

KLEPPNER_CONVENTION = (
    "FC(G,sigma) computed as {g in FC(G) : antisymmetrized phase of (g, h) "
    "integral for all h in the centralizer of g}; evaluated here only when "
    "FC(G) equals the center, where the centralizer is all of G")


class Branch(Value):
    # lattice: SubgroupLattice | None; index: int | math.inf | None;
    # child: TraceNode | None
    __slots__ = _fields = ("label", "assumptions", "lattice", "index", "verdict", "child",
                           "notes")
    _defaults = {"child": None, "notes": ()}

    @staticmethod
    def from_leaf(leaf, verdict, notes=None, child=None):
        """Branch of a case leaf, with the index of the leaf's lattice.  Notes
        default to the leaf's conditions and skipped congruences."""
        if notes is None:
            notes = leaf.conditions + leaf.skipped
        return Branch(_leaf_label(leaf), leaf.ctx.assumptions, leaf.lattice,
                      leaf.lattice.index(), verdict, child, notes)

    def to_dict(self):
        return {
            "label": self.label,
            "assumptions": list(self.assumptions),
            "lattice": [list(c) for c in self.lattice.hnf_basis] if self.lattice else None,
            "index": ("infinite" if self.index is math.inf else self.index),
            "verdict": self.verdict,
            "notes": list(self.notes),
            "child": self.child.to_dict() if self.child else None,
        }


class TraceNode(Value):
    __slots__ = _fields = ("level", "group", "branches", "verdict", "notes")
    _defaults = {"notes": ()}

    def to_dict(self):
        return {
            "level": self.level,
            "group": {"moduli": list(self.group.moduli), "names": list(self.group.names)},
            "verdict": self.verdict,
            "notes": list(self.notes),
            "branches": [b.to_dict() for b in self.branches],
        }


class Verdict(Value):
    # z_stable: ZSTABLE | NOT_ZSTABLE | UNDECIDED; certificate: TraceNode | None
    __slots__ = _fields = ("z_stable", "simple", "certificate", "notes")
    _defaults = {"simple": SIMPLE_UNKNOWN, "certificate": None, "notes": ()}

    @property
    def nowhere_scattered(self):
        return self.z_stable

    @property
    def pure(self):
        return self.z_stable

    def to_dict(self):
        return {
            "z_stable": self.z_stable,
            "nowhere_scattered": self.nowhere_scattered,
            "pure": self.pure,
            "simple": self.simple,
            "notes": list(self.notes),
            "trace": self.certificate.to_dict() if self.certificate else None,
        }


def _combine(branch_verdicts):
    """A node is ZStable iff every branch is; a single rational branch sinks it."""
    if any(v == NOT_ZSTABLE for v in branch_verdicts):
        return NOT_ZSTABLE
    if any(v == UNDECIDED for v in branch_verdicts):
        return UNDECIDED
    return ZSTABLE


def _node(level, group, branches, notes=()):
    """Trace node whose verdict combines its branches'."""
    return TraceNode(level, group, tuple(branches),
                     _combine([b.verdict for b in branches]), notes)


def _index_branch(leaf):
    """The single-level rule: ZStable iff the twisted center has infinite index."""
    return Branch.from_leaf(leaf, ZSTABLE if leaf.lattice.index() is math.inf
                            else NOT_ZSTABLE)


def _leaf_label(leaf):
    return "; ".join(leaf.ctx.assumptions) or "unconditional"


# ---------------------------------------------------------------------------
# the general recursion


class Analysis(Value):
    """The level-0 facts of a cocycle in a rationality context: whether it is
    a 2-cocycle, and its twisted center's case leaves.  Each is computed on
    first read and then shared by every verdict handed this value.  A
    BudgetExceeded or CocycleError from the twisted center is kept too, and
    every read of ``leaves`` raises it again without recomputing.

    Every verdict function takes a Cocycle, with an optional context and
    case budget, or an Analysis, which carries its own."""

    _fields = ("cocycle", "ctx", "case_budget")
    _defaults = {"case_budget": DEFAULT_CASE_BUDGET}

    @cached_property
    def violation(self):
        return validate_cocycle(self.cocycle)

    @cached_property
    def _leaves_or_error(self):
        try:
            return twisted_center(self.cocycle, self.ctx, self.case_budget), None
        except (BudgetExceeded, CocycleError) as e:
            return None, e

    @property
    def leaves(self):
        leaves, error = self._leaves_or_error
        if error:
            raise error
        return leaves


def _analysis(c, ctx, case_budget):
    if not isinstance(c, Analysis):
        return Analysis(c, ctx or empty_context(c.table), case_budget)
    if ctx is not None or case_budget != DEFAULT_CASE_BUDGET:
        raise ValueError("an Analysis carries its own context and case budget")
    return c


def decide(c, ctx=None, case_budget=DEFAULT_CASE_BUDGET):
    """Non-rationality verdict by the recursive quotient-by-twisted-center
    decomposition; the certificate tree records every case leaf.

    When the recursion leaves cases unresolved (a quotient outside the
    supported constructions, or the case budget), the single-quotient
    criterion for 2-step groups is tried as a fallback before giving up."""
    a = _analysis(c, ctx, case_budget)
    _require_cocycle(a)
    node = _decide_node(a, 0)
    if node.verdict != UNDECIDED:
        return Verdict(z_stable=node.verdict, certificate=node)
    try:
        out = decide_two_step(a)
    except (CocycleError, ValueError, BudgetExceeded):
        out = None
    if isinstance(out, Verdict) and out.z_stable != UNDECIDED:
        t = out.certificate
        cert = TraceNode(t.level, t.group, t.branches, t.verdict, t.notes + (
            "generic recursion left cases unresolved; verdict from the "
            "single-quotient criterion",))
        return Verdict(z_stable=out.z_stable, certificate=cert)
    return Verdict(z_stable=UNDECIDED, certificate=node)


def _require_cocycle(a):
    if a.violation:
        raise CocycleError(f"input is not a 2-cocycle: {a.violation}")


def _decide_node(a, level):
    """One level of the recursion.  Provenance of the terminal rules: the
    paper's abstract proves Z-stable iff nowhere scattered (Thiel-Vilalta,
    "Nowhere scattered C*-algebras", arXiv:2112.09877) and characterizes that
    by the group and the 2-cocycle, read here as in the module docstring.
    - finite group -> NotZStable: every subgroup has finite index, so the
      characterization fails (the algebra is finite-dimensional);
    - finite index over the twisted center -> NotZStable: it fails here;
    - finite twisted center in an infinite group -> ZStable: the index is
      infinite and the characterization's iteration ends here;
    - infinite index on an abelian group -> ZStable, without a quotient
      (Kleppner, "Multipliers on abelian groups", Math. Ann. 158 (1965)).
      Let Z = Z(G, sigma) and Q = G/Z.  Only the antisymmetrization sigma~
      enters a twisted center, and on an abelian group it is a bicharacter
      whose radical is Z, so it descends to Q as a nondegenerate
      bicharacter.  The pushed cocycle's antisymmetrization is that
      descended bicharacter, and the gamma terms add nothing to it: the
      section defect of the abelian extension Z -> G -> Q is a symmetric
      2-cocycle.  So Z(Q, sigma_Q) is trivial in every case leaf, Q is
      infinite, and the next level would end at the rule above.  A leaf
      that skipped a congruence holds a lattice L with Z <= L and [L : Z]
      finite, so [G : L] is infinite exactly when [G : Z] is."""
    c = a.cocycle
    g = c.group
    if g.is_finite():
        return TraceNode(level, g, (), NOT_ZSTABLE,
                         ("group is finite: index over the twisted center is finite",))
    try:
        leaves = a.leaves
    except (BudgetExceeded, CocycleError) as e:
        return TraceNode(level, g, (), UNDECIDED, (f"undecided: {e}",))
    abelian = g.is_abelian()
    branches = []
    for leaf in leaves:
        notes = leaf.conditions + leaf.skipped
        if leaf.lattice.index() is not math.inf:
            branches.append(Branch.from_leaf(leaf, NOT_ZSTABLE, notes + (
                "rational point: the twisted center has finite index",)))
            continue
        if leaf.lattice.is_finite():
            branches.append(Branch.from_leaf(leaf, ZSTABLE, notes + (
                "twisted center finite while the group is infinite",)))
            continue
        if abelian:
            branches.append(Branch.from_leaf(leaf, ZSTABLE, notes + (
                "abelian group, infinite index: the phase descends to the "
                "quotient as a nondegenerate bicharacter",)))
            continue
        try:
            qd = groups.quotient_by_central(g, leaf.lattice)
            w = push_to_quotient(c, qd)
            # problem files may not declare these names (problem._induced_name)
            wg = induce_gamma(w, qd, prefix=f"gamma{level + 1}_")
            child = _decide_node(Analysis(wg, leaf.ctx, a.case_budget), level + 1)
            branches.append(Branch.from_leaf(leaf, child.verdict, notes, child))
        except (CocycleError, ValueError) as e:
            branches.append(Branch.from_leaf(leaf, UNDECIDED, notes + (f"undecided: {e}",)))
    return _node(level, g, branches)


# ---------------------------------------------------------------------------
# abelian groups and non-commutative tori


def decide_abelian(c, ctx=None, case_budget=DEFAULT_CASE_BUDGET):
    """Single-level rule for abelian groups: Z-stable iff the twisted center
    has infinite index in every case leaf."""
    a = _analysis(c, ctx, case_budget)
    if not a.cocycle.group.is_abelian():
        raise ValueError("decide_abelian requires an abelian presentation")
    _require_cocycle(a)
    node = _node(0, a.cocycle.group, [_index_branch(leaf) for leaf in a.leaves])
    return Verdict(z_stable=node.verdict, certificate=node)


# ---------------------------------------------------------------------------
# 2-step shortcut and generalized Heisenberg groups


class Inapplicable(Value):
    __slots__ = _fields = ("reason",)


def decide_two_step(c, ctx=None, case_budget=DEFAULT_CASE_BUDGET):
    """Single-quotient criterion for 2-step groups.

    Takes D = the image of the center Z(G) in the quotient Q = G/Z(G,sigma).
    The criterion asks for (i) the commutator subgroup [Q,Q] inside D, D
    central in Q, (ii) the pushed-down cocycle trivial on D x D and (iii) the
    pairing phi_D surjective.  Then Z-stability holds iff
    [M : Z(M, Res omega_gamma)] is infinite for all gamma, with M = ker(phi_D).

    (i) and the centrality of D hold for this D and are not checked: the
    projection p: G -> Q is a surjective homomorphism, so [Q,Q] = p([G,G]),
    and [G,G] lies in Z(G) because G is 2-step, so [Q,Q] lies in p(Z(G)) = D;
    and for z in Z(G) and any q = p(g), p(z) q = p(zg) = p(gz) = q p(z).

    Returns a Verdict, or Inapplicable when (ii) or (iii) fails.
    """
    a = _analysis(c, ctx, case_budget)
    _require_cocycle(a)
    branches = []
    for leaf in a.leaves:
        out = _two_step_leaf(a.cocycle, leaf, a.case_budget)
        if isinstance(out, Inapplicable):
            return out
        branches.append(out)
    node = _node(0, a.cocycle.group, branches)
    return Verdict(z_stable=node.verdict, certificate=node)


def _two_step_leaf(c, leaf, case_budget):
    g = c.group
    if g.is_finite() or leaf.lattice.index() is not math.inf:
        return Branch.from_leaf(leaf, NOT_ZSTABLE, leaf.conditions +
                                ("twisted center has finite index; every M is finite",))
    try:
        qd = groups.quotient_by_central(g, leaf.lattice)
        w = push_to_quotient(c, qd)
    except (CocycleError, ValueError) as e:
        return Inapplicable(f"quotient construction failed: {e}")
    quo = qd.group
    dlat = zl.SubgroupLattice(quo.moduli, tuple(tuple(qd.projection.apply_raw(list(col)))
                                                for col in g.center().hnf_basis))
    # (ii) the pushed-down cocycle is trivial on D x D
    try:
        rw = restrict_to_lattice(w, dlat)
    except CocycleError as e:
        return Inapplicable(f"hypothesis (ii) not checkable: {e}")
    if integrality_violation(rw.phase, w.table) is not None:
        return Inapplicable("hypothesis (ii) fails: the cocycle is not trivial on D x D")
    # (iii) surjectivity of the pairing
    try:
        mleaves, rows, zmods = phi_map(w, dlat, leaf.ctx, case_budget)
    except (CocycleError, BudgetExceeded) as e:
        return Inapplicable(f"pairing computation failed: {e}")
    surj, reason = phi_surjective(rows, zmods, quo, leaf.ctx)
    if surj is not True:
        return Inapplicable(f"hypothesis (iii) fails or is undetermined: {reason}")
    # the index condition over all gamma, on M = ker(phi_D)
    wg = induce_gamma(w, qd, prefix="gammaM_")
    subbranches = []
    for mleaf in mleaves:
        try:
            rm = restrict_to_lattice(wg, mleaf.lattice)
            inner = twisted_center(rm, mleaf.ctx, case_budget)
        except (CocycleError, BudgetExceeded) as e:
            subbranches.append(Branch.from_leaf(mleaf, UNDECIDED, (f"undecided: {e}",)))
            continue
        subbranches.extend(_index_branch(il) for il in inner)
    child = _node(1, quo, subbranches,
                  ("M = ker(phi_D); condition: [M : Z(M, Res omega_gamma)] "
                   "infinite for all gamma",))
    return Branch.from_leaf(leaf, child.verdict, leaf.conditions, child)


def decide_heisenberg(c, ctx=None, case_budget=DEFAULT_CASE_BUDGET):
    """Generalized Heisenberg shortcut: D = Z(H)/Z(H,sigma).  A valid input
    on which the criterion does not apply raises UnsupportedShape."""
    a = _analysis(c, ctx, case_budget)
    if len(a.cocycle.group.receiving_coords()) > 1:
        raise UnsupportedShape("decide_heisenberg expects a Heisenberg-shaped "
                               "presentation (a single receiving coordinate)")
    out = decide_two_step(a)
    if isinstance(out, Inapplicable):
        raise UnsupportedShape(f"Heisenberg criterion inapplicable: {out.reason}")
    return out


# ---------------------------------------------------------------------------
# products


class ProductRuleOutcome(Value):
    __slots__ = _fields = ("applicable", "verdict", "reason")
    _defaults = {"verdict": UNDECIDED, "reason": ""}


def decide_product(c, n1, ctx=None, case_budget=DEFAULT_CASE_BUDGET):
    """One-sided product rules for cocycles on products of abelian groups.

    Forward rule: if f(., g2) is trivial whenever (g1, g2) lies in the twisted
    center of the product, then Z-stability of the first factor forces
    Z-stability of the product.  Converse rule: if f is trivial against
    Z(G1, sigma1) x Z(G2, sigma2) in both slots, a product that is Z-stable
    must have a Z-stable factor (contrapositive: two rational factors sink the
    product).  Anything else, a group with fewer than two coordinates
    included: inapplicable.  A split point n1 outside 1..n-1 on a group of
    n >= 2 coordinates raises ValueError.
    """
    a = _analysis(c, ctx, case_budget)
    c = a.cocycle
    g = c.group
    if g.n < 2:
        return ProductRuleOutcome(False, reason=f"a product needs two coordinates, one per "
                                                f"factor; the group has {g.n}")
    if not 0 < n1 < g.n:
        raise ValueError(f"n1 must lie in 1..{g.n - 1} so that both factors have a "
                         f"coordinate, got {n1}")
    if not g.is_abelian():
        return ProductRuleOutcome(False, reason="product rules cover abelian factors only")
    split = product_split(c, n1)
    if split is None:
        return ProductRuleOutcome(False, reason="cocycle is not in product form")
    s1, s2, fmat = split
    a1, a2 = Analysis(s1, a.ctx, a.case_budget), Analysis(s2, a.ctx, a.case_budget)
    fcols = [list(col) for col in zip(*fmat)]  # fcols[j1][i2] = f(e_j1, e_i2)
    zero = KNumber.make(c.table)

    def f_vanishes(rows, leaves, skip=0):
        # row . col[skip:] is an integer for every row and every lattice
        # generator col of every leaf, classified in the leaf's context
        return all(leaf.ctx.classify(sum((r * x for r, x in zip(row, col[skip:])), zero)).kind == INTEGER
                   for leaf in leaves for col in leaf.lattice.hnf_basis for row in rows)

    # forward rule: f(., g2) trivial on the g2 part of the product's twisted center
    forward_ok = f_vanishes(fcols, a.leaves, n1)
    v1 = decide_abelian(a1)
    if forward_ok and v1.z_stable == ZSTABLE:
        return ProductRuleOutcome(True, ZSTABLE,
                                  "first factor Z-stable and f vanishes against the "
                                  "twisted center of the product")
    # converse rule (contrapositive)
    v2 = decide_abelian(a2)
    converse_ok = f_vanishes(fmat, a1.leaves) and f_vanishes(fcols, a2.leaves)
    if converse_ok and v1.z_stable == NOT_ZSTABLE and v2.z_stable == NOT_ZSTABLE:
        return ProductRuleOutcome(True, NOT_ZSTABLE,
                                  "both factors rational and f vanishes against "
                                  "Z(G1,sigma1) x Z(G2,sigma2)")
    return ProductRuleOutcome(False, reason="product-rule hypotheses not satisfied")


# ---------------------------------------------------------------------------
# simplicity


def decide_simplicity(c, ctx=None, case_budget=DEFAULT_CASE_BUDGET):
    """Kleppner-style tri-state simplicity verdict.

    Supported exactly when FC(G) equals the center: then the twisted FC-group
    is the twisted center, and simplicity holds iff it is trivial in a leaf.
    Provenance: the criterion "simple iff the twisted FC-group is trivial" of
    Kleppner, "Multipliers on abelian groups", Math. Ann. 158 (1965), and
    Packer, "Twisted group C*-algebras corresponding to nilpotent discrete
    groups", Math. Scand. 64 (1989).  Returns (verdict, branches, notes).
    The cocycle is not validated here."""
    a = _analysis(c, ctx, case_budget)
    g = a.cocycle.group
    notes = [KLEPPNER_CONVENTION]
    fc = g.fc_center()
    if not fc.same_subgroup(g.center()):
        notes.append("FC(G) is strictly larger than the center; the convention "
                     "above is not evaluated on non-central elements")
        return SIMPLE_UNKNOWN, (), tuple(notes)
    branches = []
    for leaf in a.leaves:
        branches.append(Branch.from_leaf(
            leaf, SIMPLE_YES if leaf.lattice.is_trivial() else SIMPLE_NO))
    verdicts = {b.verdict for b in branches}
    overall = verdicts.pop() if len(verdicts) == 1 else SIMPLE_UNKNOWN
    if overall == SIMPLE_UNKNOWN and branches:
        notes.append("simplicity depends on the rationality case; see branches")
    return overall, tuple(branches), tuple(notes)
