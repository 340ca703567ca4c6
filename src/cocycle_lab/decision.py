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
from ._value import BudgetExceeded, InputError, Unsupported, Value
from .cocycles import (DEFAULT_CASE_BUDGET, induce_gamma, integrality_violation, phi_map,
                       phi_surjective, product_split, push_to_quotient,
                       restrict_to_lattice, twisted_center, validate_cocycle)
from .exact import INTEGER, KNumber, empty_context

ZSTABLE = "ZStable"
NOT_ZSTABLE = "NotZStable"
UNDECIDED = "Undecided"

SIMPLE_YES = "yes"
SIMPLE_NO = "no"
SIMPLE_UNKNOWN = "not-determined"

KLEPPNER_CONVENTION = (
    "FC(G,sigma) computed as {g in FC(G) : antisymmetrized phase of (g, h) "
    "integral for all h in the centralizer of g}; evaluated here only when "
    "FC(G) equals the center, where the centralizer is all of G")


class Branch(Value):
    # the verdict taken on a case leaf (CaseLeaf), which holds the label,
    # assumptions, lattice and index; child: TraceNode | None
    __slots__ = _fields = ("leaf", "verdict", "notes", "child")

    def __init__(self, leaf, verdict, notes, child):  # built in bulk
        object.__setattr__(self, "leaf", leaf)
        object.__setattr__(self, "verdict", verdict)
        object.__setattr__(self, "notes", notes)
        object.__setattr__(self, "child", child)

    @property
    def label(self):
        return self.leaf.label

    @property
    def index(self):
        return self.leaf.lattice.index()

    def to_dict(self):
        index = self.index
        return {
            "label": self.label,
            "assumptions": list(self.leaf.ctx.assumptions),
            "lattice": [list(c) for c in self.leaf.lattice.hnf_basis],
            "index": "infinite" if index is math.inf else index,
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
    # certificate: TraceNode, whose root verdict is the one flag of
    # Z-stability, pureness and nowhere-scatteredness
    __slots__ = _fields = ("certificate", "simple", "notes")
    _defaults = {"simple": SIMPLE_UNKNOWN, "notes": ()}

    @property
    def z_stable(self):
        return self.certificate.verdict

    nowhere_scattered = pure = z_stable

    def to_dict(self):
        return {
            "z_stable": self.z_stable,
            "nowhere_scattered": self.nowhere_scattered,
            "pure": self.pure,
            "simple": self.simple,
            "notes": list(self.notes),
            "trace": self.certificate.to_dict(),
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


# ---------------------------------------------------------------------------
# the general recursion


class Analysis(Value):
    """The level-0 facts of a cocycle in a rationality context: whether it is
    a 2-cocycle, its twisted center's case leaves and each leaf's push-down.
    Each is computed on first read and then shared by every verdict handed
    this value.  The twisted center's BudgetExceeded or Unsupported (not a
    fault) is kept too, and every read of ``leaves`` raises it again without
    recomputing; so is a push-down's Unsupported, for every read of that
    leaf's ``push_down``.  A kept error is raised with the traceback it was
    caught with, so its traceback does not grow by the frames of each read.

    Every verdict function takes a Cocycle, with an optional context, or an
    Analysis, which carries its own context and case budget."""

    _fields = ("cocycle", "ctx", "case_budget")
    _defaults = {"case_budget": DEFAULT_CASE_BUDGET}

    @cached_property
    def violation(self):
        return validate_cocycle(self.cocycle)

    @cached_property
    def _leaves_or_error(self):
        try:
            return twisted_center(self.cocycle, self.ctx, self.case_budget), None, None
        except (BudgetExceeded, Unsupported) as e:
            return None, e, e.__traceback__

    @property
    def leaves(self):
        leaves, error, tb = self._leaves_or_error
        if error:
            raise error.with_traceback(tb)
        return leaves

    @cached_property
    def _pushed(self):
        # case leaf -> ((QuotientData, Cocycle), None, None) or (None, Unsupported, traceback)
        return {}

    def push_down(self, leaf):
        """(QuotientData, Cocycle) of a case leaf: the quotient of the group
        by the leaf's lattice and the cocycle pushed down to it, computed on
        the leaf's first read."""
        pushed = self._pushed.get(leaf)
        if pushed is None:
            try:
                qd = groups.quotient_by_central(self.cocycle.group, leaf.lattice)
                pushed = (qd, push_to_quotient(self.cocycle, qd)), None, None
            except Unsupported as e:
                pushed = None, e, e.__traceback__
            self._pushed[leaf] = pushed
        out, error, tb = pushed
        if error:
            raise error.with_traceback(tb)
        return out


def _analysis(c, ctx):
    if not isinstance(c, Analysis):
        return Analysis(c, ctx or empty_context(c.table))
    if ctx is not None:
        raise ValueError("an Analysis carries its own context")
    return c


def decide(c, ctx=None):
    """Non-rationality verdict by the recursive quotient-by-twisted-center
    decomposition; the certificate tree records every case leaf.

    When the recursion leaves cases unresolved (a quotient outside the
    supported constructions, or the case budget), the single-quotient
    criterion for 2-step groups is tried as a fallback before giving up."""
    a = _analysis(c, ctx)
    _require_cocycle(a)
    node = _decide_node(a, 0)
    if node.verdict != UNDECIDED:
        return Verdict(node)
    try:
        t = decide_two_step(a).certificate
    except (Unsupported, BudgetExceeded):
        t = node  # the recursion's undecided tree
    if t.verdict == UNDECIDED:
        return Verdict(node)
    cert = TraceNode(t.level, t.group, t.branches, t.verdict, t.notes + (
        "generic recursion left cases unresolved; verdict from the "
        "single-quotient criterion",))
    return Verdict(cert)


def _require_cocycle(a):
    if a.violation:
        raise InputError(f"input is not a 2-cocycle: {a.violation}")


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
    g = a.cocycle.group
    if g.is_finite():
        return TraceNode(level, g, (), NOT_ZSTABLE,
                         ("group is finite: index over the twisted center is finite",))
    try:
        leaves = a.leaves
    except (BudgetExceeded, Unsupported) as e:
        return TraceNode(level, g, (), UNDECIDED, (f"undecided: {e}",))
    abelian = g.is_abelian()
    branches = []
    for leaf in leaves:
        notes = leaf.conditions + leaf.skipped
        if leaf.lattice.index() is not math.inf:
            branches.append(Branch(leaf, NOT_ZSTABLE, notes + (
                "rational point: the twisted center has finite index",), None))
            continue
        if leaf.lattice.is_finite():
            branches.append(Branch(leaf, ZSTABLE, notes + (
                "twisted center finite while the group is infinite",), None))
            continue
        if abelian:
            branches.append(Branch(leaf, ZSTABLE, notes + (
                "abelian group, infinite index: the phase descends to the "
                "quotient as a nondegenerate bicharacter",), None))
            continue
        try:
            qd, w = a.push_down(leaf)
            # problem files may not declare these names (problem._induced_name)
            wg = induce_gamma(w, qd, prefix=f"gamma{level + 1}_")
            child = _decide_node(Analysis(wg, leaf.ctx, a.case_budget), level + 1)
            branches.append(Branch(leaf, child.verdict, notes, child))
        except Unsupported as e:
            branches.append(Branch(leaf, UNDECIDED, notes + (f"undecided: {e}",), None))
    return _node(level, g, branches)


# ---------------------------------------------------------------------------
# 2-step shortcut and generalized Heisenberg groups


def decide_two_step(c, ctx=None):
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

    Returns a Verdict, or raises Unsupported when a construction it needs is
    unsupported or when (ii) or (iii) fails.
    """
    a = _analysis(c, ctx)
    _require_cocycle(a)
    branches = [_two_step_leaf(a, leaf) for leaf in a.leaves]
    return Verdict(_node(0, a.cocycle.group, branches))


def _two_step_leaf(a, leaf):
    g, case_budget = a.cocycle.group, a.case_budget
    if g.is_finite() or leaf.lattice.index() is not math.inf:
        return Branch(leaf, NOT_ZSTABLE, leaf.conditions +
                      ("twisted center has finite index; every M is finite",), None)
    try:
        qd, w = a.push_down(leaf)
    except Unsupported as e:
        raise Unsupported(f"quotient construction failed: {e}") from e
    quo = qd.group
    dlat = zl.SubgroupLattice(quo.moduli, tuple(tuple(qd.projection.apply_raw(list(col)))
                                                for col in g.center().hnf_basis))
    # (ii) the pushed-down cocycle is trivial on D x D
    try:
        rw = restrict_to_lattice(w, dlat)
    except Unsupported as e:
        raise Unsupported(f"hypothesis (ii) not checkable: {e}") from e
    if integrality_violation(rw.phase, w.table) is not None:
        raise Unsupported("hypothesis (ii) fails: the cocycle is not trivial on D x D")
    # (iii) surjectivity of the pairing
    try:
        mleaves, rows, zmods = phi_map(w, dlat, leaf.ctx, case_budget)
    except (Unsupported, BudgetExceeded) as e:
        raise Unsupported(f"pairing computation failed: {e}") from e
    surj, reason = phi_surjective(rows, zmods, quo, leaf.ctx)
    if surj is not True:
        raise Unsupported(f"hypothesis (iii) fails or is undetermined: {reason}")
    # the index condition over all gamma, on M = ker(phi_D)
    wg = induce_gamma(w, qd, prefix="gammaM_")
    subbranches = []
    for mleaf in mleaves:
        try:
            rm = restrict_to_lattice(wg, mleaf.lattice)
            inner = twisted_center(rm, mleaf.ctx, case_budget)
        except (Unsupported, BudgetExceeded) as e:
            subbranches.append(Branch(mleaf, UNDECIDED, (f"undecided: {e}",), None))
            continue
        # the single-level rule: ZStable iff the twisted center has infinite index
        subbranches.extend(Branch(il, ZSTABLE if il.lattice.index() is math.inf else NOT_ZSTABLE,
                                  il.conditions + il.skipped, None) for il in inner)
    child = _node(1, quo, subbranches,
                  ("M = ker(phi_D); condition: [M : Z(M, Res omega_gamma)] "
                   "infinite for all gamma",))
    return Branch(leaf, child.verdict, leaf.conditions, child)


def decide_heisenberg(c, ctx=None):
    """Generalized Heisenberg shortcut: D = Z(H)/Z(H,sigma).  A valid input
    of another shape, or on which the criterion does not apply, raises
    Unsupported; decide_two_step's reasons get the prefix "Heisenberg
    criterion inapplicable: ", the level-0 twisted center's do not."""
    a = _analysis(c, ctx)
    if len(a.cocycle.group.receiving_coords()) > 1:
        raise Unsupported("decide_heisenberg expects a Heisenberg-shaped "
                          "presentation (a single receiving coordinate)")
    _require_cocycle(a)
    a.leaves  # raises the twisted center's own outcome, without the prefix
    try:
        return decide_two_step(a)
    except Unsupported as e:
        raise Unsupported(f"Heisenberg criterion inapplicable: {e}") from e


# ---------------------------------------------------------------------------
# products


class ProductRuleOutcome(Value):
    __slots__ = _fields = ("applicable", "verdict", "reason")
    _defaults = {"verdict": UNDECIDED, "reason": ""}


def decide_product(c, n1, ctx=None):
    """One-sided product rules for cocycles on products of abelian groups.

    Forward rule: if f(., g2) is trivial whenever (g1, g2) lies in the twisted
    center of the product, then Z-stability of the first factor forces
    Z-stability of the product.  Converse rule: if f is trivial against
    Z(G1, sigma1) x Z(G2, sigma2) in both slots, a product that is Z-stable
    must have a Z-stable factor (contrapositive: two rational factors sink the
    product).  Anything else, a group with fewer than two coordinates
    included: inapplicable.  A split point n1 outside 1..n-1 on a group of
    n >= 2 coordinates raises InputError, as does an invalid cocycle; the
    factors, pull-backs along homomorphisms, stay valid and are not checked.
    """
    a = _analysis(c, ctx)
    _require_cocycle(a)
    c = a.cocycle
    g = c.group
    if g.n < 2:
        return ProductRuleOutcome(False, reason=f"a product needs two coordinates, one per "
                                                f"factor; the group has {g.n}")
    if not 0 < n1 < g.n:
        raise InputError(f"n1 must lie in 1..{g.n - 1} so that both factors have a "
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

    # the factors are abelian, so the recursion's root decides each as decide
    # would: decide's fallback ends undecided wherever an abelian root does
    # forward rule: f(., g2) trivial on the g2 part of the product's twisted center
    forward_ok = f_vanishes(fcols, a.leaves, n1)
    v1 = _decide_node(a1, 0).verdict
    if forward_ok and v1 == ZSTABLE:
        return ProductRuleOutcome(True, ZSTABLE,
                                  "first factor Z-stable and f vanishes against the "
                                  "twisted center of the product")
    # converse rule (contrapositive)
    v2 = _decide_node(a2, 0).verdict
    converse_ok = f_vanishes(fmat, a1.leaves) and f_vanishes(fcols, a2.leaves)
    if converse_ok and v1 == NOT_ZSTABLE and v2 == NOT_ZSTABLE:
        return ProductRuleOutcome(True, NOT_ZSTABLE,
                                  "both factors rational and f vanishes against "
                                  "Z(G1,sigma1) x Z(G2,sigma2)")
    return ProductRuleOutcome(False, reason="product-rule hypotheses not satisfied")


# ---------------------------------------------------------------------------
# simplicity


def decide_simplicity(c, ctx=None):
    """Kleppner-style tri-state simplicity verdict.

    Supported exactly when FC(G) equals the center: then the twisted FC-group
    is the twisted center, and simplicity holds iff it is trivial in a leaf.
    Provenance: the criterion "simple iff the twisted FC-group is trivial" of
    Kleppner, "Multipliers on abelian groups", Math. Ann. 158 (1965), and
    Packer, "Twisted group C*-algebras corresponding to nilpotent discrete
    groups", Math. Scand. 64 (1989).  Returns (verdict, branches, notes).
    The cocycle is not validated here."""
    a = _analysis(c, ctx)
    g = a.cocycle.group
    notes = [KLEPPNER_CONVENTION]
    fc = g.fc_center()
    if not fc.same_subgroup(g.center()):
        notes.append("FC(G) is strictly larger than the center; the convention "
                     "above is not evaluated on non-central elements")
        return SIMPLE_UNKNOWN, (), tuple(notes)
    branches = [Branch(leaf, SIMPLE_YES if leaf.lattice.is_trivial() else SIMPLE_NO,
                       leaf.conditions + leaf.skipped, None) for leaf in a.leaves]
    verdicts = {b.verdict for b in branches}
    overall = verdicts.pop() if len(verdicts) == 1 else SIMPLE_UNKNOWN
    if overall == SIMPLE_UNKNOWN and branches:
        notes.append("simplicity depends on the rationality case; see branches")
    return overall, tuple(branches), tuple(notes)
