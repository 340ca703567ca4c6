"""2-cocycles as exponentiated phase polynomials sigma = e^{2 pi i Q}.

All verdict-relevant consumers read cocycles only through their
antisymmetrization Q~(g,h) = Q(g,h) - Q(h,g) on *commuting* argument pairs
(twisted centers, the phi_D pairing, FC computations).  Cocycles produced by
quotient induction therefore carry an extra bilinear ``correction`` term,
exact on commuting pairs, that accounts for the coordinate-reduction carries a
purely polynomial phase cannot express; see induce_gamma.
"""

from __future__ import annotations

import itertools
import math

from . import zlinalg as zl
from ._value import BudgetExceeded, Unsupported, Value
from .exact import (_IRRATIONAL, _RATIONAL, IRRATIONAL, UNDETERMINED, KNumber,
                    RationalityContext, _fraction_str, symbol)
from .groups import Morphism
from .poly import Poly, _assemble, _integer_valued


class Cocycle(Value):
    # group: GroupPresentation; table: SymbolTable; phase: Poly in 2n
    # variables g_1..g_n, h_1..h_n; correction: Poly | None, added to the
    # antisymmetrization on commuting pairs
    __slots__ = _fields = ("group", "table", "phase", "correction")
    _defaults = {"correction": None}

    def _check(self):
        if self.phase.nv != 2 * self.group.n:
            raise ValueError("phase variable count must be 2 * (group coordinates)")

    @property
    def n(self):
        return self.group.n


def phase_from_monomials(group, table, monomials):
    """monomials: iterable of (coefficient, g-exponents, h-exponents)."""
    n = group.n
    terms = []
    for c, ge, he in monomials:
        terms.append((tuple(ge) + tuple(he), c if isinstance(c, KNumber) else KNumber.make(table, c)))
    return Cocycle(group, table, Poly.make(2 * n, table, terms))


# ---------------------------------------------------------------------------
# the shared "vanishes mod Z" test for polynomials with symbolic coefficients


def integrality_violation(p, table):
    """None iff the polynomial takes values in Z for every integer point and
    every admissible assignment of the symbols (free symbols range over R;
    a torsion symbol of order m ranges over (1/m)Z); otherwise the reason."""
    den = math.lcm(*(c.ints[0] for _, c in p.terms))
    consts, syms = {}, {}
    for e, c in p.terms:
        d, c0, cs = c.ints
        _add(consts, syms, e, c0, cs, den // d)
    return _violation(table, den, consts, syms)


def _violation(table, den, consts, syms):
    """integrality_violation of (consts + the symbol parts) / den, given by
    integer accumulators (see _add) that may hold zeros: each symbol in the
    order the sorted terms first name it, then the rational part."""
    comps = {}
    for e, acc in syms.items():
        for name, a in acc.items():
            if a:
                comps.setdefault(name, {})[e] = a
    for name in sorted(comps, key=lambda n: (min(comps[n]), table.order[n])):
        m = table.torsion_order(name)
        if not m:
            return f"non-vanishing coefficient of free symbol {name}"
        if not _integer_valued(comps[name], m * den):
            return f"coefficient of symbol {name} not divisible by its torsion order {m}"
    if not _integer_valued(consts, den):
        return "rational part is not integer-valued"
    return None


def _add(consts, syms, e, c0, cs, f=1):
    """Add f * (c0 + sum(a * name for name, a in cs)) at key e into integer
    accumulators, consts {key: int} and syms {key: {name: int}}."""
    if c0:
        consts[e] = consts.get(e, 0) + c0 * f
    if cs:
        acc = syms.setdefault(e, {})
        for name, a in cs:
            acc[name] = acc.get(name, 0) + a * f


# ---------------------------------------------------------------------------
# group-law substitution helpers


def _mono(nv, *vs):
    """Exponent tuple, in nv variables, of the product of the variables vs."""
    e = [0] * nv
    for v in vs:
        e[v] += 1
    return tuple(e)


def _law_scalars(group, nv, first, second):
    """The coordinates of x*y, x at variable offset ``first`` and y at
    ``second``, as integer scalar terms {exps: int} in nv variables; the
    bilinear entries are distinct, nonzero and never on a linear term."""
    return [{_mono(nv, first + k): 1, _mono(nv, second + k): 1,
             **{_mono(nv, first + i, second + j): c for k2, i, j, c in group.bilinear if k2 == k}}
            for k in range(group.n)]


def cocycle_defect(c):
    """D(g,h,k) = Q(g,h) + Q(g*h, k) - Q(h,k) - Q(g, h*k) in 3n variables.

    Q(g,h) and Q(h,k) are renamings: each exponent tuple is padded with n
    zeros on the right or on the left.  Only Q(g*h, k) and Q(g, h*k) are
    substituted, the group-law slots given as integer scalar terms; the four
    signed parts are summed in one set of integer accumulators (see _add)."""
    n = c.n
    nv = 3 * n
    pad = (0,) * n
    g = [{_mono(nv, i): 1} for i in range(n)]
    k = [{_mono(nv, 2 * n + i): 1} for i in range(n)]
    gh, hk = _law_scalars(c.group, nv, 0, n), _law_scalars(c.group, nv, n, 2 * n)
    den, consts, syms = c.phase._image(dict(enumerate(gh + k)), nv)
    c.phase._image(dict(enumerate(g + hk)), nv, -1, (consts, syms))
    for e, q in c.phase.terms:
        d, c0, cs = q.ints
        _add(consts, syms, e + pad, c0, cs, den // d)
        _add(consts, syms, pad + e, c0, cs, -(den // d))
    return _assemble(nv, c.table, den, consts, syms)


def validate_cocycle(c):
    """None when valid; otherwise a human-readable violation report.  A
    phase of degree above 3 in some variable is outside what is checked:
    Unsupported, not a violation.

    Bilinear shortcut: when the law has no carry (x*y = x + y coordinate-wise)
    and every phase monomial has degree exactly 1 in g and exactly 1 in h, Q
    is bilinear, so Q(g, e) and Q(e, g) are the zero polynomial and the defect
    Q(g,h) + Q(g+h,k) - Q(h,k) - Q(g,h+k) is identically 0.  Those three
    checks would pass, so they are skipped; the degree bound and the torsion
    slots run as always, and the result equals the full check's."""
    n = c.n
    t = c.table
    terms = c.phase.terms
    if c.phase.max_degree() > 3:
        raise Unsupported("phase degree exceeds the supported bound (3 per variable)")
    den = math.lcm(*(q.ints[0] for _, q in terms))
    bilinear = not c.group.bilinear and all(sum(e[:n]) == sum(e[n:]) == 1 for e, _ in terms)
    if not bilinear:  # normalization sigma(g, e) = sigma(e, g) = 1, read off by restriction
        for label, kept, zero in (("Q(g, e)", slice(0, n), slice(n, None)),
                                  ("Q(e, g)", slice(n, None), slice(0, n))):
            # the kept halves of the kept terms are distinct and still sorted
            restricted = Poly(n, t, tuple((e[kept], q) for e, q in terms if not any(e[zero])))
            if viol := integrality_violation(restricted, t):
                return f"normalization {label} not in Z: {viol}"
    # well-definedness modulo the torsion moduli, in each argument slot:
    # Q(g + m e_i, h) - Q(g, h) changes one variable x, and each term q x^d
    # contributes q ((x + m)^d - x^d) = q sum_{j<d} C(d, j) m^(d-j) x^j
    for arg in (0, 1):
        for i in range(n):
            m = c.group.moduli[i]
            if not m:
                continue
            v = arg * n + i
            consts, syms = {}, {}
            for e, q in terms:
                d, c0, cs = q.ints
                for j in range(e[v]):
                    _add(consts, syms, e[:v] + (j,) + e[v + 1:], c0, cs,
                         den // d * math.comb(e[v], j) * m ** (e[v] - j))
            if viol := _violation(t, den, consts, syms):
                return (f"phase is not well defined modulo {m} on coordinate "
                        f"{c.group.names[i]} (argument {arg + 1}): {viol}")
    viol = None if bilinear else integrality_violation(cocycle_defect(c), t)
    if viol:
        return f"cocycle identity fails: {viol}"
    return None


# ---------------------------------------------------------------------------
# antisymmetrization and the condition engine


def antisym(c):
    """Q~(g,h) = Q(g,h) - Q(h,g) with sigma~ = e^{2 pi i Q~}; includes the
    induced-cocycle carry correction, so the result is exact (mod Z) on
    commuting argument pairs.  Q(h,g) is a renaming, not a substitution: each
    exponent tuple swaps its g and h halves, all in one Poly.make."""
    n = c.n
    terms = list(c.phase.terms) + [(e[n:] + e[:n], -k) for e, k in c.phase.terms]
    if c.correction is not None:
        terms += c.correction.terms
    return Poly.make(2 * n, c.table, terms)


def _pairing_rows(c, gens):
    """For generators v_a of a central subgroup, the matrix of KNumbers
    rows[a][j] = Q~(v_a, e_j), after verifying that (g, h) -> Q~(g, h) is a
    bicharacter mod Z on (subgroup) x G.

    With g(z) = sum_a z_a v_a in the subgroup parameters z and the group
    coordinates y, the verification is one exact polynomial identity:
      E(z, y) = Q~(g(z), y) - sum_{a,j} rows[a][j] z_a y_j  vanishes mod Z.
    It is equivalent to the two slot identities
      P(z, y) = E(z, y) - sum_j y_j E(z, e_j)  (character in the second slot)
      E(z, e_j) = Q~(g(z), e_j) - sum_a z_a rows[a][j]  (in the first slot)
    because the polynomials that vanish mod Z are closed under sums, under
    multiplication by a variable and under substituting y = e_j: E passes
    iff P and every E(z, e_j) pass.  Only a failing E is split into P and
    the E(z, e_j), in that order, to name the slot that fails.

    The rows are read off qz = Q~(g(z), y) in one pass: g(e_a) = v_a, so
    rows[a][j] = qz(z = e_a, y = e_j), and at that 0/1 point a monomial is 1
    when its variables all lie in {z_a, y_j} and 0 otherwise.  A monomial
    in z_a and y_j alone feeds only rows[a][j]; one in z_a alone, all of row
    a; one in y_j alone, all of column j; the constant term, every entry.
    qz, the rows and E are integer numerators over Q~'s common denominator;
    only the rows become KNumbers, and only a failing E a Poly.  An entry
    that no monomial feeds is one shared zero KNumber.

    Bilinear shortcut: when every term of Q~ has degree exactly 1 in g and
    exactly 1 in h, Q~(g, h) = sum_{i,j} q_ij g_i h_j, so
      Q~(g(z), y) = sum_{a,j} z_a y_j sum_i v_a[i] q_ij.
    Then rows[a][j] = sum_i v_a[i] q_ij is exactly qz's z_a y_j coefficient,
    E is the zero polynomial, and the substitution and the integrality check
    are skipped; the rows equal the general read-off's.
    """
    n = c.n
    t = c.table
    k = len(gens)
    q = antisym(c)
    zero = KNumber.make(t)
    if all(sum(e[:n]) == sum(e[n:]) == 1 for e, _ in q.terms):
        rows = [[zero] * n for _ in range(k)]
        for e, coef in q.terms:
            i, j = e.index(1), e.index(1, n) - n
            for a, v in enumerate(gens):
                if v[i]:
                    rows[a][j] = rows[a][j] + coef.scale(v[i])
        return rows
    nv = k + n  # z variables then y variables
    mapping = {i: {_mono(nv, a): gens[a][i] for a in range(k) if gens[a][i]} for i in range(n)}
    mapping.update({n + j: {_mono(nv, k + j): 1} for j in range(n)})
    den, consts, syms = q._image(mapping, nv)  # Q~(g(z), y) in variables (z, y)
    rc, rs = {}, {}  # the rows' numerators over den, keyed (a, j)
    for exps in consts.keys() | syms.keys():
        za = [a for a in range(k) if exps[a]]
        yj = [j for j in range(n) if exps[k + j]]
        if len(za) <= 1 and len(yj) <= 1:
            c0, cs = consts.get(exps, 0), syms.get(exps, {}).items()
            for a in za or range(k):
                for j in yj or range(n):
                    _add(rc, rs, (a, j), c0, cs)
    entries = rc.keys() | rs.keys()
    for (a, j) in entries:  # E: qz minus rows[a][j] at z_a y_j
        _add(consts, syms, _mono(nv, a, k + j), rc.get((a, j), 0), rs.get((a, j), {}).items(), -1)
    if (viol := _violation(t, den, consts, syms)) is None:
        return [[KNumber.from_ints(t, den, rc.get((a, j), 0),
                                   sorted([p for p in rs.get((a, j), {}).items() if p[1]],
                                          key=lambda p: t.order[p[0]]))
                 if (a, j) in entries else zero
                 for j in range(n)] for a in range(k)]
    err = _assemble(nv, t, den, consts, syms)
    zs = {a: Poly.var(nv, t, a) for a in range(k)}
    ys = [Poly.var(nv, t, k + j) for j in range(n)]
    firsts = [err.substitute({**zs, **{k + i: Poly.const(nv, t, int(i == j))
                                       for i in range(n)}}, nv) for j in range(n)]  # E(z, e_j)
    second = err - sum((y * e for y, e in zip(ys, firsts)), Poly.zero(nv, t))
    for slot, part in [("second", second)] + [("first", e) for e in firsts]:
        if part_viol := integrality_violation(part, t):
            raise Unsupported(f"pairing is not a character in its {slot} argument: {part_viol}")
    raise ValueError(f"pairing is not a bicharacter: {viol}")  # unreachable, see above


DEFAULT_CASE_BUDGET = 256  # case leaves per case tree


class CaseLeaf(Value):
    # ctx: RationalityContext; lattice: SubgroupLattice; conditions:
    # human-readable "form in Z" strings; skipped: conditions dropped for
    # lack of a denominator bound
    __slots__ = _fields = ("ctx", "lattice", "conditions", "skipped")

    def __init__(self, ctx, lattice, conditions=(), skipped=()):  # built in bulk
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "lattice", lattice)
        object.__setattr__(self, "conditions", conditions)
        object.__setattr__(self, "skipped", skipped)

    @property
    def label(self):
        """The leaf's assumptions, for display: "unconditional" when none."""
        return "; ".join(self.ctx.assumptions) or "unconditional"


def condition_lattice(ctx, forms, zmoduli, gen_names, case_budget=DEFAULT_CASE_BUDGET):
    """Case tree for {z : F(z) in Z for every F in forms}.

    Each form is a list of KNumber coefficients (one per z-coordinate).
    Symbol components classified irrational force equations; rational
    components force congruences modulo their denominator class; undetermined
    components split the context.  Components whose denominator class is
    unknown are recorded and skipped — this never changes the rank of the
    solution lattice, only its (finite) index.

    Each row is cleared to integers once, with the forms, from the integers
    of its KNumbers: a row r/d gives the equation r.z = 0 and, under a
    denominator class m, the congruence r.z = 0 (mod m*d), the integer rows
    solve_mixed_system takes.  It is presolved there too, once for all
    leaves: a singleton row gives the coordinate it forces to 0.  A leaf's
    basis is still its whole system's canonical HNF (solve_mixed_system).

    Each case node classifies each distinct symbol at most once, in the
    order the forms and their terms first name it: every term's value is the
    unit symbol, so its classification depends on the symbol and the node's
    context alone.  The node splits on the first undetermined symbol in that
    order, the first undetermined term in the walk over the forms; only a
    node with none builds its conditions.  Each child is handed the classes
    read on its path, plus the split symbol's (RATIONAL with no denominator,
    or IRRATIONAL), and classifies only the symbols after it.  It would
    classify the handed ones the same (RationalityContext.split): it comes
    from a consistent node split on an undetermined value, since the
    children of an inconsistent node are inconsistent and never pushed.
    So a leaf whose symbols its path settled classifies nothing.

    The product walk.  Let u_1..u_k be the symbols in that order, S their
    coordinates and e_u a unit vector.  When every u is a free xi, the root
    is consistent, each u classifies UNDETERMINED there and no row of the
    root's span (integral facts and torsion axioms included) and no root
    irrational residual is nonzero on S (RationalityContext.
    product_residuals), the tree is the full product over the u_i, and the
    walk splits each node on its next u with split_open, classifying
    nothing below the root.  Claim, for a node N at depth i whose path
    assumed u_1..u_i each rational or irrational: N is consistent, its span
    rows are the root's plus e_u for each rational u, and its irrational
    residuals are the root's plus e_u for each irrational u.  At the root
    this is the hypothesis.  Suppose it holds at N.  Every pivot of N lies
    outside S or is an assumed u; the root's rows and residuals and every
    integral fact are zero on S, and an added row or residual e_u is zero
    on S but at u.  So an unsplit u reduces to e_u itself, the root's
    residual, which is no theta axiom (u is a xi) and no irrational
    direction: u is UNDETERMINED, and N splits on u_{i+1} = x with residual
    e_x.  The irrational child is consistent (the residual is nonzero) and
    gains e_x as a residual.  The rational child inserts e_x, which changes
    no row and no residual (none has an entry at x), and is consistent
    (RationalityContext.split).  Both children satisfy the claim.  So the
    leaves are the 2^k nodes at depth k, each with the classes of its path.

    The case budget is exceeded, with BudgetExceeded, iff the tree has more
    than case_budget leaves: the product walk checks 2^k before it splits,
    and the general walk checks after each node that its leaves plus its
    pending nodes do not exceed the budget.  That count never exceeds the
    tree's leaves: every pending node is consistent, and a consistent node
    that splits has a consistent irrational child, so each gives a leaf.
    """
    prepared = []  # per form, computed once: its constant congruence and its symbol terms
    for form in forms:
        const_row, d = _cleared([(kn.ints[1], kn.ints[0]) for kn in form])
        const = ((const_row, d), _render_form(const_row, d, None, gen_names)) if d != 1 else None
        terms = []
        parts = [(dict(kn.ints[2]), kn.ints[0]) for kn in form]
        for s in dict.fromkeys(n for kn in form for n, _ in kn.ints[2]):
            row, d = _cleared([(cs.get(s, 0), e) for cs, e in parts])
            text = _render_form(row, d, s, gen_names)  # and its two fixed condition texts
            terms.append((s, row, d, zl.presolve([row]), text, text + " = 0 forced (irrational factor)",
                          text + " (rational factor, denominator unknown; "
                                 "congruence skipped, rank unaffected)"))
        prepared.append((const, terms))
    # each symbol name as its unit value, in the order the forms first name it
    units = {s: symbol(ctx.table, s) for s in dict.fromkeys(t[0] for _, terms in prepared
                                                             for t in terms)}
    residuals = ctx.product_residuals(units)
    if residuals is not None and 2 ** len(units) > case_budget:
        raise BudgetExceeded(case_budget)
    leaves = []
    stack = [(ctx, {})]  # a node and the classes read on its path
    while stack:
        cur, classes = stack.pop()
        for s, x in units.items():
            if s in classes:
                continue
            if residuals is not None:
                rat, irr = cur.split_open(x, residuals[s])
            else:
                cls = cur.classify(x)
                if cls.kind != UNDETERMINED:
                    classes[s] = cls
                    continue
                rat, irr = cur.split(x)
            if rat is not None:
                stack.append((rat, {**classes, s: _RATIONAL}))
            if irr is not None:
                stack.append((irr, {**classes, s: _IRRATIONAL}))
            break
        else:
            leaves.append(_case_leaf(cur, prepared, classes, zmoduli))
        if len(leaves) + len(stack) > case_budget:  # each pending node gives a leaf
            raise BudgetExceeded(case_budget)
    return leaves


def _case_leaf(ctx, prepared, classes, zmoduli):
    """The leaf of a node whose symbols are all classified: irrational
    components give equations, rational ones congruences or, without a
    denominator class, a skipped note."""
    forced, eqs, congs, conds, skipped = [], [], [], [], []
    for const, terms in prepared:
        if const:
            congs.append(const[0])
            conds.append(const[1])
        for s, row, d, (fixes, rest), text, irrational, skip in terms:
            cls = classes[s]
            if cls.kind == IRRATIONAL:
                forced += fixes
                eqs += rest
                conds.append(irrational)
            elif cls.denominator is None:
                skipped.append(skip)
            else:
                congs.append((row, cls.denominator * d))
                conds.append(text + f" = 0 (mod {cls.denominator})")
    lat = zl.solve_mixed_system(zmoduli, forced, eqs, congs)
    return CaseLeaf(ctx, lat, tuple(conds), tuple(skipped))


def _cleared(pairs):
    """The rational row of (numerator, denominator) pairs as (r, d): the
    integer row r and the least d > 0 with r/d equal to it."""
    m = math.lcm(*(e for _, e in pairs))
    row = [a * (m // e) for a, e in pairs]
    g = math.gcd(m, *row)
    return [x // g for x in row], m // g


def _render_form(row, d, sym, gen_names):
    """The rational row r/d as text, each coefficient as its Fraction prints."""
    parts = []
    for c, name in zip(row, gen_names):
        if not c:
            continue
        coef = "" if c == d else f"{_fraction_str(c, d)}*"
        parts.append(f"{coef}{name}")
    body = " + ".join(parts) if parts else "0"
    if sym:
        return f"{sym}*({body})"
    return f"{body} in Z"


def _rebase_ctx(ctx, table):
    if ctx.table == table:
        return ctx
    return RationalityContext(table, tuple(x.rebase(table) for x in ctx.rational),
                              tuple(x.rebase(table) for x in ctx.integral),
                              tuple(x.rebase(table) for x in ctx.irrational), ctx.assumptions)


def _map_leaves_to_ambient(leaves, gens, ambient_moduli):
    out = []
    n = len(ambient_moduli)
    for leaf in leaves:
        cols = []
        for z in leaf.lattice.hnf_basis:
            vec = [sum(z[a] * gens[a][i] for a in range(len(gens))) for i in range(n)]
            if any(vec):
                cols.append(tuple(vec))
        lat = zl.SubgroupLattice(tuple(ambient_moduli), tuple(cols))
        out.append(CaseLeaf(leaf.ctx, lat, leaf.conditions, leaf.skipped))
    return out


def twisted_center(c, ctx, case_budget=DEFAULT_CASE_BUDGET):
    """Case tree of (context, lattice) for Z(G, sigma) = {central g with
    sigma~(g, h) = 1 for all h}.

    Over the caller's own table the tree is rooted in the caller's context
    itself, not a copy, and a recursion child over the same table classifies
    in its leaf's context, span and memo included.  The root's memo
    therefore outlives the call; its entries are classifications under its
    facts, so a later call reads the same answers it would compute."""
    ctx = _rebase_ctx(ctx, c.table)
    center = c.group.center()
    _check_additive(c.group, center)
    par = center.parametrization
    if not par.gens:
        empty = zl.zero_lattice(c.group.moduli)
        return [CaseLeaf(ctx, empty, ("center is trivial",))]
    rows = _pairing_rows(c, par.gens)  # also verifies the character property
    # condition per group generator j: sum_a z_a * Q~(v_a, e_j) in Z
    forms = [[row[j] for row in rows] for j in range(c.n)]
    gen_names = _gen_names(par.gens, c.group)
    leaves = condition_lattice(ctx, forms, par.moduli, gen_names, case_budget)
    if par.moduli == c.group.moduli and par.gens == tuple(map(tuple, zl.identity(c.n))):
        return leaves  # the parameters are the ambient coordinates
    return _map_leaves_to_ambient(leaves, par.gens, c.group.moduli)


def _check_additive(group, lattice):
    """The parametrizations used here require subgroup elements to multiply
    coordinate-wise (mod torsion), i.e. the bilinear correction of any product
    of basis elements must vanish modulo the coordinate moduli.  A group
    without bilinear entries has no correction."""
    if not group.bilinear:
        return
    basis = lattice.hnf_basis
    if any(any(group.reduce(group.carry(va, vb))) for va in basis for vb in basis):
        raise Unsupported("subgroup elements do not multiply coordinate-wise; "
                               "unsupported presentation shape")


def _gen_names(gens, group):
    names = []
    for i, v in enumerate(gens):
        nz = [t for t, x in enumerate(v) if x]
        if len(nz) == 1 and v[nz[0]] == 1:
            names.append(group.names[nz[0]])
        else:
            names.append(f"z{i+1}")
    return names


# ---------------------------------------------------------------------------
# pull-backs


def pull_back(c, morphism):
    """Pull a cocycle on morphism.target back to morphism.source:
    Q'(x, y) = Q(A x, A y) with A the morphism's matrix."""
    ns = morphism.source.n
    lin = [list(row) + [0] * ns for row in morphism.matrix]
    lin += [[0] * ns + list(row) for row in morphism.matrix]
    phase = c.phase.compose_linear(lin, 2 * ns)
    corr = c.correction.compose_linear(lin, 2 * ns) if c.correction is not None else None
    return Cocycle(morphism.source, c.table, phase, corr)


def restrict_to_lattice(c, lattice):
    """Restrict to a subgroup given as a SubgroupLattice; coordinates of the
    result are the lattice's parameters."""
    par = lattice.parametrization
    sub = sub_presentation(c.group, par)
    emb = Morphism(sub, c.group, tuple(tuple(v[i] for v in par.gens) for i in range(c.n)))
    return pull_back(c, emb)


def sub_presentation(group, par):
    """Presentation of a subgroup, given by its parametrization, in its own
    coordinates.  Supported when products of generators stay in the
    subgroup, which holds for the kernels and centers handled here; the law
    is transported by GroupPresentation.on, each carry read through the
    parameters."""
    def read(v):
        coeffs = par.coordinates(v)
        if coeffs is None:
            raise Unsupported("subgroup is not closed under the group law")
        return coeffs

    return group.on(par.gens, read, par.moduli)


# ---------------------------------------------------------------------------
# quotient push-down and induced cocycles


def push_to_quotient(c, qd):
    """omega = sigma o (section x section) on G/N; the result is validated
    and a failure is reported, never silently corrected."""
    out = pull_back(c, qd.section)
    viol = validate_cocycle(out)
    if viol:
        raise Unsupported(
            "push-down is not a 2-cocycle; a cohomology correction would be "
            f"required, which is outside the supported constructions: {viol}")
    return out


def gamma_phase_of(element, par, table, names):
    """gamma(element) as a KNumber phase: sum xi_t * u_t over the parameters
    u of the element inside N, with xi_t the symbol names[t]."""
    u = par.coordinates(element)
    if u is None:
        raise ValueError("section defect left the subgroup (section inconsistency)")
    return KNumber.make(table, 0, {name: val for name, val in zip(names, u) if val})


def induce_gamma(c, qd, prefix="gamma"):
    """omega_gamma = gamma(defect) * omega with gamma represented symbolically.

    The section defect c(x)c(y)c(xy)^{-1} is bilinear for the linear section;
    the torsion-coordinate carries that a polynomial cannot express are
    recorded in ``correction``, which restores exactness of the
    antisymmetrization on commuting pairs (the only place it is consumed).
    Both read qd only through its maps and the quotient's commutator rows.

    The gamma terms are computed first.  When all of them vanish, c is
    returned as it is, over its own table, so a recursion child keeps its
    parent's table and twisted_center keeps the leaf's RationalityContext
    and whatever it has cached.  The induced symbols would occur in
    no value and in no fact; each adds only its torsion axiom, a vector
    supported on its own coordinate.  Such a vector cannot enter the
    reduction of a value without that coordinate, cannot make the span hold
    a pure-theta vector, and cannot help write a multiple of such a value as
    an integer combination of the integral facts, so every classification
    and every split is the same with or without them.
    """
    g_top = qd.projection.source
    q = qd.group
    nq = q.n
    lifts = tuple(zip(*qd.section.matrix))  # P e_i

    # defect delta(e_i, e_j) = B_G(P e_i, P e_j) - P B_Q(e_i, e_j) in N, exact as
    # GroupPresentation.on defines B_Q(e_i, e_j) as the projection of that carry
    defects = []
    for i, j in itertools.product(range(nq), repeat=2):
        vec = g_top.carry(lifts[i], lifts[j])
        if any(vec):
            back = qd.section.apply_raw(qd.projection.apply(vec))
            if any(vec := [x - y for x, y in zip(vec, back)]):
                defects.append((_mono(2 * nq, i, nq + j), vec))
    # carry corrections: commuting pairs satisfy Qtrue~ = Qpoly~ plus, for each torsion
    # coordinate k of modulus d, (kappa_k(x, y)/d) * gamma(d P e_k), kappa_k off the rows
    torsion = {k for k, _, _ in q.commutator_rows if q.moduli[k]}
    if not defects and not torsion:
        return c
    par = qd.subgroup.parametrization
    if not par.gens:
        return c
    new_syms = [(f"{prefix}{t + 1}", m) for t, m in enumerate(par.moduli)]
    names = [name for name, _ in new_syms]
    table = c.table.with_xis(new_syms)
    gphase = Poly.make(2 * nq, table, [(e, gamma_phase_of(vec, par, table, names))
                                       for e, vec in defects])
    kns = {k: gamma_phase_of([q.moduli[k] * x for x in lifts[k]], par, table, names)
           for k in torsion}
    gcorr = Poly.make(2 * nq, table, [(_mono(2 * nq, i, nq + j), kns[k]._times(coef, q.moduli[k]))
                                      for k, j, row in q.commutator_rows if k in kns
                                      for i, coef in enumerate(row) if coef])
    if gphase.is_zero() and gcorr.is_zero():
        return c
    phase = c.phase.rebase(table) + gphase
    corr = c.correction.rebase(table) + gcorr if c.correction is not None else gcorr
    # no validator run here: the gamma phase of a torsion quotient has a
    # non-polynomial floor remainder, absorbed into ``correction`` for the
    # commuting pairs that every downstream consumer pairs against
    return Cocycle(q, table, phase, corr if not corr.is_zero() else None)


# ---------------------------------------------------------------------------
# phi_D pairing and the two-step kernel


def phi_map(c, d_lattice, ctx, case_budget=DEFAULT_CASE_BUDGET):
    """M = ker(phi_D) as a case tree, plus the pairing rows for surjectivity
    checks: phi_D(g)(d) = sigma~(d, g).  D must be central; that is not
    checked here, and decide_two_step proves it for the D it passes."""
    ctx = _rebase_ctx(ctx, c.table)
    _check_additive(c.group, d_lattice)
    par = d_lattice.parametrization
    if not par.gens:
        return [CaseLeaf(ctx, c.group.full_lattice(), ("D is trivial",))], [], ()
    rows = _pairing_rows(c, par.gens)
    # condition on g (full coordinates): Q~(d_a, g) in Z for all a
    leaves = condition_lattice(ctx, [list(row) for row in rows], c.group.moduli, c.group.names,
                               case_budget)
    return leaves, rows, par.moduli


def phi_surjective(rows, zmods, group, ctx):
    """Whether phi_D: G -> D^ is surjective: (True | False | None, reason).

    Decidable (here) exactly when D is finite with concrete pairing phases:
    the pairing must hit every character of prod Z/m_a."""
    if any(m == 0 for m in zmods):
        return False, "D has a free factor; a countable discrete group never surjects onto its dual torus"
    tvecs = []
    for j in range(group.n):
        vec = []
        for a, m in enumerate(zmods):
            val = rows[a][j]
            if not val.is_constant():
                return None, (f"pairing phase {val} depends on a symbol; "
                              "surjectivity is undetermined")
            d, c0, _ = val.ints
            if c0 * m % d:
                return False, (f"pairing value e^(2 pi i {val}) is not an "
                               f"order-{m} root of unity")
            vec.append(c0 * m // d % m)
        tvecs.append(vec)
    lat = zl.SubgroupLattice(tuple(zmods), tuple(tuple(v) for v in tvecs))
    full = lat.index() == 1
    return full, None if full else "pairing image is a proper subgroup of the dual"


# ---------------------------------------------------------------------------
# products


def product_split(c, n1):
    """Split sigma on a direct product G1 x G2 into (sigma1, sigma2, f) with
    sigma(g,h) = sigma1(g1,h1) sigma2(g2,h2) f(h1,g2); f must be a
    bihomomorphism, the group law must not mix the factors and the
    reassembly must equal sigma mod Z, otherwise not-product-form (None)."""
    n = c.n
    t = c.table
    if any(len({x < n1 for x in e[:3]}) > 1 for e in c.group.bilinear):
        return None

    def restrict(*zero):
        # the substitution of 0 for the variables in the given blocks keeps
        # exactly the terms whose exponents there are all 0
        return Poly(2 * n, t, tuple((e, q) for e, q in c.phase.terms
                                    if not any(e[i] for z in zero for i in z)))

    g1v, g2v = range(n1), range(n1, n)
    h1v, h2v = range(n, n + n1), range(n + n1, 2 * n)
    q11 = restrict(g2v, h2v)
    q22 = restrict(g1v, h1v)
    cross = restrict(g1v, h2v)  # Q((0,g2),(h1,0))
    # f must be bilinear in (g2, h1): every term must have total degree 1 in
    # each block
    for exps, _ in cross.terms:
        if (sum(exps[n:n + n1]), sum(exps[n1:n])) != (1, 1):
            return None
    resid = c.phase - q11 - q22 - cross
    if integrality_violation(resid, t) is not None:
        return None

    def factor(lo, hi):
        # the law does not mix the factors, so a carry is read by slicing
        units = [tuple(int(i == j) for i in range(n)) for j in range(lo, hi)]
        sub = c.group.on(units, lambda v: v[lo:hi], c.group.moduli[lo:hi], c.group.names[lo:hi])
        return pull_back(c, Morphism(sub, c.group, tuple(zip(*units))))

    s1, s2 = factor(0, n1), factor(n1, n)
    fmat = [[KNumber.make(t, 0)] * n1 for _ in range(n - n1)]
    for exps, coef in cross.terms:
        i2 = next(i for i in range(n1, n) if exps[i])
        j1 = next(j for j in range(n1) if exps[n + j])
        fmat[i2 - n1][j1] = fmat[i2 - n1][j1] + coef
    return s1, s2, fmat
