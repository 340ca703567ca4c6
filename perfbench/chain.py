"""Chain tori with free parameters, and their hand-derived verdicts.

Instance.  G = Z^n with coordinates a1..an, free parameters x1..x(n-1)
(declared `param`: rationality left open), and the phase

    Q(g, h) = sum_{i=1}^{n-1} c_i * x_i * g_{pi(i)} * h_{pi(i+1)}

with nonzero integers c_i and a permutation pi, both drawn from the seed.
Edge i of the path pi(1) - pi(2) - ... - pi(n) carries x_i.

Reference (derived by hand, not by the engine).  Q is bilinear, so it is a
2-cocycle, and G is abelian, so the twisted center is
{g : Q(g, h) - Q(h, g) in Z for all h}.  Tested against the generator of a
vertex v, the condition is a sum over the edges at v of +-c_i * x_i times the
coordinate of the edge's other end.  Each parameter occurs, so the case split
decides each x_i rational or irrational once, and the parameters are
independent, so no assignment is inconsistent: 2^(n-1) case leaves.  In the
leaf where the set of irrational edges is I, the component of an irrational
x_i must vanish, which zeroes the coordinates at both ends of edge i; a
rational x_i of unknown denominator only adds a congruence, which cannot
change the rank.  So the twisted center is {g : g_v = 0 for v covered by I}:
  * it has finite index only for I empty (all x_i rational).  That leaf is a
    rational point, and one such branch makes the node NotZStable, so
    decide() must return NotZStable with exactly one finite-index leaf;
  * it is trivial exactly when I is an edge cover of the path.  The full edge
    set is one and the empty set is not, so the leaves disagree, simplicity
    is "not-determined", and the number of "yes" leaves is the number of edge
    covers of a path with n-1 edges: 1, 2, 3, 5, 8 for n = 3..7.
"""

from __future__ import annotations

import itertools
import random

SIZES = (3, 4, 5, 6, 7)  # n = 8 takes about 2 s per verdict and is left out
COEFFICIENTS = (1, 2, 3, -1, -2, -3)


def chain_text(n, rng):
    """Problem-file text of one chain torus Z^n drawn from `rng`."""
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    lines = ["[symbols]"] + [f"x{i} param" for i in range(1, n)]
    lines += ["", "[group]", "builder abelian " + " ".join(["0"] * n),
              "names " + " ".join(f"a{i}" for i in range(1, n + 1)), "",
              "[cocycle]"]
    for i in range(1, n):
        c = rng.choice(COEFFICIENTS)
        lines.append(f"{c} x{i} * g:a{perm[i - 1]} * h:a{perm[i]}")
    return "\n".join(lines) + "\n"


def edge_covers(n):
    """Edge sets of the path on n vertices that touch every vertex."""
    return sum(
        all((v > 0 and bits[v - 1]) or (v < n - 1 and bits[v])
            for v in range(n))
        for bits in itertools.product((False, True), repeat=n - 1))


def instance_sets(seed, count):
    """`count` sets of chain tori, one per size in SIZES, as problem texts."""
    rng = random.Random(f"chain-{seed}")
    return [{n: chain_text(n, rng) for n in SIZES} for _ in range(count)]


def mismatches(n, trace, simple, simple_branches):
    """Differences between a verdict and the hand-derived reference.

    `trace` is the certificate as a dict (the `--json` shape),
    `simple_branches` the verdict strings of the simplicity case leaves."""
    out = []
    leaves = trace["branches"]
    if trace["verdict"] != "NotZStable":
        out.append(f"z_stable {trace['verdict']} != NotZStable")
    if len(leaves) != 2 ** (n - 1):
        out.append(f"{len(leaves)} case leaves != {2 ** (n - 1)}")
    finite = sum(b["index"] != "infinite" for b in leaves)
    if finite != 1:
        out.append(f"{finite} finite-index leaves != 1")
    if simple != "not-determined":
        out.append(f"simple {simple} != not-determined")
    yes = sum(v == "yes" for v in simple_branches)
    if yes != edge_covers(n):
        out.append(f"{yes} trivial twisted centers != {edge_covers(n)}")
    return out
