"""Reference answers that the benchmark computes without calling toriccontact.

Every expected decision or number a check compares against comes from here or
from the construction of the input itself, so a wrong fast path in the
library cannot also produce the answer it is checked against.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction


def rand_unimodular(k, rng, shears, bound=2):
    """Integer k x k matrix with det +-1: elementary shears and one optional swap."""
    m = [[int(i == j) for j in range(k)] for i in range(k)]
    for _ in range(shears):
        i, j = rng.sample(range(k), 2)
        c = rng.randint(-bound, bound)
        m[i] = [a + c * b for a, b in zip(m[i], m[j])]
    if rng.random() < 0.5:
        i, j = rng.sample(range(k), 2)
        m[i], m[j] = m[j], m[i]
    return m


def mat_vec(m, v):
    return tuple(sum(a * b for a, b in zip(row, v)) for row in m)


def dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def int_det(rows):
    """Exact determinant of a square integer matrix (fraction-free Bareiss)."""
    m = [list(r) for r in rows]
    n = len(m)
    sign, prev = 1, 1
    for c in range(n - 1):
        if m[c][c] == 0:
            swap = next((r for r in range(c + 1, n) if m[r][c] != 0), None)
            if swap is None:
                return 0
            m[c], m[swap] = m[swap], m[c]
            sign = -sign
        for r in range(c + 1, n):
            for j in range(c + 1, n):
                m[r][j] = (m[r][j] * m[c][c] - m[r][c] * m[c][j]) // prev
        prev = m[c][c]
    return sign * m[n - 1][n - 1]


# -- cones ----------------------------------------------------------------------


def simplex_product_cone(a, b):
    """Labels, rays and facet groups of the cone over the product of simplices
    Delta_a x Delta_b (standard labels x_j >= 0 and 1 - sum x_j >= 0)."""
    k = a + b + 1
    labels, groups = [], []
    for start, n in ((0, a), (a, b)):
        group = []
        for j in range(n):
            group.append(len(labels))
            labels.append(tuple(int(c == start + j) for c in range(k)))
        group.append(len(labels))
        labels.append(tuple(-1 if start <= c < start + n else int(c == k - 1)
                            for c in range(k)))
        groups.append(tuple(group))
    verts_a = [tuple(int(c == j) for c in range(a)) for j in range(-1, a)]
    verts_b = [tuple(int(c == j) for c in range(b)) for j in range(-1, b)]
    rays = [va + vb + (1,) for va in verts_a for vb in verts_b]
    return k, tuple(labels), rays, tuple(groups)


def cube_cone(n):
    """Labels and rays of the cone over the unit n-cube."""
    k = n + 1
    labels = []
    for j in range(n):
        labels.append(tuple(int(c == j) for c in range(k)))
        labels.append(tuple(-1 if c == j else int(c == n) for c in range(k)))
    rays = [v + (1,) for v in itertools.product((0, 1), repeat=n)]
    return k, tuple(labels), rays


# Delzant hexagon -1 <= x, y, x + y <= 1: a good cone that is not of product type.
HEXAGON_LABELS = ((1, 0, 1), (-1, 0, 1), (0, 1, 1), (0, -1, 1), (1, 1, 1), (-1, -1, 1))
HEXAGON_RAYS = [(1, 0, 1), (0, 1, 1), (-1, 1, 1), (-1, 0, 1), (0, -1, 1), (1, -1, 1)]

# Strictly convex simplicial cones whose face {0, 1} is not saturated.
BAD_CONES = (
    (((1, 0, 0), (1, 2, 0), (0, 0, 1)), (1, 2)),
    (((1, 0, 0, 0), (1, 3, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)), (1, 3)),
)


def pairing_profile(labels, rays):
    """Sorted label-value vectors <l_i, r> over the rays: invariant under
    GL(k, Z) acting on labels and (dually) on rays."""
    return sorted(tuple(dot(l, r) for l in labels) for r in rays)


# -- labelled polytopes ----------------------------------------------------------


def segment_facets(m1, m2):
    return [((Fraction(m1),), Fraction(0)), ((Fraction(-m2),), Fraction(m2))]


def simplex_facets(weights):
    """Simplex with labels w_j x_j >= 0 and w_n (1 - sum x) >= 0."""
    n = len(weights) - 1
    facets = [
        (tuple(Fraction(weights[j] * (c == j)) for c in range(n)), Fraction(0))
        for j in range(n)
    ]
    facets.append((tuple(Fraction(-weights[n]) for _ in range(n)), Fraction(weights[n])))
    return facets


def transform_normals(facets, u):
    """Image under the lattice automorphism whose normals map by u."""
    return [(tuple(Fraction(c) for c in mat_vec(u, n)), c0) for n, c0 in facets]


def product_facets(*factors):
    """Facets of the product, factor coordinates in order, labels concatenated."""
    dims = [len(f[0][0]) for f in factors]
    out = []
    for idx, facets in enumerate(factors):
        before, after = sum(dims[:idx]), sum(dims[idx + 1:])
        for normal, const in facets:
            out.append(((Fraction(0),) * before + normal + (Fraction(0),) * after, const))
    return out


def scaled(facets, r):
    return [(n, r * c) for n, c in facets]


def segment_extremal(m1, m2):
    """(a, b) with R_E = a + b x on the segment labelled m1 x, m2 (1 - x).

    Solves int_0^1 f R_E dx = 2 (f(0)/m1 + f(1)/m2) for f = 1 and f = x.
    """
    r0 = Fraction(2, m1) + Fraction(2, m2)
    r1 = Fraction(2, m2)
    a = 12 * (r0 / 3 - r1 / 2)
    b = 12 * (r1 - r0 / 2)
    return a, b


def product_extremal(parts):
    """Golden R_E (constant, normal) of a product of segments, unit squares and
    unit-label triangles, each given as ('segment', m1, m2), ('square',) or
    ('triangle',).  R_E of a product is the sum of the factors' R_E."""
    const, normal = Fraction(0), []
    for part in parts:
        if part[0] == "segment":
            a, b = segment_extremal(part[1], part[2])
            const += a
            normal.append(b)
        elif part[0] == "square":
            const += 8
            normal += [Fraction(0)] * 2
        else:
            const += 12
            normal += [Fraction(0)] * 2
    return const, tuple(normal)


def _label_vectors(facets):
    """Label vectors (normal, constant) scaled by a common denominator to
    integers; scaling keeps every lattice decision below."""
    denom = math.lcm(*(c.denominator for n, c0 in facets for c in n + (c0,)))
    return [tuple(int(c * denom) for c in n + (c0,)) for n, c0 in facets]


def _max_minor_gcd(vecs, k):
    """gcd of the k x k minors: the covolume of the lattice the rows span."""
    g = 0
    for rows in itertools.combinations(vecs, k):
        g = math.gcd(g, int_det(rows))
    return g


def simplex_product_is_characteristic(facets, groups):
    """Decide `is_characteristic` for a labelled product of simplices.

    The label vectors span a lattice L of covolume D.  The cone over a
    product of simplices is simplicial at each ray, and a face is saturated
    when the ray faces containing it are, so the cone is good with primitive
    labels iff for every vertex (one omitted facet per factor) the other labels
    S satisfy gcd_j det[S; l_j] = D.
    """
    vecs = _label_vectors(facets)
    covol = _max_minor_gcd(vecs, len(vecs[0]))
    if covol == 0:
        return False
    for omitted in itertools.product(*groups):
        rest = [vecs[i] for i in range(len(vecs)) if i not in omitted]
        h = 0
        for j in omitted:
            h = math.gcd(h, int_det(rest + [vecs[j]]))
        if h != covol:
            return False
    return True


def labels_primitive_in_span(facets):
    """Whether the label vectors span a full-rank lattice L in which each is
    primitive: the point where `is_characteristic` starts its goodness test.

    l / m lies in L exactly when adjoining it keeps the covolume; only primes
    m dividing the content of l can qualify.
    """
    vecs = _label_vectors(facets)
    k = len(vecs[0])
    covol = _max_minor_gcd(vecs, k)
    if covol == 0:
        return False
    for v in vecs:
        content = math.gcd(*v)
        for m in range(2, content + 1):
            if content % m == 0 and all(m % p for p in range(2, m)):
                if _max_minor_gcd(vecs + [tuple(c // m for c in v)], k) == covol:
                    return False
    return True
