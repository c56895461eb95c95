import math
import random
from fractions import Fraction

import numpy as np
import pytest
import sympy as sp

import toriccontact as tc
from toriccontact import potential as pot
from toriccontact.errors import (
    InvalidArgumentError,
    NotConvexHereError,
    OutOfDomainError,
)

X0 = sp.Symbol("x0", real=True)
X1 = sp.Symbol("x1", real=True)


def test_guillemin_segment():
    seg = tc.segment()
    v, g, h = tc.guillemin_eval(seg, (0.5,))
    assert abs(v - (-math.log(2) / 2)) < 1e-12
    assert abs(h[0, 0] - 2.0) < 1e-12
    with pytest.raises(OutOfDomainError):
        tc.guillemin_eval(seg, (1.0,))
    with pytest.raises(OutOfDomainError):
        tc.guillemin_eval(seg, (1.5,))


def test_guillemin_square_center():
    box = tc.unit_box(2)
    v, g, h = tc.guillemin_eval(box, (0.5, 0.5))
    assert abs(v - (-math.log(2))) < 1e-12
    assert np.allclose(h, np.diag([2.0, 2.0]))
    assert np.allclose(g, 0.0)


def guillemin_exact_labels(poly, x):
    """Reference: each label evaluated exactly in Fractions, then rounded once."""
    n = poly.dim
    value = 0.0
    grad = np.zeros(n)
    hess = np.zeros((n, n))
    for f in poly.facets:
        li = float(f(x))
        nv = np.array([float(c) for c in f.normal])
        value += 0.5 * li * math.log(li)
        grad += 0.5 * (math.log(li) + 1.0) * nv
        hess += 0.5 * np.outer(nv, nv) / li
    return value, grad, hess


def random_rational_polytope(rng):
    """A random characteristic simplex, product or cut square, translated by a
    rational vector, with every label scaled by its own positive rational."""
    from conftest import rand_characteristic_simplex

    kind = rng.randrange(3)
    if kind == 0:
        p = rand_characteristic_simplex(rng.randint(1, 3), rng)
    elif kind == 1:
        p = tc.product(rand_characteristic_simplex(1, rng),
                       rand_characteristic_simplex(rng.randint(1, 2), rng))
    else:
        a, b = Fraction(rng.randint(2, 9), 3), Fraction(rng.randint(2, 9), 4)
        cut = Fraction(rng.randint(1, 9), 10)
        p = tc.LabelledPolytope(2, [
            tc.AffineFunction((1, 0), 0), tc.AffineFunction((-1, 0), a),
            tc.AffineFunction((0, 1), 0), tc.AffineFunction((0, -1), b),
            tc.AffineFunction((-1, -1), a + b - cut * min(a, b)),
        ])
    t = [Fraction(rng.randint(-20, 20), rng.randint(1, 7)) for _ in range(p.dim)]
    facets = []
    for f in p.facets:
        r = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        shifted = f.constant - sum(nc * ti for nc, ti in zip(f.normal, t))
        facets.append(tc.AffineFunction(tuple(r * c for c in f.normal), r * shifted))
    return tc.LabelledPolytope(p.dim, facets)


def random_interior_point(poly, rng):
    weights = [rng.uniform(1.0, 2.0) for _ in poly.vertices]
    total = sum(weights)
    return tuple(sum(w * float(v[i]) for w, v in zip(weights, poly.vertices)) / total
                 for i in range(poly.dim))


def test_guillemin_float_labels_match_exact_labels():
    rng = random.Random(12)
    for _ in range(40):
        poly = random_rational_polytope(rng)
        for _ in range(5):
            x = random_interior_point(poly, rng)
            v, g, h = tc.guillemin_eval(poly, x)
            rv, rg, rh = guillemin_exact_labels(poly, x)
            # relative to the size of the summed terms, which may cancel
            ls = [float(f(x)) for f in poly.facets]
            normals = [np.array([float(c) for c in f.normal]) for f in poly.facets]
            v_scale = sum(abs(0.5 * li * math.log(li)) for li in ls)
            g_scale = sum(abs(0.5 * (math.log(li) + 1.0)) * np.linalg.norm(nv)
                          for li, nv in zip(ls, normals))
            h_scale = sum(0.5 * (nv @ nv) / li for li, nv in zip(ls, normals))
            assert abs(v - rv) <= 1e-12 * v_scale
            assert np.linalg.norm(g - rg) <= 1e-12 * g_scale
            assert np.linalg.norm(h - rh) <= 1e-12 * h_scale


def test_zero_relative_potential():
    for n in (1, 2, 3):
        z = tc.RelativePotential.zero(n)
        assert z.expr == 0 and z.expr == sp.Integer(0)
        assert z.is_polynomial
        assert z.value((0.3,) * n) == 0.0
        assert np.array_equal(z.hessian((0.3,) * n), np.zeros((n, n)))
    # canonical Hessians: the Guillemin Hessian plus nothing, bit for bit where
    # every normal is a signed unit vector (boxes and segments)
    rng = random.Random(5)
    for poly in (tc.segment(), tc.segment((1, 2)), tc.unit_box(2), tc.unit_box(3)):
        u = tc.SymplecticPotential.canonical(poly)
        for _ in range(5):
            x = random_interior_point(poly, rng)
            assert np.array_equal(u.hessian(x), guillemin_exact_labels(poly, x)[2])
    poly = tc.standard_simplex(2)
    u = tc.SymplecticPotential.canonical(poly)
    x = random_interior_point(poly, rng)
    assert np.array_equal(u.hessian(x), tc.guillemin_eval(poly, x)[2])


def test_hessian_path_matches_guillemin_eval():
    rng = random.Random(21)
    for _ in range(20):
        poly = random_rational_polytope(rng)
        u = tc.SymplecticPotential.canonical(poly)
        x = random_interior_point(poly, rng)
        assert np.array_equal(u.hessian(x), tc.guillemin_eval(poly, x)[2])
    u = tc.SymplecticPotential.canonical(tc.segment())
    for x in ((1.0,), (1.5,), (math.nan,)):
        with pytest.raises(OutOfDomainError):
            u.hessian(x)


def test_guillemin_derivatives_match_finite_differences():
    rng = random.Random(4)
    box = tc.unit_box(2)
    for _ in range(5):
        x = (rng.uniform(0.2, 0.8), rng.uniform(0.2, 0.8))
        _, g, h = tc.guillemin_eval(box, x)
        eps = 1e-5
        for i in range(2):
            xp = list(x); xm = list(x)
            xp[i] += eps; xm[i] -= eps
            vp = tc.guillemin_eval(box, xp)[0]
            vm = tc.guillemin_eval(box, xm)[0]
            assert abs((vp - vm) / (2 * eps) - g[i]) < 1e-8
            gp = tc.guillemin_eval(box, xp)[1]
            gm = tc.guillemin_eval(box, xm)[1]
            assert np.allclose((gp - gm) / (2 * eps), h[i], atol=1e-7)


def test_abreu_curvature_canonical():
    u = tc.SymplecticPotential.canonical(tc.segment())
    for x in (0.2, 0.41, 0.5, 0.77):
        assert abs(tc.abreu_scalar_curvature(u, (x,)) - 4.0) < 1e-9
    u2 = tc.SymplecticPotential.canonical(tc.unit_box(2))
    for x in ((0.3, 0.6), (0.5, 0.5), (0.82, 0.17)):
        assert abs(tc.abreu_scalar_curvature(u2, x) - 8.0) < 1e-8


def test_abreu_curvature_perturbation_continuity():
    seg = tc.segment()
    vals = []
    for eps in (0.0, 1e-3, 2e-3):
        rel = tc.RelativePotential(1, eps * X0 ** 2)
        u = tc.SymplecticPotential(seg, rel)
        vals.append(tc.abreu_scalar_curvature(u, (0.4,)))
    assert abs(vals[0] - 4.0) < 1e-9
    assert abs(vals[1] - vals[0]) < 0.1
    assert abs(vals[2] - vals[1]) >= abs(vals[1] - vals[0]) / 2


def test_abreu_rejects_nonconvex():
    # a large concave relative part destroys positivity near the center
    rel = tc.RelativePotential(1, -10 * X0 ** 2)
    u = tc.SymplecticPotential(tc.segment(), rel)
    with pytest.raises(NotConvexHereError):
        tc.abreu_scalar_curvature(u, (0.5,))


def test_extremal_affine_golden():
    assert tc.extremal_affine_function(tc.segment()).to_json() == {
        "normal": ["0"], "constant": "4"}
    assert tc.extremal_affine_function(tc.segment((1, 2))).to_json() == {
        "normal": ["-6"], "constant": "6"}
    assert tc.extremal_affine_function(tc.unit_box(2)).to_json() == {
        "normal": ["0", "0"], "constant": "8"}


def test_extremal_affine_rescale_law():
    rng = random.Random(9)
    from conftest import rand_characteristic_simplex

    for _ in range(5):
        p = rand_characteristic_simplex(rng.randint(1, 2), rng)
        r = Fraction(rng.randint(1, 5), rng.randint(1, 5))
        re = tc.extremal_affine_function(p)
        re_s = tc.extremal_affine_function(p.rescale(r))
        assert re_s.constant == re.constant / r
        assert re_s.normal == tuple(c / (r * r) for c in re.normal)


def test_extremality_residual_zero_for_canonical():
    seg = tc.segment()
    u = tc.SymplecticPotential.canonical(seg)
    rep = tc.extremality_residual(u, tc.Grid.interior(seg, 64))
    assert rep.residual_sup < 1e-8
    rel = tc.RelativePotential(1, Fraction(1, 10) * X0 ** 3 * (1 - X0) ** 3)
    rep2 = tc.extremality_residual(
        tc.SymplecticPotential(seg, rel), tc.Grid.interior(seg, 64)
    )
    assert rep2.residual_sup > 1e-3


def test_donaldson_identity_segment():
    u = tc.SymplecticPotential.canonical(tc.segment())
    for expr in (sp.Integer(1), X0, X0 ** 2):
        f = tc.RelativePotential(1, expr)
        assert tc.donaldson_identity_check(u, f, refine=2) < 1e-10


def test_boundary_pairing_non_polynomial():
    # centroid rule on each facet simplex against dsigma, f = exp(x0)
    e = math.e
    for poly, expected in ((tc.segment(), 1 + e),
                           (tc.segment((2, 3)), 0.5 + e / 3),
                           (tc.unit_box(2), 1 + e + 2 * math.sqrt(e))):
        f = pot.RelativePotential(poly.dim, sp.exp(X0))
        assert not f.is_polynomial
        assert abs(pot._boundary_pairing(poly, f) - expected) < 1e-12


def test_donaldson_convergence_square():
    u = tc.SymplecticPotential.canonical(tc.unit_box(2))
    for expr in (X0 ** 2, X0 * X1):
        f = tc.RelativePotential(2, expr)
        res = [tc.donaldson_identity_check(u, f, refine=l) for l in range(4)]
        if all(r < 1e-12 for r in res):
            continue
        slope = (math.log(res[0]) - math.log(res[-1])) / (3 * math.log(2))
        assert slope >= 1.9


def test_abreu_separability():
    # R of the direct sum equals the sum of the factor curvatures
    seg = tc.segment()
    rel1 = tc.RelativePotential(1, Fraction(1, 20) * X0 ** 4)
    u1 = tc.SymplecticPotential(seg, rel1)
    r1 = tc.abreu_scalar_curvature(u1, (0.4,))
    rel2 = tc.RelativePotential(1, Fraction(1, 30) * X0 ** 3)
    u2 = tc.SymplecticPotential(seg, rel2)
    r2 = tc.abreu_scalar_curvature(u2, (0.7,))
    prod = tc.product(seg, seg)
    rel = tc.RelativePotential(
        2, Fraction(1, 20) * X0 ** 4 + Fraction(1, 30) * X1 ** 3
    )
    u = tc.SymplecticPotential(prod, rel)
    # the inverse Hessians are non-polynomial, so fourth-order finite
    # differences on the 1D and 2D grids differ by their truncation errors
    assert abs(tc.abreu_scalar_curvature(u, (0.4, 0.7)) - (r1 + r2)) < 1e-3


def test_average_split_examples():
    seg = tc.segment()
    f = tc.RelativePotential(2, X0 ** 2 + X1 ** 2)
    f1, f2 = tc.average_split(f, seg, seg)
    assert sp.expand(f1.expr - (X0 ** 2 + sp.Rational(1, 3))) == 0
    assert sp.expand(f2.expr - (X0 ** 2 + sp.Rational(1, 3))) == 0
    f = tc.RelativePotential(2, X0 * X1)
    f1, f2 = tc.average_split(f, seg, seg)
    assert sp.expand(f1.expr - X0 / 2) == 0
    assert sp.expand(f2.expr - X0 / 2) == 0
    z = tc.RelativePotential(2, sp.Integer(0))
    z1, z2 = tc.average_split(z, seg, seg)
    assert z1.expr == 0 and z2.expr == 0


def test_split_defect():
    seg = tc.segment()
    f1 = tc.RelativePotential(1, X0 ** 2)
    f2 = tc.RelativePotential(1, X0 ** 3)
    exact = tc.RelativePotential(2, X0 ** 2 + X1 ** 3)
    assert tc.split_defect(exact, f1, f2, seg, seg) < 1e-12
    with_affine = tc.RelativePotential(2, X0 ** 2 + X1 ** 3 + 3 * X0 - X1 + 2)
    assert tc.split_defect(with_affine, f1, f2, seg, seg) < 1e-12
    fxy = tc.RelativePotential(2, X0 * X1)
    g1, g2 = tc.average_split(fxy, seg, seg)
    assert tc.split_defect(fxy, g1, g2, seg, seg) > 1e-3


def test_average_split_minimality():
    # the averaged pair minimizes the L2 distance among mean-matched competitors
    seg = tc.segment()
    f = tc.RelativePotential(2, X0 ** 2 * X1 + X1 ** 2)
    f1, f2 = tc.average_split(f, seg, seg)
    base = tc.split_defect(f, f1, f2, seg, seg)
    for eps in (Fraction(1, 10), Fraction(-1, 10)):
        pert = tc.RelativePotential(1, f1.expr + eps * X0 ** 2 - eps / 3)
        assert tc.split_defect(f, pert, f2, seg, seg) >= base - 1e-12


def test_spline_backed_potential():
    xs = np.linspace(0.0, 1.0, 41)
    vals = xs ** 2
    rel = tc.RelativePotential.from_grid_samples([xs], vals, degree=5)
    assert abs(rel.value((0.3,)) - 0.09) < 1e-9
    assert abs(rel.hessian((0.3,))[0, 0] - 2.0) < 1e-7
    with pytest.raises(InvalidArgumentError):
        tc.RelativePotential.from_grid_samples([xs], vals, degree=3)


def test_expression_tree_parsing():
    tree = {"kind": "add", "args": [
        {"kind": "mul", "args": [
            {"kind": "const", "value": "1/2"},
            {"kind": "pow", "base": {"kind": "coord", "index": 0}, "exponent": 2},
        ]},
        {"kind": "log", "arg": {"kind": "coord", "index": 0}},
    ]}
    rel = tc.RelativePotential.from_expression(1, tree)
    x = 0.37
    assert abs(rel.value((x,)) - (0.5 * x ** 2 + math.log(x))) < 1e-12
    with pytest.raises(InvalidArgumentError):
        tc.RelativePotential.from_expression(1, {"kind": "coord", "index": 5})


def test_grid_margins():
    seg = tc.segment()
    grid = tc.Grid.interior(seg, 256)
    assert len(grid.points) == 256
    lmin = min(min(float(f((x,))) for f in seg.facets) for (x,) in grid.points)
    assert lmin >= 4 * grid.spacing - 1e-12


def test_convexity_margin():
    u = tc.SymplecticPotential.canonical(tc.segment())
    grid = tc.Grid.interior(tc.segment(), 16)
    assert u.convexity_margin(grid.points) > 0
    bad = tc.SymplecticPotential(tc.segment(), tc.RelativePotential(1, -10 * X0 ** 2))
    assert bad.convexity_margin(grid.points) < 0
