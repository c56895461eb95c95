import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from toriccontact import intlinalg as il
from toriccontact.errors import InvalidArgumentError

ints = st.integers(min_value=-30, max_value=30)


@given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
def test_gcd_ext_certificate(a, b):
    if a == 0 and b == 0:
        with pytest.raises(InvalidArgumentError):
            il.gcd_ext(a, b)
        return
    g, x, y = il.gcd_ext(a, b)
    assert g == math.gcd(a, b) > 0
    assert a * x + b * y == g


def test_primitive():
    assert il.is_primitive((2, 3))
    assert not il.is_primitive((2, 4))
    assert il.primitive_part((4, -6)) == (2, -3)
    assert il.primitive_part((Fraction(1, 2), Fraction(-3, 4), 0)) == (2, -3, 0)
    with pytest.raises(InvalidArgumentError):
        il.is_primitive((0, 0))


@given(st.lists(st.lists(ints, min_size=3, max_size=3), min_size=1, max_size=4))
@settings(max_examples=100)
def test_hnf_is_unimodular_echelon(rows):
    h, u = il.hermite_normal_form(rows)
    n = len(rows)
    # U @ M == H
    for i in range(n):
        for j in range(3):
            assert sum(u[i][r] * rows[r][j] for r in range(n)) == h[i][j]
    # |det U| == 1 via exact elimination on a square matrix
    assert abs(_det(u)) == 1
    # echelon with positive pivots, entries above reduced
    pivots = []
    for row in h:
        nz = next((j for j, e in enumerate(row) if e != 0), None)
        if nz is not None:
            assert row[nz] > 0
            pivots.append(nz)
    assert pivots == sorted(pivots)
    for k, col in enumerate(pivots):
        row_of_pivot = k
        for above in range(row_of_pivot):
            assert 0 <= h[above][col] < h[row_of_pivot][col]


def _det(m):
    a = [[Fraction(e) for e in row] for row in m]
    n = len(a)
    det = Fraction(1)
    for c in range(n):
        p = next((i for i in range(c, n) if a[i][c] != 0), None)
        if p is None:
            return Fraction(0)
        if p != c:
            a[c], a[p] = a[p], a[c]
            det = -det
        det *= a[c][c]
        for i in range(c + 1, n):
            f = a[i][c] / a[c][c]
            a[i] = [e - f * g for e, g in zip(a[i], a[c])]
    return det


def test_smith_golden_cases():
    assert il.smith_invariant_factors([[1, 0, 0], [1, 2, 0]]) == [1, 2]
    assert il.smith_invariant_factors([[1, 0, 0], [-1, 0, 1]]) == [1, 1]
    assert il.smith_invariant_factors([[2, 0], [0, 3]]) == [1, 6]
    assert il.smith_invariant_factors([[0, 0], [0, 0]]) == []


@given(st.lists(st.lists(ints, min_size=3, max_size=3), min_size=1, max_size=3))
@settings(max_examples=100)
def test_smith_divisibility_and_product(rows):
    factors = il.smith_invariant_factors(rows)
    assert len(factors) == il.rational_rank(rows)
    for a, b in zip(factors, factors[1:]):
        assert b % a == 0
    # product of first r factors equals gcd of r x r minors
    if factors:
        g = 0
        for i in range(len(rows)):
            for j in range(3):
                g = math.gcd(g, rows[i][j])
        assert factors[0] == g


@given(st.lists(st.lists(ints, min_size=4, max_size=4), min_size=1, max_size=3))
@settings(max_examples=100)
def test_integer_kernel(rows):
    kern = il.integer_kernel_basis(rows)
    assert kern.ambient_dim == 4
    assert kern.rank == 4 - il.rational_rank(rows)
    for v in kern.vectors:
        for row in rows:
            assert sum(a * b for a, b in zip(row, v)) == 0
    # saturation: any rational kernel vector cleared to integers lies in the
    # span of the basis over Z (checked via HNF divisibility)
    if kern.rank:
        h, _ = il.hermite_normal_form(list(map(list, kern.vectors)))
        sat = il.lattice_row_basis(list(map(list, kern.vectors)))
        assert len(sat) == kern.rank


def test_solve_exact_and_inverse():
    a = [[1, 2], [3, 4]]
    x = il.solve_exact(a, [5, 6])
    assert x == (Fraction(-4), Fraction(9, 2))
    assert il.solve_exact([[1, 1], [1, 1]], [0, 1]) is None
    inv = il.invert_exact(a)
    assert inv == [[Fraction(-2), Fraction(1)], [Fraction(3, 2), Fraction(-1, 2)]]
    with pytest.raises(InvalidArgumentError):
        il.invert_exact([[1, 1], [1, 1]])


def test_rational_kernel():
    kern = il.rational_kernel_basis([[1, 1, 1]])
    assert len(kern) == 2
    for v in kern:
        assert sum(v) == 0


fracs = st.fractions(min_value=-6, max_value=6, max_denominator=5)
# Frequent zeros force row swaps during elimination.
entries = st.one_of(st.just(Fraction(0)), fracs)


@st.composite
def frac_matrices(draw):
    """Fraction matrices, about half of them forced rank-deficient."""
    rows = draw(st.integers(1, 4))
    cols = draw(st.integers(1, 4))
    m = [draw(st.lists(entries, min_size=cols, max_size=cols)) for _ in range(rows)]
    if rows > 1 and draw(st.booleans()):
        i = draw(st.integers(0, rows - 1))
        others = [m[r] for r in range(rows) if r != i]
        coeffs = draw(st.lists(fracs, min_size=rows - 1, max_size=rows - 1))
        m[i] = [sum(c * row[j] for c, row in zip(coeffs, others)) for j in range(cols)]
    return m


def _sym(m):
    return sympy.Matrix([[sympy.Rational(e.numerator, e.denominator) for e in row]
                         for row in m])


@given(frac_matrices(), st.data())
@settings(max_examples=150, deadline=None)
def test_elimination_matches_sympy(m, data):
    rows, cols = len(m), len(m[0])
    sm = _sym(m)
    assert il.rational_rank(m) == sm.rank()
    kern = il.rational_kernel_basis(m)
    assert len(kern) == len(sm.nullspace())
    for v in kern:
        assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in m)
    b = data.draw(st.lists(fracs, min_size=rows, max_size=rows))
    x = il.solve_exact(m, b)
    consistent = sm.row_join(_sym([[e] for e in b])).rank() == sm.rank()
    assert (x is not None) == consistent
    if x is not None:
        assert [sum(a * xi for a, xi in zip(row, x)) for row in m] == b
    square = [row[:min(rows, cols)] for row in m[:min(rows, cols)]]
    sq = _sym(square)
    det = il.determinant(square)
    assert det == Fraction(str(sq.det()))
    if det == 0:
        with pytest.raises(InvalidArgumentError):
            il.invert_exact(square)
    else:
        inv = il.invert_exact(square)
        assert _sym(inv) == sq.inv()
