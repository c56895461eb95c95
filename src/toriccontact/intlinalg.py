"""Exact integer and rational linear algebra.

All lattice decisions in the toolkit reduce to the primitives here:
extended gcd certificates, row-style Hermite normal form, Smith invariant
factors, integer kernel bases, and exact rational elimination.  Integers are
Python's arbitrary-precision ints; rationals are ``fractions.Fraction``
(always in lowest terms, positive denominator), which is exactly the
rational substrate the rest of the package relies on.

Rank, solve, rational kernel, inverse and determinant are thin views over
one fraction-free Gauss-Jordan kernel (Bareiss 1968): rows are scaled to
integers once, eliminated with exact integer division, and only the final
answers are turned back into Fractions.

Conventions fixed once and used everywhere:

* Hermite normal form is row-style: ``U @ M == H`` with ``U`` unimodular,
  ``H`` upper echelon, positive pivots, and entries above each pivot reduced
  into ``[0, pivot)``.
* Ranks are computed exactly over the rationals, never in floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import InvalidArgumentError

IntVector = tuple[int, ...]
IntMatrix = list[list[int]]
FracVector = tuple[Fraction, ...]


@dataclass(frozen=True)
class LatticeBasis:
    """Basis of a sublattice of Z^d (vectors linearly independent over Q)."""

    ambient_dim: int
    vectors: tuple[IntVector, ...]

    @property
    def rank(self) -> int:
        return len(self.vectors)


def gcd_ext(a: int, b: int) -> tuple[int, int, int]:
    """Return ``(g, x, y)`` with ``g = gcd(a, b) > 0`` and ``a*x + b*y = g``."""
    if a == 0 and b == 0:
        raise InvalidArgumentError("gcd_ext(0, 0) is undefined")
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        old_r, old_x, old_y = -old_r, -old_x, -old_y
    return old_r, old_x, old_y


def is_primitive(v: Sequence[int]) -> bool:
    """True iff the gcd of the entries is 1.  The zero vector is rejected."""
    g = 0
    for entry in v:
        g = math.gcd(g, entry)
    if g == 0:
        raise InvalidArgumentError("primitivity of the zero vector is undefined")
    return g == 1


def primitive_part(v: Sequence[int | Fraction]) -> IntVector:
    """The primitive integer vector on the ray of a rational ``v`` (the zero
    vector is rejected)."""
    denom = math.lcm(*(entry.denominator for entry in v))
    ints = [entry.numerator * (denom // entry.denominator) for entry in v]
    g = math.gcd(*ints)
    if g == 0:
        raise InvalidArgumentError("zero vector has no primitive part")
    return tuple(entry // g for entry in ints)


def _identity(n: int) -> IntMatrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def hermite_normal_form(m: Sequence[Sequence[int]]) -> tuple[IntMatrix, IntMatrix]:
    """Row-style Hermite normal form.

    Returns ``(H, U)`` with ``U`` unimodular and ``U @ M == H``.  Pivots are
    positive, entries above a pivot lie in ``[0, pivot)``, and zero rows are
    pushed to the bottom.
    """
    h = [list(row) for row in m]
    rows = len(h)
    cols = len(h[0]) if rows else 0
    u = _identity(rows)
    pivot_row = 0
    for col in range(cols):
        # Combine rows pivot_row.. so the column gcd lands on pivot_row.
        pivot = None
        for i in range(pivot_row, rows):
            if h[i][col] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        if pivot != pivot_row:
            h[pivot_row], h[pivot] = h[pivot], h[pivot_row]
            u[pivot_row], u[pivot] = u[pivot], u[pivot_row]
        for i in range(pivot_row + 1, rows):
            if h[i][col] == 0:
                continue
            a, b = h[pivot_row][col], h[i][col]
            g, x, y = gcd_ext(a, b)
            p, q = a // g, b // g
            row_p, row_i = h[pivot_row], h[i]
            h[pivot_row] = [x * rp + y * ri for rp, ri in zip(row_p, row_i)]
            h[i] = [-q * rp + p * ri for rp, ri in zip(row_p, row_i)]
            urow_p, urow_i = u[pivot_row], u[i]
            u[pivot_row] = [x * rp + y * ri for rp, ri in zip(urow_p, urow_i)]
            u[i] = [-q * rp + p * ri for rp, ri in zip(urow_p, urow_i)]
        if h[pivot_row][col] < 0:
            h[pivot_row] = [-e for e in h[pivot_row]]
            u[pivot_row] = [-e for e in u[pivot_row]]
        piv = h[pivot_row][col]
        for i in range(pivot_row):
            q = h[i][col] // piv
            if q != 0:
                h[i] = [e - q * p for e, p in zip(h[i], h[pivot_row])]
                u[i] = [e - q * p for e, p in zip(u[i], u[pivot_row])]
        pivot_row += 1
        if pivot_row == rows:
            break
    return h, u


def smith_invariant_factors(m: Sequence[Sequence[int]]) -> list[int]:
    """Nonzero invariant factors d1 | d2 | ... of an integer matrix."""
    a = [list(row) for row in m]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    factors: list[int] = []
    top = 0
    while top < rows and top < cols:
        # Move a nonzero entry to the (top, top) position.
        pivot = None
        for i in range(top, rows):
            for j in range(top, cols):
                if a[i][j] != 0:
                    pivot = (i, j)
                    break
            if pivot:
                break
        if pivot is None:
            break
        pi, pj = pivot
        if pi != top:
            a[top], a[pi] = a[pi], a[top]
        if pj != top:
            for row in a:
                row[top], row[pj] = row[pj], row[top]
        # Alternate row and column clearing until both are clean.  Plain
        # elimination is used whenever the pivot divides the entry (it never
        # touches the pivot row/column); the gcd rotation, which can smear
        # nonzeros back, strictly shrinks |pivot|, so the loop terminates.
        while True:
            for i in range(top + 1, rows):
                b = a[i][top]
                if b == 0:
                    continue
                piv = a[top][top]
                if b % piv == 0:
                    q = b // piv
                    a[i] = [f - q * e for e, f in zip(a[top], a[i])]
                    continue
                g, x, y = gcd_ext(piv, b)
                p, q = piv // g, b // g
                rt, ri = a[top], a[i]
                a[top] = [x * e + y * f for e, f in zip(rt, ri)]
                a[i] = [-q * e + p * f for e, f in zip(rt, ri)]
            if any(a[top][j] != 0 for j in range(top + 1, cols)):
                for j in range(top + 1, cols):
                    b = a[top][j]
                    if b == 0:
                        continue
                    piv = a[top][top]
                    if b % piv == 0:
                        q = b // piv
                        for row in a:
                            row[j] -= q * row[top]
                        continue
                    g, x, y = gcd_ext(piv, b)
                    p, q = piv // g, b // g
                    for row in a:
                        e, f = row[top], row[j]
                        row[top] = x * e + y * f
                        row[j] = -q * e + p * f
            else:
                if all(a[i][top] == 0 for i in range(top + 1, rows)):
                    break
        factors.append(abs(a[top][top]))
        top += 1
    # Enforce the divisibility chain.
    changed = True
    while changed:
        changed = False
        for i in range(len(factors) - 1):
            if factors[i + 1] % factors[i] != 0:
                g = math.gcd(factors[i], factors[i + 1])
                lcm = factors[i] * factors[i + 1] // g
                factors[i], factors[i + 1] = g, lcm
                changed = True
    return factors


def integer_kernel_basis(m: Sequence[Sequence[int]]) -> LatticeBasis:
    """Basis of the lattice ``{x in Z^d : M @ x = 0}``."""
    rows = len(m)
    cols = len(m[0]) if rows else 0
    if rows == 0:
        return LatticeBasis(cols, tuple(tuple(r) for r in _identity(cols)))
    transpose = [[m[i][j] for i in range(rows)] for j in range(cols)]
    h, u = hermite_normal_form(transpose)
    kernel = tuple(
        tuple(u[i]) for i in range(cols) if all(e == 0 for e in h[i])
    )
    return LatticeBasis(cols, kernel)


def lattice_row_basis(m: Sequence[Sequence[int]]) -> tuple[IntVector, ...]:
    """HNF basis of the lattice spanned by the rows of ``m``."""
    h, _ = hermite_normal_form(m)
    return tuple(tuple(row) for row in h if any(e != 0 for e in row))


# -- exact rational elimination ------------------------------------------


def _eliminate(
    m: Sequence[Sequence[Fraction | int]], cols: Optional[int] = None
) -> tuple[IntMatrix, list[int], int, int]:
    """Fraction-free Gauss-Jordan elimination (Bareiss 1968) of a rational matrix.

    Each row is first scaled to integers by the lcm of its denominators.  Every
    row, above and below the pivot, is then updated with Bareiss' exact
    division by the previous pivot, so all pivots end equal to the last one,
    ``d``, and the returned rows are ``d`` times the reduced row echelon form,
    pivot rows first.  Pivots are searched only in the first ``cols`` columns
    (default: all), so right-hand sides or an identity block can ride along.

    Returns ``(rows, pivot_columns, d, scale)``.  ``scale`` is the product of
    the row scales, negated once per row swap; for a square matrix of full
    rank its determinant is ``d / scale``.
    """
    a: IntMatrix = []
    scale = 1
    for row in m:
        row = [e if isinstance(e, (int, Fraction)) else Fraction(e) for e in row]
        s = math.lcm(*(e.denominator for e in row))
        a.append([e.numerator * (s // e.denominator) for e in row])
        scale *= s
    rows = len(a)
    if cols is None:
        cols = len(a[0]) if rows else 0
    pivots: list[int] = []
    d = 1
    for col in range(cols):
        r = len(pivots)
        if r == rows:
            break
        pivot = next((i for i in range(r, rows) if a[i][col] != 0), None)
        if pivot is None:
            continue
        if pivot != r:
            a[r], a[pivot] = a[pivot], a[r]
            scale = -scale
        prow = a[r]
        p = prow[col]
        for i in range(rows):
            f = a[i][col]
            if i != r and (f != 0 or p != d):
                a[i] = [(p * e - f * q) // d for e, q in zip(a[i], prow)]
        d = p
        pivots.append(col)
    return a, pivots, d, scale


def rational_rank(m: Sequence[Sequence[Fraction | int]]) -> int:
    """Rank over Q by exact elimination."""
    return len(_eliminate(m)[1])


def solve_exact(
    a: Sequence[Sequence[Fraction | int]], b: Sequence[Fraction | int]
) -> Optional[FracVector]:
    """One exact solution of ``A x = b``, or ``None`` if inconsistent.

    When the system is underdetermined, free variables are set to zero.
    """
    cols = len(a[0]) if a else 0
    red, pivots, d, _ = _eliminate(
        [list(row) + [b[i]] for i, row in enumerate(a)], cols
    )
    if any(row[cols] != 0 for row in red[len(pivots):]):
        return None
    x = [Fraction(0)] * cols
    for row, col in zip(red, pivots):
        x[col] = Fraction(row[cols], d)
    return tuple(x)


def rational_kernel_basis(
    m: Sequence[Sequence[Fraction | int]],
) -> tuple[FracVector, ...]:
    """Basis of the rational kernel ``{x in Q^d : M x = 0}``.

    One vector per non-pivot column ``f`` of the reduced echelon form, with
    entry 1 at ``f``, zero at the other free columns.
    """
    red, pivots, d, _ = _eliminate(m)
    cols = len(red[0]) if red else 0
    basis = []
    for f_col in (c for c in range(cols) if c not in pivots):
        vec = [Fraction(0)] * cols
        vec[f_col] = Fraction(1)
        for row, p_col in zip(red, pivots):
            vec[p_col] = Fraction(-row[f_col], d)
        basis.append(tuple(vec))
    return tuple(basis)


def invert_exact(a: Sequence[Sequence[Fraction | int]]) -> list[list[Fraction]]:
    """Exact inverse of a square rational matrix."""
    n = len(a)
    red, pivots, d, _ = _eliminate(
        [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(a)], n
    )
    if len(pivots) < n:
        raise InvalidArgumentError("matrix is singular")
    return [[Fraction(e, d) for e in row[n:]] for row in red]


def determinant(m: Sequence[Sequence[Fraction | int]]) -> Fraction:
    """Exact determinant of a square rational matrix (1 for the empty matrix)."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise InvalidArgumentError("determinant needs a square matrix")
    _, pivots, d, scale = _eliminate(m)
    return Fraction(d, scale) if len(pivots) == n else Fraction(0)
