"""Shared random generators and subprocess environment for the test suite.

All randomness is seeded per test; generators produce exact integer/rational
data so every decision they feed stays exact.
"""

import math
import os
import random
from fractions import Fraction
from pathlib import Path

import pytest

import toriccontact as tc

# Subprocesses import the same checkout as the tests, installed or not.
SRC = str(Path(tc.__file__).resolve().parents[1])
ENV = {**os.environ,
       "PYTHONPATH": os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))}


def rand_unimodular(k: int, rng: random.Random, shears: int = 4,
                    bound: int = 2) -> list[list[int]]:
    """Product of elementary shears (and one optional swap): det = +-1."""
    m = [[1 if i == j else 0 for j in range(k)] for i in range(k)]
    for _ in range(shears):
        i, j = rng.sample(range(k), 2)
        c = rng.randint(-bound, bound)
        for col in range(k):
            m[i][col] += c * m[j][col]
    if rng.random() < 0.5:
        i, j = rng.sample(range(k), 2)
        m[i], m[j] = m[j], m[i]
    return m


def rand_characteristic_simplex(n: int, rng: random.Random) -> tc.LabelledPolytope:
    """Characteristic slice of a random good simplex cone in dimension n+1.

    The cone labels form a lattice basis (so the cone is good) and the Reeb
    vector is a random positive integer combination of them, hence in the
    lattice and interior to the dual cone.
    """
    k = n + 1
    labels = rand_unimodular(k, rng)
    cone = tc.Cone(k, tuple(tuple(row) for row in labels))
    coeffs = [rng.randint(1, 3) for _ in range(k)]
    b = tuple(
        sum(coeffs[i] * labels[i][j] for i in range(k)) for j in range(k)
    )
    return tc.characteristic_polytope(cone, [Fraction(c) for c in b]).polytope


def rand_characteristic_product(rng: random.Random, max_factor_dim: int = 2):
    """A product polytope of two characteristic simplices whose product is
    itself characteristic (rejection sampled), with its factors and join
    scales."""
    while True:
        p1 = rand_characteristic_simplex(rng.randint(1, max_factor_dim), rng)
        p2 = rand_characteristic_simplex(rng.randint(1, max_factor_dim), rng)
        l2 = rng.randint(1, 3)
        l1 = rng.choice([x for x in range(1, 4) if math.gcd(x, l2) == 1])
        prod = tc.join_polytope(p1, p2, l1, l2)
        res = prod.is_characteristic()
        if res.ok:
            return prod, res, p1, p2, l1, l2


def apply_unimodular(cone: tc.Cone, u: list[list[int]]) -> tc.Cone:
    k = cone.dim
    labels = tuple(
        tuple(sum(u[a][c] * l[c] for c in range(k)) for a in range(k))
        for l in cone.labels
    )
    return tc.Cone(k, labels)


def simplex_product_cone(a, b):
    """Cone over Delta_a x Delta_b with labels x_j >= 0 and 1 - sum x_j >= 0."""
    k = a + b + 1
    labels = []
    for start, n in ((0, a), (a, b)):
        labels += [tuple(int(c == start + j) for c in range(k)) for j in range(n)]
        labels.append(tuple(-1 if start <= c < start + n else int(c == k - 1)
                            for c in range(k)))
    return tc.Cone(k, tuple(labels))


@pytest.fixture
def square_cone() -> tc.Cone:
    """The good cone over the unit square."""
    return tc.Cone(3, ((1, 0, 0), (-1, 0, 1), (0, 1, 0), (0, -1, 1)))


@pytest.fixture
def bad_cone() -> tc.Cone:
    """Strictly convex cone failing the lattice saturation condition."""
    return tc.Cone(3, ((1, 0, 0), (1, 2, 0), (0, 0, 1)))
