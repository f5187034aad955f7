"""Seeded inputs for the benchmark workloads.

Every orbit space is an unmoved generator, whose answers the benchmark knows,
shown in a random presentation: a unimodular move, per-weight sign flips, a
rotation and possibly a reversal.  The program only ever sees the
presentation, so its answers can be checked against the generator.  Nothing
here imports the library.
"""

from __future__ import annotations

import random
from math import gcd

Weights = tuple[tuple[int, ...], ...]

# Entries of the third and fourth generator weights.  Small enough that every
# presentation stays far inside the library's exact-integer fast range, large
# enough that generators spread over many canonical classes.
_SPAN = 3

_RANK2_GENERATORS: tuple[Weights, ...] = (
    ((1, 0), (0, 1), (1, 1), (2, 1)),
) + tuple(((1, 0), (0, 1), (1, 0), (k, 1)) for k in range(5))


def _cross(x, y):
    return (
        x[1] * y[2] - x[2] * y[1],
        x[2] * y[0] - x[0] * y[2],
        x[0] * y[1] - x[1] * y[0],
    )


def rank3_generator(rng: random.Random) -> Weights:
    """A legal, simply connected rank-3 disk e1, e2, (p,q,r), (x,y,z).

    Legality of the four adjacent pairs is gcd(p,r) = gcd(y,z) = 1 and a
    primitive cross product of the last two weights; gcd(r,z) = 1 makes the
    fundamental group trivial.
    """
    while True:
        x3 = tuple(rng.randint(-_SPAN, _SPAN) for _ in range(3))
        x4 = tuple(rng.randint(-_SPAN, _SPAN) for _ in range(3))
        (p, _, r), (_, y, z) = x3, x4
        if gcd(p, r) == gcd(y, z) == gcd(r, z) == gcd(*_cross(x3, x4)) == 1:
            return ((1, 0, 0), (0, 1, 0), x3, x4)


def rank2_generator(rng: random.Random) -> Weights:
    """A legal, simply connected rank-2 disk from the realizable families."""
    return rng.choice(_RANK2_GENERATORS)


def generator_type(weights: Weights) -> str:
    """Diffeomorphism type of the manifold over an unmoved generator.

    Rank 2: the mixed family is CP2#CP2, and e1, e2, e1, (k,1) is S2xS2 for
    even k and CP2#-CP2 for odd k.  Rank 3: with a = z, b = p*z - r*x, c = r,
    d = q*z - r*y the manifold is the twisted S3-bundle over S2 exactly when
    a + b + c + d is odd.
    """
    if len(weights[0]) == 2:
        if weights[2] == (1, 1):
            return "CP2#CP2"
        return "CP2#-CP2" if weights[3][0] % 2 else "S2xS2"
    (p, q, r), (x, y, z) = weights[2], weights[3]
    total = z + (p * z - r * x) + r + (q * z - r * y)
    return "S3twistS2" if total % 2 else "S3xS2"


def _unimodular(rng: random.Random, n: int, ops: int = 5) -> list[list[int]]:
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(ops):
        i, j = rng.sample(range(n), 2)
        f = rng.choice((-2, -1, 1, 2))
        m[i] = [x + f * y for x, y in zip(m[i], m[j])]
    rng.shuffle(m)
    return m


def present(rng: random.Random, weights: Weights) -> Weights:
    """The same orbit space under a random element of its symmetry group."""
    a = _unimodular(rng, len(weights[0]))
    moved = [tuple(sum(r * x for r, x in zip(row, w)) for row in a) for w in weights]
    moved = [tuple(-x for x in w) if rng.random() < 0.5 else w for w in moved]
    k = rng.randrange(len(moved))
    moved = moved[k:] + moved[:k]
    if rng.random() < 0.5:
        moved.reverse()
    return tuple(moved)


def format_weights(weights: Weights) -> str:
    """Weights in the command-line syntax "(1,0,0),(0,1,0),..."."""
    return ",".join("(" + ",".join(str(e) for e in w) + ")" for w in weights)


def free_circle(rng: random.Random) -> tuple[int, int, int, int]:
    """Exponents (a,b,c,d) of a circle acting freely on the sphere product."""
    while True:
        a, b, c, d = (rng.randint(-6, 6) for _ in range(4))
        if gcd(a, c) == gcd(a, d) == gcd(b, c) == gcd(b, d) == 1:
            return (a, b, c, d)


def free_t2_and_slope(rng: random.Random) -> tuple[tuple[int, ...], tuple[int, int]]:
    """Parameters of a free two-torus action and a primitive sub-circle slope.

    The split family (1,1,0,0,r,r+lam,1,1) and the mixed action
    (1,0,-1,1,0,1,1,1) act freely for every r and lam.
    """
    if rng.random() < 0.25:
        base = (1, 0, -1, 1, 0, 1, 1, 1)
    else:
        r, lam = rng.randint(-3, 3), rng.randint(0, 1)
        base = (1, 1, 0, 0, r, r + lam, 1, 1)
    while True:
        p, q = rng.randint(-4, 4), rng.randint(-4, 4)
        if gcd(p, q) == 1:
            return base, (p, q)
