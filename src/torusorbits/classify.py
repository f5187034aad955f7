"""Diffeomorphism type of the manifold behind a legal weighted orbit space.

Rank-2 weights describe closed simply connected 4-manifolds, rank-3 weights
describe 5-manifolds.  Both classifications read everything off the weight
sequence: the 4-dimensional one by pattern on the canonical form, the
5-dimensional one through the parameter tuple (a, b, c, d, k, l, m, n)
recovered by extract_dim5_params.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .errors import (
    GcdConditionViolatedError,
    InconsistentShearError,
    NotCanonicalPositionError,
    OrientationMismatchError,
    UnsupportedRankError,
    UnsupportedWeightCountError,
    VerificationError,
)
from .lattice import AbelianGroup, cyclic_group, gcd_ext
from .orbit_space import (
    WeightedOrbitSpace,
    canonical_form,
    pi1_bound,
    require_legal,
    reversed_space,
)


@dataclass(frozen=True)
class ManifoldType:
    """Diffeomorphism type tag, with a count or group payload where needed."""

    tag: str
    count: int | None = None  # only for ConnectedSumDim4
    group: AbelianGroup | None = None  # only for NotSimplyConnected

    def __str__(self) -> str:
        if self.count is not None:
            return f"{self.tag}({self.count})"
        if self.group is not None:
            return f"{self.tag}({self.group})"
        return self.tag


S4 = ManifoldType("S4")
CP2 = ManifoldType("CP2")  # orientation not determined by the weights
S2XS2 = ManifoldType("S2xS2")
CP2_PLUS_CP2 = ManifoldType("CP2#CP2")
CP2_MINUS_CP2 = ManifoldType("CP2#-CP2")
S5 = ManifoldType("S5")
S3XS2 = ManifoldType("S3xS2")
S3TWISTS2 = ManifoldType("S3twistS2")


def connected_sum_dim4(count: int) -> ManifoldType:
    """Connected sum with second Betti number `count`; no finer type known.

    Raises:
        ValueError: count < 3 (fewer summands have a named type).
    """
    if count < 3:
        raise ValueError(f"connected sum of {count} summands, expected at least 3")
    return ManifoldType("ConnectedSumDim4", count=count)


def not_simply_connected(group: AbelianGroup) -> ManifoldType:
    """The type of a manifold with the given nontrivial fundamental group.

    Raises:
        ValueError: the group is trivial.
    """
    if group.is_trivial:
        raise ValueError("a not simply connected type needs a nontrivial group")
    return ManifoldType("NotSimplyConnected", group=group)


def _dim4_type_from_canonical(weights: tuple[tuple[int, ...], ...]) -> ManifoldType:
    # In a based legal four-weight sequence e1, e2, (1,b), (c,d) the adjacent
    # determinant conditions force b*c to be 0 or +-2; the two cases are the
    # sphere-bundle parity family and the twisted double respectively.
    # Internal invariant: the only caller passes a rank-2 canonical form,
    # which starts e1, e2 by construction.
    assert weights[0] == (1, 0) and weights[1] == (0, 1)
    (_, b), (c, _) = weights[2], weights[3]
    if b * c == 0:
        k = b + c
        return S2XS2 if k % 2 == 0 else CP2_MINUS_CP2
    if abs(b * c) == 2:
        return CP2_PLUS_CP2
    raise AssertionError(f"based weights {weights} escape the legal trichotomy")


def classify_dim4(s: WeightedOrbitSpace) -> ManifoldType:
    """Diffeomorphism type of the 4-manifold over a rank-2 orbit space.

    Two weights give the 4-sphere, three the complex projective plane, four
    one of the three sphere-bundle/connected-sum types, and more weights a
    connected sum whose summand count is all the weights determine.

    The four-weight type is computed on the canonical forms of both boundary
    orientations; they must agree.

    Raises:
        UnsupportedRankError: rank is not 2.
        IllegalOrbitSpaceError: some adjacent pair is not legal.
        OrientationMismatchError: the two orientations disagree (no legal
            input is known to trigger this; surfaced rather than resolved).
    """
    if s.rank != 2:
        raise UnsupportedRankError(f"rank {s.rank} orbit space in the 4-manifold classifier")
    # A legal rank-2 pair has determinant +-1, so legality alone makes the
    # manifold simply connected.
    require_legal(s)
    n = s.n_weights
    if n == 2:
        return S4
    if n == 3:
        return CP2
    if n > 4:
        return connected_sum_dim4(n - 2)
    forward = canonical_form(s, oriented=True)
    backward = canonical_form(reversed_space(s), oriented=True)
    type_fwd = _dim4_type_from_canonical(forward.weights)
    type_bwd = _dim4_type_from_canonical(backward.weights)
    if type_fwd != type_bwd:
        raise OrientationMismatchError(
            f"{type_fwd} with the given orientation, {type_bwd} reversed"
        )
    return type_fwd


# --- dimension 5


def in_canonical_position(s: WeightedOrbitSpace) -> bool:
    """Whether s is a rank-3 space with weights e1, e2, x3, x4."""
    return s.rank == 3 and s.n_weights == 4 and s.weights[:2] == ((1, 0, 0), (0, 1, 0))


def _require_canonical_position(s: WeightedOrbitSpace) -> None:
    if s.rank != 3:
        raise UnsupportedRankError(f"rank {s.rank}, expected 3")
    if s.n_weights != 4:
        raise UnsupportedWeightCountError(f"{s.n_weights} weights, expected 4")
    if not in_canonical_position(s):
        raise NotCanonicalPositionError(
            f"weights start {s.weights[0]}, {s.weights[1]}; expected e1, e2"
        )


def pi1_dim5_exact(s: WeightedOrbitSpace) -> AbelianGroup:
    """Fundamental group of the 5-manifold over a canonical-position space.

    For weights e1, e2, (p,q,r), (x,y,z) the group is cyclic of order
    gcd(r, z).  Unlike pi1_bound this is exact, and the two must agree here.
    """
    _require_canonical_position(s)
    require_legal(s)
    (_, _, r), (_, _, z) = s.weights[2], s.weights[3]
    return cyclic_group(gcd(r, z))


@dataclass(frozen=True)
class Dim5Params:
    """Parameters (a, b, c, d) plus shears (k, l) and Bezout pair (m, n).

    These determine a torus action on a product of two 3-spheres whose
    orbit space has weights e1, e2 and

        x3 = (b*m - c*k, d*m - c*l, c),
        x4 = (-b*n - a*k, -d*n - a*l, a).
    """

    a: int
    b: int
    c: int
    d: int
    k: int
    l: int
    m: int
    n: int

    def __post_init__(self) -> None:
        if self.a * self.m + self.c * self.n != 1:
            raise ValueError(
                f"a*m + c*n = {self.a * self.m + self.c * self.n}, expected 1"
            )
        for left, right in (("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")):
            g = gcd(getattr(self, left), getattr(self, right))
            if g != 1:
                raise ValueError(f"gcd({left},{right}) = {g}, expected 1")


def dim5_orbit_space(params: Dim5Params) -> WeightedOrbitSpace:
    """The canonical-position orbit space with the weights the params encode."""
    a, b, c, d, k, l, m, n = (
        params.a,
        params.b,
        params.c,
        params.d,
        params.k,
        params.l,
        params.m,
        params.n,
    )
    x3 = (b * m - c * k, d * m - c * l, c)
    x4 = (-b * n - a * k, -d * n - a * l, a)
    return WeightedOrbitSpace(3, ((1, 0, 0), (0, 1, 0), x3, x4))


def extract_dim5_params(s: WeightedOrbitSpace) -> Dim5Params:
    """Recover the action parameters from a canonical-position orbit space.

    With weights e1, e2, (p,q,r), (x,y,z):

        a = z,  b = p*z - r*x,  c = r,  d = q*z - r*y,

    (m, n) is the deterministic Bezout pair for a*m + c*n = 1 (minimal |n|,
    ties broken by n >= 0), and the shears are k = -(x*m + p*n),
    l = -(y*m + q*n).  All four defining weight equations are re-checked.

    Legality of (e2, x3), (x3, x4), (x4, e1) is three of the four gcd
    conditions; only gcd(r,z) = 1, simple connectivity, can still fail.

    Raises:
        IllegalOrbitSpaceError: some adjacent pair is not legal.
        GcdConditionViolatedError: gcd(r,z) != 1.
        InconsistentShearError: the recovered parameters do not reproduce the
            weights (cannot happen; guards the implementation).
    """
    _require_canonical_position(s)
    require_legal(s)
    (p, q, r), (x, y, z) = s.weights[2], s.weights[3]
    if (g := gcd(r, z)) != 1:
        raise GcdConditionViolatedError(f"gcd(r,z) = {g}, expected 1")
    a, b, c, d = z, p * z - r * x, r, q * z - r * y
    _, n, m = gcd_ext(c, a)
    k = -(x * m + p * n)
    l = -(y * m + q * n)
    # Both determinations of the shears must agree with the weights.
    checks = (
        ("p", p, b * m - c * k),
        ("q", q, d * m - c * l),
        ("x", x, -b * n - a * k),
        ("y", y, -d * n - a * l),
    )
    for name, want, got in checks:
        if want != got:
            raise InconsistentShearError(f"{name}: weights give {want}, params give {got}")
    return Dim5Params(a=a, b=b, c=c, d=d, k=k, l=l, m=m, n=n)


def circle_quotient_type(a: int, b: int, c: int, d: int) -> ManifoldType:
    """Type of S3xS3 divided by the free circle with exponents (a, b, c, d).

    Twisted exactly when a + b + c + d is odd.  Freeness makes that the same
    as exactly one even exponent; a VerificationError says they disagree.
    """
    odd = (a + b + c + d) % 2 == 1
    evens = sum(1 for v in (a, b, c, d) if v % 2 == 0)
    if odd != (evens == 1):
        raise VerificationError(f"exponents {(a, b, c, d)}: {evens} even, odd sum {odd}")
    return S3TWISTS2 if odd else S3XS2


def classify_dim5(s: WeightedOrbitSpace) -> ManifoldType:
    """Diffeomorphism type of the 5-manifold over a rank-3 orbit space.

    Three weights give the 5-sphere when simply connected.  Four weights give
    the circle_quotient_type of the circle of extract_dim5_params.  Inputs
    not already in canonical position are canonicalized first; the type is
    constant on equivalence classes.  Rank and weight count are checked
    first, then legality by canonical_form or extract_dim5_params, once.

    Raises:
        UnsupportedRankError: rank is not 3.
        UnsupportedWeightCountError: more than four weights.
        IllegalOrbitSpaceError: some adjacent pair is not legal.
    """
    if s.rank != 3:
        raise UnsupportedRankError(f"rank {s.rank} orbit space in the 5-manifold classifier")
    if s.n_weights > 4:
        raise UnsupportedWeightCountError(
            f"{s.n_weights} weights; the classification covers at most 4"
        )
    if s.n_weights == 3:
        require_legal(s)
        bound = pi1_bound(s)
        # The bound is only proved exact for four weights; with three it is
        # still conclusive when trivial.
        if bound.is_trivial:
            return S5
        return not_simply_connected(bound)
    positioned = s if in_canonical_position(s) else canonical_form(s)
    try:
        params = extract_dim5_params(positioned)
    except GcdConditionViolatedError:
        # The only condition legality leaves open: pi1_dim5_exact is Z/gcd(r, z).
        (_, _, r), (_, _, z) = positioned.weights[2:]
        return not_simply_connected(cyclic_group(gcd(r, z)))
    return circle_quotient_type(params.a, params.b, params.c, params.d)


@dataclass(frozen=True)
class LensSpace:
    """Lens space L(order; twist); order 1 is the 3-sphere, order 0 is S2xS1."""

    order: int
    twist: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "order", abs(self.order))
        if self.order >= 1:
            object.__setattr__(self, "twist", self.twist % self.order)

    def describe(self) -> str:
        if self.order == 0:
            return "S2xS1"
        if self.order == 1:
            return "S3"
        return f"L({self.order};{self.twist})"


def boundary_lens_spaces(s: WeightedOrbitSpace) -> tuple[LensSpace, LensSpace]:
    """The two lens spaces splitting the 5-manifold over a canonical-position space.

    With weights e1, e2, (p,q,r), (x,y,z) and a Bezout pair lam*y + mu*z = 1:

        L1 = L(r; p),    L2 = L(q*z - r*y; p - (lam*q + mu*r)*x).

    Raises:
        NotCanonicalPositionError: weights do not start e1, e2.
        GcdConditionViolatedError: gcd(y, z) != 1, so no Bezout pair exists.
    """
    _require_canonical_position(s)
    (p, q, r), (x, y, z) = s.weights[2], s.weights[3]
    g, lam, mu = gcd_ext(y, z)
    if g != 1:
        raise GcdConditionViolatedError(f"gcd(y,z) = {g}, expected 1")
    first = LensSpace(order=r, twist=p)
    second = LensSpace(order=q * z - r * y, twist=p - (lam * q + mu * r) * x)
    return (first, second)
