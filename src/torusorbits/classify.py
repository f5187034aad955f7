"""Diffeomorphism type of the manifold behind a legal weighted orbit space.

Rank-2 weights describe closed simply connected 4-manifolds, rank-3 weights
describe 5-manifolds.  Both classifications read everything off the weight
sequence: the 4-dimensional one through the family dim4_family reads off the
canonical form, the 5-dimensional one through the parameter tuple
(a, b, c, d, k, l, m, n) recovered by extract_dim5_params.  Each reading
fixes the manifold and the action that realizes it, so biquotient's
realizers call the same readers, and each rule is written once here.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .errors import (
    GcdConditionViolatedError,
    NotCanonicalPositionError,
    UnsupportedRankError,
    UnsupportedWeightCountError,
    VerificationError,
)
from .lattice import AbelianGroup, _IntegerFields, _integers, cyclic_group, gcd_ext
from .orbit_space import (
    WeightedOrbitSpace,
    canonical_form,
    pi1_bound,
    require_legal,
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
    count = count if type(count) is int else _integers((count,))[0]
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


def dim4_family(weights: tuple[tuple[int, ...], ...]) -> int | str:
    """Family of a legal four-weight rank-2 space, read off its unoriented
    canonical weights: k for e1, e2, e1, (k, 1) with k >= 0, the split
    family (S2xS2 for k even, CP2#-CP2 for k odd), and "mixed" for
    e1, e2, (1, 1), (2, 1) (CP2#CP2).  classify_dim4 reads the type and
    realize_dim4 the action from this one reading.

    Raises:
        VerificationError: the weights have neither form (an implementation
            fault: every legal four-weight cycle has one).
    """
    if weights == ((1, 0), (0, 1), (1, 1), (2, 1)):
        return "mixed"
    if len(weights) == 4 and weights[:3] == ((1, 0), (0, 1), (1, 0)):
        k, one = weights[3]
        if one == 1 and k >= 0:
            return k
    raise VerificationError(f"canonical weights {weights} are in no four-weight family")


def dim4_type(family: int | str) -> ManifoldType:
    """The 4-manifold of a dim4_family reading: CP2#CP2 for "mixed", else
    S2xS2 for even k and CP2#-CP2 for odd k."""
    if family == "mixed":
        return CP2_PLUS_CP2
    return S2XS2 if family % 2 == 0 else CP2_MINUS_CP2


def classify_dim4(s: WeightedOrbitSpace) -> ManifoldType:
    """Diffeomorphism type of the 4-manifold over a rank-2 orbit space.

    Two weights give the 4-sphere, three the complex projective plane, four
    one of the three sphere-bundle/connected-sum types, and more weights a
    connected sum whose summand count is all the weights determine.

    The four-weight type is read off dim4_family of the canonical form,
    whose search checks the adjacent pairs; other counts check them here.

    Raises:
        UnsupportedRankError: rank is not 2.
        IllegalOrbitSpaceError: some adjacent pair is not legal.
        VerificationError: the canonical form is in no four-weight family
            (an implementation fault).
    """
    if s.rank != 2:
        raise UnsupportedRankError(f"rank {s.rank} orbit space in the 4-manifold classifier")
    n = s.n_weights
    if n == 4:
        return dim4_type(dim4_family(canonical_form(s).weights))
    # A legal rank-2 pair has determinant +-1, so legality alone makes the
    # manifold simply connected.
    require_legal(s)
    if n == 2:
        return S4
    if n == 3:
        return CP2
    return connected_sum_dim4(n - 2)


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


def cross_factor_gcds(a: int, b: int, c: int, d: int) -> tuple[int, int, int, int]:
    """The four cross-factor gcds of circle exponents (a, b, c, d); the
    circle acts freely on the two 3-spheres exactly when all four are 1."""
    return gcd(a, c), gcd(a, d), gcd(b, c), gcd(b, d)


_CROSS_PAIRS = ("a,c", "a,d", "b,c", "b,d")


@dataclass(frozen=True)
class Dim5Params(_IntegerFields):
    """Parameters (a, b, c, d) plus shears (k, l) and Bezout pair (m, n).

    These determine a torus action on a product of two 3-spheres whose
    orbit space has weights e1, e2 and

        x3 = (b*m - c*k, d*m - c*l, c),
        x4 = (-b*n - a*k, -d*n - a*l, a).

    The constructor reads the fields as integers, then checks a*m + c*n = 1
    and that the circle (a, b, c, d) is free (cross_factor_gcds all 1),
    raising ValueError otherwise.
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
        super().__post_init__()
        if self.a * self.m + self.c * self.n != 1:
            raise ValueError(
                f"a*m + c*n = {self.a * self.m + self.c * self.n}, expected 1"
            )
        gcds = cross_factor_gcds(self.a, self.b, self.c, self.d)
        for pair, g in zip(_CROSS_PAIRS, gcds):
            if g != 1:
                raise ValueError(f"gcd({pair}) = {g}, expected 1")


def _dim5_weights(params: Dim5Params) -> tuple[tuple[int, int, int], tuple[int, int, int]]:
    """The weights x3, x4 after e1, e2 of Dim5Params, as raw tuples: not
    normalized, and with no WeightedOrbitSpace built."""
    a, b, c, d = params.a, params.b, params.c, params.d
    k, l, m, n = params.k, params.l, params.m, params.n
    return (b * m - c * k, d * m - c * l, c), (-b * n - a * k, -d * n - a * l, a)


def dim5_orbit_space(params: Dim5Params) -> WeightedOrbitSpace:
    """The canonical-position orbit space with the weights the params encode."""
    return WeightedOrbitSpace(3, ((1, 0, 0), (0, 1, 0)) + _dim5_weights(params))


def extract_dim5_params(s: WeightedOrbitSpace) -> Dim5Params:
    """Recover the action parameters from a canonical-position orbit space.

    With weights e1, e2, (p,q,r), (x,y,z):

        a = z,  b = p*z - r*x,  c = r,  d = q*z - r*y,

    (m, n) is the deterministic Bezout pair for a*m + c*n = 1 (minimal |n|,
    ties broken by n >= 0), and the shears are k = -(x*m + p*n),
    l = -(y*m + q*n).  The _dim5_weights of the parameters are re-checked
    against the input.

    Legality is read off the parameters.  (e1, e2) is always legal, and once
    gcd(a,c) = gcd(r,z) = 1, gcd(a,d) = gcd(z,y), gcd(b,c) = gcd(p,r) and
    gcd(b,d) are the gcds of x4 ^ e1, e2 ^ x3 and x3 ^ x4 = (d, -b, p*y - q*x):
    z(p*y - q*x) = y*b - x*d and r(p*y - q*x) = q*b - p*d put p*y - q*x in
    the ideal (b, d).  So require_legal runs only when a condition fails:
    before the gcd(r,z) error, to name an illegal pair first, and before the
    VerificationError of a legal input Dim5Params refuses (ruled out above).

    Raises:
        IllegalOrbitSpaceError: some adjacent pair is not legal.
        GcdConditionViolatedError: gcd(r,z) != 1.
        VerificationError: the recovered parameters do not reproduce the
            weights (an implementation fault; never bad user input).
    """
    _require_canonical_position(s)
    x3, x4 = s.weights[2], s.weights[3]
    (p, q, r), (x, y, z) = x3, x4
    if (g := gcd(r, z)) != 1:
        require_legal(s)
        raise GcdConditionViolatedError(f"gcd(r,z) = {g}, expected 1")
    a, b, c, d = z, p * z - r * x, r, q * z - r * y
    _, n, m = gcd_ext(c, a)
    try:
        params = Dim5Params(a=a, b=b, c=c, d=d, k=-(x * m + p * n), l=-(y * m + q * n), m=m, n=n)
    except ValueError as refusal:
        require_legal(s)
        raise VerificationError(f"legal weights {(x3, x4)}: {refusal}") from refusal
    if (got := _dim5_weights(params)) != (x3, x4):
        raise VerificationError(f"parameters {params} give weights {got}, not {(x3, x4)}")
    return params


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
    first, then legality by canonical_form or extract_dim5_params.

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
        # Raised after the legality check: pi1_dim5_exact is Z/gcd(r, z).
        (_, _, r), (_, _, z) = positioned.weights[2:]
        return not_simply_connected(cyclic_group(gcd(r, z)))
    return circle_quotient_type(params.a, params.b, params.c, params.d)
