"""Torus actions on the product of two unit 3-spheres.

The ambient 4-torus acts coordinatewise on the two pairs of complex
coordinates (alpha1, beta1) and (alpha2, beta2); a weight matrix records the
character of each coordinate.  Subtori are given by integer slope rows.  This
module decides freeness, computes the isotropy diagram of the residual torus
action on the quotient, realizes target orbit spaces, searches for torus
extensions of circle actions, and classifies circle-bundle total spaces.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import combinations, product
from math import gcd
from typing import Iterable, Sequence

from .classify import (
    CP2_MINUS_CP2,
    CP2_PLUS_CP2,
    S2XS2,
    Dim5Params,
    ManifoldType,
    circle_quotient_type,
    classify_dim4,
    cross_factor_gcds,
    dim4_family,
    _read_dim5_params,
    extract_dim5_params,
    in_canonical_position,
)
from .errors import (
    DegenerateActionError,
    NotFreeError,
    NotFreeSubtorusError,
    NotRealizableError,
    SlopesNotCoprimeError,
    UnrealizableSupportError,
    UnsupportedRankError,
    UnsupportedWeightCountError,
    VerificationError,
)
from .lattice import (
    AbelianGroup,
    IntMatrix,
    _integers,
    gcd_ext,
    invert_unimodular_4x4,
    kernel_basis,
    unimodular_complete,
)
from .orbit_space import (
    WeightedOrbitSpace,
    _cross,
    _normalized,
    _space,
    canonical_form,
)

# Coordinate indices into (alpha1, beta1, alpha2, beta2).
ALPHA1, BETA1, ALPHA2, BETA2 = 0, 1, 2, 3

# Points where one coordinate of each sphere vanishes; cyclic order of the
# corners of the quotient disk.
VERTEX_SUPPORTS: tuple[frozenset[int], ...] = (
    frozenset({ALPHA1, ALPHA2}),
    frozenset({ALPHA1, BETA2}),
    frozenset({BETA1, BETA2}),
    frozenset({BETA1, ALPHA2}),
)
# Boundary arcs join consecutive vertices; exactly one coordinate vanishes.
ARC_SUPPORTS: tuple[frozenset[int], ...] = tuple(
    VERTEX_SUPPORTS[i] | VERTEX_SUPPORTS[(i + 1) % 4] for i in range(4)
)
FULL_SUPPORT: frozenset[int] = frozenset({ALPHA1, BETA1, ALPHA2, BETA2})

# Common subtori of the ambient (u, v, w, z) torus.
Z_CIRCLE: tuple[tuple[int, ...], ...] = ((0, 0, 0, 1),)
WZ_TORUS: tuple[tuple[int, ...], ...] = ((0, 0, 1, 0), (0, 0, 0, 1))


def is_realizable_support(support: Iterable[int]) -> bool:
    """A support occurs on the spheres iff each factor keeps a coordinate."""
    s = frozenset(support)
    return bool(s & {ALPHA1, BETA1}) and bool(s & {ALPHA2, BETA2})


def realizable_supports() -> tuple[frozenset[int], ...]:
    """All nine support patterns of points of the product of two 3-spheres."""
    return VERTEX_SUPPORTS + ARC_SUPPORTS + (FULL_SUPPORT,)


@dataclass(frozen=True)
class CircleActionParams:
    """Circle acting with exponents a, b, c, d on (alpha1, beta1, alpha2, beta2)."""

    a: int
    b: int
    c: int
    d: int


@dataclass(frozen=True)
class T2ActionParams:
    """Two-torus action: z-exponents (a,b,c,d), w-exponents (-n,k,m,l)."""

    a: int
    b: int
    c: int
    d: int
    n: int
    k: int
    m: int
    l: int


def split_t2_family(r: int, lam: int) -> T2ActionParams:
    """Free family whose z-circle rotates only the first sphere.

    Quotients are the sphere product for lam even and the twisted sum for
    lam odd; the induced orbit space carries the weight (2r+lam, 1).
    """
    return T2ActionParams(a=1, b=1, c=0, d=0, n=r, k=r + lam, m=1, l=1)


def mixed_t2_family() -> T2ActionParams:
    """The free action whose z-circle turns both spheres; quotient CP2#CP2."""
    return T2ActionParams(a=1, b=0, c=-1, d=1, n=0, k=1, m=1, l=1)


def is_free_circle(p: CircleActionParams) -> bool:
    """Whether the circle with these exponents acts freely.

    Freeness is exactly the four pairwise gcd conditions across the factors,
    classify.cross_factor_gcds, which Dim5Params also checks.

    Raises:
        DegenerateActionError: all four exponents vanish (trivial action).
    """
    if p.a == 0 and p.b == 0 and p.c == 0 and p.d == 0:
        raise DegenerateActionError("all exponents are zero")
    return cross_factor_gcds(p.a, p.b, p.c, p.d) == (1, 1, 1, 1)


def _require_free_circle(p: CircleActionParams) -> None:
    """Raise NotFreeError unless the circle acts freely."""
    if not is_free_circle(p):
        raise NotFreeError(f"circle {p} has a common exponent divisor across factors")


def w2_class(p: CircleActionParams) -> ManifoldType:
    """Type of the 5-manifold quotient by a free circle: parity of a+b+c+d.

    Raises:
        NotFreeError: the circle does not act freely.
    """
    _require_free_circle(p)
    return circle_quotient_type(p.a, p.b, p.c, p.d)


@dataclass(frozen=True)
class T2Freeness:
    """Verdict of the four freeness equations, with the signs on success."""

    free: bool
    eps: tuple[int, int, int] | None  # (e2, e3, e4) when free
    failing: str | None  # first violated condition otherwise


def is_free_t2(p: T2ActionParams) -> T2Freeness:
    """Whether the two-torus with these parameters acts freely.

    Freeness needs a*m + c*n = 1 on the nose and the three sign expressions
    a*l + d*n, b*m - c*k, b*l - d*k each equal to +1 or -1.
    """
    det1 = p.a * p.m + p.c * p.n
    if det1 != 1:
        return T2Freeness(free=False, eps=None, failing=f"a*m + c*n = {det1}")
    e2 = p.a * p.l + p.d * p.n
    e3 = p.b * p.m - p.c * p.k
    e4 = p.b * p.l - p.d * p.k
    for name, value in (("a*l + d*n", e2), ("b*m - c*k", e3), ("b*l - d*k", e4)):
        if value not in (1, -1):
            return T2Freeness(free=False, eps=None, failing=f"{name} = {value}")
    return T2Freeness(free=True, eps=(e2, e3, e4), failing=None)


def _free_t2_signs(p: T2ActionParams) -> tuple[int, int, int]:
    """The signs (e2, e3, e4) of a free two-torus; NotFreeError otherwise."""
    freeness = is_free_t2(p)
    if freeness.eps is None:
        raise NotFreeError(freeness.failing)
    return freeness.eps


def torus_weight_matrix(params: T2ActionParams | Dim5Params) -> IntMatrix:
    """Character matrix of the ambient 4-torus determined by the parameters.

    Row i is the character acting on coordinate i of (alpha1, beta1, alpha2,
    beta2); columns are the (u, v, w, z) circles.  Expanding along the u
    and v columns leaves the determinant a*m + c*n, which must be a unit for
    the action to be effective.
    """
    p = params
    a, b, c, d, k, l, m, n = _integers((p.a, p.b, p.c, p.d, p.k, p.l, p.m, p.n))
    det = a * m + c * n
    if det not in (1, -1):
        raise ValueError(f"weight matrix determinant {det}, expected a unit")
    return IntMatrix(((0, 0, -n, a), (1, 0, k, b), (0, 0, m, c), (0, 1, l, d)))


def subtorus_acts_freely(w: IntMatrix, h_rows: Sequence[Sequence[int]]) -> bool:
    """Whether the subtorus spanned by h_rows acts freely on the spheres.

    The stabilizer of a point with support S inside the subtorus is the
    kernel of the |S| x h exponent matrix on the subtorus; it is trivial
    exactly when that matrix has rank h with all Smith invariant factors 1,
    i.e. when its h x h minors have gcd 1.  Every realizable support contains
    a vertex support, and the minors of the larger matrix include those of
    the smaller, so adding rows can only shrink that gcd: freeness at the
    four vertex supports is freeness everywhere.  A vertex block is 2 x h, so
    the test is read off directly: h = 0 is free; h = 1 needs its two
    exponents coprime; h = 2 needs |det| = 1; h > 2 exceeds the block's rank
    and is never free.
    """
    return _acts_freely(w, tuple(map(_integers, h_rows)))


def _acts_freely(w: IntMatrix, e: tuple[tuple[int, ...], ...]) -> bool:
    """subtorus_acts_freely on rows already read as int tuples."""
    if any(len(row) != 4 for row in e):
        raise ValueError("subtorus rows must have 4 entries")
    if (h := len(e)) > 2:
        return False
    exponents = [[w0 * h0 + w1 * h1 + w2 * h2 + w3 * h3 for h0, h1, h2, h3 in e]
                 for w0, w1, w2, w3 in w.entries]
    for i, j in _VERTEX_PAIRS:
        x, y = exponents[i], exponents[j]
        if h == 1 and gcd(x[0], y[0]) != 1:
            return False
        if h == 2 and abs(x[0] * y[1] - x[1] * y[0]) != 1:
            return False
    return True


@dataclass(frozen=True)
class StabilizerSubgroup:
    """Stabilizer inside the residual torus: abstract group plus slopes.

    slopes generate the identity component, written in the chosen complement
    coordinates; there is one slope per free rank.
    """

    group: AbelianGroup
    slopes: tuple[tuple[int, ...], ...]


@lru_cache(maxsize=64)
def _residual_basis(
    h_rows: tuple[tuple[int, ...], ...],
    complement: tuple[tuple[int, ...], ...] | None,
) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
    """Complement rows and the columns B of the inverse of the basis
    [h_rows; complement] after the first len(h_rows): column j of B gives
    the ambient coordinates of residual coordinate j.

    Cached: realizations quotient by the same few subtori in the same
    coordinates.  Raises ValueError unless the rows form a 4x4 unimodular
    basis (IntMatrix refuses ragged rows, the inverse any other shape).
    """
    if complement is None:
        complement = unimodular_complete(h_rows).entries[len(h_rows):]
    try:
        p_inv = invert_unimodular_4x4(IntMatrix(h_rows + complement))
    except ValueError:
        raise ValueError("complement rows do not complete the subtorus to a basis") from None
    return complement, tuple(zip(*p_inv.entries))[len(h_rows):]


def _validated_pullback(
    w: IntMatrix,
    h_rows: Sequence[Sequence[int]],
    complement: Sequence[Sequence[int]] | None,
) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
    """Complement rows and pulled-back residual characters of a free
    subtorus: w is inverted, the subtorus checked for freeness and the
    residual basis read from its cache, in that order, raising the errors
    induced_orbit_space lists for them.
    """
    w_inv = invert_unimodular_4x4(w)
    h = tuple(map(_integers, h_rows))
    if not _acts_freely(w, h):
        raise NotFreeSubtorusError(f"subtorus rows {h_rows}")
    c = None if complement is None else tuple(map(_integers, complement))
    c_rows, b_columns = _residual_basis(h, c)
    return c_rows, _pullback_coordinates(w_inv, b_columns)


def induced_stabilizer(
    w: IntMatrix,
    h_rows: Sequence[Sequence[int]],
    support: Iterable[int],
    complement: Sequence[Sequence[int]] | None = None,
) -> StabilizerSubgroup:
    """Stabilizer, in the residual torus, of a point with the given support.

    The ambient stabilizer of the point is the joint kernel of the characters
    indexed by the support; its image in the residual torus (ambient torus
    modulo the free subtorus, coordinatized by the complement) is dual to the
    residual characters whose pullbacks vanish off the support.  That image
    is always a torus: its rank is the rank of the off-support block of the
    pulled-back characters, and its slopes are the Hermite basis of the
    saturation of that block's row span, so the result is exact.

    Args:
        w: 4x4 unimodular character matrix of the ambient torus.
        h_rows: slope rows spanning the subtorus to quotient by.
        support: nonvanishing coordinate indices of the point.
        complement: optional complement rows; defaults to the deterministic
            completion of h_rows.

    Raises:
        UnrealizableSupportError: no point of the spheres has this support.
        ValueError: w is not 4x4 or its determinant is not a unit.
        NotFreeSubtorusError: the subtorus does not act freely.
    """
    sup = frozenset(support)
    if not is_realizable_support(sup):
        raise UnrealizableSupportError(f"support {sorted(sup)}")
    _, coords = _validated_pullback(w, h_rows, complement)
    return _support_stabilizer(coords, 4 - len(h_rows), sup)


def _pullback_coordinates(
    w_inv: IntMatrix, b_columns: tuple[tuple[int, ...], ...]
) -> tuple[tuple[int, ...], ...]:
    """Rows of w^-T B, for the columns B that _residual_basis returns.

    A residual character psi pulls back to the ambient character B psi.  The
    rows of the unimodular w are a basis of the ambient characters, and row
    i of w^-T B psi is the coefficient of w_i when B psi is written in it.
    """
    return tuple([
        tuple([a0 * b0 + a1 * b1 + a2 * b2 + a3 * b3 for b0, b1, b2, b3 in b_columns])
        for a0, a1, a2, a3 in zip(*w_inv.entries)
    ])


def _support_stabilizer(
    coords: tuple[tuple[int, ...], ...], m: int, sup: frozenset[int]
) -> StabilizerSubgroup:
    """Stabilizer computation after all validation.

    A residual character annihilates the projected stabilizer of the support
    exactly when its pullback lies in the span of the support characters,
    i.e. when its coordinates off the support vanish.  With A the k x m block
    of off-support rows, the annihilator lattice is ker A and the stabilizer
    is its dual:

    - the group is Z^m / ker A, which is isomorphic to the image A(Z^m), so
      it is free of rank rank(A);
    - the slopes are the Hermite basis of the annihilator of ker A, which is
      the saturation of the row span of A.

    Both come from kernel_basis: the annihilator, then its annihilator.
    """
    off_support = [coords[i] for i in range(4) if i not in sup]
    annihilator = kernel_basis(off_support, m)
    # The r rows of the annihilator basis are independent, so the slopes, a
    # basis of their kernel, number m - r: one per free rank.
    return StabilizerSubgroup(
        group=AbelianGroup(m - len(annihilator), ()), slopes=kernel_basis(annihilator, m)
    )


@dataclass(frozen=True)
class ArcStratum:
    """Boundary arc of the quotient disk with its circle-stabilizer slope."""

    support: frozenset[int]
    weight: tuple[int, ...]


@dataclass(frozen=True)
class VertexStratum:
    """Corner of the quotient disk with its rank-2 stabilizer."""

    support: frozenset[int]
    group: AbelianGroup


@dataclass(frozen=True)
class IsotropyDiagram:
    """Weighted orbit space of the residual action plus its strata."""

    orbit_space: WeightedOrbitSpace
    arcs: tuple[ArcStratum, ...]
    vertices: tuple[VertexStratum, ...]
    complement: tuple[tuple[int, ...], ...]


# The two coordinates of each vertex, the off-support coordinates of each
# vertex (two) and arc (one), in the order of VERTEX_SUPPORTS and
# ARC_SUPPORTS, and the vertex strata, which are the same rank-2 tori in
# every induced diagram.
_VERTEX_PAIRS: tuple[tuple[int, ...], ...] = tuple(tuple(sorted(s)) for s in VERTEX_SUPPORTS)
_VERTEX_OFF_SUPPORT: tuple[tuple[int, int], ...] = tuple(
    tuple(i for i in range(4) if i not in sup) for sup in VERTEX_SUPPORTS
)
_ARC_OFF_SUPPORT: tuple[int, ...] = tuple(
    next(i for i in range(4) if i not in sup) for sup in ARC_SUPPORTS
)
_VERTEX_STRATA: tuple[VertexStratum, ...] = tuple(
    VertexStratum(sup, AbelianGroup(2, ())) for sup in VERTEX_SUPPORTS
)


def induced_orbit_space(
    w: IntMatrix,
    h_rows: Sequence[Sequence[int]],
    complement: Sequence[Sequence[int]] | None = None,
) -> IsotropyDiagram:
    """Isotropy diagram of the residual torus acting on the quotient.

    Quotienting the spheres by the free subtorus spanned by h_rows leaves an
    action of the residual torus; its orbit space is a disk whose four arcs
    carry the slopes of their circle stabilizers, in the fixed cyclic order
    of the vertex supports.

    Raises:
        ValueError: w is not 4x4 or its determinant is not a unit, or the
            complement does not complete the subtorus to a basis.
        NotFreeSubtorusError: the subtorus does not act freely.
        VerificationError: the closed-form inverse of w fails its check, or
            a vertex stabilizer is not a 2-torus or an arc stabilizer not a
            circle, which a unimodular w and a free subtorus rule out.
    """
    c_rows, coords = _validated_pullback(w, h_rows, complement)
    # Only the stabilizer ranks are read here (see _support_stabilizer): at
    # a vertex the rank of its two off-support rows, on an arc whether its
    # one off-support row is nonzero, that row then being the arc's slope.
    for sup, (i, j) in zip(VERTEX_SUPPORTS, _VERTEX_OFF_SUPPORT):
        rank = _pair_rank(coords[i], coords[j])
        if rank != 2:
            raise VerificationError(
                f"vertex {sorted(sup)} has stabilizer {AbelianGroup(rank, ())}, "
                "expected a 2-torus"
            )
    slopes = []
    for sup, i in zip(ARC_SUPPORTS, _ARC_OFF_SUPPORT):
        row = coords[i]
        if not any(row):
            raise VerificationError(
                f"arc {sorted(sup)} has stabilizer {AbelianGroup(0, ())}, expected a circle"
            )
        slopes.append(row)
    # Each int slope is normalized once, into the weight that its arc reuses.
    space = _space(len(c_rows), tuple(map(_normalized, slopes)))
    return IsotropyDiagram(
        orbit_space=space,
        arcs=tuple(map(ArcStratum, ARC_SUPPORTS, space.weights)),
        vertices=_VERTEX_STRATA,
        complement=c_rows,
    )


def _pair_rank(x: Sequence[int], y: Sequence[int]) -> int:
    """Rank of the two-row matrix [x; y]: 2 when some 2x2 minor is nonzero.

    For rows of Z^3 the minors are the entries of the cross product x ^ y.
    """
    if any(_cross(x, y) if len(x) == 3 else
           [x[a] * y[b] - x[b] * y[a] for a, b in combinations(range(len(x)), 2)]):
        return 2
    return 1 if any(x) or any(y) else 0


def classify_t2_quotient(p: T2ActionParams) -> ManifoldType:
    """Diffeomorphism type of the 4-manifold quotient by a free two-torus.

    Computed structurally: build the ambient character matrix, quotient by
    the (w, z) torus, and classify the induced orbit space.  The sign product
    e2*e3*e4 gives an independent dichotomy that must agree.

    Raises:
        NotFreeError: the parameters fail a freeness equation.
        VerificationError: diagram type and sign product disagree (an
            implementation fault; never bad user input).
    """
    e2, e3, e4 = _free_t2_signs(p)
    diagram = induced_orbit_space(torus_weight_matrix(p), WZ_TORUS)
    mtype = classify_dim4(diagram.orbit_space)
    if e2 * e3 * e4 == -1:
        expected = (CP2_PLUS_CP2,)
    else:
        expected = (S2XS2, CP2_MINUS_CP2)
    if mtype not in expected:
        raise VerificationError(
            f"sign product {e2 * e3 * e4} but diagram classifies as {mtype}"
        )
    return mtype


# --- realization of target orbit spaces


def _dihedral_match(observed: tuple, reference: tuple) -> bool:
    """Whether two weight cycles agree up to rotation and reversal."""
    n = len(reference)
    for seq in (reference, reference[::-1]):
        for r in range(n):
            if seq[r] == observed[0] and observed == seq[r:] + seq[:r]:
                return True
    return False


# Natural coordinate complements: residual slopes come out in the leading
# coordinates, making the induced diagram directly comparable to the target.
_WZ_COMPLEMENT = ((1, 0, 0, 0), (0, 1, 0, 0))
_Z_COMPLEMENT = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0))


def _verify_round_trip(
    params: T2ActionParams | Dim5Params,
    h_rows: tuple[tuple[int, ...], ...],
    complement: tuple[tuple[int, ...], ...],
    target: WeightedOrbitSpace,
    canon: WeightedOrbitSpace | None,
) -> None:
    """Certify that the action induces the target's orbit space.

    canon is the target's canonical form, or None when the caller did not
    compute it.  The induced diagram comes from the generic stabilizer
    route.  Rotation and reversal are equivalences, so a dihedral match
    against canon, or else the target, already certifies the round trip;
    otherwise the canonical form of the induced space must be the target's,
    which is computed here only when canon is None.

    Raises:
        VerificationError: the induced orbit space is not equivalent to the
            target.
    """
    diagram = induced_orbit_space(torus_weight_matrix(params), h_rows, complement)
    induced = diagram.orbit_space
    if _dihedral_match(induced.weights, (target if canon is None else canon).weights):
        return
    if canon is None:
        canon = canonical_form(target)
    if canonical_form(induced).weights != canon.weights:
        raise VerificationError(
            f"parameters {params} induce {induced}, not equivalent to {target}"
        )


def realize_dim4(target: WeightedOrbitSpace) -> T2ActionParams:
    """Free two-torus action whose quotient realizes a rank-2 target.

    The dim4_family of the target's canonical form, the reading
    classify_dim4 takes the type from, names the action: the split family
    with 2r + lam = k for the (k, 1) family, the mixed action for the
    twisted form.  The round trip through the induced orbit space is
    verified before returning.

    Raises:
        UnsupportedRankError: target rank is not 2.
        IllegalOrbitSpaceError: target is not legal.
        NotRealizableError: target does not have four weights.
        VerificationError: the canonical form is in no four-weight family,
            or the round trip fails (implementation faults).
    """
    if target.rank != 2:
        raise UnsupportedRankError(f"rank {target.rank} target in the dimension-4 realizer")
    canon = canonical_form(target)
    if target.n_weights != 4:
        raise NotRealizableError(
            f"{target.n_weights} weights: not a quotient of the product of two 3-spheres"
        )
    family = dim4_family(canon.weights)
    params = mixed_t2_family() if family == "mixed" else split_t2_family(family // 2, family % 2)
    _verify_round_trip(params, WZ_TORUS, _WZ_COMPLEMENT, target, canon)
    return params


def realize_dim5(target: WeightedOrbitSpace) -> Dim5Params:
    """Free-circle parameters whose residual 3-torus realizes a rank-3 target.

    Canonical-position targets are used as given (so the worked parameter
    values are reproducible); others are canonicalized first.  The round trip
    through the induced orbit space of the z-circle is verified.

    Rank and weight count are checked first, then legality by canonical_form
    or extract_dim5_params.  The parameters of a canonical form are read
    without a second adjacency pass, since its search checked the pairs.

    Raises:
        UnsupportedRankError: target rank is not 3.
        UnsupportedWeightCountError: target does not have four weights.
        IllegalOrbitSpaceError: target is not legal.
        GcdConditionViolatedError: target is not simply connected.
        VerificationError: the round trip fails (an implementation fault).
    """
    if target.rank != 3:
        raise UnsupportedRankError(f"rank {target.rank} target in the dimension-5 realizer")
    if target.n_weights != 4:
        raise UnsupportedWeightCountError(f"{target.n_weights} weights, expected 4")
    canon = None if in_canonical_position(target) else canonical_form(target)
    params = extract_dim5_params(target) if canon is None else _read_dim5_params(canon)
    _verify_round_trip(params, Z_CIRCLE, _Z_COMPLEMENT, target, canon)
    return params


# --- extension of circle actions to torus actions


class ExtensionStatus(Enum):
    EXTENDED = "extended"  # witness torus found and re-verified
    NECESSARY_CONDITION_FAILS = "necessary-condition-fails"  # proved: no extension
    NO_SOLUTION = "no-solution"  # proved: sign equations have no integer solution


@dataclass(frozen=True)
class ExtensionOutcome:
    """Result of the torus-extension decision.

    On success the witness torus contains the given circle as its z-circle
    (embedding slope (0, 1) in the (w, z) parameters).
    """

    status: ExtensionStatus
    witness: T2ActionParams | None
    detail: str

    @property
    def extended(self) -> bool:
        return self.status is ExtensionStatus.EXTENDED


def _solve_extension(a: int, b: int, c: int, d: int) -> tuple[int, int, int, int] | None:
    """Exact solution (m, n, k, l) of the extension equations, or None.

    The equations are a*m + c*n = 1 with |a*l + d*n|, |b*m - c*k| and
    |b*l - d*k| all 1.  Shifting (m, n) along its Bezout line while shearing
    (k, l) by (-b, -d) times the same step leaves all four expressions
    unchanged, so one point per line decides; the remaining freedom is a
    finite sign choice with a divisibility test each.
    """
    if a != 0 and c != 0:
        g, m0, n0 = gcd_ext(a, c)
        # Internal invariant: the only caller has checked that the circle is
        # free, which makes gcd(a, c) 1; its witness is re-verified anyway.
        assert g == 1
        for e2 in (1, -1):
            if (e2 - d * n0) % a:
                continue
            l0 = (e2 - d * n0) // a
            for e3 in (1, -1):
                if (b * m0 - e3) % c:
                    continue
                k0 = (b * m0 - e3) // c
                if abs(b * l0 - d * k0) == 1:
                    return (m0, n0, k0, l0)
        return None
    if a == 0:
        # Freeness forces |c| = |d| = 1; the Bezout equation pins n = c.
        n0 = c
        if b == 0:
            return (0, n0, c, 0)
        for e3 in (1, -1):
            k0 = -c * e3
            for e4 in (1, -1):
                if (e4 + d * k0) % b == 0:
                    return (0, n0, k0, (e4 + d * k0) // b)
        return None
    # c == 0: freeness forces |a| = |b| = 1 and the Bezout equation m = a.
    m0 = a
    if d == 0:
        return (m0, 0, 0, b)
    for e2 in (1, -1):
        l0 = a * e2
        for e4 in (1, -1):
            if (b * l0 - e4) % d == 0:
                return (m0, 0, (b * l0 - e4) // d, l0)
    return None


def extend_circle_to_t2(p: CircleActionParams) -> ExtensionOutcome:
    """Decide whether a free circle action extends to a free two-torus action.

    First the necessary condition: some sign combination of
    b*d +- a*c +- a*d +- b*c must vanish; if none does, no extension exists.
    Otherwise the extension equations are solved exactly, so the outcome is
    always a verified witness or a proof of non-existence.

    Args:
        p: free circle exponents.

    Raises:
        NotFreeError: the circle does not act freely.
        DegenerateActionError: all exponents vanish.
        VerificationError: the witness fails the freeness equations (an
            implementation fault).
    """
    _require_free_circle(p)
    a, b, c, d = p.a, p.b, p.c, p.d
    values = [
        b * d + s1 * a * c + s2 * a * d + s3 * b * c
        for s1, s2, s3 in product((1, -1), repeat=3)
    ]
    if all(v != 0 for v in values):
        return ExtensionOutcome(
            status=ExtensionStatus.NECESSARY_CONDITION_FAILS,
            witness=None,
            detail=f"b*d +- a*c +- a*d +- b*c takes the values {sorted(set(values))}",
        )
    solution = _solve_extension(a, b, c, d)
    if solution is None:
        return ExtensionOutcome(
            status=ExtensionStatus.NO_SOLUTION,
            witness=None,
            detail="the sign equations have no integer solution",
        )
    m, n, k, l = solution
    witness = T2ActionParams(a=a, b=b, c=c, d=d, n=n, k=k, m=m, l=l)
    check = is_free_t2(witness)
    if not check.free:
        raise VerificationError(f"extension witness {witness} fails: {check.failing}")
    return ExtensionOutcome(
        status=ExtensionStatus.EXTENDED,
        witness=witness,
        detail="circle embeds as the z-circle of the witness torus",
    )


def circle_bundle_total_space(base: T2ActionParams, p: int, q: int) -> ManifoldType:
    """Type of the 5-manifold over the quotient of a free two-torus action.

    The circle embedded at slope (p, q) in the (w, z) torus leaves a
    complementary free circle on the spheres; the total space of the induced
    bundle over the 4-manifold quotient is its 5-manifold quotient, whose
    type is the parity class of the composed exponents.

    Raises:
        SlopesNotCoprimeError: (p, q) is not primitive.
        NotFreeError: the base parameters do not act freely.
    """
    if gcd(p, q) != 1:
        raise SlopesNotCoprimeError(f"slope ({p},{q})")
    _free_t2_signs(base)
    sub = CircleActionParams(
        a=q * base.a - p * base.n,
        b=q * base.b + p * base.k,
        c=q * base.c + p * base.m,
        d=q * base.d + p * base.l,
    )
    # Subcircles of free torus actions are free; w2_class checks it.
    return w2_class(sub)


# --- circle subactions on quotients


def project_slope_to_residual(
    h_rows: Sequence[Sequence[int]],
    c_rows: Sequence[Sequence[int]],
    slope: Sequence[int],
) -> tuple[int, ...]:
    """Coordinates of an ambient circle in the residual torus.

    Decomposes the slope over the basis (h_rows, c_rows) and returns the
    complement coefficients, which describe the circle's image in the
    quotient torus (unreduced, so isotropy orders read off correctly).  The
    inverse of the basis is the one induced_orbit_space reads, from the same
    cache.

    Raises:
        ValueError: (h_rows, c_rows) is not a 4 x 4 unimodular basis, or the
            circle lies inside the quotiented subtorus.
    """
    _, b_columns = _residual_basis(tuple(map(_integers, h_rows)), tuple(map(_integers, c_rows)))
    slope = _integers(slope)
    residual = tuple(sum(slope[i] * column[i] for i in range(4)) for column in b_columns)
    if not any(residual):
        raise ValueError(f"circle {tuple(slope)} lies inside the quotiented subtorus")
    return residual


def circle_arc_isotropy_orders(
    diagram: IsotropyDiagram, slope: Sequence[int]
) -> tuple[int, ...]:
    """Isotropy order of a residual circle along each arc of a rank-2 diagram.

    The circle at the given slope meets the arc's stabilizer circle in a
    cyclic group of order |cross product|; order 0 means the two circles
    coincide (the arc is fixed).

    Raises:
        ValueError: the diagram's residual torus does not have rank 2.
    """
    if diagram.orbit_space.rank != 2:
        raise ValueError(
            f"arc orders need a rank-2 residual torus, not rank {diagram.orbit_space.rank}"
        )
    s0, s1 = slope
    return tuple(
        abs(s0 * arc.weight[1] - s1 * arc.weight[0]) for arc in diagram.arcs
    )


def circle_quotient_orbifold_orders(r: int, s: int) -> tuple[int, int, int, int]:
    """Arc isotropy orders of the residual circle over the (r, s) family.

    Quotient the spheres by the free two-torus of the split family with odd
    twist (parameters (r, 1)); the circle with ambient exponents
    (-s, s, -1, 1) survives to the 4-manifold quotient, and quotienting by it
    gives a 3-orbifold whose four boundary arcs see isotropy of orders
    2, |2(r-s)+1|, 2, |2(r+s)+1|.
    """
    t2 = split_t2_family(r, 1)
    h_rows = ((t2.a, t2.b, t2.c, t2.d), (-t2.n, t2.k, t2.m, t2.l))
    c_rows = ((0, 1, 0, 0), (0, 0, 0, 1))
    diagram = induced_orbit_space(IntMatrix.identity(4), h_rows, complement=c_rows)
    residual = project_slope_to_residual(h_rows, c_rows, (-s, s, -1, 1))
    return circle_arc_isotropy_orders(diagram, residual)
