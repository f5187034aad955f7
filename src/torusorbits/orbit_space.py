"""Weighted orbit spaces of cohomogeneity-two torus actions.

A weighted orbit space is a disk whose boundary carries a cyclic sequence of
primitive integer vectors (weights), each recording the slope of a circle
isotropy group.  This module provides the legality check on adjacent weight
pairs, the fundamental-group bound, simply-connectedness certificates, and a
canonical form under the full symmetry group of the data:

  (i)   one unimodular matrix applied to all weights,
  (ii)  cyclic rotation of the sequence,
  (iii) reversal of the sequence,
  (iv)  per-weight sign flips.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import gcd
from operator import mul
from typing import Iterable, Sequence

from .errors import (
    IllegalOrbitSpaceError,
    RankMismatchError,
    RankTooSmallError,
    UnsupportedRankError,
    VerificationError,
)
from .lattice import (
    AbelianGroup,
    IntMatrix,
    determinant,
    gcd_ext,
    _integers,
    quotient_group,
    unimodular_complete,
)

Weight = tuple[int, ...]


def normalize_weight(w: Sequence[int]) -> Weight:
    """Scale an integer vector to a primitive one with positive leading entry.

    The weight records a circle subgroup, which is the same for v and -v and
    for any nonzero multiple, so this representative is canonical.

    Raises:
        ValueError: the vector is zero (no circle subgroup).
    """
    return _normalized(_integers(w))


def _normalized(v: Weight) -> Weight:
    """normalize_weight of a tuple of ints, which it does not read again."""
    g = gcd(*v)
    if g == 0:
        raise ValueError("zero vector is not a weight")
    if g != 1:
        v = tuple(x // g for x in v)
    for lead in v:
        if lead:
            return v if lead > 0 else tuple(-x for x in v)


@dataclass(frozen=True)
class WeightedOrbitSpace:
    """Disk orbit space with a cyclic boundary sequence of weights.

    Weights are normalized on construction, so two instances are equal as
    dataclasses iff they carry the same sign-canonical weight sequence.
    """

    rank: int
    weights: tuple[Weight, ...]

    def __post_init__(self) -> None:
        if self.rank < 2:
            raise RankTooSmallError(f"rank {self.rank} < 2")
        normalized = tuple(normalize_weight(w) for w in self.weights)
        for w in normalized:
            if len(w) != self.rank:
                raise ValueError(f"weight {w} does not have {self.rank} entries")
        if len(normalized) < self.rank:
            raise ValueError(
                f"{len(normalized)} weights cannot cover a rank-{self.rank} boundary"
            )
        object.__setattr__(self, "weights", normalized)

    @property
    def n_weights(self) -> int:
        return len(self.weights)

    def weight_matrix(self) -> IntMatrix:
        """The N x rank matrix whose rows are the weights."""
        return IntMatrix.from_rows(self.weights)

    def rotated(self, steps: int) -> "WeightedOrbitSpace":
        k = steps % self.n_weights
        return WeightedOrbitSpace(self.rank, self.weights[k:] + self.weights[:k])

    def __str__(self) -> str:
        return f"rank {self.rank}: {format_weights(self.weights)}"


def format_weights(weights: Iterable[Sequence[int]]) -> str:
    """Weights as "(a,b),(c,d),...", the form the command line reads."""
    return ",".join("(" + ",".join(str(e) for e in w) + ")" for w in weights)


def reversed_space(s: WeightedOrbitSpace) -> WeightedOrbitSpace:
    """The same disk with the opposite boundary orientation."""
    return WeightedOrbitSpace(s.rank, tuple(reversed(s.weights)))


@dataclass(frozen=True)
class LegalityReport:
    """Outcome of the adjacency checks plus spanning certificates.

    simply_connected_certificate holds indices of rank-many weights whose
    determinant is +-1 (a sufficient condition for simple connectedness), or
    None when no such subset exists.  spans records whether some rank-many
    weights are merely independent; when False the manifold splits off a
    circle factor.
    """

    legal: bool
    failing_pairs: tuple[tuple[int, int], ...]
    spans: bool
    simply_connected_certificate: tuple[int, ...] | None


def pair_is_legal(x: Sequence[int], y: Sequence[int]) -> bool:
    """Whether the 2 x n matrix [x; y] extends to a unimodular matrix.

    Equivalent to its Smith invariant factors being (1, 1), which in turn is
    the gcd of all 2 x 2 minors being 1.  For n = 2 this is |det| = 1, and
    for n = 3 the minors are the entries of the cross product x ^ y.

    Raises:
        ValueError: x and y have different lengths.
    """
    if len(x) != len(y):
        raise ValueError(f"weights {tuple(x)} and {tuple(y)} differ in length")
    if len(x) == 3:
        return gcd(*_cross(x, y)) == 1
    minors = [
        x[i] * y[j] - x[j] * y[i] for i, j in combinations(range(len(x)), 2)
    ]
    return gcd(*minors) == 1


def _adjacent_pairs(n_weights: int) -> list[tuple[int, int]]:
    # With two weights the two boundary arcs impose the same condition.
    if n_weights == 2:
        return [(0, 1)]
    return [(i, (i + 1) % n_weights) for i in range(n_weights)]


def _failing_pairs(s: WeightedOrbitSpace) -> tuple[tuple[int, int], ...]:
    return tuple(
        (i, j)
        for i, j in _adjacent_pairs(s.n_weights)
        if not pair_is_legal(s.weights[i], s.weights[j])
    )


def require_legal(s: WeightedOrbitSpace) -> None:
    """Raise unless every cyclically adjacent weight pair is legal.

    The adjacency half of is_legal, without the determinants behind its
    certificates, for callers that read nothing else.

    Raises:
        IllegalOrbitSpaceError: naming the failing adjacent pairs.
    """
    failing = _failing_pairs(s)
    if failing:
        raise IllegalOrbitSpaceError(f"failing adjacent pairs: {failing}")


def is_legal(s: WeightedOrbitSpace) -> LegalityReport:
    """Check every cyclically adjacent weight pair and fill the certificates."""
    failing = _failing_pairs(s)
    spans = False
    certificate = None
    for idx in combinations(range(s.n_weights), s.rank):
        d = determinant(IntMatrix.from_rows([s.weights[i] for i in idx]))
        if d != 0:
            spans = True
        if d in (1, -1):
            certificate = idx
            break
    return LegalityReport(
        legal=not failing,
        failing_pairs=failing,
        spans=spans,
        simply_connected_certificate=certificate,
    )


def pi1_bound(s: WeightedOrbitSpace) -> AbelianGroup:
    """The quotient Z^rank / (span of the weights).

    An upper bound for the fundamental group of the manifold; exact for the
    five-dimensional four-weight case.
    """
    return quotient_group(s.weight_matrix())


# --- canonical forms
#
# Total order on weight sequences: compare entry by entry under
# 0 < 1 < -1 < 2 < -2 < ..., i.e. by zigzag code, weights lexicographically,
# sequences lexicographically.  The canonical form of an orbit space is the
# minimum over its symmetry class, so small nonnegative entries come first.


def _zigzag(e):
    """Code of an entry in the entry order: 0, 1, -1, 2, -2, ... -> 0, 1, 2, 3, 4, ...

    Plain arithmetic, so it maps Python ints and integer numpy arrays alike.
    The one statement of the order: sequences sort by their zigzag tuples.
    """
    return 2 * abs(e) - (e > 0)


def _unzigzag(code):
    """The entry with the given zigzag code; the inverse of _zigzag."""
    return (2 * (code % 2) - 1) * ((code + 1) // 2)


def _cross(x: Sequence[int], y: Sequence[int]) -> Weight:
    return (x[1] * y[2] - x[2] * y[1], x[2] * y[0] - x[0] * y[2], x[0] * y[1] - x[1] * y[0])


def _frame(
    x: Sequence[int], y: Sequence[int], z: Sequence[int] | None = None
) -> tuple[Weight, ...]:
    """Rows of the unimodular F with F x == e1, F y == e2 (and F z == e3 at
    rank 3), for a legal pair: the inverse of the basis [x y z].

    Closed form, with no normal form.  At rank 2 it is the signed adjugate
    of [x y], and z is not read.  At rank 3 its rows are t (y ^ z, z ^ x,
    x ^ y) with t = (x ^ y) . z = +-1.  x ^ y is primitive because the pair
    is legal, and z defaults to its Bezout vector, with t == 1.  The scalar
    twin of census._frames, without its size reduction of z.  Two frames of
    one pair differ by a move fixing e1 and e2, which the residual shears
    absorb, so every z gives the same minimal key; only canonicalize's
    transform depends on z.
    """
    if len(x) == 2:
        d = x[0] * y[1] - x[1] * y[0]
        return ((d * y[1], -d * y[0]), (-d * x[1], d * x[0]))
    c = _cross(x, y)
    if z is None:
        g01, s01, t01 = gcd_ext(c[0], c[1])
        _, s2, t2 = gcd_ext(g01, c[2])
        z = (s2 * s01, s2 * t01, t2)
    rows = (_cross(y, z), _cross(z, x), c)
    # Inverting divides by det [x y z] = c . z, a unit: multiply by it.
    if sum(map(mul, c, z)) == -1:
        rows = tuple(tuple(-e for e in row) for row in rows)
    return rows


def _base(frame: tuple[Weight, ...], weights: Iterable[Weight]) -> list[Weight]:
    """Images (y0, y1, t) of weights under a frame; t = 0 at rank 2: no shear."""
    r0, r1, r2 = frame if len(frame) == 3 else (*frame, ())
    return [(sum(map(mul, r0, w)), sum(map(mul, r1, w)), sum(map(mul, r2, w))) for w in weights]


def _least(pairs: list, rank: int) -> tuple[tuple[int, ...], list]:
    """Least key over the moves (s2, u, v) of (based, start) pairs, and the
    entries [based, s2, u, v, s3, start] of the moves reaching it, in the
    order of pairs; s3 is 0 where no weight resolved it, and then either
    sign gives the key.  Keys grow one weight block at a time, and a move is
    dropped once its block exceeds the least.  The 8 moves are the second
    sign and the shears nearest to zeroing the pivot's first two entries;
    the first sign is fixed, the third resolved per weight.  These 8 include
    every move reaching the least key.  A unit start (first |t| == 1) keeps
    the 2 giving its first block (0, 0, 1), which no other move reaches.
    The residual-move rule of the library: the search runs it where no start
    is a unit start, and canonicalize's transform on the winning start;
    _unit_key is its closed form on unit starts, and
    census._candidate_min_keys its numpy twin.
    """
    live = []
    for based, start in pairs:
        pivot = next((w for w in based if w[2]), None)
        p0, p1, p2 = pivot or (0, 0, 1)
        u0, v0_pos, v0_neg = (-p0) // p2, (-p1) // p2, p1 // p2
        unit = pivot is None or abs(based[0][2]) == 1
        steps = [(0, 0)] if unit else [(0, 0), (0, 1), (1, 0), (1, 1)]
        for s2, v0 in ((1, v0_pos), (-1, v0_neg)):
            live += [[based, s2, u0 + du, v0 + dv, 0, start] for du, dv in steps]
    key: list[int] = []
    for k in range(len(live[0][0])):
        best = None
        for entry in live:
            _, s2, u, v, s3, _ = entry
            y0, y1, t = entry[0][k]
            a0 = y0 + u * t
            a1 = s2 * y1 + v * t
            lead = a0 or a1  # sign normalization; else the third entry is made positive
            if not lead:
                block = (0, 0, _zigzag(abs(t)))
            else:
                sa = 1 if lead > 0 else -1
                if not s3 and t:  # s3's smaller key makes the first third digit it moves > 0
                    s3 = entry[4] = 1 if sa * t > 0 else -1
                block = (_zigzag(sa * a0), _zigzag(sa * a1), _zigzag(sa * s3 * t))
            if best is None or block < best:
                best, kept = block, [entry]
            elif block == best:
                kept.append(entry)
        live = kept
        key += best[:rank]
    return tuple(key), live


def _start_key(seq: tuple[Weight, ...], rank: int) -> tuple[int, ...]:
    """Least key of one start (seq[0], seq[1] sent to e1, e2): the entries of
    the sign-normalized images, zigzag-coded, so flat keys compare in the
    entry order.

    The based e1 and e2 normalize to themselves under every residual move,
    so only weights 3..n enter the key.  At rank 3 it begins with the block
    (0, 0, 1) exactly when |det(seq[0], seq[1], seq[2])| == 1.
    """
    return _least([(_base(_frame(seq[0], seq[1]), seq[2:]), None)], rank)[0]


def _unit_key(images: list[Weight], s2: int) -> tuple[int, ...]:
    """Key of a unit start under its move (s2, 0, 0), from the images
    (y0, y1, t) of x4..xn in a frame sending x1, x2, x3 to e1, e2, +-e3.

    That frame bases x3 on (0, 0, +-1), so the only shears keeping the first
    block (0, 0, 1) are 0, and the key is that block followed by each image
    sign-normalized, with s3 resolved at the first image it moves: the block
    rule of _least on its 2 moves, in closed form.  The least of the keys
    for s2 = +-1 does not depend on the signs of the frame's rows: a sign on
    row 0 is a global sign, which normalization drops, one on row 1 swaps
    the two s2, and one on row 2 flips s3 with it.
    """
    key = [0, 0, 1]
    s3 = 0
    for y0, y1, t in images:
        y1 *= s2
        lead = y0 or y1
        if not lead:
            key += (0, 0, _zigzag(abs(t)))
            continue
        if lead < 0:
            y0, y1, t = -y0, -y1, -t
        if not s3 and t:
            s3 = 1 if t > 0 else -1
        key += (_zigzag(y0), _zigzag(y1), _zigzag(s3 * t))
    return tuple(key)


def _search(s: WeightedOrbitSpace, oriented: bool) -> tuple[tuple[int, ...], tuple[Weight, ...]]:
    """The minimal start key of s and the first rotation or reversal reaching it.

    Starts run over the rotations of s, then of its reversal.  At rank 3 a
    unit start has t = det(x1, x2, x3) = +-1, read off the pair's cross
    product, and its key starts with the least block (0, 0, 1), which no
    other start reaches.  When there are unit starts, only they are keyed,
    in closed form: framed on z = t x3, a unit start has the frame rows
    t (x2 ^ x3), t (x3 ^ x1) and x1 ^ x2, two of them adjacent cross
    products; they give the images of x4..xn, and _unit_key compares
    s2 = +-1.  No _frame, _base or _least runs then.  Otherwise one _least
    pass runs over every start, and each adjacent pair is framed once by
    _frame on its Bezout vector: the reversed start at (y, x) takes the
    frame of (x, y) with rows 1, 2 swapped.
    """
    ws, n = s.weights, s.n_weights
    # At rank 3 a pair is legal exactly when its cross product is primitive.
    cross = [_cross(ws[j], ws[(j + 1) % n]) for j in range(n)] if s.rank == 3 else []
    if not cross or any(gcd(*c) != 1 for c in cross):
        require_legal(s)
    if s.rank not in (2, 3):
        raise UnsupportedRankError(f"canonical forms implemented for ranks 2 and 3, not {s.rank}")
    # Start (a, d, j) reads ws[a], ws[a + d], ... cyclically; its first two
    # weights are the pair ws[j], ws[j + 1], swapped when d == -1, so
    # x1 ^ x2 == d * cross[j] and x2 ^ x3 == d * cross[j + d].
    starts = [(a, 1, a) for a in range(n)]
    if not oriented:
        starts += [((-1 - r) % n, -1, (-2 - r) % n) for r in range(n)]
    best = None
    for a, d, j in starts if cross else ():
        x1, x3 = ws[a], ws[(a + 2 * d) % n]
        if sum(map(mul, cross[j], x3)) not in (1, -1):
            continue
        # The frame rows, up to the signs d * t, t and d that _unit_key drops.
        r0, r1, r2 = cross[(j + d) % n], _cross(x3, x1), cross[j]
        rest = [
            (
                r0[0] * w[0] + r0[1] * w[1] + r0[2] * w[2],
                r1[0] * w[0] + r1[1] * w[1] + r1[2] * w[2],
                r2[0] * w[0] + r2[1] * w[1] + r2[2] * w[2],
            )
            for w in (ws[(a + d * m) % n] for m in range(3, n))
        ]
        key = min(_unit_key(rest, 1), _unit_key(rest, -1))
        if best is None or key < best:
            best, first = key, (a, d)
    if best is not None:
        a, d = first
        return best, tuple(ws[(a + d * m) % n] for m in range(n))
    images: dict[int, list[Weight]] = {}
    pairs = []
    for a, d, j in starts:
        if j not in images:
            frame = _frame(ws[j], ws[(j + 1) % n])
            images[j] = _base(frame, [ws[(j + m) % n] for m in range(2, n)])
        based = images[j] if d > 0 else [(y1, y0, t) for y0, y1, t in reversed(images[j])]
        pairs.append((based, (a, d)))
    key, live = _least(pairs, s.rank)
    a, d = live[0][5]
    return key, tuple(ws[(a + d * m) % n] for m in range(n))


# e1 and e2 of Z^rank, where every canonical form starts.
_STANDARD_PAIR = {2: ((1, 0), (0, 1)), 3: ((1, 0, 0), (0, 1, 0))}


def _decoded(key: tuple[int, ...], rank: int) -> WeightedOrbitSpace:
    """The orbit space e1, e2 followed by the weights a start key codes.

    Built as is, not re-normalized: _least sign-normalized every image it
    keyed, and images of primitive weights under a unimodular map are
    primitive, so each decoded weight is already what normalize_weight
    returns.
    """
    entries = [_unzigzag(code) for code in key]
    images = (tuple(entries[i : i + rank]) for i in range(0, len(entries), rank))
    return _space(rank, (*_STANDARD_PAIR[rank], *images))


def _space(rank: int, weights: tuple[Weight, ...]) -> WeightedOrbitSpace:
    """The orbit space of weights the library built already normalized, with
    at least rank of them, each of rank entries: __post_init__ is skipped."""
    space = object.__new__(WeightedOrbitSpace)
    object.__setattr__(space, "rank", rank)
    object.__setattr__(space, "weights", weights)
    return space


def canonical_form(s: WeightedOrbitSpace, oriented: bool = False) -> WeightedOrbitSpace:
    """Minimum of the symmetry class of s, without the matrix that achieves it.

    The same weights as canonicalize(s, oriented)[0], decoded from the key of
    _search without re-normalizing them: unit starts keyed in closed form
    when there are any, else one frame per adjacent pair.  The transform,
    whose rank-3 tie-break needs a Smith form, is never built.  Call this
    unless the transform is needed.

    Raises:
        IllegalOrbitSpaceError: some adjacent pair is not legal.
        UnsupportedRankError: rank is not 2 or 3.
    """
    return _decoded(_search(s, oriented)[0], s.rank)


def canonicalize(
    s: WeightedOrbitSpace, oriented: bool = False
) -> tuple[WeightedOrbitSpace, IntMatrix]:
    """Minimum of the symmetry class of s, with the matrix that achieves it.

    Enumerates rotations, optionally the reversal, and for each choice maps
    the leading adjacent pair to e1, e2 and minimizes over the residual
    stabilizer.  The returned matrix, applied to the winning rotation or
    reversal of the input weights followed by sign normalization, yields the
    canonical weights.

    The search, shared with canonical_form, keys only the unit starts
    (|det(x1, x2, x3)| == 1) in closed form when there are any, else every
    start block by block on closed-form frames, one per adjacent pair.  The
    first start (x, y, ...) reaching the minimum is then based once more,
    by _frame on the Bezout vector of x ^ y, and _least runs over it; its
    key must equal the searched key.  Its moves include every move reaching
    that key, so when one is left with s3 resolved, exactly one matrix
    reaches the key, and the transform is that move times the frame.  At
    rank 3 anything else is a tie: the start is framed on z0, the row that
    unimodular_complete([x, y]) adds, whose Smith form runs only here, and
    _least runs again.  Of its minimal moves the first with s2 = +1, then
    s3 = +1 (an unresolved s3 counts as +1), then the least u, then the
    least v gives the transform.  Callers that discard the transform should
    call canonical_form.

    Args:
        s: a legal orbit space of rank 2 or 3.
        oriented: when True, skip the reversal move, refining classes to
            orientation-preserving equivalence.

    Raises:
        IllegalOrbitSpaceError: some adjacent pair is not legal.
        UnsupportedRankError: rank is not 2 or 3.
        VerificationError: the search and the transform disagree, or the
            completion is not unimodular (implementation faults).
    """
    best_key, best_seq = _search(s, oriented)
    x, y = best_seq[:2]
    a0 = _frame(x, y)
    key, live = _least([(_base(a0, best_seq[2:]), None)], s.rank)
    if s.rank == 3 and (len(live) > 1 or not live[0][4]):
        # A tie: several matrices reach the key, and the z0 frame picks one.
        a0 = _frame(x, y, unimodular_complete((x, y)).entries[2])
        key, live = _least([(_base(a0, best_seq[2:]), None)], s.rank)
    if key != best_key:
        raise VerificationError(f"{best_seq} based on {a0} reaches {key}, not {best_key}")
    _, s2, u, v, s3, _ = min(live, key=lambda e: (-e[1], -(e[4] or 1), e[2], e[3]))
    move = ((1, 0), (0, s2)) if s.rank == 2 else ((1, 0, u), (0, s2, v), (0, 0, s3 or 1))
    columns = tuple(zip(*a0))
    transform = tuple(tuple(sum(map(mul, row, col)) for col in columns) for row in move)
    return _decoded(key, s.rank), IntMatrix(transform)


def are_equivalent(
    s1: WeightedOrbitSpace, s2: WeightedOrbitSpace, oriented: bool = False
) -> bool:
    """Whether two legal orbit spaces have the same canonical form.

    Raises:
        RankMismatchError: the ranks differ (no common symmetry group).
    """
    if s1.rank != s2.rank:
        raise RankMismatchError(f"rank {s1.rank} vs rank {s2.rank}")
    c1 = canonical_form(s1, oriented=oriented)
    c2 = canonical_form(s2, oriented=oriented)
    return c1.weights == c2.weights
