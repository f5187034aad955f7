"""Weighted orbit spaces of cohomogeneity-two torus actions.

A weighted orbit space is a disk whose boundary carries a cyclic sequence of
primitive integer vectors (weights), each recording the slope of a circle
isotropy group.  This module provides the legality check on adjacent weight
pairs, the fundamental-group bound, and a canonical form under the full
symmetry group of the data:

  (i)   one unimodular matrix applied to all weights,
  (ii)  cyclic rotation of the sequence,
  (iii) reversal of the sequence,
  (iv)  per-weight sign flips.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import gcd
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
    gcd_ext,
    _integers,
    _matrix,
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
        (rank,) = _integers((self.rank,))
        object.__setattr__(self, "rank", rank)
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

    def __str__(self) -> str:
        return f"rank {self.rank}: {format_weights(self.weights)}"


def format_weights(weights: Iterable[Sequence[int]]) -> str:
    """Weights as "(a,b),(c,d),...", the form the command line reads."""
    return ",".join("(" + ",".join(str(e) for e in w) + ")" for w in weights)


@dataclass(frozen=True)
class LegalityReport:
    """Outcome of the adjacency checks: legal, and the failing adjacent pairs."""

    legal: bool
    failing_pairs: tuple[tuple[int, int], ...]


def pair_is_legal(x: Sequence[int], y: Sequence[int]) -> bool:
    """Whether the 2 x n matrix [x; y] extends to a unimodular matrix.

    Equivalent to its Smith invariant factors being (1, 1), which in turn is
    the gcd of all 2 x 2 minors being 1.  For n = 2 this is |det| = 1, and
    for n = 3 the minors are the entries of the cross product x ^ y.

    Raises:
        ValueError: an entry is not an integer, or x and y differ in length.
    """
    if set(map(type, (*x, *y))) != {int}:
        x, y = _integers(x), _integers(y)
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

    is_legal as an exception, for callers that read nothing else.

    Raises:
        IllegalOrbitSpaceError: naming the failing adjacent pairs.
    """
    failing = _failing_pairs(s)
    if failing:
        raise IllegalOrbitSpaceError(f"failing adjacent pairs: {failing}")


def is_legal(s: WeightedOrbitSpace) -> LegalityReport:
    """Check every cyclically adjacent weight pair."""
    failing = _failing_pairs(s)
    return LegalityReport(
        legal=not failing,
        failing_pairs=failing,
    )


def pi1_bound(s: WeightedOrbitSpace) -> AbelianGroup:
    """The quotient Z^rank / (span of the weights).

    An upper bound for the fundamental group of the manifold; exact for the
    five-dimensional four-weight case.  The weights span Z^rank exactly when
    its free rank is 0.
    """
    return quotient_group(_matrix(s.weights))


# --- canonical forms
#
# Total order on weight sequences: compare entry by entry under
# 0 < 1 < -1 < 2 < -2 < ..., i.e. by zigzag code, weights lexicographically,
# sequences lexicographically.  The canonical form of an orbit space is the
# minimum over its symmetry class, so small nonnegative entries come first.


def _zigzag(e):
    """Code of an entry in the entry order: 0, 1, -1, 2, -2, ... -> 0, 1, 2, 3, 4, ...

    Plain arithmetic, so it maps Python ints and integer numpy arrays alike.
    The one statement of the order: sequences sort by their zigzag tuples;
    _least and the unit-start loop of _search write it out per entry.
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
    absorb, so every z gives the same minimal key, and the same transform
    where one matrix reaches it; only a tie's transform depends on z.
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
    if c[0] * z[0] + c[1] * z[1] + c[2] * z[2] == -1:
        rows = tuple(tuple(-e for e in row) for row in rows)
    return rows


def _base(frame: tuple[Weight, ...], weights: Iterable[Weight]) -> list[Weight]:
    """Images (y0, y1, t) of weights under a frame; t = 0 at rank 2: no shear."""
    if len(frame) == 2:
        (a, b), (c, d) = frame
        return [(a * x + b * y, c * x + d * y, 0) for x, y in weights]
    (a, b, c), (d, e, f), (g, h, i) = frame
    return [(a * x + b * y + c * z, d * x + e * y + f * z, g * x + h * y + i * z)
            for x, y, z in weights]


def _least(pairs: list, rank: int) -> tuple[tuple[int, ...], list]:
    """Least key over the moves (s2, u, v) of (based, start) pairs, and the
    entries [based, s2, u, v, s3, start] of the moves reaching it, in the
    order of pairs; s3 is 0 where no weight resolved it, and then either
    sign gives the key.  The 8 moves are the second sign and the shears
    nearest to zeroing the pivot's first two entries (2 at a unit start,
    |t| == 1); the first sign is fixed, the third resolved per weight.  They
    include every move reaching the least key.  A start's least first block
    codes (|a0|, |a1|, |t|): the distances of its first image's y0, y1 from
    multiples of its t (y0, y1 when t == 0).  Only the starts with the least
    such block, and their moves reaching it, are keyed; then the key grows
    one block at a time, and a move is dropped once its block exceeds the
    least.  The residual-move rule of the library: _search runs it where no
    start is a unit start, canonicalize on a tie; census._candidate_min_keys
    is its numpy twin.
    """
    live, least = [], None
    for based, start in pairs:
        y0, y1, t = based[0] if based else (0, 0, 0)
        m = abs(t)
        first = (min(y0 % m, -y0 % m), min(y1 % m, -y1 % m), m) if m else (abs(y0), abs(y1), 0)
        if least is None or first < least:
            least, live = first, []
        elif first != least:
            continue
        r0, r1, _ = first
        pivot = based[0] if t else next((w for w in based if w[2]), None)
        p0, p1, p2 = pivot or (0, 0, 1)
        u0, v0_pos, v0_neg = (-p0) // p2, (-p1) // p2, p1 // p2
        steps = (0,) if pivot is None or m == 1 else (0, 1)
        for s2, v0 in ((1, v0_pos), (-1, v0_neg)):
            for u in (u0 + du for du in steps):
                a0 = y0 + u * t
                for v in (v0 + dv for dv in steps) if abs(a0) == r0 else ():
                    a1 = s2 * y1 + v * t
                    lead = a0 or a1  # the sign normalization of the blocks below
                    if (a1 if lead > 0 else -a1) == r1:
                        s3 = (1 if (lead > 0) == (t > 0) else -1) if lead and t else 0
                        live.append([based, s2, u, v, s3, start])
    key = [2 * r - (r > 0) for r in least[:rank]] if live[0][0] else []
    for k in range(1, len(live[0][0])):
        best = None
        for entry in live:
            _, s2, u, v, s3, _ = entry
            y0, y1, t = entry[0][k]
            a0 = y0 + u * t
            a1 = s2 * y1 + v * t
            lead = a0 or a1  # sign normalization; else the third entry is made positive
            if not lead:
                block = (0, 0, 2 * abs(t) - (t != 0))
            else:
                sa = 1 if lead > 0 else -1
                if not s3 and t:  # s3's smaller key makes the first third digit it moves > 0
                    s3 = entry[4] = 1 if sa * t > 0 else -1
                a1 *= sa
                t *= sa * s3
                # Zigzag codes, written out; sa * a0 is |a0|.
                block = (2 * abs(a0) - (a0 != 0), 2 * abs(a1) - (a1 > 0), 2 * abs(t) - (t > 0))
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


@lru_cache
def _starts(n: int, oriented: bool) -> tuple[tuple[int, int, int, int], ...]:
    """Starts (k, o, j, i): the weights (k = 0) or their reversal (k = 1),
    doubled, read from o.  With d = 1 - 2k, x1 ^ x2 == d * cross[j] and
    x2 ^ x3 == d * cross[i]."""
    starts = [(0, a, a, (a + 1) % n) for a in range(n)]
    if not oriented:
        starts += [(1, r, (-2 - r) % n, (-3 - r) % n) for r in range(n)]
    return tuple(starts)


def _search(s: WeightedOrbitSpace, oriented: bool) -> tuple[tuple, tuple[Weight, ...], tuple, list]:
    """The minimal start key of s, the first rotation or reversal reaching
    it, that start's frame F (rows sending x1 to e1 and x2 to +-e2) and the
    moves (s2, u, v, s3) reaching the key from F, s3 = 0 where either does.

    Starts run over the rotations of s, then of its reversal.  At rank 3 a
    unit start has t = det(x1, x2, x3) = +-1, read off the pair's cross
    product, and its key starts with the least block (0, 0, 1), which no
    other start reaches.  When there are unit starts, only they are keyed,
    in one loop and in closed form: framed on z = t x3, a unit start has
    the frame rows t (x2 ^ x3), t (x3 ^ x1) and x1 ^ x2, two of them
    adjacent cross products.  Its images of x4..xn are computed once and
    keyed for s2 = +-1 by the block rule of _least on the moves (s2, 0, 0).
    Otherwise each adjacent pair is framed once by _frame on its Bezout
    vector, the reversed start at (y, x) takes the frame of (x, y) with
    rows 0, 1 swapped, and one _least pass keys every start.
    """
    ws, n = s.weights, s.n_weights
    # At rank 3 a pair is legal exactly when its cross product is primitive.
    cross = [(b * f - c * e, c * d - a * f, a * e - b * d)
             for (a, b, c), (d, e, f) in zip(ws, ws[1:] + ws[:1])] if s.rank == 3 else []
    if not cross or any(gcd(*c) != 1 for c in cross):
        require_legal(s)
    if s.rank not in (2, 3):
        raise UnsupportedRankError(f"canonical forms implemented for ranks 2 and 3, not {s.rank}")
    rings, starts, best = (ws + ws, ws[::-1] * 2), _starts(n, oriented), None
    for start in starts if cross else ():
        ring, o, j, i = start
        ring = rings[ring]
        (p, q, r), (x, y, z) = cross[j], ring[o + 2]
        e = p * x + q * y + r * z  # d * t
        if e != 1 and e != -1:
            continue
        # The frame rows times d * t, t and d: signs that normalization drops
        # from every key.  The winner's rows times e fix x1 -> e1; s2 and s3
        # take up the signs d and t left on rows 1 and 2.
        (f, g, h), (k, l, m) = cross[i], ring[o]
        c0, c1, c2 = y * m - z * l, z * k - x * m, x * l - y * k
        rest = [
            (f * w0 + g * w1 + h * w2, c0 * w0 + c1 * w1 + c2 * w2, p * w0 + q * w1 + r * w2)
            for w0, w1, w2 in ring[o + 3 : o + n]
        ]
        for s2 in (1, -1):
            key, s3 = (0, 0, 1), 0
            for y0, y1, t in rest:
                y1 *= s2
                lead = y0 or y1
                if not lead:
                    key += (0, 0, 2 * abs(t) - 1)
                    continue
                if lead < 0:
                    y0, y1, t = -y0, -y1, -t
                if not s3 and t:
                    s3 = 1 if t > 0 else -1
                t *= s3
                key += (2 * y0 - (y0 > 0), 2 * abs(y1) - (y1 > 0), 2 * abs(t) - (t > 0))
            if best is None or key < best:
                best, first, moves = key, (start, e, (c0, c1, c2)), [(s2, 0, 0, s3)]
            elif key == best and first[0] is start:
                moves.append((s2, 0, 0, s3))
    if best is not None:
        (k, o, j, i), e, (a, b, c) = first
        (f, g, h), (p, q, r) = cross[i], cross[j]
        frame = ((e * f, e * g, e * h), (e * a, e * b, e * c), (e * p, e * q, e * r))
        return best, rings[k][o : o + n], frame, moves
    images: dict[int, tuple] = {}
    pairs = []
    for start in starts:
        k, o, j, _ = start
        if j not in images:
            frame = _frame(ws[j], ws[(j + 1) % n])
            images[j] = frame, _base(frame, rings[0][j + 2 : j + n])
        frame, based = images[j]
        if k:
            frame = (frame[1], frame[0], *frame[2:])
            based = [(y1, y0, t) for y0, y1, t in reversed(based)]
        pairs.append((based, (start, frame)))
    key, live = _least(pairs, s.rank)
    start = live[0][5]
    (k, o, _, _), frame = start
    return key, rings[k][o : o + n], frame, [entry[1:5] for entry in live if entry[5] is start]


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

    The returned matrix, applied to the winning rotation or reversal of the
    input weights followed by sign normalization, yields the canonical
    weights.  The search, shared with canonical_form, returns the first
    start reaching the key with its frame F and every move reaching the key
    from F.  When one move is left with s3 resolved, exactly one matrix
    reaches the key, and the transform is that move times F, read off in
    closed form with no second search.  At rank 3 anything else is a tie:
    the start is framed on z0, the row that unimodular_complete([x, y])
    adds, whose Smith form runs only here, and _least runs again.  Of its
    minimal moves the first with s2 = +1, then s3 = +1 (an unresolved s3
    counts as +1), then the least u, then the least v gives the transform;
    at rank 2 the frame is unique.  Every transform is certified by applying
    it to the start, which for a tie also shows that its frame reached the
    key.  Callers that discard the transform should call canonical_form.

    Args:
        s: a legal orbit space of rank 2 or 3.
        oriented: when True, skip the reversal move, refining classes to
            orientation-preserving equivalence.

    Raises:
        IllegalOrbitSpaceError: some adjacent pair is not legal.
        UnsupportedRankError: rank is not 2 or 3.
        VerificationError: the transform does not give the searched weights,
            or the completion is not unimodular (implementation faults).
    """
    key, seq, frame, moves = _search(s, oriented)
    if s.rank == 3 and (len(moves) > 1 or not moves[0][3]):
        x, y = seq[:2]
        frame = _frame(x, y, unimodular_complete((x, y)).entries[2])
        live = _least([(_base(frame, seq[2:]), None)], 3)[1]
        moves = [min((e[1:5] for e in live), key=lambda m: (-m[0], -(m[3] or 1), m[1], m[2]))]
    s2, u, v, s3 = max(moves)  # one move, or at rank 2 s2 = +-1
    if s.rank == 2:
        (a, b), (c, d) = frame
        transform = ((a, b), (s2 * c, s2 * d))
    else:
        (a, b, c), (d, e, f), (g, h, i) = frame
        s3 = s3 or 1
        transform = ((a + u * g, b + u * h, c + u * i),
                     (s2 * d + v * g, s2 * e + v * h, s2 * f + v * i), (s3 * g, s3 * h, s3 * i))
    form = _decoded(key, s.rank)
    for image, w in zip(_base(transform, seq), form.weights):
        w += (0,) * (3 - s.rank)
        if image != w and image != (-w[0], -w[1], -w[2]):
            raise VerificationError(f"{transform} sends {seq} to {image}, not to {w}")
    return form, _matrix(transform)


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
