"""Census of legal, simply connected four-weight orbit spaces.

Lists the weighted orbit spaces with four weights and entries in a box, rank
2 by the Orlik-Raymond formula and rank 3 by enumeration: one row per
canonical class, with its manifold type, fundamental group, realizing action
parameters and a round-trip verification flag.  The output is deterministic:
classes are sorted by the canonical weight order, with no timestamps.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from itertools import combinations, product
from math import gcd

import numpy as np

from .biquotient import T2ActionParams, realize_dim4, realize_dim5
from .classify import Dim5Params, ManifoldType, circle_quotient_type, dim4_family, dim4_type
from .errors import PackedKeyLimitError, UnsupportedRankError, VerificationError
from .lattice import _integers
from .orbit_space import (
    Weight,
    WeightedOrbitSpace,
    _space,
    _unzigzag,
    _zigzag,
    canonical_form,
    format_weights,
)

CENSUS_COLUMNS = ("weights", "type", "pi1", "realization", "verified")

# Entries are zigzag-coded (orbit_space._zigzag) and six codes are packed
# into one integer; 1024 per digit bounds entries by 500.
_PACK_BASE = 1024
_ENTRY_LIMIT = 500


@dataclass(frozen=True)
class CensusRow:
    """A census class.  _build_row returns one only if its checks pass, so
    its pi1 and verified columns are the constants "1" and true."""

    weights: tuple[Weight, ...]
    manifold_type: ManifoldType
    realization: T2ActionParams | Dim5Params


def primitive_weights(rank: int, bound: int) -> list[Weight]:
    """Sign-canonical primitive vectors with entries in [-bound, bound]."""
    rank, bound = _integers((rank, bound))
    if bound < 0:
        raise ValueError(f"entry bound {bound} is negative")
    out = []
    for entries in product(range(-bound, bound + 1), repeat=rank):
        if all(e == 0 for e in entries):
            continue
        if gcd(*entries) != 1:
            continue
        if entries[next(i for i, e in enumerate(entries) if e)] < 0:
            continue
        out.append(entries)
    return sorted(out, key=lambda w: tuple(map(_zigzag, w)))


def _signed_permutation_types(weights: list[Weight]) -> list[int]:
    """Per box weight, the index of the first weight in its orbit under
    signed coordinate permutations: the weight's type.

    Up to sign normalization, a weight's orbit is every weight with the same
    multiset of absolute entries.  The representatives are the weights whose
    type is their own index.

    The rank-3 census keeps one ordered cycle (x1, x2, x3, x4) per class by
    these types.  Signed coordinate permutations lie in GL(rank, Z), map the
    box onto itself and keep each weight's type.  So every class has a cycle
    that starts at a weight of the smallest type among its four, moved to
    that type's representative; and reversing the cycle with x1 fixed swaps
    x2 and x4.  Only cycles with x1 a representative, no type below x1's,
    and x4 not before x2 in box order are kept.
    """
    first: dict[tuple[int, ...], int] = {}
    return [
        first.setdefault(tuple(sorted(abs(e) for e in w)), index)
        for index, w in enumerate(weights)
    ]


def _rank2_classes(bound: int) -> list[tuple[Weight, ...]]:
    """The mixed class e1, e2, (1,1), (2,1) and e1, e2, e1, (k,1) for
    k = 0..2b, none at b = 0: the Orlik-Raymond list (Trans. AMS 152 (1970)
    531-559) of the legal four-weight cycles in the box, |det| = 1 per pair.

    After a base change to e1, e2, legality forces x3 = (1, m) and, up to
    (x, y) -> (x, -y), x4 = (k, 1) with 1 - mk = +-1: mk = 0 gives the
    family, mk = 2 the mixed class, met as (1,0), (1,-1), (0,1), (1,1).  In
    the family two opposite weights are +-v and the others satisfy
    y' = +-y + t v with k = |t|, so |t| |v|_inf <= 2b in the box, and
    v = (1,0), y = (b,1), y' = (b-k,1) reaches every k in 0..2b.
    """
    if bound < 0:
        raise ValueError(f"entry bound {bound} is negative")
    if bound == 0:
        return []
    mixed = ((1, 0), (0, 1), (1, 1), (2, 1))
    family = [((1, 0), (0, 1), (1, 0), (k, 1)) for k in range(2 * bound + 1)]
    return sorted([mixed, *family], key=lambda ws: tuple(_zigzag(e) for w in ws for e in w))


# The residual moves explored per based pair: three diagonal signs and, for
# each of the two shear slots, the two values nearest to zeroing the pivot
# entry.  -I is a residual move and weights are sign-normalized, so the first
# sign can be fixed to +1 without changing the minimum.  The third sign only
# moves the two third-coordinate digits of the packed key, so it is resolved
# analytically; the remaining 8 combinations are enumerated as column
# vectors for broadcasting.
_CAND = tuple(product((1, -1), (0, 1), (0, 1)))
_S2 = np.array([c[0] for c in _CAND], dtype=np.int32)[:, None]
_DU = np.array([c[1] for c in _CAND], dtype=np.int32)[:, None]
_DV = np.array([c[2] for c in _CAND], dtype=np.int32)[:, None]


def _zigzag_codes(values: np.ndarray) -> np.ndarray:
    codes = _zigzag(values)
    # An entry e has |e| < _ENTRY_LIMIT exactly when its code is below
    # _zigzag(_ENTRY_LIMIT) = 2 * _ENTRY_LIMIT - 1, for either sign.
    if codes.max(initial=0) >= 2 * _ENTRY_LIMIT - 1:
        raise PackedKeyLimitError(
            f"a canonical-key entry reaches {_ENTRY_LIMIT} in absolute value"
        )
    return codes


def _candidate_min_keys(y2: np.ndarray, y3: np.ndarray) -> np.ndarray:
    """Minimal packed key over the residual moves fixing the based pair.

    Mirrors the 8 moves and block rule of orbit_space._least line for line,
    over a batch of based pairs, with no unit rule or early exit, which keep
    the minimum; the candidate image set only depends on the pair being
    mapped to the standard basis, not on the completion that based it.
    """
    pivot = np.where((y2[:, 2] != 0)[:, None], y2, y3)
    p0, p1, p2 = pivot[:, 0], pivot[:, 1], pivot[:, 2]
    has = p2 != 0
    safe = np.where(has, p2, 1)
    u0 = np.where(has, (-p0) // safe, 0)
    v0_pos = np.where(has, (-p1) // safe, 0)
    v0_neg = np.where(has, p1 // safe, 0)
    t2, t3 = y2[:, 2], y3[:, 2]
    u = u0 + _DU
    v = np.where(_S2 > 0, v0_pos, v0_neg) + _DV
    a0 = y2[:, 0] + u * t2
    a1 = _S2 * y2[:, 1] + v * t2
    b0 = y3[:, 0] + u * t3
    b1 = _S2 * y3[:, 1] + v * t3
    # Per-weight sign normalization: the leading sign comes from the first
    # two entries when they are not both zero; otherwise the third entry is
    # normalized to be positive whatever the third diagonal sign is.
    sa = np.where(a0 != 0, np.sign(a0), np.sign(a1))
    sb = np.where(b0 != 0, np.sign(b0), np.sign(b1))
    # The third diagonal sign s3 moves only third-coordinate digits, and the
    # two keys first differ at the first weight whose third digit it moves;
    # the smaller key makes that third entry positive.
    s3 = np.where(sa * t2 != 0, np.sign(sa * t2), np.sign(sb * t3))
    za = np.where(sa != 0, sa * s3 * t2, np.abs(t2))
    zb = np.where(sb != 0, sb * s3 * t3, np.abs(t3))
    sa = np.where(sa != 0, sa, 1)
    sb = np.where(sb != 0, sb, 1)
    d0 = _zigzag_codes(sa * a0)
    d1 = _zigzag_codes(sa * a1)
    d2 = _zigzag_codes(za)
    d3 = _zigzag_codes(sb * b0)
    d4 = _zigzag_codes(sb * b1)
    d5 = _zigzag_codes(zb)
    # Packing exceeds 32 bits, so widen here; each half fits in int32.
    key = ((d0 * _PACK_BASE + d1) * _PACK_BASE + d2).astype(np.int64) * _PACK_BASE**3 + (
        (d3 * _PACK_BASE + d4) * _PACK_BASE + d5
    )
    return key.min(axis=0)


def _ext_gcd(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Elementwise extended Euclid: (g, s, t) with a*s + b*t == g >= 0."""
    old_r, r = a, b
    old_s, s = np.ones_like(a), np.zeros_like(a)
    old_t, t = np.zeros_like(a), np.ones_like(a)
    while True:
        live = r != 0
        if not live.any():
            break
        q = np.where(live, old_r // np.where(live, r, 1), 0)
        old_r, r = np.where(live, r, old_r), np.where(live, old_r - q * r, 0)
        old_s, s = np.where(live, s, old_s), np.where(live, old_s - q * s, s)
        old_t, t = np.where(live, t, old_t), np.where(live, old_t - q * t, t)
    sign = np.where(old_r < 0, -1, 1)
    return sign * old_r, sign * old_s, sign * old_t


def _frames(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per legal pair, the unimodular F with F @ x == e1 and F @ y == e2.

    The cross product c = x ^ y is primitive exactly when the pair is legal;
    a Bezout vector z with c . z == 1 completes (x, y) to a basis, and is
    first moved by the nearest lattice point of span(x, y) so that F stays
    small.  The rows of the inverse of [x y z] are y ^ z, z ^ x and c.  The
    vectorized twin of orbit_space._frame on the Bezout vector; moving z by
    span(x, y) changes the frame by a residual shear only, so both give the
    same keys.
    """
    c = np.cross(x, y)
    g01, s01, t01 = _ext_gcd(c[:, 0], c[:, 1])
    g, s2, t2 = _ext_gcd(g01, c[:, 2])
    if np.any(g != 1):
        raise ValueError("frame requested for a pair that is not legal")
    z = np.stack([s2 * s01, s2 * t01, t2], axis=1)
    xx, xy, yy = (x * x).sum(1), (x * y).sum(1), (y * y).sum(1)
    zx, zy = (z * x).sum(1), (z * y).sum(1)
    den = xx * yy - xy * xy  # |c|^2 > 0
    alpha = (2 * (zx * yy - zy * xy) + den) // (2 * den)
    beta = (2 * (zy * xx - zx * xy) + den) // (2 * den)
    z = z - alpha[:, None] * x - beta[:, None] * y
    return np.stack([np.cross(y, z), np.cross(z, x), c], axis=1)


def _unpack_keys(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Third and fourth weights of packed canonical-position keys."""
    codes = np.stack(
        [(keys // _PACK_BASE**p) % _PACK_BASE for p in range(5, -1, -1)], axis=1
    )
    entries = _unzigzag(codes)
    return entries[:, :3], entries[:, 3:]


def _based(frames: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    based = np.einsum("nab,nb->na", frames, vectors)
    # Shears inside the candidate kernel multiply a based entry by a third
    # coordinate, which is itself a based entry.
    if np.abs(based).max(initial=0) >= 2**31:
        raise PackedKeyLimitError("based coordinates overflow the candidate kernel")
    return based


def _start_keys(
    x1: np.ndarray, x2: np.ndarray, x3: np.ndarray, x4: np.ndarray
) -> np.ndarray:
    """Key of each ordered cycle (x1, x2, x3, x4); x2 is an (N, 3) array and
    the other weights are (N, 3) arrays or single weights."""
    shape = x2.shape
    frames = _frames(np.broadcast_to(x1, shape), x2)
    return _candidate_min_keys(
        _based(frames, np.broadcast_to(x3, shape)),
        _based(frames, np.broadcast_to(x4, shape)),
    )


_BLOCK = 16_384


# The seven dihedral starts of a cycle (x1, x2, x3, x4) other than itself,
# as index orders: its other rotations, then the rotations of its reversal.
_OTHER_STARTS = (
    (1, 2, 3, 0), (2, 3, 0, 1), (3, 0, 1, 2), (0, 3, 2, 1), (3, 2, 1, 0), (2, 1, 0, 3), (1, 0, 3, 2)
)


def _class_keys(keys: np.ndarray) -> np.ndarray:
    """Minimum over the eight dihedral starts of each keyed sequence.

    Each key is decoded once into the cycle (e1, e2, y3, y4) it codes.  A
    unimodular map keeps start keys, so the other seven are those of fixed
    index orders of that one array.
    """
    out = np.empty_like(keys)
    # Blocks keep the candidate kernel's temporaries in cache.
    for lo in range(0, len(keys), _BLOCK):
        block = keys[lo : lo + _BLOCK]
        cycle = np.zeros((len(block), 4, 3), dtype=np.int64)
        cycle[:, 0, 0] = cycle[:, 1, 1] = 1
        cycle[:, 2], cycle[:, 3] = _unpack_keys(block)
        best = block
        for order in _OTHER_STARTS:
            best = np.minimum(best, _start_keys(*(cycle[:, p] for p in order)))
        out[lo : lo + _BLOCK] = best
    return out


_REDUCE_CHUNK = 4_000_000


def _rank3_classes(bound: int) -> list[tuple[Weight, ...]]:
    """Canonical forms of the legal, simply connected 4-cycles in the box.

    The key of an ordered cycle (x1, x2, x3, x4) is the minimum of its based
    images (x1, x2 sent to e1, e2) over the residual moves; it is invariant
    under any unimodular map applied to all four weights.  A class's
    canonical form is the minimum of the keys of the eight dihedral starts
    of any of its cycles, and those are computed from each distinct key
    directly, so one ordered cycle per class is enough: only the cycles that
    _signed_permutation_types keeps are keyed.
    """
    # The third based coordinates are the triple determinants
    # det(w_i, w_j, w_k) = cross[i, j] . w[k], so they bound the packed
    # digits from below.  By Hadamard's bound a 3x3 determinant with entries
    # in [-b, b] is at most 4 b^3 (the determinant is multilinear, so its
    # extremes sit at the +-b vertices, and the largest 3x3 +-1 determinant
    # is 4).  That is below the limit exactly for b <= 4, so every larger
    # box is refused before anything is enumerated; the rest is checked
    # where it is packed.  At b = 5 the largest determinant of primitive
    # weights is 486, but keys of its classes still overflow a digit.
    if 4 * bound**3 >= _ENTRY_LIMIT:
        beyond = "canonical-key entries" if bound == 5 else "determinants"
        raise PackedKeyLimitError(
            f"entry bound {bound} gives {beyond} beyond the packed-key limit"
        )
    weights = primitive_weights(3, bound)
    w = np.array(weights, dtype=np.int64).reshape(-1, 3)
    cross = np.cross(w[:, None, :], w[None, :, :])
    legal = np.gcd.reduce(np.abs(cross), axis=2) == 1
    types = np.array(_signed_permutation_types(weights))
    order = np.arange(len(weights))
    chunks: list[np.ndarray] = []
    pending = 0
    for i in np.flatnonzero(types == order):
        # Smallest type first: x2, x3 and x4 have no type below x1's.
        allowed = types >= types[i]
        partners = np.flatnonzero(legal[i] & allowed)
        if len(partners) == 0:
            continue
        # (x3, x4) = (k, l) with k ~ l and l ~ i legal, both of allowed type.
        grid = legal & allowed[:, None] & (legal[:, i] & allowed)[None, :]
        frames = _frames(np.broadcast_to(w[i], (len(partners), 3)), w[partners])
        based_all = np.einsum("pab,nb->pna", frames, w)
        if np.abs(based_all).max() >= _ENTRY_LIMIT:
            raise PackedKeyLimitError(
                f"entry bound {bound} gives based coordinates beyond the packed-key limit"
            )
        based_all = based_all.astype(np.int32)
        dets_i = cross[i] @ w.T
        for based, j in zip(based_all, partners):
            # Reversal: x4 = l is not before x2 = j.
            kk, ll = np.nonzero(legal[j][:, None] & grid & (order >= j))
            # Simply connected: the four triple determinants are coprime.
            sc = np.gcd(
                np.gcd((cross[j, kk] * w[ll]).sum(1), dets_i[kk, ll]),
                np.gcd(dets_i[j, ll], dets_i[j, kk]),
            ) == 1
            kk, ll = kk[sc], ll[sc]
            if len(kk) == 0:
                continue
            chunks.append(_candidate_min_keys(based[kk], based[ll]))
            pending += len(kk)
            if pending > _REDUCE_CHUNK:
                # Count only rows added since the last reduction, so a large
                # set of distinct keys is not re-sorted for every pair.
                chunks = [np.unique(np.concatenate(chunks))]
                pending = 0
    if not chunks:
        return []
    keys = np.unique(np.concatenate(chunks))
    # Digits are zigzag codes packed most significant first, so ascending
    # keys are already the sorted census order.
    y3s, y4s = _unpack_keys(np.unique(_class_keys(keys)))
    canonical = [
        ((1, 0, 0), (0, 1, 0), tuple(y3), tuple(y4))
        for y3, y4 in zip(y3s.tolist(), y4s.tolist())
    ]
    for canon in canonical[::193]:
        exact = canonical_form(WeightedOrbitSpace(3, canon)).weights
        if exact != canon:
            raise VerificationError(
                f"packed census key {canon} disagrees with canonical_form: {exact}"
            )
    return canonical


def _build_row(rank: int, canon: tuple[Weight, ...]) -> CensusRow:
    # A class is a canonical form, normalized already: it is not read again.
    space = _space(rank, canon)
    # The fundamental group bound Z^rank / span is trivial exactly when the
    # gcd of the maximal minors of the weights is 1.
    if rank == 2:
        minors = [x[0] * y[1] - x[1] * y[0] for x, y in combinations(canon, 2)]
    else:
        minors = [(x[1] * y[2] - x[2] * y[1]) * z[0] + (x[2] * y[0] - x[0] * y[2]) * z[1]
                  + (x[0] * y[1] - x[1] * y[0]) * z[2] for x, y, z in combinations(canon, 3)]
    if gcd(*minors) != 1:
        raise VerificationError(
            f"census class {canon} spans a sublattice of index {gcd(*minors)} in Z^{rank}"
        )
    if rank == 2:
        # canon is a canonical form, so dim4_family reads it as it is, and
        # canonical_form runs once per row, in realize_dim4.
        mtype = dim4_type(dim4_family(canon))
        realization: T2ActionParams | Dim5Params = realize_dim4(space)
    else:
        realization = realize_dim5(space)
        # The manifold is the product of two 3-spheres divided by the
        # realized circle, so the circle's parity gives its type.
        mtype = circle_quotient_type(realization.a, realization.b, realization.c, realization.d)
    # realize_* verify the induced orbit space against the input before
    # returning, so reaching this point certifies the round trip.
    return CensusRow(weights=canon, manifold_type=mtype, realization=realization)


def run_census(rank: int, bound: int) -> tuple[CensusRow, ...]:
    """All canonical classes of legal, simply connected four-weight spaces
    met by weight sequences with entries in [-bound, bound]; a canonical
    representative may have larger entries.  rank and bound are read by
    operator.index, so a float or a string is a ValueError.
    """
    rank, bound = _integers((rank, bound))
    if rank == 2:
        classes = _rank2_classes(bound)
    elif rank == 3:
        classes = _rank3_classes(bound)
    else:
        raise UnsupportedRankError(f"census supports ranks 2 and 3, got {rank}")
    return tuple(_build_row(rank, canon) for canon in classes)


# --- serialization


def realization_payload(realization: T2ActionParams | Dim5Params) -> dict:
    kind = "t2" if isinstance(realization, T2ActionParams) else "t3"
    payload = {"kind": kind}
    for field in ("a", "b", "c", "d", "k", "l", "m", "n"):
        payload[field] = getattr(realization, field)
    return payload


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _header(rows, rank: int, bound: int) -> dict:
    return {
        "format": "orbit-census/1",
        "rank": rank,
        "bound": bound,
        "count": len(rows),
        "columns": list(CENSUS_COLUMNS),
    }


def census_ndjson(rows: tuple[CensusRow, ...], rank: int, bound: int) -> str:
    lines = [_dump(_header(rows, rank, bound))]
    for row in rows:
        lines.append(
            _dump(
                {
                    "weights": [list(w) for w in row.weights],
                    "type": str(row.manifold_type),
                    "pi1": "1",
                    "realization": realization_payload(row.realization),
                    "verified": True,
                }
            )
        )
    return "\n".join(lines) + "\n"


def _row_cells(row: CensusRow) -> list[str]:
    """The text cells of one row, in CENSUS_COLUMNS order."""
    return [
        format_weights(row.weights),
        str(row.manifold_type),
        "1",
        _dump(realization_payload(row.realization)),
        "true",
    ]


def census_csv(rows: tuple[CensusRow, ...]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CENSUS_COLUMNS)
    writer.writerows(_row_cells(row) for row in rows)
    return buffer.getvalue()


def census_table(rows: tuple[CensusRow, ...]) -> str:
    """Left-aligned columns two spaces apart, without trailing blanks."""
    cells = [list(CENSUS_COLUMNS)] + [_row_cells(row) for row in rows]
    widths = [max(len(line[col]) for line in cells) for col in range(len(CENSUS_COLUMNS))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(line, widths)).rstrip() for line in cells]
    return "\n".join(lines) + "\n"
