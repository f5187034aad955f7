"""Shared helpers for the test suite: random symmetry moves, seed spaces, the
reference canonicalization, start key and search, the reference stabilizer
route, the reference census enumerations at both ranks and a call counter."""

import sys
from itertools import product
from math import gcd

import numpy as np

from torusorbits.biquotient import StabilizerSubgroup, realizable_supports
from torusorbits.census import (
    _candidate_min_keys,
    _class_keys,
    _frames,
    _signed_permutation_types,
    _unpack_keys,
    primitive_weights,
)
from torusorbits.errors import IllegalOrbitSpaceError, UnsupportedRankError
from torusorbits.lattice import (
    AbelianGroup,
    IntMatrix,
    invert_unimodular,
    kernel_basis,
    quotient_group,
    smith_normal_form,
    unimodular_complete,
)
from torusorbits.orbit_space import (
    WeightedOrbitSpace,
    _frame,
    _start_key,
    _zigzag,
    canonical_form,
    is_legal,
    normalize_weight,
    pair_is_legal,
    require_legal,
)


def zigzag_key(weights):
    """The flat tuple of zigzag codes of a weight sequence: sequences of
    equally many weights of one rank sort by it in the library's order."""
    return tuple(_zigzag(e) for w in weights for e in w)


def count_calls(monkeypatch, module, name):
    """A list that grows by one per call of module.name, from any module of
    the package: every torusorbits namespace binding the function gets the
    counting wrapper, as modules import each other's functions by name."""
    calls = []
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for module_name, namespace in list(sys.modules.items()):
        if module_name == "torusorbits" or module_name.startswith("torusorbits."):
            for bound, value in list(vars(namespace).items()):
                if value is fn:
                    monkeypatch.setattr(namespace, bound, counted)
    return calls


def space(rank, *weights):
    return WeightedOrbitSpace(rank, tuple(weights))


def random_unimodular_rows(rng, n, ops=6):
    """Rows of a determinant +-1 matrix built from elementary operations."""
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(ops):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        f = rng.randint(-2, 2)
        m[i] = [x + f * y for x, y in zip(m[i], m[j])]
    return m


def random_symmetry_move(rng, s):
    """One random element of the orbit-space symmetry group applied to s."""
    a = IntMatrix(random_unimodular_rows(rng, s.rank))
    weights = [a.apply(w) for w in s.weights]
    weights = [tuple(-x for x in w) if rng.random() < 0.5 else w for w in weights]
    k = rng.randrange(len(weights))
    weights = weights[k:] + weights[:k]
    if rng.random() < 0.5:
        weights.reverse()
    return WeightedOrbitSpace(s.rank, tuple(weights))


def random_legal_space(rng, rank, n_weights=4):
    """Random legal orbit space built by symmetry moves on a seed space."""
    if rank == 2:
        k = rng.randint(0, 4)
        if rng.random() < 0.3:
            s = space(2, (1, 0), (0, 1), (1, 1), (2, 1))
        else:
            s = space(2, (1, 0), (0, 1), (1, 0), (k, 1))
    else:
        while True:
            third = (rng.randint(0, 2), rng.randint(0, 2), 1)
            fourth = (rng.randint(0, 2), rng.randint(0, 2), 1)
            s = space(3, (1, 0, 0), (0, 1, 0), third, fourth)
            if is_legal(s).legal:
                break
    for _ in range(3):
        s = random_symmetry_move(rng, s)
    return s


def random_legal_cycle(rng, rank, n_weights, box):
    """Random legal cycle of box weights, walked through legal neighbours."""
    pool = [w for w in product(range(-box, box + 1), repeat=rank) if gcd(*w) == 1]
    while True:
        cycle = [rng.choice(pool)]
        while len(cycle) < n_weights:
            closing = len(cycle) == n_weights - 1
            options = [
                w
                for w in pool
                if pair_is_legal(cycle[-1], w) and (not closing or pair_is_legal(w, cycle[0]))
            ]
            if not options:
                break
            cycle.append(rng.choice(options))
        else:
            return WeightedOrbitSpace(rank, tuple(cycle))


# --- reference canonicalization
#
# The direct search that canonicalize replaced: every start is based by the
# inverse of its pair's Smith completion, computed with a Hermite form, and
# every residual candidate is normalized and keyed with zigzag_key.  Slow,
# and kept only to check canonicalize against it.


def _nearest_shears(lead, third):
    base = (-lead) // third
    return (base, base + 1)


def _residual_candidates(based, rank):
    if rank == 2:
        for s1, s2 in product((1, -1), repeat=2):
            images = tuple((s1 * w[0], s2 * w[1]) for w in based)
            yield (
                tuple(normalize_weight(im) for im in images),
                ((s1, 0), (0, s2)),
            )
        return
    assert rank == 3
    pivot = next((w for w in based if w[2] != 0), None)
    for s1, s2, s3 in product((1, -1), repeat=3):
        if pivot is None:
            u_candidates = (0,)
            v_candidates = (0,)
        else:
            u_candidates = _nearest_shears(s1 * pivot[0], pivot[2])
            v_candidates = _nearest_shears(s2 * pivot[1], pivot[2])
        for u in u_candidates:
            for v in v_candidates:
                images = tuple(
                    (s1 * w[0] + u * w[2], s2 * w[1] + v * w[2], s3 * w[2])
                    for w in based
                )
                yield (
                    tuple(normalize_weight(im) for im in images),
                    ((s1, 0, u), (0, s2, v), (0, 0, s3)),
                )


def reference_canonicalize(s, oriented=False):
    report = is_legal(s)
    if not report.legal:
        raise IllegalOrbitSpaceError(f"failing adjacent pairs: {report.failing_pairs}")
    if s.rank not in (2, 3):
        raise UnsupportedRankError(f"canonical forms implemented for ranks 2 and 3, not {s.rank}")
    e1 = tuple(int(i == 0) for i in range(s.rank))
    e2 = tuple(int(i == 1) for i in range(s.rank))
    best_key = None
    best_weights = None
    best_move = None
    orientations = (False,) if oriented else (False, True)
    for flip in orientations:
        ordered = tuple(reversed(s.weights)) if flip else s.weights
        for r in range(s.n_weights):
            seq = ordered[r:] + ordered[:r]
            # The inverse of the transposed Smith completion of the pair.
            a0 = invert_unimodular(unimodular_complete(seq[:2]).transpose())
            based = tuple(a0.apply(w) for w in seq)
            assert based[0] == e1 and based[1] == e2
            for weights, b in _residual_candidates(based, s.rank):
                key = zigzag_key(weights)
                if best_key is None or key < best_key:
                    best_key = key
                    best_weights = weights
                    best_move = (b, a0)
    assert best_weights is not None and best_move is not None
    b, a0 = best_move
    return WeightedOrbitSpace(s.rank, best_weights), IntMatrix(b) @ a0


def based_weights(seq):
    """Weights 3..n of seq in the closed-form frame sending seq[0], seq[1] to
    e1, e2."""
    frame = _frame(seq[0], seq[1])
    return [tuple(sum(f * e for f, e in zip(row, w)) for row in frame) for w in seq[2:]]


def reference_start_key(seq, rank):
    """The start key as orbit_space._start_key computed it before its rank-3
    candidate loop: the least flat key, entries zigzag-coded, over every
    residual candidate of reference_canonicalize, all three signs included."""
    return min(
        zigzag_key(weights)
        for weights, _ in _residual_candidates(based_weights(seq), rank)
    )


def reference_search(s, oriented):
    """orbit_space._search as it was before the single pass: every start,
    each framed on its own, keyed by _start_key over all its moves, and the
    first minimal start kept."""
    require_legal(s)
    if s.rank not in (2, 3):
        raise UnsupportedRankError(f"canonical forms implemented for ranks 2 and 3, not {s.rank}")
    best_key = None
    orientations = (False,) if oriented else (False, True)
    for flip in orientations:
        ordered = tuple(reversed(s.weights)) if flip else s.weights
        for r in range(s.n_weights):
            seq = ordered[r:] + ordered[:r]
            key = _start_key(seq, s.rank)
            if best_key is None or key < best_key:
                best_key, best_seq = key, seq
    return best_key, best_seq


# --- reference stabilizer route
#
# The generic computations that biquotient's closed forms replaced: each
# stabilizer from two Hermite-form kernels and a Smith diagonalization, and
# freeness checked on all nine supports.  Kept only to check the closed
# forms against.


def reference_support_stabilizer(coords, m, sup):
    off_support = [coords[i] for i in range(4) if i not in sup]
    annihilator = kernel_basis(off_support, m)
    if annihilator:
        group = quotient_group(IntMatrix(annihilator))
        slopes = kernel_basis(annihilator, m)
    else:
        group = AbelianGroup(m, ())
        slopes = IntMatrix.identity(m).entries
    assert len(slopes) == group.free_rank, f"support {sorted(sup)}: {slopes} for {group}"
    return StabilizerSubgroup(group=group, slopes=slopes)


def reference_subtorus_acts_freely(w, h_rows):
    e = [tuple(int(x) for x in row) for row in h_rows]
    if any(len(row) != 4 for row in e):
        raise ValueError("subtorus rows must have 4 entries")
    for support in realizable_supports():
        restricted = [
            [sum(a * b for a, b in zip(w.entries[i], row)) for row in e]
            for i in sorted(support)
        ]
        factors = smith_normal_form(IntMatrix(restricted)).invariant_factors
        if len(factors) != len(e) or any(f != 1 for f in factors):
            return False
    return True


# --- reference rank-3 census enumeration
#
# The loop that the type-ordered enumeration of census._rank3_classes
# replaced: every ordered cycle whose first weight is a signed-permutation
# orbit representative is keyed, with no type order and no reversal mask,
# and the simply-connected test reads a full n^3 determinant table.  It
# shares the packed-key kernels with the census, so it checks which cycles
# are keyed, not how a key is computed.


def reference_rank3_classes(bound):
    weights = primitive_weights(3, bound)
    if not weights:
        return []
    first = {}
    for index, v in enumerate(weights):
        first.setdefault(tuple(sorted(abs(e) for e in v)), index)
    w = np.array(weights, dtype=np.int64)
    cross = np.cross(w[:, None, :], w[None, :, :])
    legal = np.gcd.reduce(np.abs(cross), axis=2) == 1
    dets = np.einsum("ijc,kc->ijk", cross, w)
    chunks = []
    for i in sorted(first.values()):
        partners = np.flatnonzero(legal[i])
        frames = _frames(np.broadcast_to(w[i], (len(partners), 3)), w[partners])
        based_all = np.einsum("pab,nb->pna", frames, w).astype(np.int32)
        for based, j in zip(based_all, partners):
            kk, ll = np.nonzero(legal[j][:, None] & legal & legal[:, i][None, :])
            sc = np.gcd(
                np.gcd(dets[j, kk, ll], dets[i, kk, ll]),
                np.gcd(dets[i, j, ll], dets[i, j, kk]),
            ) == 1
            kk, ll = kk[sc], ll[sc]
            if len(kk):
                chunks.append(_candidate_min_keys(based[kk], based[ll]))
    if not chunks:
        return []
    keys = np.unique(np.concatenate(chunks))
    y3s, y4s = _unpack_keys(np.unique(_class_keys(keys)))
    return [
        ((1, 0, 0), (0, 1, 0), tuple(y3), tuple(y4))
        for y3, y4 in zip(y3s.tolist(), y4s.tolist())
    ]


# --- reference rank-2 census enumeration
#
# The enumerator that the Orlik-Raymond list in census._rank2_classes
# replaced: every legal cycle that the type rule of
# census._signed_permutation_types keeps, put in canonical form.


def reference_rank2_classes(bound):
    weights = primitive_weights(2, bound)
    types = _signed_permutation_types(weights)
    near = [
        {b for b, y in enumerate(weights) if abs(x[0] * y[1] - x[1] * y[0]) == 1}
        for x in weights
    ]
    classes = set()
    for i, t in enumerate(types):
        if t != i:
            continue
        # x2, x3 and x4 have no type below x1's, and x4 is not before x2.
        allowed = {b for b, u in enumerate(types) if u >= t}
        partners = sorted(near[i] & allowed)
        for j in partners:
            for l in partners:
                if l < j:
                    continue
                for k in near[j] & near[l] & allowed:
                    cycle = (weights[i], weights[j], weights[k], weights[l])
                    classes.add(canonical_form(WeightedOrbitSpace(2, cycle)).weights)
    return sorted(classes, key=zigzag_key)
