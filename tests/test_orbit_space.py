"""Tests for weighted orbit spaces: legality, pi1 bound, canonical forms."""

import hashlib
import random
from itertools import combinations, permutations, product
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusorbits.errors import (
    IllegalOrbitSpaceError,
    RankMismatchError,
    RankTooSmallError,
    UnsupportedRankError,
)
import torusorbits.lattice as lattice
import torusorbits.orbit_space as orbit_space
from torusorbits.lattice import (
    AbelianGroup,
    IntMatrix,
    gcd_ext,
    smith_normal_form,
)
from torusorbits.orbit_space import (
    WeightedOrbitSpace,
    _search,
    _start_key,
    _zigzag,
    are_equivalent,
    canonical_form,
    canonicalize,
    is_legal,
    normalize_weight,
    pair_is_legal,
    pi1_bound,
    reversed_space,
)

from support import (
    count_calls,
    random_legal_cycle,
    random_legal_space,
    random_symmetry_move,
    reference_canonicalize,
    reference_search,
    reference_start_key,
    space,
    zigzag_key,
)


# --- normalization and construction


def test_normalize_weight():
    assert normalize_weight((2, 4)) == (1, 2)
    assert normalize_weight((-2, 4)) == (1, -2)
    assert normalize_weight((0, -3)) == (0, 1)
    assert normalize_weight((-1, 0, 2)) == (1, 0, -2)
    with pytest.raises(ValueError):
        normalize_weight((0, 0))


def test_space_validation():
    with pytest.raises(RankTooSmallError):
        space(1, (1,), (2,))
    with pytest.raises(ValueError):
        space(2, (1, 0), (0, 0))
    with pytest.raises(ValueError):
        space(2, (1, 0), (0, 1, 1))
    with pytest.raises(ValueError):
        space(3, (1, 0, 0), (0, 1, 0))
    s = space(2, (2, 4), (0, -1))
    assert s.weights == ((1, 2), (0, 1))
    assert s.n_weights == 2


def test_rotation():
    s = space(2, (1, 0), (0, 1), (1, 1))
    assert s.rotated(1).weights == ((0, 1), (1, 1), (1, 0))
    assert s.rotated(3).weights == s.weights
    assert s.rotated(-1).weights == ((1, 1), (1, 0), (0, 1))


# --- pair legality and the report


def test_pair_legality_matches_smith_route():
    rng = random.Random(1001)
    for _ in range(400):
        n = rng.choice([2, 3, 4])
        x = [rng.randint(-6, 6) for _ in range(n)]
        y = [rng.randint(-6, 6) for _ in range(n)]
        if all(v == 0 for v in x) or all(v == 0 for v in y):
            continue
        snf = smith_normal_form(IntMatrix.from_rows([x, y]))
        assert pair_is_legal(x, y) == (snf.invariant_factors == (1, 1))


def test_pair_legality_rejects_weights_of_different_lengths():
    # A ValueError, not an assert, so python -O cannot turn it into a verdict.
    with pytest.raises(ValueError, match="differ in length"):
        pair_is_legal((1, 0), (0, 1, 0))
    with pytest.raises(ValueError):
        pair_is_legal((1, 0, 0, 0), (0, 1, 0))


def test_pair_legality_rank2_is_determinant():
    rng = random.Random(1002)
    for _ in range(300):
        x = (rng.randint(-9, 9), rng.randint(-9, 9))
        y = (rng.randint(-9, 9), rng.randint(-9, 9))
        det = x[0] * y[1] - x[1] * y[0]
        assert pair_is_legal(x, y) == (abs(det) == 1)


def test_legality_report_frozen_examples():
    rep = is_legal(space(2, (1, 0), (0, 1), (1, 0), (2, 1)))
    assert rep.legal and not rep.failing_pairs
    assert rep.spans
    assert rep.simply_connected_certificate == (0, 1)

    rep = is_legal(space(2, (1, 0), (1, 0)))
    assert not rep.legal
    assert rep.failing_pairs == ((0, 1),)

    rep = is_legal(space(3, (1, 0, 0), (0, 1, 0), (1, 1, 2), (1, 1, 3)))
    assert rep.legal
    assert rep.spans
    assert rep.simply_connected_certificate is not None


def test_witness_and_spans_cases():
    # All weights on one line: nothing spans, so a circle factor splits off.
    rep = is_legal(space(2, (1, 0), (2, 0), (3, 0)))
    assert not rep.spans
    assert rep.simply_connected_certificate is None
    assert is_legal(space(2, (1, 0), (2, 0), (3, 0))).simply_connected_certificate is None

    # Independent pairs exist but none has determinant +-1.
    s = space(2, (1, 0), (1, 2), (1, 4))
    pairs = list(combinations(s.weights, 2))
    dets = [x[0] * y[1] - x[1] * y[0] for x, y in pairs]
    assert sorted(abs(d) for d in dets) == [2, 2, 4]
    rep = is_legal(s)
    assert rep.spans
    assert rep.simply_connected_certificate is None

    assert is_legal(space(2, (1, 0), (0, 1), (1, 0), (2, 1))).simply_connected_certificate == (0, 1)


def test_witness_not_necessary_at_rank3():
    # Trivial pi1 bound without any determinant +-1 triple: the certificate
    # is sufficient for simple connectedness but not necessary.
    s = space(3, (1, 0, 0), (0, 1, 0), (1, 0, 2), (0, 2, 3))
    rep = is_legal(s)
    assert rep.legal
    triples = combinations(range(4), 3)
    from torusorbits.lattice import determinant

    dets = [
        determinant(IntMatrix.from_rows([s.weights[i] for i in t])) for t in triples
    ]
    assert all(abs(d) > 1 for d in dets)
    assert rep.simply_connected_certificate is None
    assert pi1_bound(s).is_trivial


# --- pi1 bound


def test_pi1_bound_frozen_examples():
    assert pi1_bound(space(3, (1, 0, 0), (0, 1, 0), (1, 1, 2), (1, 1, 3))).is_trivial
    assert pi1_bound(space(2, (1, 0), (1, 2))) == AbelianGroup(0, (2,))
    assert pi1_bound(space(3, (1, 0, 0), (0, 1, 0), (0, 0, 1))).is_trivial
    assert pi1_bound(space(2, (1, 0), (2, 0), (3, 0))) == AbelianGroup(1, ())


def test_pi1_bound_invariant_under_symmetries():
    rng = random.Random(2020)
    s = space(3, (1, 0, 0), (0, 1, 0), (1, 0, 2), (1, 1, 4))
    base = pi1_bound(s)
    for _ in range(50):
        moved = random_symmetry_move(rng, s)
        assert pi1_bound(moved) == base


# --- canonical forms


def test_canonicalize_frozen_examples():
    s = space(2, (1, 0), (0, 1), (1, 0), (2, 1))
    canon, transform = canonicalize(s)
    assert canon.weights == ((1, 0), (0, 1), (1, 0), (2, 1))
    assert transform.is_unimodular()

    canon, _ = canonicalize(space(2, (0, 1), (1, 0), (0, 1), (1, 2)))
    assert canon.weights == ((1, 0), (0, 1), (1, 0), (2, 1))


def test_canonicalize_idempotent():
    rng = random.Random(33)
    for _ in range(60):
        s = random_legal_space(rng, rank=rng.choice([2, 3]))
        canon, _ = canonicalize(s)
        again, _ = canonicalize(canon)
        assert again.weights == canon.weights


def test_canonicalize_errors():
    with pytest.raises(IllegalOrbitSpaceError):
        canonicalize(space(2, (1, 0), (2, 1), (0, 1)))
    with pytest.raises(UnsupportedRankError):
        canonicalize(
            space(4, (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
        )


def test_canonical_form_constant_on_classes():
    rng = random.Random(77)
    for _ in range(40):
        s = random_legal_space(rng, rank=rng.choice([2, 3]))
        canon, _ = canonicalize(s)
        moved = random_symmetry_move(rng, s)
        canon2, _ = canonicalize(moved)
        assert canon.weights == canon2.weights


def test_canonicalize_transform_achieves_form():
    # The returned matrix sends some rotation/reversal of the input onto the
    # canonical weights after sign normalization.
    rng = random.Random(55)
    for _ in range(40):
        s = random_legal_space(rng, rank=rng.choice([2, 3]))
        canon, a = canonicalize(s)
        candidates = []
        for ordered in (s.weights, tuple(reversed(s.weights))):
            for r in range(len(ordered)):
                seq = ordered[r:] + ordered[:r]
                candidates.append(
                    tuple(normalize_weight(a.apply(w)) for w in seq)
                )
        assert canon.weights in candidates


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from([(2, 4), (3, 2)]),
    st.integers(2, 6),
    st.randoms(use_true_random=False),
)
def test_canonicalize_matches_reference(rank_box, n_weights, rng):
    # Weights and transform agree with the direct search over every start.
    rank, box = rank_box
    s = random_legal_cycle(rng, rank, max(n_weights, rank), box)
    for presentation in (s, random_symmetry_move(rng, s)):
        for oriented in (False, True):
            canon, transform = canonicalize(presentation, oriented=oriented)
            ref, ref_transform = reference_canonicalize(presentation, oriented=oriented)
            assert canon.weights == ref.weights
            assert transform.entries == ref_transform.entries


TIED_MOVE_CASES = [
    # Several residual moves of the winning start reach the least key, and
    # the first of them in _least's order is not the first in the order
    # s2, s3, u, v that fixes the transform.
    (((0, 1, 1), (1, -1, 1), (1, 0, 0)), False),
    (((0, 1, 1), (1, -1, 1), (1, 0, 0)), True),
    (((0, 1, -1), (1, 0, 0), (1, -1, -1)), False),
    (((0, 1, -1), (1, 0, 0), (1, -1, -1)), True),
    (((1, 1, 1), (1, 0, -1), (1, -1, -1), (0, 1, 0)), False),
    # Minimal moves with (s2, s3) = (+1, -1) and (-1, +1): s2 decides first.
    (((0, 0, 1), (1, 0, -1), (1, 1, 1), (1, 0, 1)), False),
    (((0, 0, 1), (1, 0, -1), (1, 1, 1), (1, 0, 1)), True),
]


@pytest.mark.parametrize("weights, oriented", TIED_MOVE_CASES)
def test_canonicalize_transform_on_tied_moves(weights, oriented):
    s = WeightedOrbitSpace(3, weights)
    canon, transform = canonicalize(s, oriented=oriented)
    ref, ref_transform = reference_canonicalize(s, oriented=oriented)
    assert canon.weights == ref.weights
    assert transform.entries == ref_transform.entries


def _sampled_legal_cycle(rng, rank, n_weights, box):
    """Legal cycle of primitive box weights, each drawn until it is legal
    next to the one before it and, for the last, next to the first."""

    def draw():
        while True:
            w = tuple(rng.randint(-box, box) for _ in range(rank))
            if gcd(*w) == 1:
                return w

    while True:
        cycle = [draw()]
        while len(cycle) < n_weights - 1:
            w = draw()
            if pair_is_legal(cycle[-1], w):
                cycle.append(w)
        # The first and last weights may have no common neighbour: retry.
        for _ in range(2_000):
            w = draw()
            if pair_is_legal(cycle[-1], w) and pair_is_legal(w, cycle[0]):
                return WeightedOrbitSpace(rank, (*cycle, w))


def _canon_digest_cases():
    rng = random.Random(1111)
    for rank in (2, 3):
        for i in range(375):
            s = _sampled_legal_cycle(rng, rank, 3 + i % 4, 1 + (i // 4) % 5)
            for presentation in (s, random_symmetry_move(rng, s)):
                for oriented in (False, True):
                    yield presentation, oriented
    for weights, oriented in TIED_MOVE_CASES:
        yield WeightedOrbitSpace(3, weights), oriented


# sha256 of canonicalize's (weights, transform) over _canon_digest_cases,
# recorded when the transform was still built by a Smith completion and a
# Hermite inverse; the closed-form frame must print the same bytes.
CANON_DIGEST = "a5e01998fbbd80073bc645ec36202ac7864a640dcde6fe6b86b2195126203bbc"


def test_canonicalize_bytes_are_pinned():
    digest = hashlib.sha256()
    count = 0
    for s, oriented in _canon_digest_cases():
        canon, transform = canonicalize(s, oriented=oriented)
        digest.update(repr((s.weights, oriented, canon.weights, transform.entries)).encode())
        count += 1
    assert count == 3007
    assert digest.hexdigest() == CANON_DIGEST


def _starts(s):
    for ordered in (s.weights, tuple(reversed(s.weights))):
        for r in range(len(ordered)):
            yield ordered[r:] + ordered[:r]


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from([(2, 4), (3, 1), (3, 2), (3, 3), (3, 5)]),
    st.integers(3, 5),
    st.randoms(use_true_random=False),
)
def test_start_key_matches_16_move_reference(rank_box, n_weights, rng):
    # The 8-candidate key with the third sign resolved in closed form equals
    # the minimum over every residual candidate of reference_canonicalize,
    # all three signs included, on every start.
    rank, box = rank_box
    s = random_legal_cycle(rng, rank, n_weights, box)
    for presentation in (s, random_symmetry_move(rng, s)):
        for seq in _starts(presentation):
            assert _start_key(seq, rank) == reference_start_key(seq, rank)


def _large_legal_cycle(rng, rank, n_weights):
    """A legal cycle with entries of a few hundred, around the packed-key
    limit of 500.  Rank 3 draws weights up to 499 by rejection.  At rank 2,
    where adjacent weights need determinant +-1, a unit-box cycle is moved by
    a unimodular matrix whose first column has entries up to 499."""
    if rank == 3:
        while True:
            cycle = [tuple(rng.randint(-499, 499) for _ in range(3)) for _ in range(n_weights)]
            if all(pair_is_legal(cycle[i - 1], cycle[i]) for i in range(n_weights)):
                return WeightedOrbitSpace(3, tuple(cycle))
    a = rng.randint(250, 499)
    c = rng.choice([k for k in range(-499, 500) if gcd(a, k) == 1])
    _, d, b = gcd_ext(a, c)
    small = random_legal_cycle(rng, 2, n_weights, 1)
    return WeightedOrbitSpace(2, tuple((a * x - b * y, c * x + d * y) for x, y in small.weights))


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([2, 3]),
    st.integers(3, 6),
    st.sampled_from([1, 2, 3, 4, 5, 499]),
    st.randoms(use_true_random=False),
)
def test_search_matches_reference_search(rank, n_weights, box, rng):
    # The same key and the same first minimal start as the per-start search,
    # so canonicalize rebuilds the same transform from it.
    if box == 499:
        s = _large_legal_cycle(rng, rank, n_weights)
    else:
        s = random_legal_cycle(rng, rank, n_weights, box)
    for presentation in (s, random_symmetry_move(rng, s)):
        for oriented in (False, True):
            assert _search(presentation, oriented)[:2] == reference_search(presentation, oriented)


def _det3(seq):
    (a, b, c), (d, e, f), (g, h, i) = seq[:3]
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


@pytest.mark.parametrize(
    "rank, weights, units, tied",
    [
        # No unit start: every consecutive triple has |det| >= 2.
        (3, ((1, 0, 0), (0, 1, 0), (1, 0, 2), (0, 2, 3)), 0, 2),
        # No pivot: every weight lies in one plane, so every det is 0.
        (3, ((1, 0, 0), (0, 1, 0), (1, 1, 0)), 0, 6),
        # Unit starts and starts with |det| 2 or 3; one start is minimal.
        (3, ((1, 0, 0), (0, 1, 0), (1, 1, 2), (1, 1, 3)), 4, 1),
        # No unit start, and the least key is at a start with |det| 3 while
        # two starts have |det| 2: only |det| == 1 decides the first block.
        (3, ((1, 1, 0), (1, 0, 2), (1, 1, 3), (2, -3, 3), (1, -1, 3), (2, 3, 3)), 0, 1),
        # Every start a unit start.
        (3, ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)), 8, 8),
        # Symmetric cycles: many starts reach the minimal key.
        (3, ((1, 0, 0), (0, 1, 0), (0, 0, 1)), 6, 6),
        (3, ((1, 0, 0), (0, 1, 0), (0, 0, 1)) * 2, 12, 12),
        (2, ((1, 0), (0, 1)) * 2, None, 8),
        (2, ((1, 0), (0, 1), (1, 1), (2, 1)), None, 4),
    ],
)
def test_search_forced_cases(rank, weights, units, tied):
    rng = random.Random(4242)
    s = WeightedOrbitSpace(rank, weights)
    for presentation in [s] + [random_symmetry_move(rng, s) for _ in range(6)]:
        keys = [_start_key(seq, rank) for seq in _starts(presentation)]
        if units is not None:
            assert sum(abs(_det3(seq)) == 1 for seq in _starts(presentation)) == units
        # Where starts tie, the search must keep the first of them.
        assert keys.count(min(keys)) == tied
        for oriented in (False, True):
            assert _search(presentation, oriented)[:2] == reference_search(presentation, oriented)


@settings(max_examples=150, deadline=None)
@given(st.integers(3, 6), st.sampled_from([1, 2, 3]), st.randoms(use_true_random=False))
def test_unit_starts_are_the_starts_keyed_from_0_0_1(n_weights, box, rng):
    # |det(x1, x2, x3)| == 1 exactly when a start's first block is (0, 0, 1),
    # the least block; so when some start is a unit start, the search that
    # frames unit starts only still finds the least key over every start.
    s = random_legal_cycle(rng, 3, n_weights, box)
    for presentation in (s, random_symmetry_move(rng, s)):
        keys = []
        for seq in _starts(presentation):
            keys.append(_start_key(seq, 3))
            if abs(_det3(seq)) == 1:
                assert keys[-1][:3] == (0, 0, 1)
            else:
                assert keys[-1][:3] > (0, 0, 1)
        assert _search(presentation, False)[0] == min(keys)


def _raised(function, *args, **kwargs):
    with pytest.raises(Exception) as info:
        function(*args, **kwargs)
    return type(info.value)


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from([(2, 4), (3, 2)]),
    st.integers(3, 5),
    st.randoms(use_true_random=False),
)
def test_canonical_form_matches_canonicalize(rank_box, n_weights, rng):
    rank, box = rank_box
    s = random_legal_cycle(rng, rank, n_weights, box)
    for presentation in (s, random_symmetry_move(rng, s)):
        for oriented in (False, True):
            form = canonical_form(presentation, oriented=oriented)
            assert form.weights == canonicalize(presentation, oriented=oriented)[0].weights
    # A repeated adjacent weight is illegal.  Padded with zeros and closed
    # by the missing unit vectors, s gives a legal rank-4 space.
    illegal = WeightedOrbitSpace(rank, (s.weights[0], *s.weights))
    padded = WeightedOrbitSpace(
        4,
        tuple(w + (0,) * (4 - rank) for w in s.weights)
        + tuple(tuple(int(i == j) for i in range(4)) for j in range(rank, 4)),
    )
    for bad in (illegal, padded):
        for oriented in (False, True):
            raised = _raised(canonical_form, bad, oriented=oriented)
            assert raised is _raised(canonicalize, bad, oriented=oriented)
            assert raised is (IllegalOrbitSpaceError if bad is illegal else UnsupportedRankError)


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from([(2, 4), (3, 2), (3, 3)]),
    st.integers(3, 6),
    st.randoms(use_true_random=False),
)
def test_decoded_forms_are_already_normalized(rank_box, n_weights, rng):
    # The decode skips __post_init__: its weights must be exactly what
    # normalizing them again gives.
    rank, box = rank_box
    s = random_symmetry_move(rng, random_legal_cycle(rng, rank, n_weights, box))
    for oriented in (False, True):
        for form in (canonical_form(s, oriented), canonicalize(s, oriented)[0]):
            assert form == WeightedOrbitSpace(s.rank, form.weights)


def test_rank3_canonicalize_runs_a_smith_form_only_on_a_tie(monkeypatch):
    # Only a tie reads z0, the row unimodular_complete adds: an untied input
    # runs no Smith form, completion or inverse, and a tied one runs one
    # completion, with its one Smith form and one inverse.  canonical_form
    # builds no transform, so it runs none of them.  Neither decode
    # re-normalizes its weights.
    untied = random_symmetry_move(
        random.Random(12), space(3, (1, 0, 0), (0, 1, 0), (1, 2, 1), (2, 1, 1))
    )
    tied = WeightedOrbitSpace(3, TIED_MOVE_CASES[0][0])
    smith = count_calls(monkeypatch, lattice, "smith_normal_form")
    complete = count_calls(monkeypatch, lattice, "unimodular_complete")
    inverse = count_calls(monkeypatch, lattice, "invert_unimodular")
    normalize = count_calls(monkeypatch, orbit_space, "normalize_weight")
    for s, completions in ((untied, 0), (tied, 1)):
        for run, runs in ((canonicalize, completions), (canonical_form, 0)):
            run(s)
            counts = (len(smith), len(complete), len(inverse), len(normalize))
            assert counts == (runs, runs, runs, 0)
            for calls in (smith, complete, inverse):
                calls.clear()


def test_unit_start_search_runs_no_frame_and_no_least(monkeypatch):
    # Where some start is a unit start, the search keys the unit starts in
    # closed form; only an input with none runs the general _least pass.
    with_unit = random_symmetry_move(
        random.Random(12), space(3, (1, 0, 0), (0, 1, 0), (1, 2, 1), (2, 1, 1))
    )
    without = WeightedOrbitSpace(3, ((1, 0, 0), (0, 1, 0), (1, 0, 2), (0, 2, 3)))
    assert any(abs(_det3(seq)) == 1 for seq in _starts(with_unit))
    assert not any(abs(_det3(seq)) == 1 for seq in _starts(without))
    frame = count_calls(monkeypatch, orbit_space, "_frame")
    least = count_calls(monkeypatch, orbit_space, "_least")
    for oriented in (False, True):
        canonical_form(with_unit, oriented)
    assert (len(frame), len(least)) == (0, 0)
    canonical_form(without)
    assert (len(frame), len(least)) == (4, 1)


def test_untied_canonicalize_runs_no_second_search(monkeypatch):
    # An untied input's transform is read off the winning start of the
    # search, so canonicalize runs no _frame or _least beyond what
    # canonical_form runs, with a unit start or without, and no completion.
    rng = random.Random(12)
    with_unit = random_symmetry_move(rng, space(3, (1, 0, 0), (0, 1, 0), (1, 2, 1), (2, 1, 1)))
    without = random_symmetry_move(rng, space(3, (1, 0, 0), (0, 1, 0), (1, 0, 2), (0, 2, 3)))
    assert not any(abs(_det3(seq)) == 1 for seq in _starts(without))
    frame = count_calls(monkeypatch, orbit_space, "_frame")
    least = count_calls(monkeypatch, orbit_space, "_least")
    complete = count_calls(monkeypatch, lattice, "unimodular_complete")
    for s, searched in ((with_unit, (0, 0)), (without, (4, 1))):
        for run in (canonical_form, canonicalize):
            run(s)
            assert (len(frame), len(least), len(complete)) == (*searched, 0)
            frame.clear()
            least.clear()


def _box_classes(n_weights):
    """One legal cycle of n_weights weights with entries in [-1, 1] per
    class under rotation, reversal and the 48 signed permutations of the
    coordinates, which keep the box: the class's least sequence of weight
    indices, the weights ordered by type.  A class's least sequence starts
    with the first weight of the least type among its weights, so only
    those sequences are built."""
    weights = sorted(
        {normalize_weight(w) for w in product((-1, 0, 1), repeat=3) if any(w)},
        key=lambda w: (sorted(map(abs, w)), w),
    )
    index = {w: i for i, w in enumerate(weights)}
    moves = np.array(
        [
            [index[normalize_weight([sign[i] * w[p[i]] for i in range(3)])] for w in weights]
            for p in permutations(range(3))
            for sign in product((1, -1), repeat=3)
        ]
    )
    legal = [[j for j, y in enumerate(weights) if pair_is_legal(x, y)] for x in weights]
    types = [sorted(map(abs, w)) for w in weights]
    firsts = [i for i in range(len(weights)) if types.index(types[i]) == i]
    cycles = [[i] for i in firsts]
    for _ in range(n_weights - 1):
        cycles = [c + [j] for c in cycles for j in legal[c[-1]] if j >= c[0]]
    cycles = np.array([c for c in cycles if c[0] in legal[c[-1]]])
    place = len(weights) ** np.arange(n_weights - 1, -1, -1)
    code = cycles @ place
    least = code
    for move in moves:
        for image in (move[cycles], move[cycles][:, ::-1]):
            for k in range(n_weights):
                least = np.minimum(least, np.roll(image, k, axis=1) @ place)
    return [tuple(weights[i] for i in c) for c in cycles[code == least].tolist()]


def test_search_and_canonicalize_match_references_on_every_box_class():
    # Every class of legal cycles of 3, 4 or 5 weights in [-1, 1]^3, in a
    # seeded presentation inside the box: a signed permutation of the
    # coordinates, a rotation and possibly a reversal.  On five weights
    # reference_canonicalize takes about 4 ms a call, so there it checks the
    # oriented search only, which keeps the test under 5 s.
    rng = random.Random(1717)
    counts = []
    for n_weights in (3, 4, 5):
        classes = _box_classes(n_weights)
        counts.append(len(classes))
        for weights in classes:
            p = rng.sample(range(3), 3)
            sign = [rng.choice((1, -1)) for _ in range(3)]
            moved = [tuple(sign[i] * w[p[i]] for i in range(3)) for w in weights]
            k = rng.randrange(n_weights)
            moved = moved[k:] + moved[:k]
            s = WeightedOrbitSpace(3, tuple(moved[:: rng.choice((1, -1))]))
            for oriented in (False, True):
                assert _search(s, oriented)[:2] == reference_search(s, oriented)
                if n_weights < 5 or oriented:
                    canon, transform = canonicalize(s, oriented)
                    ref, ref_transform = reference_canonicalize(s, oriented)
                    assert canon.weights == ref.weights
                    assert transform.entries == ref_transform.entries
    assert counts == [15, 124, 635]


def test_oriented_canonicalize_refines():
    s = space(2, (1, 0), (0, 1), (1, 0), (2, 1))
    canon_free, _ = canonicalize(s)
    canon_fixed, _ = canonicalize(s, oriented=True)
    rev_fixed, _ = canonicalize(reversed_space(s), oriented=True)
    # The unoriented form is the smaller of the two oriented forms.
    assert min(zigzag_key(canon_fixed.weights), zigzag_key(rev_fixed.weights)) == zigzag_key(
        canon_free.weights
    )


def test_legality_invariant_under_symmetries():
    rng = random.Random(3030)
    for _ in range(40):
        s = random_legal_space(rng, rank=rng.choice([2, 3]))
        assert is_legal(random_symmetry_move(rng, s)).legal
    illegal = space(2, (1, 0), (2, 1), (0, 1))
    for _ in range(20):
        assert not is_legal(random_symmetry_move(rng, illegal)).legal


# --- equivalence


def test_are_equivalent_frozen_examples():
    k2 = space(2, (1, 0), (0, 1), (1, 0), (2, 1))
    k2_neg = space(2, (1, 0), (0, 1), (1, 0), (-2, 1))
    k4 = space(2, (1, 0), (0, 1), (1, 0), (4, 1))
    assert are_equivalent(k2, k2_neg)
    assert not are_equivalent(k2, k4)
    assert are_equivalent(k2, k2.rotated(1))
    assert are_equivalent(k2, reversed_space(k2))


def test_are_equivalent_rank_mismatch():
    with pytest.raises(RankMismatchError):
        are_equivalent(
            space(2, (1, 0), (0, 1)), space(3, (1, 0, 0), (0, 1, 0), (0, 0, 1))
        )


def test_are_equivalent_is_equivalence_relation():
    rng = random.Random(909)
    spaces = [random_legal_space(rng, 2) for _ in range(12)]
    for s in spaces:
        assert are_equivalent(s, s)
    for s1 in spaces:
        for s2 in spaces:
            assert are_equivalent(s1, s2) == are_equivalent(s2, s1)
    for s1 in spaces:
        for s2 in spaces:
            for s3 in spaces:
                if are_equivalent(s1, s2) and are_equivalent(s2, s3):
                    assert are_equivalent(s1, s3)


def test_key_order():
    keys = sorted([3, -2, 2, -1, 1, 0], key=_zigzag)
    assert keys == [0, 1, -1, 2, -2, 3]
