"""Tests for torus actions on the product of two 3-spheres."""

import random
import re
import subprocess
import sys
from itertools import product
from types import SimpleNamespace
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import torusorbits
import torusorbits.biquotient as biquotient
import torusorbits.lattice as lattice
import torusorbits.orbit_space as orbit_space
from torusorbits.biquotient import (
    ARC_SUPPORTS,
    FULL_SUPPORT,
    VERTEX_SUPPORTS,
    WZ_TORUS,
    Z_CIRCLE,
    CircleActionParams,
    ExtensionStatus,
    T2ActionParams,
    circle_arc_isotropy_orders,
    circle_bundle_total_space,
    circle_quotient_orbifold_orders,
    classify_t2_quotient,
    extend_circle_to_t2,
    induced_orbit_space,
    induced_stabilizer,
    is_free_circle,
    is_free_t2,
    is_realizable_support,
    mixed_t2_family,
    project_slope_to_residual,
    realizable_supports,
    realize_dim4,
    realize_dim5,
    split_t2_family,
    subtorus_acts_freely,
    torus_weight_matrix,
    w2_class,
)
from torusorbits.classify import (
    CP2_MINUS_CP2,
    CP2_PLUS_CP2,
    S2XS2,
    S3TWISTS2,
    S3XS2,
    Dim5Params,
    circle_quotient_type,
    classify_dim5,
    connected_sum_dim4,
    dim5_orbit_space,
    in_canonical_position,
    not_simply_connected,
)
from torusorbits.errors import (
    DegenerateActionError,
    GcdConditionViolatedError,
    IllegalOrbitSpaceError,
    NotFreeError,
    NotFreeSubtorusError,
    NotRealizableError,
    SlopesNotCoprimeError,
    UnrealizableSupportError,
    UnsupportedRankError,
    UnsupportedWeightCountError,
    VerificationError,
)
from torusorbits.census import _rank3_classes, census_ndjson, primitive_weights, run_census
from torusorbits.lattice import (
    AbelianGroup,
    IntMatrix,
    cyclic_group,
    determinant,
    gcd_ext,
    hermite_normal_form,
    invert_unimodular,
    invert_unimodular_4x4,
    kernel_basis,
    quotient_group,
    smith_normal_form,
    unimodular_complete,
)
from torusorbits.orbit_space import (
    WeightedOrbitSpace,
    are_equivalent,
    normalize_weight,
    pair_is_legal,
)

from support import (
    count_calls,
    random_legal_space,
    random_unimodular_rows,
    reference_subtorus_acts_freely,
    reference_support_stabilizer,
    space,
)

E2_COMPLEMENT = ((1, 0, 0, 0), (0, 1, 0, 0))
E3_COMPLEMENT = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0))

DIM5_EXAMPLE = Dim5Params(3, 1, 2, 1, 0, 0, 1, -1)


def rotations(seq):
    n = len(seq)
    return [tuple(seq[(i + r) % n] for i in range(n)) for r in range(n)]


def dihedral_matches(observed, expected):
    """Cyclic sequences agree up to rotation and reflection."""
    observed = tuple(observed)
    return any(observed == cand for s in (tuple(expected), tuple(reversed(expected))) for cand in rotations(s))


def test_support_realizability():
    assert len(realizable_supports()) == 9
    assert is_realizable_support({0, 2})
    assert is_realizable_support({0, 1, 2, 3})
    assert not is_realizable_support({0, 1})
    assert not is_realizable_support({2, 3})
    assert not is_realizable_support({3})
    assert not is_realizable_support(set())
    # every realizable pattern keeps a coordinate on each sphere
    for sup in realizable_supports():
        assert sup & {0, 1} and sup & {2, 3}


def test_support_tables_cyclic_consistency():
    for i in range(4):
        union = VERTEX_SUPPORTS[i] | VERTEX_SUPPORTS[(i + 1) % 4]
        assert ARC_SUPPORTS[i] == union
        assert len(ARC_SUPPORTS[i]) == 3
    assert ARC_SUPPORTS == (
        frozenset({0, 2, 3}),
        frozenset({0, 1, 3}),
        frozenset({1, 2, 3}),
        frozenset({0, 1, 2}),
    )
    assert FULL_SUPPORT == frozenset({0, 1, 2, 3})


def test_family_parameter_values():
    assert split_t2_family(2, 1) == T2ActionParams(a=1, b=1, c=0, d=0, n=2, k=3, m=1, l=1)
    assert split_t2_family(0, 0) == T2ActionParams(a=1, b=1, c=0, d=0, n=0, k=0, m=1, l=1)
    assert mixed_t2_family() == T2ActionParams(a=1, b=0, c=-1, d=1, n=0, k=1, m=1, l=1)
    assert is_free_t2(split_t2_family(-3, 1)).free
    assert is_free_t2(mixed_t2_family()).free


def test_free_circle_examples():
    assert is_free_circle(CircleActionParams(1, 1, 1, 1))
    assert is_free_circle(CircleActionParams(-1, 3, 16, 5))
    assert not is_free_circle(CircleActionParams(2, 3, 4, 5))
    assert is_free_circle(CircleActionParams(0, 0, 1, 1))
    assert not is_free_circle(CircleActionParams(0, 0, 2, 1))


def test_free_circle_matches_support_gcds():
    # Stabilizer at a support is cyclic of order gcd of the exponents there;
    # freeness is triviality over every realizable support.
    rng = random.Random(11)
    exps = [(rng.randint(-6, 6), rng.randint(-6, 6), rng.randint(-6, 6), rng.randint(-6, 6)) for _ in range(300)]
    for a, b, c, d in exps:
        if a == b == c == d == 0:
            continue
        p = CircleActionParams(a, b, c, d)
        brute = all(gcd(*[(a, b, c, d)[i] for i in sorted(sup)]) == 1 for sup in realizable_supports())
        assert is_free_circle(p) == brute


def test_degenerate_circle_raises():
    with pytest.raises(DegenerateActionError):
        is_free_circle(CircleActionParams(0, 0, 0, 0))


def test_w2_class_examples():
    assert w2_class(CircleActionParams(1, 1, 1, 1)) == S3XS2
    assert w2_class(CircleActionParams(-1, 3, 16, 5)) == S3TWISTS2
    assert w2_class(CircleActionParams(1, -1, 1, 0)) == S3TWISTS2
    assert w2_class(CircleActionParams(0, 0, 1, 1)) == S3XS2
    with pytest.raises(NotFreeError):
        w2_class(CircleActionParams(2, 3, 4, 5))


def test_w2_class_parity_property():
    rng = random.Random(23)
    seen = {S3XS2: 0, S3TWISTS2: 0}
    for _ in range(400):
        p = CircleActionParams(*(rng.randint(-9, 9) for _ in range(4)))
        if p == CircleActionParams(0, 0, 0, 0) or not is_free_circle(p):
            continue
        t = w2_class(p)
        assert t == (S3TWISTS2 if (p.a + p.b + p.c + p.d) % 2 else S3XS2)
        seen[t] += 1
    assert seen[S3XS2] > 10 and seen[S3TWISTS2] > 10


def test_parity_cross_check_raises_on_a_circle_that_is_not_free():
    # Odd sum, but three even exponents: the two parity readings disagree.
    with pytest.raises(VerificationError):
        circle_quotient_type(2, 2, 2, 1)


def test_t2_freeness_examples():
    for r, lam in product(range(-4, 5), (0, 1)):
        assert is_free_t2(split_t2_family(r, lam)).eps == (1, 1, 1)
    assert is_free_t2(mixed_t2_family()).eps == (1, 1, -1)
    verdict = is_free_t2(T2ActionParams(1, 1, 0, 3, 0, 1, 1, 1))
    assert not verdict.free
    assert verdict.failing == "b*l - d*k = -2"
    assert not is_free_t2(T2ActionParams(1, 0, 0, 1, 0, 0, 2, 0)).free


def test_weight_matrix_determinant():
    rng = random.Random(37)
    units = 0
    for _ in range(600):
        vals = [rng.randint(-5, 5) for _ in range(8)]
        p = T2ActionParams(*vals)
        expected = p.a * p.m + p.c * p.n
        if expected in (1, -1):
            units += 1
            assert determinant(torus_weight_matrix(p)) == expected
        else:
            with pytest.raises(ValueError):
                torus_weight_matrix(p)
    assert units > 20


def test_subtorus_freeness():
    w_split = torus_weight_matrix(split_t2_family(1, 1))
    assert subtorus_acts_freely(w_split, WZ_TORUS)
    assert subtorus_acts_freely(torus_weight_matrix(mixed_t2_family()), WZ_TORUS)
    assert subtorus_acts_freely(torus_weight_matrix(DIM5_EXAMPLE), Z_CIRCLE)
    # A coordinate circle acting on a single coordinate fixes points.
    assert not subtorus_acts_freely(IntMatrix.identity(4), ((1, 0, 0, 0),))
    # A non-free torus: w-circle with a common factor on one coordinate pair.
    bad = T2ActionParams(1, 1, 0, 3, 0, 1, 1, 1)
    assert not subtorus_acts_freely(torus_weight_matrix(bad), WZ_TORUS)


def test_stabilizer_arc_slopes_split():
    for r, lam in product(range(-3, 4), (0, 1)):
        w = torus_weight_matrix(split_t2_family(r, lam))
        stab = induced_stabilizer(w, WZ_TORUS, {0, 1, 3}, E2_COMPLEMENT)
        assert stab.group == AbelianGroup(1, ())
        assert normalize_weight(stab.slopes[0]) == normalize_weight((2 * r + lam, 1))


def test_stabilizer_dim5_arc_closed_form():
    w = torus_weight_matrix(DIM5_EXAMPLE)
    p = DIM5_EXAMPLE
    stab = induced_stabilizer(w, Z_CIRCLE, {1, 2, 3}, E3_COMPLEMENT)
    assert stab.group == AbelianGroup(1, ())
    expected = (p.b * p.m - p.c * p.k, p.d * p.m - p.c * p.l, p.c)
    assert normalize_weight(stab.slopes[0]) == normalize_weight(expected)
    assert normalize_weight(expected) == (1, 1, 2)


def test_stabilizer_vertex_full_residual():
    w = torus_weight_matrix(split_t2_family(2, 0))
    stab = induced_stabilizer(w, WZ_TORUS, {0, 2}, E2_COMPLEMENT)
    assert stab.group == AbelianGroup(2, ())
    assert stab.slopes == ((1, 0), (0, 1))


def test_stabilizer_full_support_trivial():
    w = torus_weight_matrix(split_t2_family(-1, 1))
    stab = induced_stabilizer(w, WZ_TORUS, FULL_SUPPORT, E2_COMPLEMENT)
    assert stab.group.is_trivial
    assert stab.slopes == ()


def test_stabilizer_errors():
    w = torus_weight_matrix(split_t2_family(1, 0))
    with pytest.raises(UnrealizableSupportError):
        induced_stabilizer(w, WZ_TORUS, {0, 1})
    with pytest.raises(NotFreeSubtorusError):
        induced_stabilizer(IntMatrix.identity(4), ((1, 0, 0, 0),), FULL_SUPPORT)
    with pytest.raises(ValueError):
        induced_stabilizer(IntMatrix.identity(3), WZ_TORUS, FULL_SUPPORT)
    with pytest.raises(ValueError):
        induced_stabilizer(w, WZ_TORUS, FULL_SUPPORT, ((1, 0, 0, 0), (1, 0, 0, 0)))


def test_character_matrix_must_be_unimodular():
    # The closed-form inverse decides unimodularity before anything else is
    # checked, also for a subtorus that does not act freely.
    doubled = IntMatrix([[2, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    singular = IntMatrix([[1, 0, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    for w in (doubled, singular, IntMatrix.identity(3)):
        for h_rows in (Z_CIRCLE, ((1, 0, 0, 0),)):
            with pytest.raises(ValueError):
                induced_orbit_space(w, h_rows)
            with pytest.raises(ValueError):
                induced_stabilizer(w, h_rows, FULL_SUPPORT)


def test_vertex_rank_check_raises(monkeypatch):
    # The vertex ranks are read off the pulled-back rows without a Hermite
    # form; the check still fires when two off-support rows are parallel.
    pullback = biquotient._pullback_coordinates

    def parallel(*args):
        coords = pullback(*args)
        return coords[:3] + (coords[1],)

    monkeypatch.setattr(biquotient, "_pullback_coordinates", parallel)
    with pytest.raises(VerificationError, match="vertex"):
        induced_orbit_space(torus_weight_matrix(DIM5_EXAMPLE), Z_CIRCLE, E3_COMPLEMENT)


def assert_stabilizers_match_reference(w, h_rows, complement=None):
    """The closed-form stabilizers and freeness verdict equal the generic ones."""
    assert subtorus_acts_freely(w, h_rows) == reference_subtorus_acts_freely(w, h_rows)
    _, b_columns = biquotient._residual_basis(h_rows, complement)
    coords = biquotient._pullback_coordinates(invert_unimodular(w), b_columns)
    m = 4 - len(h_rows)
    for sup in realizable_supports():
        assert biquotient._support_stabilizer(coords, m, sup) == reference_support_stabilizer(
            coords, m, sup
        )


def test_stabilizers_match_reference_on_census_params():
    classes = _rank3_classes(2)
    assert len(classes) == 945
    for canon in classes:
        params = realize_dim5(WeightedOrbitSpace(3, canon))
        assert_stabilizers_match_reference(torus_weight_matrix(params), Z_CIRCLE, E3_COMPLEMENT)


def test_stabilizers_match_reference_on_t2_families_and_three_rows():
    families = [split_t2_family(r, lam) for r, lam in product(range(-4, 5), (0, 1))]
    for p in families + [mixed_t2_family()]:
        w = torus_weight_matrix(p)
        assert_stabilizers_match_reference(w, WZ_TORUS, E2_COMPLEMENT)
        assert_stabilizers_match_reference(w, WZ_TORUS)
    # A three-row subtorus leaves a circle (m = 1); it never acts freely.
    three = ((1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 1, 0))
    for w in (IntMatrix.identity(4), torus_weight_matrix(DIM5_EXAMPLE)):
        assert not subtorus_acts_freely(w, three)
        assert_stabilizers_match_reference(w, three)


# Exponents (a, b, c, d) in [-3, 3] of a free circle: the Dim5Params gcds.
FREE_EXPONENTS = [
    e
    for e in product(range(-3, 4), repeat=4)
    if gcd(e[0], e[2]) == gcd(e[0], e[3]) == gcd(e[1], e[2]) == gcd(e[1], e[3]) == 1
]


T2_FREE_PARAMS = [mixed_t2_family()] + [
    split_t2_family(r, lam) for r, lam in product(range(-3, 4), (0, 1))
]


@st.composite
def subtorus_cases(draw):
    """A character matrix and 1-3 subtorus rows, free and not free.

    A free pair, a Dim5Params matrix with the z-circle or a free 2-torus
    family with the (w, z) torus, is moved by a random unimodular M: the
    exponents w_i . e do not change when w becomes w M and e becomes
    M^-1 e, so the moved pair is still free.  The rows are then kept, or
    replaced by random rows or by rows of a random unimodular matrix.
    """
    rng = draw(st.randoms(use_true_random=False))
    if draw(st.booleans()):
        a, b, c, d = draw(st.sampled_from(FREE_EXPONENTS))
        k, l, t = draw(st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(-1, 1)))
        _, m, n = gcd_ext(a, c)
        params = Dim5Params(a, b, c, d, k, l, m + t * c, n - t * a)
        w, free_rows = torus_weight_matrix(params), Z_CIRCLE
    else:
        w, free_rows = torus_weight_matrix(draw(st.sampled_from(T2_FREE_PARAMS))), WZ_TORUS
    move = IntMatrix(random_unimodular_rows(rng, 4))
    w = w @ move
    kind = draw(st.sampled_from(("free", "random", "summand")))
    count = draw(st.integers(1, 3))
    if kind == "free":
        h_rows = [invert_unimodular(move).apply(e) for e in free_rows]
    elif kind == "random":
        row = st.tuples(*[st.integers(-2, 2)] * 4)
        h_rows = draw(st.lists(row, min_size=count, max_size=count))
    else:
        h_rows = random_unimodular_rows(rng, 4)[:count]
    return kind, w, tuple(tuple(row) for row in h_rows)


@settings(max_examples=300, deadline=None)
@given(subtorus_cases())
def test_stabilizers_match_reference_property(case):
    kind, w, h_rows = case
    free = subtorus_acts_freely(w, h_rows)
    assert free == reference_subtorus_acts_freely(w, h_rows)
    assert free or kind != "free"
    # Stabilizers live in a residual torus only when the rows span a direct
    # summand, i.e. complete to a basis.
    if smith_normal_form(IntMatrix(h_rows)).invariant_factors == (1,) * len(h_rows):
        assert_stabilizers_match_reference(w, h_rows)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 4).flatmap(
        lambda m: st.tuples(
            st.just(m),
            st.lists(st.tuples(*[st.integers(-6, 6)] * m), min_size=4, max_size=4),
        )
    )
)
def test_support_stabilizer_matches_reference_on_any_coordinates(m_and_coords):
    # Every branch of the closed form, including the degenerate off-support
    # blocks that only non-free subtori produce.
    m, coords = m_and_coords
    coords = tuple(coords)
    for sup in realizable_supports():
        assert biquotient._support_stabilizer(coords, m, sup) == reference_support_stabilizer(
            coords, m, sup
        )


def test_induced_diagram_split_exact():
    for r, lam in product(range(-3, 4), (0, 1)):
        w = torus_weight_matrix(split_t2_family(r, lam))
        diagram = induced_orbit_space(w, WZ_TORUS, E2_COMPLEMENT)
        expected = [(1, 0), normalize_weight((2 * r + lam, 1)), (1, 0), (0, 1)]
        assert list(diagram.orbit_space.weights) == expected
        assert diagram.orbit_space.rank == 2
        # matches the closed-form disk up to starting corner and reflection
        closed_form = [(1, 0), (0, 1), (1, 0), normalize_weight((2 * r + lam, 1))]
        assert dihedral_matches(list(diagram.orbit_space.weights), closed_form)


def test_induced_diagram_mixed_exact():
    diagram = induced_orbit_space(torus_weight_matrix(mixed_t2_family()), WZ_TORUS, E2_COMPLEMENT)
    assert list(diagram.orbit_space.weights) == [(1, 0), (1, 1), (1, 2), (0, 1)]
    assert are_equivalent(diagram.orbit_space, space(2, (1, 0), (0, 1), (1, 1), (2, 1)))


def test_induced_diagram_dim5_exact():
    p = DIM5_EXAMPLE
    diagram = induced_orbit_space(torus_weight_matrix(p), Z_CIRCLE, E3_COMPLEMENT)
    assert list(diagram.orbit_space.weights) == [(1, 0, 0), (1, 1, 3), (1, 1, 2), (0, 1, 0)]
    assert diagram.orbit_space.rank == 3
    closed_form = dim5_orbit_space(p)
    assert are_equivalent(diagram.orbit_space, closed_form)
    assert dihedral_matches(list(diagram.orbit_space.weights), closed_form.weights)


def test_induced_diagram_default_complement_equivalent():
    w = torus_weight_matrix(split_t2_family(2, 1))
    explicit = induced_orbit_space(w, WZ_TORUS, E2_COMPLEMENT)
    default = induced_orbit_space(w, WZ_TORUS)
    assert are_equivalent(default.orbit_space, explicit.orbit_space)


def test_arc_weights_sit_on_their_supports():
    # The orbit space is the whole diagram: weight i is the slope of the
    # circle that induced_stabilizer finds on ARC_SUPPORTS[i], and every
    # vertex support has a 2-torus, by the independent Hermite route.
    rng = random.Random(71)
    dim5 = []
    while len(dim5) < 40:
        try:
            dim5.append(Dim5Params(*(rng.randint(-5, 5) for _ in range(8))))
        except ValueError:
            continue
    cases = [(split_t2_family(r, lam), WZ_TORUS, E2_COMPLEMENT)
             for r, lam in product(range(-3, 4), (0, 1))]
    cases.append((mixed_t2_family(), WZ_TORUS, E2_COMPLEMENT))
    cases += [(p, Z_CIRCLE, E3_COMPLEMENT) for p in dim5]
    for params, h_rows, c_rows in cases:
        w = torus_weight_matrix(params)
        diagram = induced_orbit_space(w, h_rows, c_rows)
        assert diagram.complement == c_rows
        for sup, weight in zip(ARC_SUPPORTS, diagram.orbit_space.weights, strict=True):
            stab = induced_stabilizer(w, h_rows, sup, c_rows)
            assert normalize_weight(stab.slopes[0]) == weight, (params, sorted(sup))
        for sup in VERTEX_SUPPORTS:
            assert induced_stabilizer(w, h_rows, sup, c_rows).group == AbelianGroup(2, ())


def test_classify_t2_quotient_trio():
    assert classify_t2_quotient(split_t2_family(0, 0)) == S2XS2
    assert classify_t2_quotient(split_t2_family(1, 1)) == CP2_MINUS_CP2
    assert classify_t2_quotient(mixed_t2_family()) == CP2_PLUS_CP2
    for r in range(-3, 4):
        assert classify_t2_quotient(split_t2_family(r, 0)) == S2XS2
        assert classify_t2_quotient(split_t2_family(r, 1)) == CP2_MINUS_CP2
    with pytest.raises(NotFreeError):
        classify_t2_quotient(T2ActionParams(1, 1, 0, 3, 0, 1, 1, 1))


def test_realize_dim4_examples():
    assert realize_dim4(space(2, (1, 0), (0, 1), (1, 0), (4, 1))) == split_t2_family(2, 0)
    assert realize_dim4(space(2, (1, 0), (0, 1), (1, 0), (3, 1))) == split_t2_family(1, 1)
    assert realize_dim4(space(2, (1, 0), (0, 1), (1, 1), (2, 1))) == mixed_t2_family()
    assert realize_dim4(space(2, (0, 1), (1, 0), (0, 1), (1, 2))) == split_t2_family(1, 0)


def test_realize_dim4_errors():
    with pytest.raises(UnsupportedRankError):
        realize_dim4(space(3, (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)))
    with pytest.raises(NotRealizableError):
        realize_dim4(space(2, (1, 0), (0, 1), (1, 1)))  # CP2 is not such a quotient


def test_realize_dim4_round_trip_random():
    rng = random.Random(51)
    for _ in range(40):
        target = random_legal_space(rng, 2)
        params = realize_dim4(target)  # round trip asserted internally
        assert is_free_t2(params).free


def test_realize_dim5_examples():
    target = space(3, (1, 0, 0), (0, 1, 0), (1, 1, 2), (1, 1, 3))
    assert realize_dim5(target) == DIM5_EXAMPLE
    other = space(3, (1, 0, 0), (0, 1, 0), (1, 1, 1), (0, 0, 1))
    assert realize_dim5(other) == Dim5Params(1, 1, 1, 1, 0, 0, 1, 0)


def test_realize_dim5_round_trip_random():
    rng = random.Random(67)
    realized = 0
    for _ in range(40):
        target = random_legal_space(rng, 3)
        try:
            params = realize_dim5(target)
        except GcdConditionViolatedError:
            continue  # not simply connected
        realized += 1
        assert are_equivalent(dim5_orbit_space(params), target)
    assert realized > 10


# Illegal rank-3 inputs: (0,0,1) twice in a row fails adjacency.
ILLEGAL_POSITIONED = space(3, (1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 1))
ILLEGAL_MOVED = space(3, (0, 1, 0), (0, 0, 1), (0, 0, 1), (1, 0, 0))
ILLEGAL_FIVE = space(3, (1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 1), (1, 1, 1))


def test_rank3_error_order_is_shared_by_realize_and_classify():
    # Rank and weight count first, then legality by the first step that
    # needs it: canonical_form for a moved input, extract_dim5_params for a
    # positioned one.
    for solver in (realize_dim5, classify_dim5):
        for target in (ILLEGAL_POSITIONED, ILLEGAL_MOVED):
            with pytest.raises(IllegalOrbitSpaceError, match="failing adjacent pairs"):
                solver(target)
        with pytest.raises(UnsupportedWeightCountError):
            solver(ILLEGAL_FIVE)


def test_dim5_solvers_check_adjacency_once(monkeypatch):
    # extract_dim5_params reads legality off its parameters, so it runs one
    # adjacency pass exactly when the reading fails, and canonical_form's
    # search runs none on a legal input, whose cross products prove it.  A
    # simply connected input, positioned or moved, gets no pass; one with
    # gcd(r, z) != 1 gets one, in the reader, before its gcd error.
    # classify_dim5 reads a nontrivial pi1 off that error instead of checking
    # legality again in pi1_dim5_exact.  An illegal input is refused by one
    # pass: the reader's when positioned, the search's when moved.
    calls = []
    failing_pairs = orbit_space._failing_pairs
    monkeypatch.setattr(
        orbit_space, "_failing_pairs", lambda s: calls.append(s) or failing_pairs(s)
    )
    # pi1 is Z/gcd(2, 4) = Z/2: classify_dim5 reports it, realize_dim5 refuses.
    cyclic = space(3, (1, 0, 0), (0, 1, 0), (1, 0, 2), (1, 1, 4))
    for positioned, passes in ((dim5_orbit_space(DIM5_EXAMPLE), 0), (cyclic, 1)):
        moved = space(3, *positioned.weights[1:], positioned.weights[0])
        assert in_canonical_position(positioned) and not in_canonical_position(moved)
        for target in (positioned, moved):
            calls.clear()
            manifold_type = classify_dim5(target)
            assert len(calls) == passes
            calls.clear()
            if positioned is cyclic:
                assert manifold_type == not_simply_connected(cyclic_group(2))
                with pytest.raises(GcdConditionViolatedError):
                    realize_dim5(target)
            else:
                realize_dim5(target)
            assert len(calls) == passes
    assert not in_canonical_position(ILLEGAL_MOVED)
    illegal = (ILLEGAL_POSITIONED, ILLEGAL_MOVED)
    for solver, target in product((classify_dim5, realize_dim5), illegal):
        calls.clear()
        with pytest.raises(IllegalOrbitSpaceError, match="failing adjacent pairs"):
            solver(target)
        assert len(calls) == 1


def test_canonical_position_realize_induces_once(monkeypatch):
    # The realization check reads its supports from module constants; a
    # canonical-position target still gets exactly one induced diagram.
    calls = count_calls(monkeypatch, biquotient, "induced_orbit_space")
    target = dim5_orbit_space(DIM5_EXAMPLE)
    assert in_canonical_position(target)
    realize_dim5(target)
    assert len(calls) == 1


def test_realize_round_trip_mismatch_raises(monkeypatch):
    # The certificate must be a real check: it has to fire when the induced
    # orbit space disagrees with the target, also under python -O.
    wrong = {
        2: space(2, (1, 0), (0, 1), (1, 1), (2, 1)),
        3: space(3, (1, 0, 0), (0, 1, 0), (1, 1, 1), (0, 0, 1)),
    }
    monkeypatch.setattr(
        biquotient,
        "induced_orbit_space",
        lambda w, h_rows, complement=None: SimpleNamespace(orbit_space=wrong[4 - len(h_rows)]),
    )
    with pytest.raises(VerificationError):
        realize_dim4(space(2, (1, 0), (0, 1), (1, 0), (4, 1)))
    with pytest.raises(VerificationError):
        realize_dim5(space(3, (1, 0, 0), (0, 1, 0), (1, 1, 2), (1, 1, 3)))


def test_extension_examples():
    out = extend_circle_to_t2(CircleActionParams(2, 1, 1, 3))
    assert out.status is ExtensionStatus.EXTENDED
    assert out.witness == T2ActionParams(a=2, b=1, c=1, d=3, n=1, k=-1, m=0, l=-2)

    out = extend_circle_to_t2(CircleActionParams(1, 1, 1, 1))
    assert out.status is ExtensionStatus.EXTENDED
    assert (out.witness.a, out.witness.b, out.witness.c, out.witness.d) == (1, 1, 1, 1)
    assert is_free_t2(out.witness).free

    out = extend_circle_to_t2(CircleActionParams(1, 1, 0, 0))
    assert out.status is ExtensionStatus.EXTENDED
    assert out.witness == split_t2_family(0, 0)

    out = extend_circle_to_t2(CircleActionParams(-1, 3, 16, 5))
    assert out.status is ExtensionStatus.NECESSARY_CONDITION_FAILS
    assert out.witness is None

    with pytest.raises(NotFreeError):
        extend_circle_to_t2(CircleActionParams(2, 3, 4, 5))


def test_extension_witness_failure_raises(monkeypatch):
    # The EXTENDED certificate must be a real check, also under python -O.
    monkeypatch.setattr(
        biquotient,
        "is_free_t2",
        lambda p: biquotient.T2Freeness(free=False, eps=None, failing="forced"),
    )
    with pytest.raises(VerificationError):
        extend_circle_to_t2(CircleActionParams(1, 1, 1, 1))


def test_extension_obstructed_family():
    for j in range(7):
        p = CircleActionParams(-1, 3, 15 * j + 1, 5)
        assert is_free_circle(p)
        a, b, c, d = p.a, p.b, p.c, p.d
        values = [
            b * d + s1 * a * c + s2 * a * d + s3 * b * c
            for s1, s2, s3 in product((1, -1), repeat=3)
        ]
        assert all(v != 0 for v in values)
        out = extend_circle_to_t2(p)
        assert out.status is ExtensionStatus.NECESSARY_CONDITION_FAILS


def brute_extension_in_box(a, b, c, d, radius=25):
    """A solution (m, n, k, l) in [-radius, radius]^4 of the extension
    equations a*m + c*n = 1 and |a*l + d*n| = |b*m - c*k| = |b*l - d*k| = 1,
    by search, or None."""
    box = range(-radius, radius + 1)
    for m, n in product(box, repeat=2):
        if a * m + c * n != 1:
            continue
        for k in box:
            if abs(b * m - c * k) != 1:
                continue
            for l in box:
                if abs(a * l + d * n) == 1 and abs(b * l - d * k) == 1:
                    return (m, n, k, l)
    return None


def test_no_solution_is_a_proved_negative():
    # Every free circle in [-5, 5]^4 whose sign equations the solver finds
    # unsolvable passes the necessary condition, yet no (m, n, k, l) in
    # [-25, 25]^4 solves them.
    proved = []
    for a, b, c, d in product(range(-5, 6), repeat=4):
        p = CircleActionParams(a, b, c, d)
        if (a, b, c, d) == (0, 0, 0, 0) or not is_free_circle(p):
            continue
        out = extend_circle_to_t2(p)
        if out.status is ExtensionStatus.NO_SOLUTION:
            assert out.witness is None
            proved.append((a, b, c, d))
    assert (5, 5, 2, 1) in proved and (2, 1, 5, 5) in proved
    assert [p for p in proved if brute_extension_in_box(*p) is not None] == []
    # The search finds the solutions that exist, as for an extended circle.
    assert brute_extension_in_box(2, 1, 1, 3) is not None


def brute_extension_exists(a, b, c, d, window=6):
    """Bounded search over the Bezout line and small shears."""
    g, m0, n0 = gcd_ext(a, c)
    assert g == 1
    for x in range(-window, window + 1):
        m, n = m0 - c * x, n0 + a * x
        for k in range(-window, window + 1):
            if abs(b * m - c * k) != 1:
                continue
            for l in range(-window, window + 1):
                if abs(a * l + d * n) == 1 and abs(b * l - d * k) == 1:
                    return True
    return False


def test_extension_exhaustive_small():
    # Exact decision agrees with a bounded witness search on small exponents.
    for a, b, c, d in product(range(-2, 3), repeat=4):
        if a == b == c == d == 0:
            continue
        p = CircleActionParams(a, b, c, d)
        if not is_free_circle(p):
            continue
        out = extend_circle_to_t2(p)
        extended = out.status is ExtensionStatus.EXTENDED
        assert extended == brute_extension_exists(a, b, c, d)
        if extended:
            w = out.witness
            assert (w.a, w.b, w.c, w.d) == (a, b, c, d)
            assert is_free_t2(w).free


def coprime_slopes(bound):
    return [(p, q) for p in range(-bound, bound + 1) for q in range(-bound, bound + 1) if gcd(p, q) == 1]


def test_bundle_parities():
    slopes = coprime_slopes(4)
    for r in (-2, 0, 1, 3):
        for p, q in slopes:
            assert circle_bundle_total_space(split_t2_family(r, 0), p, q) == S3XS2
        for p, q in slopes:
            expected = S3TWISTS2 if p % 2 else S3XS2
            assert circle_bundle_total_space(split_t2_family(r, 1), p, q) == expected
    for p, q in slopes:
        expected = S3TWISTS2 if (p + q) % 2 else S3XS2
        assert circle_bundle_total_space(mixed_t2_family(), p, q) == expected


def test_bundle_errors():
    with pytest.raises(SlopesNotCoprimeError):
        circle_bundle_total_space(split_t2_family(1, 0), 2, 4)
    with pytest.raises(NotFreeError):
        circle_bundle_total_space(T2ActionParams(1, 1, 0, 3, 0, 1, 1, 1), 1, 0)


# Input guards of public functions: each raises ValueError, also under
# python -O, which strips assert statements.
INPUT_GUARD_IMPORTS = (
    "from torusorbits.lattice import AbelianGroup\n"
    "from torusorbits.classify import Dim5Params, connected_sum_dim4, not_simply_connected\n"
    "from torusorbits.biquotient import (\n"
    "    WZ_TORUS, Z_CIRCLE, circle_arc_isotropy_orders, induced_orbit_space,\n"
    "    project_slope_to_residual, split_t2_family, torus_weight_matrix,\n"
    ")\n"
)
INPUT_GUARDS = (
    "AbelianGroup(-1)",
    "AbelianGroup(0, (1,))",
    "AbelianGroup(0, (4, 6))",
    "connected_sum_dim4(2)",
    "not_simply_connected(AbelianGroup(0))",
    # The slope is the sum of the two quotiented circles.
    "project_slope_to_residual(WZ_TORUS, ((1, 0, 0, 0), (0, 1, 0, 0)), (0, 0, 1, 1))",
    # A rank-3 residual torus.
    "circle_arc_isotropy_orders(induced_orbit_space("
    "torus_weight_matrix(Dim5Params(3, 1, 2, 1, 0, 0, 1, -1)), Z_CIRCLE), (1, 0))",
    # Slopes of a rank-2 residual torus that do not have 2 entries.
    "circle_arc_isotropy_orders(induced_orbit_space("
    "torus_weight_matrix(split_t2_family(1, 0)), WZ_TORUS), (1, 0, 0))",
    "circle_arc_isotropy_orders(induced_orbit_space("
    "torus_weight_matrix(split_t2_family(1, 0)), WZ_TORUS), (1,))",
)


@pytest.mark.parametrize("call", INPUT_GUARDS)
def test_input_guards_raise_value_error(call):
    namespace = {}
    exec(INPUT_GUARD_IMPORTS, namespace)
    with pytest.raises(ValueError):
        eval(call, namespace)


def test_input_guards_hold_under_optimized_python():
    script = (
        INPUT_GUARD_IMPORTS
        + f"for call in {INPUT_GUARDS!r}:\n"
        "    try:\n"
        "        eval(call)\n"
        "    except ValueError:\n"
        "        continue\n"
        "    raise SystemExit(call)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


W_SPLIT = torus_weight_matrix(split_t2_family(1, 0))


def _character_matrix(x):
    """A unimodular character matrix, free on WZ_TORUS for x = 1, whose
    entries IntMatrix(...) reads on construction."""
    return IntMatrix(((0, 0, -1, x), (1, 0, 1, 1), (0, 0, 1, 0), (0, 1, 1, 0)))


def _unit_4x4(x):
    return IntMatrix(((x, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)))


def _plus_2(x):
    """x + 2 for an integer x, anything else as it is: connected_sum_dim4
    needs a count of at least 3, and the refusal must name the entry."""
    return x + 2 if hasattr(type(x), "__index__") else x


# Each entry point that reads integer entries, with x at one entry; x = 1
# makes a valid call.
INTEGER_ENTRY_POINTS = {
    "normalize_weight": lambda x: normalize_weight((x, 2)),
    "WeightedOrbitSpace": lambda x: WeightedOrbitSpace(2, ((x, 0), (0, 1), (1, 0), (0, 1))),
    "IntMatrix": lambda x: IntMatrix([[x, 2]]),
    "IntMatrix.identity": lambda x: IntMatrix.identity(x),
    "IntMatrix.is_unimodular": lambda x: IntMatrix(((x, 0), (0, 1))).is_unimodular(),
    "determinant": lambda x: determinant(IntMatrix(((x, 2), (3, 5)))),
    "smith_normal_form": lambda x: smith_normal_form(IntMatrix(((x, 4), (6, 8)))),
    "quotient_group": lambda x: quotient_group(IntMatrix(((x, 2),))),
    "invert_unimodular": lambda x: invert_unimodular(IntMatrix(((x, 1), (0, 1)))),
    "invert_unimodular_4x4": lambda x: invert_unimodular_4x4(_unit_4x4(x)),
    "AbelianGroup": lambda x: AbelianGroup(x, (2,)),
    "gcd_ext a": lambda x: gcd_ext(x, 2),
    "gcd_ext c": lambda x: gcd_ext(2, x),
    "pair_is_legal x": lambda x: pair_is_legal((x, 0), (0, 1)),
    "pair_is_legal y": lambda x: pair_is_legal((1, 0), (0, x)),
    "connected_sum_dim4": lambda x: connected_sum_dim4(_plus_2(x)),
    "unimodular_complete": lambda x: unimodular_complete([(x, 2)]),
    "hermite_normal_form": lambda x: hermite_normal_form([(x, 2)]),
    "hermite_normal_form ncols": lambda x: hermite_normal_form([(2,)], x),
    "kernel_basis": lambda x: kernel_basis([(x, 2)], 2),
    "kernel_basis ncols": lambda x: kernel_basis([(2,)], x),
    "subtorus_acts_freely": lambda x: subtorus_acts_freely(W_SPLIT, ((0, 0, x, 0), (0, 0, 0, 1))),
    "induced_orbit_space subtorus": lambda x: induced_orbit_space(
        W_SPLIT, ((0, 0, x, 0), (0, 0, 0, 1))
    ),
    "induced_orbit_space complement": lambda x: induced_orbit_space(
        W_SPLIT, WZ_TORUS, ((x, 0, 0, 0), (0, 1, 0, 0))
    ),
    "induced_stabilizer": lambda x: induced_stabilizer(
        W_SPLIT, ((0, 0, x, 0), (0, 0, 0, 1)), {0, 1, 3}, E2_COMPLEMENT
    ),
    "induced_stabilizer support": lambda x: induced_stabilizer(W_SPLIT, WZ_TORUS, (0, x, 3)),
    "is_realizable_support": lambda x: is_realizable_support((0, x, 3)),
    "subtorus_acts_freely character matrix": lambda x: subtorus_acts_freely(
        _character_matrix(x), WZ_TORUS
    ),
    "induced_orbit_space character matrix": lambda x: induced_orbit_space(
        _character_matrix(x), WZ_TORUS
    ),
    "project_slope_to_residual subtorus": lambda x: project_slope_to_residual(
        ((0, 0, x, 0), (0, 0, 0, 1)), E2_COMPLEMENT, (1, 0, 0, 0)
    ),
    "project_slope_to_residual complement": lambda x: project_slope_to_residual(
        WZ_TORUS, ((x, 0, 0, 0), (0, 1, 0, 0)), (1, 0, 0, 0)
    ),
    "project_slope_to_residual slope": lambda x: project_slope_to_residual(
        WZ_TORUS, E2_COMPLEMENT, (x, 0, 0, 0)
    ),
    "CircleActionParams": lambda x: CircleActionParams(x, 1, 1, 2),
    "is_free_circle": lambda x: is_free_circle(CircleActionParams(x, 1, 1, 2)),
    "w2_class": lambda x: w2_class(CircleActionParams(x, 1, 1, 2)),
    "extend_circle_to_t2": lambda x: extend_circle_to_t2(CircleActionParams(x, 1, 1, 2)),
    "T2ActionParams": lambda x: T2ActionParams(x, 1, 0, 0, 0, 0, 1, 1),
    "is_free_t2": lambda x: is_free_t2(T2ActionParams(x, 1, 0, 0, 0, 0, 1, 1)),
    "split_t2_family r": lambda x: split_t2_family(x, 0),
    "split_t2_family lam": lambda x: split_t2_family(0, x),
    "Dim5Params": lambda x: Dim5Params(x, 1, 0, 1, 0, 0, 1, 0),
    "circle_bundle_total_space p": lambda x: circle_bundle_total_space(
        split_t2_family(0, 0), x, 0
    ),
    "circle_bundle_total_space q": lambda x: circle_bundle_total_space(
        split_t2_family(0, 0), 0, x
    ),
    "circle_arc_isotropy_orders": lambda x: circle_arc_isotropy_orders(
        induced_orbit_space(W_SPLIT, WZ_TORUS, E2_COMPLEMENT), (x, 0)
    ),
    "circle_quotient_orbifold_orders r": lambda x: circle_quotient_orbifold_orders(x, 0),
    "circle_quotient_orbifold_orders s": lambda x: circle_quotient_orbifold_orders(0, x),
    "primitive_weights": lambda x: primitive_weights(2, x),
    "run_census": lambda x: run_census(2, x),
    "census_ndjson": lambda x: census_ndjson((), 2, x),
}

# The callables of torusorbits.__all__ that take no integer directly: the
# integer rule reaches them through the types they take, whose constructors
# are roots of INTEGER_ENTRY_POINTS.  Every other public callable must be a
# root there, so a public function that computes on unread integers fails
# the completeness test below.
NO_INTEGER_ARGUMENTS = {
    # Take a WeightedOrbitSpace.
    "are_equivalent", "canonical_form", "canonicalize", "classify_dim4", "classify_dim5",
    "extract_dim5_params", "in_canonical_position", "is_legal", "pi1_bound",
    "pi1_dim5_exact", "realize_dim4", "realize_dim5", "require_legal",
    # Take a parameter object (CircleActionParams, T2ActionParams or Dim5Params).
    "classify_t2_quotient", "dim5_orbit_space", "realization_payload", "torus_weight_matrix",
    # Take census rows.
    "census_csv",
    # Take nothing.
    "mixed_t2_family",
    # Formats the entries it is given as text and computes nothing with them.
    "format_weights",
    # Result types, which the library builds from values it has read.
    "CensusRow", "ExtensionOutcome", "ExtensionStatus", "IsotropyDiagram",
    "LegalityReport", "ManifoldType", "SmithDecomposition", "T2Freeness",
    # Exceptions, which take a message.
    "IllegalOrbitSpaceError", "NotFreeError", "NotFreeSubtorusError", "NotRealizableError",
    "ParseError", "RankMismatchError", "TorusOrbitsError", "UnsupportedRankError",
}


def test_every_public_callable_is_an_integer_entry_point_or_takes_no_integers():
    public = {name for name in torusorbits.__all__ if callable(getattr(torusorbits, name))}
    roots = {key.split()[0] for key in INTEGER_ENTRY_POINTS}
    assert public - NO_INTEGER_ARGUMENTS - roots == set()
    # Both lists name public callables only, and no name is in both.
    assert NO_INTEGER_ARGUMENTS <= public and not NO_INTEGER_ARGUMENTS & roots


@pytest.mark.parametrize("entry_point", INTEGER_ENTRY_POINTS)
def test_entry_points_refuse_non_integers(entry_point):
    # operator.index is the one integer rule: a float or a string is refused
    # with a ValueError naming it, never truncated, and numpy integers give
    # the same answer, in Python ints, as ints do.
    call = INTEGER_ENTRY_POINTS[entry_point]
    expected = repr(call(1))
    assert repr(call(np.int64(1))) == expected
    for bad in (1.0, 1.9, "1"):
        with pytest.raises(ValueError, match=re.escape(f"entry {bad!r} is not an integer")):
            call(bad)


def test_subtorus_rows_and_realizer_rank_are_checked():
    with pytest.raises(ValueError, match="subtorus rows must have 4 entries"):
        subtorus_acts_freely(W_SPLIT, ((0, 0, 1),))
    with pytest.raises(UnsupportedRankError, match="rank 2 target in the dimension-5 realizer"):
        realize_dim5(space(2, (1, 0), (0, 1), (1, 0), (1, 1)))


def test_orbifold_orders():
    assert circle_quotient_orbifold_orders(0, 0) == (2, 1, 2, 1)
    assert circle_quotient_orbifold_orders(1, 0) == (2, 3, 2, 3)
    for r in range(-3, 4):
        for s in range(-3, 4):
            orders = circle_quotient_orbifold_orders(r, s)
            assert orders == (2, abs(2 * (r - s) + 1), 2, abs(2 * (r + s) + 1))
            assert sorted(orders) == sorted([2, 2, abs(2 * (r + s) + 1), abs(2 * (r - s) + 1)])


def test_orbifold_orders_invert_each_basis_once(monkeypatch):
    # The identity character matrix and the basis [h; c] are inverted once
    # each: project_slope_to_residual reads the basis inverse that
    # induced_orbit_space cached.
    biquotient._residual_basis.cache_clear()
    calls = count_calls(monkeypatch, lattice, "invert_unimodular_4x4")
    assert circle_quotient_orbifold_orders(2, 1) == (2, 3, 2, 7)
    assert len(calls) == 2


def test_project_slope_needs_a_basis():
    slope = (0, 0, 1, 0)
    for c_rows in (
        ((1, 0, 0, 0), (1, 0, 0, 0)),
        ((2, 0, 0, 0), (0, 1, 0, 0)),
        ((1, 0, 0, 0),),
        ((1, 0, 0), (0, 1, 0)),
    ):
        with pytest.raises(ValueError, match="complete the subtorus to a basis"):
            project_slope_to_residual(WZ_TORUS, c_rows, slope)


def test_orbifold_presentation_consistency():
    # The coordinatewise presentation of the split quotient agrees with the
    # parameter presentation.
    for r in range(-2, 3):
        t2 = split_t2_family(r, 1)
        h_rows = ((t2.a, t2.b, t2.c, t2.d), (-t2.n, t2.k, t2.m, t2.l))
        coordinatewise = induced_orbit_space(IntMatrix.identity(4), h_rows)
        parametric = induced_orbit_space(torus_weight_matrix(t2), WZ_TORUS)
        assert are_equivalent(coordinatewise.orbit_space, parametric.orbit_space)


def brute_residual_stabilizer_order(w, h_rows, c_rows, support, modulus):
    """Count the projected stabilizer inside the discretized residual torus."""
    grid = np.indices((modulus,) * 4).reshape(4, -1).T
    rows = np.array([w.entries[i] for i in sorted(support)], dtype=np.int64)
    kernel_pts = grid[((grid @ rows.T) % modulus == 0).all(axis=1)]
    p = IntMatrix(list(h_rows) + list(c_rows))
    p_inv = invert_unimodular(p)
    h = len(h_rows)
    b_t = np.array(
        [[p_inv.entries[r][h + j] for j in range(4 - h)] for r in range(4)],
        dtype=np.int64,
    )
    projected = (kernel_pts @ b_t) % modulus
    return len(np.unique(projected, axis=0))


def test_finite_sampling_stabilizer_oracle():
    modulus = 12
    configs = [
        (torus_weight_matrix(split_t2_family(1, 0)), WZ_TORUS, E2_COMPLEMENT),
        (torus_weight_matrix(mixed_t2_family()), WZ_TORUS, E2_COMPLEMENT),
        (torus_weight_matrix(DIM5_EXAMPLE), Z_CIRCLE, E3_COMPLEMENT),
    ]
    for w, h_rows, c_rows in configs:
        for support in realizable_supports():
            stab = induced_stabilizer(w, h_rows, support, c_rows)
            predicted = modulus ** stab.group.free_rank
            for t in stab.group.torsion:
                predicted *= gcd(t, modulus)
            brute = brute_residual_stabilizer_order(w, h_rows, c_rows, support, modulus)
            assert brute == predicted
