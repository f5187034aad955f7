"""Acceptance suite: nine primary criteria, one test per criterion.

Each test prints a single PASS line (run with -s to see them) and asserts
its own wall-clock budget.  All comparisons are exact integer equality.
"""

import hashlib
import random
import subprocess
import sys
import time
from itertools import combinations, product
from math import gcd

import numpy as np

from torusorbits.biquotient import (
    WZ_TORUS,
    Z_CIRCLE,
    CircleActionParams,
    ExtensionStatus,
    circle_bundle_total_space,
    circle_quotient_orbifold_orders,
    extend_circle_to_t2,
    induced_orbit_space,
    induced_stabilizer,
    is_free_circle,
    mixed_t2_family,
    realizable_supports,
    realize_dim4,
    realize_dim5,
    split_t2_family,
    torus_weight_matrix,
    w2_class,
)
from torusorbits.census import _rank2_classes, _rank3_classes, run_census
from torusorbits.classify import (
    CP2_MINUS_CP2,
    CP2_PLUS_CP2,
    S2XS2,
    S3TWISTS2,
    S3XS2,
    Dim5Params,
    classify_dim4,
    dim5_orbit_space,
    pi1_dim5_exact,
)
from torusorbits.errors import DegenerateActionError
from torusorbits.lattice import IntMatrix, invert_unimodular, smith_normal_form
from torusorbits.orbit_space import (
    WeightedOrbitSpace,
    are_equivalent,
    normalize_weight,
    pair_is_legal,
    pi1_bound,
)

from support import random_symmetry_move, space

E2_COMPLEMENT = ((1, 0, 0, 0), (0, 1, 0, 0))
E3_COMPLEMENT = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0))


def report(criterion, detail, t0, limit=None):
    elapsed = time.perf_counter() - t0
    if limit is not None:
        assert elapsed < limit, f"criterion {criterion}: {elapsed:.1f}s over budget {limit}s"
    print(f"PASS criterion {criterion}: {detail} ({elapsed:.1f}s)")


def dihedral_matches(observed, expected):
    observed, expected = tuple(observed), tuple(expected)
    n = len(expected)
    for seq in (expected, expected[::-1]):
        if any(observed == seq[r:] + seq[:r] for r in range(n)):
            return True
    return False


def random_dim5_params(rng, count, bound):
    """Rejection-sample valid parameter tuples with all entries in [-bound, bound]."""
    draws = []
    while len(draws) < count:
        vals = [rng.randint(-bound, bound) for _ in range(8)]
        try:
            draws.append(Dim5Params(*vals))
        except ValueError:
            continue
    return draws


def sampled_stabilizer_order(w, h_rows, c_rows, support, modulus):
    """Order of the projected stabilizer inside the order-`modulus` cyclic grid."""
    grid = np.indices((modulus,) * 4).reshape(4, -1).T
    rows = np.array([w.entries[i] for i in sorted(support)], dtype=np.int64)
    kernel_pts = grid[((grid @ rows.T) % modulus == 0).all(axis=1)]
    p = IntMatrix.from_rows(list(h_rows) + list(c_rows))
    p_inv = invert_unimodular(p)
    h = len(h_rows)
    b_t = np.array(
        [[p_inv.entries[r][h + j] for j in range(4 - h)] for r in range(4)],
        dtype=np.int64,
    )
    projected = (kernel_pts @ b_t) % modulus
    return len(np.unique(projected, axis=0))


def test_criterion_1_dim4_family_classification():
    t0 = time.perf_counter()
    for k in range(-8, 9):
        got = classify_dim4(space(2, (1, 0), (0, 1), (1, 0), (k, 1)))
        assert got == (S2XS2 if k % 2 == 0 else CP2_MINUS_CP2), k
    assert classify_dim4(space(2, (1, 0), (0, 1), (1, 1), (2, 1))) == CP2_PLUS_CP2
    report(1, "dim-4 family types for |k| <= 8 plus the connected sum", t0, 1.0)


def test_criterion_2_pi1_exact_equals_bound():
    t0 = time.perf_counter()
    vecs = []
    for v in product(range(-4, 5), repeat=3):
        if v == (0, 0, 0):
            continue
        if next(e for e in v if e) < 0:
            continue  # sign normalization makes the other half duplicates
        vecs.append(v)
    third = [v for v in vecs if gcd(v[0], v[2]) == 1]  # legal next to e2
    fourth = [v for v in vecs if gcd(v[1], v[2]) == 1]  # legal next to e1
    assert len(third) == len(fourth)
    e1, e2 = (1, 0, 0), (0, 1, 0)
    count = 0
    for w3 in third:
        for w4 in fourth:
            if not pair_is_legal(w3, w4):
                continue
            s = WeightedOrbitSpace(3, (e1, e2, w3, w4))
            assert pi1_dim5_exact(s) == pi1_bound(s), (w3, w4)
            count += 1
    assert count > 10_000
    report(2, f"exact pi1 equals the quotient bound on {count} legal inputs", t0, 10.0)


def test_criterion_3_realization_round_trip():
    t0 = time.perf_counter()
    rank2 = _rank2_classes(5)
    assert len(rank2) == 12
    for canon in rank2:
        s = WeightedOrbitSpace(2, canon)
        params = realize_dim4(s)
        diagram = induced_orbit_space(torus_weight_matrix(params), WZ_TORUS)
        assert are_equivalent(diagram.orbit_space, s)
    rank3 = _rank3_classes(3)
    # pinned when this enumerator and the brute-force reference agreed at
    # smaller bounds; guards against silent under-enumeration
    assert len(rank3) == 75654
    # and the exact list, so a changed enumeration that keeps the count but
    # not the classes is caught too
    assert hashlib.sha256(repr(rank3).encode()).hexdigest() == (
        "f64ec8ef5c97241759e0888b8877b3e3e9080d73561c5545b88f8934c4fd3c67"
    )
    for index, canon in enumerate(rank3):
        s = WeightedOrbitSpace(3, canon)
        # realize_* canonicalizes first and verifies the induced orbit space
        # against its input, so one call per class covers every presentation
        params = realize_dim5(s)
        if index % 1000 == 0:
            diagram = induced_orbit_space(torus_weight_matrix(params), Z_CIRCLE)
            assert are_equivalent(diagram.orbit_space, s)
    report(
        3,
        f"round trip on {len(rank2)} rank-2 and {len(rank3)} rank-3 classes",
        t0,
        300.0,
    )


def test_criterion_4_isotropy_diagrams_and_sampling_oracle():
    t0 = time.perf_counter()
    for r, lam in product(range(-10, 11), (0, 1)):
        w = torus_weight_matrix(split_t2_family(r, lam))
        diagram = induced_orbit_space(w, WZ_TORUS, E2_COMPLEMENT)
        arcs = [a.weight for a in diagram.arcs]
        assert arcs == [(1, 0), normalize_weight((2 * r + lam, 1)), (1, 0), (0, 1)]
    rng = random.Random(20260404)
    draws = random_dim5_params(rng, 200, 6)
    for p in draws:
        diagram = induced_orbit_space(torus_weight_matrix(p), Z_CIRCLE, E3_COMPLEMENT)
        arcs = [a.weight for a in diagram.arcs]
        assert dihedral_matches(arcs, dim5_orbit_space(p).weights), p
    configs = [
        (torus_weight_matrix(split_t2_family(2, 1)), WZ_TORUS, E2_COMPLEMENT),
        (torus_weight_matrix(mixed_t2_family()), WZ_TORUS, E2_COMPLEMENT),
        (torus_weight_matrix(draws[0]), Z_CIRCLE, E3_COMPLEMENT),
    ]
    checks = 0
    for modulus in (12, 30):
        for w, h_rows, c_rows in configs:
            for sup in realizable_supports():
                stab = induced_stabilizer(w, h_rows, sup, c_rows)
                predicted = modulus ** stab.group.free_rank
                for torsion in stab.group.torsion:
                    predicted *= gcd(torsion, modulus)
                got = sampled_stabilizer_order(w, h_rows, c_rows, sup, modulus)
                assert got == predicted, (modulus, sup)
                checks += 1
    assert checks == 54
    report(4, "closed-form diagrams and 54 sampled stabilizer orders", t0, 60.0)


def test_criterion_5_extension_obstruction_family():
    t0 = time.perf_counter()
    for k in range(7):
        a, b, c, d = -1, 3, 15 * k + 1, 5
        p = CircleActionParams(a, b, c, d)
        assert is_free_circle(p)
        outcome = extend_circle_to_t2(p)
        assert outcome.status is ExtensionStatus.NECESSARY_CONDITION_FAILS, k
        values = [
            b * d + s1 * a * c + s2 * a * d + s3 * b * c
            for s1 in (1, -1)
            for s2 in (1, -1)
            for s3 in (1, -1)
        ]
        assert len(values) == 8 and all(v != 0 for v in values), k
    report(5, "free circles (-1,3,15k+1,5) proved non-extendable for k in 0..6", t0, 1.0)


def test_criterion_6_bundle_parity_rules():
    t0 = time.perf_counter()
    slopes = [
        (p, q)
        for p in range(-7, 8)
        for q in range(-7, 8)
        if gcd(p, q) == 1
    ]
    for r in range(-3, 4):
        for p, q in slopes:
            assert circle_bundle_total_space(split_t2_family(r, 0), p, q) == S3XS2
            expected = S3TWISTS2 if p % 2 else S3XS2
            assert circle_bundle_total_space(split_t2_family(r, 1), p, q) == expected
    for p, q in slopes:
        expected = S3TWISTS2 if (p + q) % 2 else S3XS2
        assert circle_bundle_total_space(mixed_t2_family(), p, q) == expected
    report(6, f"parity rules over {len(slopes)} coprime slopes and |r| <= 3", t0, 5.0)


def test_criterion_7_orbifold_isotropy_orders():
    t0 = time.perf_counter()
    for r in range(-5, 6):
        for s in range(-5, 6):
            orders = circle_quotient_orbifold_orders(r, s)
            expected = (2, 2, abs(2 * (r + s) + 1), abs(2 * (r - s) + 1))
            assert sorted(orders) == sorted(expected), (r, s)
    report(7, "orbifold orders {2, 2, |2(r+s)+1|, |2(r-s)+1|} for |r|,|s| <= 5", t0, 5.0)


def test_criterion_8_property_suites():
    t0 = time.perf_counter()
    rng = random.Random(20260817)
    for _ in range(1000):
        nrows = rng.randint(1, 6)
        ncols = rng.randint(1, 6)
        a = IntMatrix.from_rows(
            [[rng.randint(-20, 20) for _ in range(ncols)] for _ in range(nrows)]
        )
        dec = smith_normal_form(a)
        assert dec.U.is_unimodular() and dec.V.is_unimodular()
        d = dec.U @ a @ dec.V
        assert d == dec.D
        for i in range(nrows):
            for j in range(ncols):
                if i != j:
                    assert d.entries[i][j] == 0
        diag = dec.diagonal
        assert all(x >= 0 for x in diag)
        for x, y in zip(diag, diag[1:]):
            assert y % x == 0 if x else y == 0

    free_count = 0
    for a, b, c, d in product(range(-10, 11), repeat=4):
        p = CircleActionParams(a, b, c, d)
        try:
            if not is_free_circle(p):
                continue
        except DegenerateActionError:
            continue
        free_count += 1
        odd_sum = (a + b + c + d) % 2 == 1
        unique_even = sum(1 for e in (a, b, c, d) if e % 2 == 0) == 1
        assert odd_sum == unique_even, (a, b, c, d)
        assert w2_class(p) == (S3TWISTS2 if odd_sum else S3XS2), (a, b, c, d)
    assert free_count > 10_000

    rows = run_census(2, 3)
    assert len(rows) == 8
    reps = [WeightedOrbitSpace(2, row.weights) for row in rows]
    variants = [
        [rep] + [random_symmetry_move(rng, rep) for _ in range(2)] for rep in reps
    ]
    flat = [(ci, s) for ci, group in enumerate(variants) for s in group]
    for _, s in flat:
        assert are_equivalent(s, s)
    for (ci, s1), (cj, s2) in combinations(flat, 2):
        forward = are_equivalent(s1, s2)
        assert forward == are_equivalent(s2, s1)
        # equivalence must match the class partition exactly, which also
        # forces transitivity on this sample
        assert forward == (ci == cj), (ci, cj)
    for ci, group in enumerate(variants):
        assert {str(classify_dim4(s)) for s in group} == {str(rows[ci].manifold_type)}

    report(
        8,
        f"1000 SNF identities, {free_count} free quadruples, census relation checks",
        t0,
        120.0,
    )


def test_criterion_9_census_determinism():
    t0 = time.perf_counter()
    script = "from torusorbits.cli import main; import sys; sys.exit(main(sys.argv[1:]))"
    argv = ["census", "--rank", "2", "--bound", "3"]
    outputs = []
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, "-c", script, *argv], capture_output=True, check=True
        )
        outputs.append(proc.stdout)
    assert outputs[0] and outputs[0] == outputs[1]
    report(9, "two census runs produced byte-identical output", t0)
