"""Tests for the 4- and 5-dimensional classification layer."""

import random
import subprocess
import sys
from itertools import product
from math import gcd

import pytest

import torusorbits.orbit_space as orbit_space
from torusorbits.biquotient import mixed_t2_family, realize_dim4, split_t2_family
from torusorbits.classify import (
    CP2,
    CP2_MINUS_CP2,
    CP2_PLUS_CP2,
    S2XS2,
    S3TWISTS2,
    S3XS2,
    S4,
    S5,
    Dim5Params,
    ManifoldType,
    classify_dim4,
    classify_dim5,
    connected_sum_dim4,
    cross_factor_gcds,
    dim4_family,
    dim5_orbit_space,
    extract_dim5_params,
    in_canonical_position,
    not_simply_connected,
    pi1_dim5_exact,
)
from torusorbits.errors import (
    GcdConditionViolatedError,
    IllegalOrbitSpaceError,
    NotCanonicalPositionError,
    UnsupportedRankError,
    UnsupportedWeightCountError,
    VerificationError,
)
from torusorbits.lattice import AbelianGroup, cyclic_group
from torusorbits.orbit_space import (
    WeightedOrbitSpace,
    is_legal,
    pair_is_legal,
    pi1_bound,
)

from support import count_calls, random_symmetry_move, space


def dim5_space(x3, x4):
    return space(3, (1, 0, 0), (0, 1, 0), x3, x4)


# --- manifold type plumbing


def test_manifold_type_str():
    assert str(S2XS2) == "S2xS2"
    assert str(CP2_PLUS_CP2) == "CP2#CP2"
    assert str(CP2_MINUS_CP2) == "CP2#-CP2"
    assert str(connected_sum_dim4(3)) == "ConnectedSumDim4(3)"
    assert (
        str(not_simply_connected(AbelianGroup(0, (2,)))) == "NotSimplyConnected(Z/2)"
    )


# --- dimension 4


def test_classify_dim4_frozen_examples():
    assert classify_dim4(space(2, (1, 0), (0, 1), (1, 0), (2, 1))) == S2XS2
    assert classify_dim4(space(2, (1, 0), (0, 1), (1, 0), (3, 1))) == CP2_MINUS_CP2
    assert classify_dim4(space(2, (1, 0), (0, 1), (1, 1), (2, 1))) == CP2_PLUS_CP2


def test_classify_dim4_small_weight_counts():
    assert classify_dim4(space(2, (1, 0), (0, 1))) == S4
    assert classify_dim4(space(2, (1, 0), (0, 1), (1, 1))) == CP2
    five = space(2, (1, 0), (0, 1), (1, 0), (0, 1), (1, 1))
    assert classify_dim4(five) == connected_sum_dim4(3)


def test_classify_dim4_parity_family():
    for k in range(-8, 9):
        got = classify_dim4(space(2, (1, 0), (0, 1), (1, 0), (k, 1)))
        assert got == (S2XS2 if k % 2 == 0 else CP2_MINUS_CP2)


def test_classify_dim4_errors():
    with pytest.raises(UnsupportedRankError):
        classify_dim4(space(3, (1, 0, 0), (0, 1, 0), (0, 0, 1)))
    with pytest.raises(IllegalOrbitSpaceError):
        classify_dim4(space(2, (1, 0), (1, 2), (0, 1)))


def test_classify_dim4_constant_on_classes():
    rng = random.Random(515)
    for k in range(0, 5):
        s = space(2, (1, 0), (0, 1), (1, 0), (k, 1))
        want = classify_dim4(s)
        for _ in range(12):
            assert classify_dim4(random_symmetry_move(rng, s)) == want
    s = space(2, (1, 0), (0, 1), (1, 1), (2, 1))
    for _ in range(12):
        assert classify_dim4(random_symmetry_move(rng, s)) == CP2_PLUS_CP2


def small_rank2_cycles(box):
    """Every legal four-weight rank-2 cycle of primitive weights with
    entries in [-box, box], one per ordered tuple."""
    pool = [w for w in product(range(-box, box + 1), repeat=2) if gcd(*w) == 1]
    for cycle in product(pool, repeat=4):
        if all(pair_is_legal(cycle[i], cycle[(i + 1) % 4]) for i in range(4)):
            yield WeightedOrbitSpace(2, cycle)


def test_dim4_type_is_the_realized_family_on_every_small_cycle():
    # One reading gives the type and the action: the type does not see the
    # orientation, and it is S2xS2 exactly for the split family with even
    # twist and CP2#CP2 exactly for the mixed family.
    count = 0
    for s in small_rank2_cycles(2):
        count += 1
        mtype = classify_dim4(s)
        assert classify_dim4(WeightedOrbitSpace(2, s.weights[::-1])) == mtype
        params = realize_dim4(s)
        if params == mixed_t2_family():
            assert mtype == CP2_PLUS_CP2
            continue
        lam = params.k - params.n
        assert params == split_t2_family(params.n, lam)
        assert mtype == (S2XS2 if lam % 2 == 0 else CP2_MINUS_CP2)
    assert count == 3360


def test_four_weight_classify_dim4_runs_canonical_form_once(monkeypatch):
    calls = count_calls(monkeypatch, orbit_space, "canonical_form")
    s = random_symmetry_move(random.Random(5), space(2, (1, 0), (0, 1), (1, 1), (2, 1)))
    assert classify_dim4(s) == CP2_PLUS_CP2
    assert len(calls) == 1


def test_four_weight_classify_dim4_checks_adjacency_once(monkeypatch):
    # canonical_form's search checks the adjacent pairs; classify_dim4 does
    # not check them again, and still refuses an illegal input.
    calls = count_calls(monkeypatch, orbit_space, "_failing_pairs")
    s = random_symmetry_move(random.Random(5), space(2, (1, 0), (0, 1), (1, 0), (3, 1)))
    assert classify_dim4(s) == CP2_MINUS_CP2
    assert len(calls) == 1
    calls.clear()
    with pytest.raises(IllegalOrbitSpaceError, match="failing adjacent pairs"):
        classify_dim4(space(2, (1, 0), (0, 1), (1, 0), (1, 2)))
    assert len(calls) == 1


def test_dim4_family_reads_the_two_canonical_forms():
    assert dim4_family(((1, 0), (0, 1), (1, 1), (2, 1))) == "mixed"
    for k in range(6):
        assert dim4_family(((1, 0), (0, 1), (1, 0), (k, 1))) == k
    for weights in (
        ((1, 0), (0, 1), (1, 0), (-1, 1)),
        ((1, 0), (0, 1), (1, 0), (1, 2)),
        ((1, 0), (0, 1), (1, 1), (1, 2)),
        ((0, 1), (1, 0), (1, 0), (2, 1)),
        ((1, 0), (0, 1), (1, 0)),
        ((1, 0), (0, 1), (1, 0), (2, 1), (1, 0)),
    ):
        with pytest.raises(VerificationError):
            dim4_family(weights)


# --- implementation faults
#
# Each check that guards the implementation raises VerificationError when a
# step feeds it a wrong value: (module, name, replacement, call).  Inputs are
# legal, so only the patched step can be at fault.

FAULT_IMPORTS = (
    "import torusorbits.biquotient as biquotient\n"
    "import torusorbits.classify as classify\n"
    "import torusorbits.lattice as lattice\n"
    "from torusorbits.biquotient import classify_t2_quotient, realize_dim4, realize_dim5\n"
    "from torusorbits.biquotient import split_t2_family\n"
    "from torusorbits.census import _rank3_classes\n"
    "from torusorbits.classify import CP2_PLUS_CP2, classify_dim4, extract_dim5_params\n"
    "import torusorbits.orbit_space as orbit_space\n"
    "from torusorbits.orbit_space import WeightedOrbitSpace, canonicalize\n"
)
FAULTS = (
    # The canonical form comes back as the input, a rotation of the mixed form.
    (
        "classify",
        "canonical_form",
        "lambda s, oriented=False: s",
        "classify_dim4(WeightedOrbitSpace(2, ((1, 1), (2, 1), (1, 0), (0, 1))))",
    ),
    (
        "biquotient",
        "canonical_form",
        "lambda s, oriented=False: s",
        "realize_dim4(WeightedOrbitSpace(2, ((1, 1), (2, 1), (1, 0), (0, 1))))",
    ),
    # The weight formula disagrees with the recovered parameters.
    (
        "classify",
        "_dim5_weights",
        "lambda params: ((0, 0, 1), (0, 0, 1))",
        "extract_dim5_params(WeightedOrbitSpace(3, ((1, 0, 0), (0, 1, 0), (1, 1, 2), (1, 1, 3))))",
    ),
    # Dim5Params refuses the parameters of a legal input.
    (
        "classify",
        "Dim5Params",
        "lambda params=classify.Dim5Params, **fields: params(**{**fields, 'm': fields['m'] + 1})",
        "extract_dim5_params(WeightedOrbitSpace(3, ((1, 0, 0), (0, 1, 0), (1, 1, 2), (1, 1, 3))))",
    ),
    # The diagram type contradicts the sign product +1 of the split family.
    (
        "biquotient",
        "classify_dim4",
        "lambda s: CP2_PLUS_CP2",
        "classify_t2_quotient(split_t2_family(0, 0))",
    ),
    # The w @ w^-1 == I check of the closed-form inverse, on the realize
    # path of a census row, compares with the wrong entries.
    (
        "lattice",
        "_IDENTITY_4",
        "(0,) * 16",
        "realize_dim5(WeightedOrbitSpace(3, _rank3_classes(1)[-1]))",
    ),
    # The search hands canonicalize the winning start's move with a wrong
    # shear u, so the closed-form transform of an untied input is wrong.
    (
        "orbit_space",
        "_search",
        "lambda s, oriented=False, search=orbit_space._search: (lambda key, seq, frame, moves: "
        "(key, seq, frame, [(m[0], m[1] + 1, *m[2:]) for m in moves]))(*search(s, oriented))",
        "canonicalize(WeightedOrbitSpace(3, ((0, 1, 1), (1, 0, 0), (2, 1, 2), (1, 2, 3))))",
    ),
    # On a tie, the completion row that frames the start comes back doubled,
    # so the transform of the tied input (TIED_MOVE_CASES[0]) is wrong.
    (
        "orbit_space",
        "unimodular_complete",
        "lambda rows, complete=orbit_space.unimodular_complete: (lambda m: lattice.IntMatrix("
        "(*m.entries[:2], tuple(2 * e for e in m.entries[2]))))(complete(rows))",
        "canonicalize(WeightedOrbitSpace(3, ((0, 1, 1), (1, -1, 1), (1, 0, 0))))",
    ),
)


@pytest.mark.parametrize(
    "module, name, replacement, call",
    FAULTS,
    ids=[
        "classify-dim4", "realize-dim4", "extract-dim5", "extract-refusal", "t2-quotient",
        "inverse-product", "canon-transform", "canon-tie-transform",
    ],
)
def test_implementation_faults_raise_verification_error(monkeypatch, module, name, replacement, call):
    namespace = {}
    exec(FAULT_IMPORTS, namespace)
    eval(call, namespace)  # unpatched, the call succeeds
    monkeypatch.setattr(namespace[module], name, eval(replacement, namespace))
    with pytest.raises(VerificationError):
        eval(call, namespace)


def test_implementation_faults_raise_under_optimized_python():
    script = (
        FAULT_IMPORTS
        + "from torusorbits.errors import VerificationError\n"
        + f"for module, name, replacement, call in {FAULTS!r}:\n"
        "    target = globals()[module]\n"
        "    saved = getattr(target, name)\n"
        "    setattr(target, name, eval(replacement))\n"
        "    try:\n"
        "        eval(call)\n"
        "    except VerificationError:\n"
        "        continue\n"
        "    finally:\n"
        "        setattr(target, name, saved)\n"
        "    raise SystemExit(call)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


# --- parameter extraction


def test_extract_frozen_examples():
    params = extract_dim5_params(dim5_space((1, 1, 2), (1, 1, 3)))
    assert (params.a, params.b, params.c, params.d) == (3, 1, 2, 1)
    assert (params.m, params.n) == (1, -1)
    assert (params.k, params.l) == (0, 0)

    params = extract_dim5_params(dim5_space((1, 1, 1), (0, 0, 1)))
    assert (params.a, params.b, params.c, params.d) == (1, 1, 1, 1)
    assert (params.m, params.n) == (1, 0)
    assert (params.k, params.l) == (0, 0)

    params = extract_dim5_params(dim5_space((1, 1, 1), (2, 1, 1)))
    assert (params.a, params.b, params.c, params.d) == (1, -1, 1, 0)


def test_extract_round_trip():
    rng = random.Random(616)
    done = 0
    while done < 200:
        x3 = tuple(rng.randint(-4, 4) for _ in range(3))
        x4 = tuple(rng.randint(-4, 4) for _ in range(3))
        try:
            s = dim5_space(x3, x4)
        except ValueError:
            continue
        if not is_legal(s).legal:
            continue
        try:
            params = extract_dim5_params(s)
        except GcdConditionViolatedError:
            continue
        done += 1
        assert dim5_orbit_space(params).weights == s.weights


def test_extract_gcd_condition_errors():
    with pytest.raises(GcdConditionViolatedError, match="gcd"):
        extract_dim5_params(dim5_space((1, 0, 2), (0, 1, 2)))
    with pytest.raises(NotCanonicalPositionError):
        extract_dim5_params(space(3, (0, 1, 0), (1, 0, 0), (1, 1, 2), (1, 1, 3)))


def test_dim5_params_validation():
    with pytest.raises(ValueError):
        Dim5Params(a=2, b=1, c=2, d=1, k=0, l=0, m=1, n=0)
    with pytest.raises(ValueError):
        Dim5Params(a=1, b=0, c=0, d=0, k=0, l=0, m=1, n=0)
    # A valid pack round-trips through the weight formulas.
    params = Dim5Params(a=3, b=1, c=2, d=1, k=0, l=0, m=1, n=-1)
    assert dim5_orbit_space(params).weights[2:] == ((1, 1, 2), (1, 1, 3))


def test_gcd_bd_follows_from_triple_condition():
    # Enumerated legal inputs: gcd(b,d,p*y-q*x) = 1 forces gcd(b,d) = 1.
    rng = random.Random(717)
    done = 0
    while done < 300:
        x3 = tuple(rng.randint(-3, 3) for _ in range(3))
        x4 = tuple(rng.randint(-3, 3) for _ in range(3))
        try:
            s = dim5_space(x3, x4)
        except ValueError:
            continue
        if not is_legal(s).legal:
            continue
        (p, q, r), (x, y, z) = s.weights[2], s.weights[3]
        if gcd(r, z) != 1:
            # The implication needs the full gcd conditions, and under
            # legality only this one can fail.
            continue
        b, d = p * z - r * x, q * z - r * y
        if gcd(b, d, p * y - q * x) == 1:
            assert gcd(b, d) == 1
        done += 1


def test_legality_is_the_free_circle_once_gcd_rz_is_1():
    # extract_dim5_params reads legality off its parameters.  Every
    # canonical-position space with primitive x3, x4 in [-3, 3]^3 and
    # gcd(r, z) = 1 is legal exactly when its circle (a, b, c, d) is free.
    primitive = [w for w in product(range(-3, 4), repeat=3) if gcd(*w) == 1]
    checked = []
    for (p, q, r), (x, y, z) in product(primitive, repeat=2):
        if gcd(r, z) != 1:
            continue
        legal = is_legal(dim5_space((p, q, r), (x, y, z))).legal
        free = cross_factor_gcds(z, p * z - r * x, r, q * z - r * y) == (1, 1, 1, 1)
        checked.append(legal)
        assert legal == free, ((p, q, r), (x, y, z))
    assert (len(checked), sum(checked)) == (60_036, 31_000)


# --- exact fundamental group


def test_pi1_dim5_frozen_examples():
    assert pi1_dim5_exact(dim5_space((1, 0, 2), (1, 1, 4))) == cyclic_group(2)
    assert pi1_dim5_exact(dim5_space((1, 1, 2), (1, 1, 3))).is_trivial
    assert pi1_dim5_exact(dim5_space((2, 1, 1), (1, 1, 1))).is_trivial


def test_pi1_dim5_matches_bound_on_samples():
    rng = random.Random(818)
    done = 0
    while done < 200:
        x3 = tuple(rng.randint(-4, 4) for _ in range(3))
        x4 = tuple(rng.randint(-4, 4) for _ in range(3))
        try:
            s = dim5_space(x3, x4)
        except ValueError:
            continue
        if not is_legal(s).legal:
            continue
        done += 1
        assert pi1_dim5_exact(s) == pi1_bound(s)


def test_pi1_dim5_requires_canonical_position():
    with pytest.raises(NotCanonicalPositionError):
        pi1_dim5_exact(space(3, (1, 1, 0), (0, 1, 0), (1, 1, 2), (1, 1, 3)))
    assert in_canonical_position(dim5_space((1, 1, 2), (1, 1, 3)))
    assert not in_canonical_position(space(3, (1, 0, 0), (0, 1, 0), (0, 0, 1)))


# --- dimension 5 classification


def test_classify_dim5_frozen_examples():
    assert classify_dim5(dim5_space((1, 1, 2), (1, 1, 3))) == S3TWISTS2
    assert classify_dim5(dim5_space((1, 1, 1), (0, 0, 1))) == S3XS2
    assert classify_dim5(space(3, (1, 0, 0), (0, 1, 0), (0, 0, 1))) == S5


def test_classify_dim5_not_simply_connected():
    got = classify_dim5(dim5_space((1, 0, 2), (0, 1, 2)))
    assert got == not_simply_connected(cyclic_group(2))


def test_classify_dim5_errors():
    with pytest.raises(UnsupportedRankError):
        classify_dim5(space(2, (1, 0), (0, 1)))
    with pytest.raises(UnsupportedWeightCountError):
        classify_dim5(
            space(3, (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (0, 1, 0))
        )
    with pytest.raises(IllegalOrbitSpaceError):
        classify_dim5(space(3, (1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 1)))


def test_classify_dim5_accepts_any_representative():
    s = dim5_space((1, 1, 2), (1, 1, 3))
    assert classify_dim5(space(3, *s.weights[1:], s.weights[0])) == S3TWISTS2
    rng = random.Random(919)
    for _ in range(15):
        assert classify_dim5(random_symmetry_move(rng, s)) == S3TWISTS2
    t = dim5_space((1, 1, 1), (0, 0, 1))
    for _ in range(15):
        assert classify_dim5(random_symmetry_move(rng, t)) == S3XS2


def test_dim5_reader_refuses_other_ranks_and_weight_counts():
    with pytest.raises(UnsupportedRankError, match="rank 2, expected 3"):
        extract_dim5_params(space(2, (1, 0), (0, 1), (1, 0), (0, 1)))
    five = space(3, (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1))
    with pytest.raises(UnsupportedWeightCountError, match="5 weights, expected 4"):
        extract_dim5_params(five)
