"""Census enumeration, dedup, and serialization tests.

The reference enumerators here recompute small censuses from scratch: box
enumeration with itertools, legality via the public pair predicate, class
dedup by exact canonicalization only.  They share no dedup logic with the
production pipeline.
"""

import csv
import io
import json
import os
import random
import subprocess
import sys
import time
from itertools import combinations, product
from types import SimpleNamespace
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import torusorbits.biquotient as biquotient
import torusorbits.census as census
import torusorbits.orbit_space as orbit_space
from torusorbits.census import (
    CENSUS_COLUMNS,
    census_csv,
    census_ndjson,
    format_weights,
    primitive_weights,
    realization_payload,
    run_census,
    _rank3_classes,
)
from torusorbits.classify import (
    CP2_MINUS_CP2,
    CP2_PLUS_CP2,
    S2XS2,
    S3TWISTS2,
    S3XS2,
    classify_dim4,
    classify_dim5,
)
from torusorbits.errors import (
    PackedKeyLimitError,
    TorusOrbitsError,
    UnsupportedRankError,
    VerificationError,
)
from torusorbits.lattice import cyclic_group
from torusorbits.orbit_space import (
    WeightedOrbitSpace,
    _start_key,
    _unzigzag,
    _zigzag,
    are_equivalent,
    canonical_form,
    is_legal,
    pair_is_legal,
    pi1_bound,
)

from support import (
    _residual_candidates,
    based_weights,
    count_calls,
    random_symmetry_move,
    random_unimodular_rows,
    reference_rank2_classes,
    reference_rank3_classes,
    reference_start_key,
    zigzag_key,
)


def box_primitives(rank, bound):
    out = []
    for entries in product(range(-bound, bound + 1), repeat=rank):
        nonzero = [e for e in entries if e]
        if not nonzero or gcd(*entries) != 1 or nonzero[0] < 0:
            continue
        out.append(entries)
    return out


def reference_classes(rank, bound):
    """Brute-force census: every tuple, filtered and put in canonical form
    by the scalar search, which shares no code with the packed kernel."""
    weights = box_primitives(rank, bound)
    n = len(weights)
    classes = set()
    for quad in product(range(n), repeat=4):
        ws = tuple(weights[t] for t in quad)
        space = WeightedOrbitSpace(rank, ws)
        if not is_legal(space).legal:
            continue
        if not pi1_bound(space).is_trivial:
            continue
        classes.add(canonical_form(space).weights)
    return sorted(classes, key=zigzag_key)


def test_primitive_weights_basic():
    assert primitive_weights(2, 1) == [(0, 1), (1, 0), (1, 1), (1, -1)]
    assert len(primitive_weights(2, 3)) == 16
    assert len(primitive_weights(3, 1)) == 13
    with pytest.raises(ValueError):
        primitive_weights(2, -1)
    for w in primitive_weights(3, 3):
        assert gcd(*w) == 1
        assert next(e for e in w if e) > 0
    assert set(primitive_weights(2, 2)) == set(box_primitives(2, 2))


def test_unsupported_ranks():
    for rank in (1, 4, 5):
        with pytest.raises(UnsupportedRankError):
            run_census(rank, 1)


def test_bound_zero_is_empty_success():
    assert run_census(2, 0) == ()
    assert run_census(3, 0) == ()
    with pytest.raises(ValueError):
        run_census(2, -3)


def test_rank2_dual_route():
    for bound in (1, 2, 3):
        rows = run_census(2, bound)
        assert [row.weights for row in rows] == reference_classes(2, bound)


def test_rank3_dual_route():
    assert _rank3_classes(1) == reference_classes(3, 1)


def test_census_row_refuses_weights_that_do_not_span():
    # The row check is the gcd of the maximal minors: 1 exactly when the
    # weights span Z^rank, so the pi1 column is the trivial pi1_bound.
    for rank in (2, 3):
        for row in run_census(rank, 1):
            assert str(pi1_bound(WeightedOrbitSpace(rank, row.weights))) == "1"
    index_2 = (
        (2, ((1, 0), (1, 2), (1, 0), (1, 2))),
        (3, ((1, 0, 0), (0, 1, 0), (1, 0, 2), (0, 1, 2))),
    )
    not_spanning = (
        (2, ((1, 0), (2, 0), (1, 0), (3, 0))),
        (3, ((1, 0, 0), (0, 1, 0), (1, 1, 0), (1, 2, 0))),
    )
    for rank, weights in index_2 + not_spanning:
        assert pi1_bound(WeightedOrbitSpace(rank, weights)) != cyclic_group(1)
        with pytest.raises(VerificationError, match="spans a sublattice"):
            census._build_row(rank, weights)


def test_rank2_bound1_contents():
    rows = run_census(2, 1)
    spaces = [WeightedOrbitSpace(2, row.weights) for row in rows]
    for target in (
        WeightedOrbitSpace(2, ((1, 0), (0, 1), (1, 0), (0, 1))),
        WeightedOrbitSpace(2, ((1, 0), (0, 1), (1, 0), (1, 1))),
    ):
        assert any(are_equivalent(target, s) for s in spaces)
    trio = {S2XS2, CP2_PLUS_CP2, CP2_MINUS_CP2}
    assert {row.manifold_type for row in rows} <= trio


def test_rank2_classes_are_the_mixed_class_and_the_k1_family():
    # The Orlik-Raymond list against the enumerator it replaced: a rank-2
    # box of bound b >= 1 holds the mixed class e1, e2, (1,1), (2,1) and the
    # classes e1, e2, e1, (k,1) for k = 0..2b, and bound 0 holds none.  The
    # bounds after 10 are a sample, to keep the test near a second.
    for bound in (*range(11), 15, 20):
        mixed = ((1, 0), (0, 1), (1, 1), (2, 1))
        family = [((1, 0), (0, 1), (1, 0), (k, 1)) for k in range(2 * bound + 1)]
        expected = sorted([mixed, *family], key=zigzag_key) if bound else []
        assert census._rank2_classes(bound) == reference_rank2_classes(bound) == expected


def test_rank2_formula_reaches_bounds_past_the_enumerator():
    # An enumerator would need a legality matrix over the 1,216,768
    # sign-canonical primitive weights of the bound-1000 box; the list has
    # 2,002 classes and a row for each.
    rows = run_census(2, 1000)
    keys = [zigzag_key(row.weights) for row in rows]
    assert len(rows) == 2_002
    assert keys == sorted(keys)
    family = {((1, 0), (0, 1), (1, 0), (k, 1)) for k in range(2_001)}
    assert {row.weights for row in rows} == {((1, 0), (0, 1), (1, 1), (2, 1))} | family


@pytest.mark.parametrize(
    "call, args, expected",
    [
        (run_census, (3.0, 1), ValueError),
        (run_census, (2, 1.5), ValueError),
        (run_census, (2, "2"), ValueError),
        (run_census, (2.0, 1), ValueError),
        (primitive_weights, (2, 1.5), ValueError),
        (run_census, (2, np.int64(1)), 4),
    ],
)
def test_rank_and_bound_follow_the_integer_rule(call, args, expected):
    # operator.index, as everywhere in the library: a float or a string is
    # refused, never truncated, and an integer scalar passes.
    if expected is ValueError:
        with pytest.raises(ValueError, match="is not an integer"):
            call(*args)
    else:
        assert len(call(*args)) == expected


def test_rank2_row_runs_canonical_form_once(monkeypatch):
    # A class is a canonical form already: its row reads the type off it and
    # runs canonical_form once, in realize_dim4, whose round trip through
    # the induced orbit space stays.  The type is classify_dim4's.  The
    # mixed class's induced weights are no rotation or reversal of it, so
    # its round trip canonicalizes them once against the form realize_dim4
    # holds: 9 in all, where reading the type by classify_dim4 made 18.
    classes = census._rank2_classes(3)
    canonical = count_calls(monkeypatch, orbit_space, "canonical_form")
    induced = count_calls(monkeypatch, biquotient, "induced_orbit_space")
    rows = [census._build_row(2, canon) for canon in classes]
    assert (len(rows), len(canonical), len(induced)) == (8, 9, 8)
    for row in rows:
        assert row.manifold_type == classify_dim4(WeightedOrbitSpace(2, row.weights))


def test_every_rank3_row_round_trips(monkeypatch):
    # Each row runs realize_dim5 once, and it reaches the module-level
    # induced_orbit_space once: a row's certificate is the library's one
    # induced-orbit route, so a wrong induced orbit space fails the row.
    realized = count_calls(monkeypatch, biquotient, "realize_dim5")
    induced = count_calls(monkeypatch, biquotient, "induced_orbit_space")
    rows = run_census(3, 2)
    assert (len(rows), len(realized), len(induced)) == (945, 945, 945)
    wrong = WeightedOrbitSpace(3, ((1, 0, 0), (0, 1, 0), (1, 1, 1), (0, 0, 1)))
    monkeypatch.setattr(
        biquotient,
        "induced_orbit_space",
        lambda w, h_rows, complement=None: SimpleNamespace(orbit_space=wrong),
    )
    with pytest.raises(VerificationError):
        census._build_row(3, rows[0].weights)


def test_rank3_rows_run_no_adjacency_pass(monkeypatch):
    # The enumeration keeps legal cycles only, and each row's realize_dim5
    # reads legality off the parameters of its simply connected class, so no
    # row runs the adjacency pass.
    passes = count_calls(monkeypatch, orbit_space, "_failing_pairs")
    assert len(run_census(3, 2)) == 945
    assert passes == []


def test_rank3_bound1_contents():
    rows = run_census(3, 1)
    target = WeightedOrbitSpace(3, ((1, 0, 0), (0, 1, 0), (1, 1, 1), (0, 0, 1)))
    matches = [
        row
        for row in rows
        if are_equivalent(WeightedOrbitSpace(3, row.weights), target)
    ]
    assert len(matches) == 1
    assert matches[0].manifold_type == S3XS2
    assert {row.manifold_type for row in rows} <= {S3XS2, S3TWISTS2}


def test_rank3_bound2_count_regression():
    assert len(_rank3_classes(2)) == 945


def test_chunked_key_reduction_keeps_the_classes(monkeypatch):
    # Past _REDUCE_CHUNK keyed cycles the keys gathered so far are reduced
    # to their distinct values; a small chunk makes bound 2 reduce often.
    expected = _rank3_classes(2)
    reductions = []
    unique = np.unique

    def counted(keys):
        reductions.append(len(keys))
        return unique(keys)

    monkeypatch.setattr(census, "_REDUCE_CHUNK", 1_000)
    monkeypatch.setattr(census.np, "unique", counted)
    assert _rank3_classes(2) == expected
    # Two reductions run at any chunk size: the final one and the class keys.
    assert len(reductions) > 2


def test_type_ordered_enumeration_matches_the_unrestricted_loop():
    # Keying only cycles that start at their smallest type, with x4 not
    # before x2, must reach every class the unrestricted loop reaches.
    for bound in (0, 1, 2):
        assert _rank3_classes(bound) == reference_rank3_classes(bound)


def test_rank3_types_agree_with_classify_dim5():
    # The census reads the type off the realized circle; classify_dim5 reads
    # it off the weights, also after a symmetry move.
    rng = random.Random(2011)
    rows = run_census(3, 2)
    for index, row in enumerate(rows):
        space = WeightedOrbitSpace(3, row.weights)
        assert row.manifold_type == classify_dim5(space)
        if index % 50 == 0:
            assert row.manifold_type == classify_dim5(random_symmetry_move(rng, space))


def test_packed_key_limit_is_a_domain_error(monkeypatch):
    # Shrinking the digit limit puts bound 2 past it: the enumeration must
    # refuse with a domain error (CLI exit 3), not an assertion.
    monkeypatch.setattr(census, "_ENTRY_LIMIT", 8)
    with pytest.raises(PackedKeyLimitError):
        _rank3_classes(2)
    assert issubclass(PackedKeyLimitError, TorusOrbitsError)


def test_zigzag_codes_entry_key_order_on_ints_and_arrays():
    entries = [0] + [e for k in range(1, 601) for e in (k, -k)]
    assert [_zigzag(e) for e in entries] == list(range(len(entries)))
    assert [_unzigzag(_zigzag(e)) for e in entries] == entries
    array = np.array(entries, dtype=np.int32)
    assert _zigzag(array).tolist() == list(range(len(entries)))
    assert _unzigzag(np.arange(len(entries), dtype=np.int64)).tolist() == entries


def _packed(key):
    return sum(code * census._PACK_BASE ** (len(key) - 1 - p) for p, code in enumerate(key))


def _legal_positioned_cycle(rng, scale):
    while True:
        x3, x4 = (tuple(rng.randint(-scale, scale) for _ in range(3)) for _ in range(2))
        cycle = ((1, 0, 0), (0, 1, 0), x3, x4)
        if all(pair_is_legal(cycle[i], cycle[(i + 1) % 4]) for i in range(4)):
            return cycle


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([2, 10, 499]), st.integers(0, 2**32 - 1))
def test_scalar_start_key_matches_the_packed_kernel(scale, seed):
    # A legal cycle (e1, e2, x3, x4) with entries up to scale, moved by a
    # random unimodular matrix: its based entries, frame for frame, are the
    # entries of x3 and x4 up to a shear fixing e1 and e2.  The cycle is
    # drawn by rejection, so a seeded generator drives it.  The packed
    # kernel keys the start and its reversal from one frame.
    rng = random.Random(seed)
    cycle = _legal_positioned_cycle(rng, scale)
    move = random_unimodular_rows(rng, 3)
    seq = tuple(tuple(sum(m * e for m, e in zip(row, w)) for row in move) for w in cycle)
    reversal = (seq[1], seq[0], seq[3], seq[2])
    scalar = _start_key(seq, 3)
    assert scalar == reference_start_key(seq, 3)
    cycles = np.array([seq], dtype=np.int64)
    # The two frames share their third row and differ by a shear, so both
    # sides try the same candidate images up to sign: those of the moves
    # with first sign +1, the sign the packed kernel fixes.  The reversal's
    # based weights are the start's reversed, with entries 0 and 1 swapped.
    based = based_weights(seq)
    candidates = [
        *_residual_candidates(based, 3),
        *_residual_candidates([(b, a, t) for a, b, t in reversed(based)], 3),
    ]
    largest = max(
        abs(e) for images, move in candidates if move[0][0] == 1 for w in images for e in w
    )
    if largest >= census._ENTRY_LIMIT:
        # Past the limit only the packed side gives up; the scalar key above
        # still answered.
        with pytest.raises(PackedKeyLimitError):
            census._pair_keys(cycles)
    else:
        keys = census._pair_keys(cycles)
        assert [k.tolist() for k in keys] == [
            [_packed(scalar)],
            [_packed(_start_key(reversal, 3))],
        ]


def _minors(*weights):
    """The four 3x3 minors of four weights, in combinations order."""
    return [int(np.dot(np.cross(a, b), c)) for a, b, c in combinations(weights, 3)]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(-6, 6), min_size=12, max_size=12))
def test_two_framed_determinants_decide_simple_connectivity(entries):
    # The census's simply-connected mask: for a legal pair (x1, x2), the
    # gcd of the four maximal minors of (x1, x2, x3, x4) is
    # gcd(det(x1, x2, x3), det(x1, x2, x4)), for any x3 and x4.
    x1, x2, x3, x4 = (tuple(entries[i : i + 3]) for i in range(0, 12, 3))
    if not pair_is_legal(x1, x2):
        return
    minors = _minors(x1, x2, x3, x4)
    assert gcd(*minors) == gcd(minors[0], minors[1])
    # The census reads those two determinants off the frame's third row.
    frames = census._frames(np.array([x1]), np.array([x2]))
    assert census._based(frames, np.array([x3]))[0, 2] == minors[0]
    assert census._based(frames, np.array([x4]))[0, 2] == minors[1]


def test_class_keys_frame_three_pairs_per_block(monkeypatch):
    # One frame per adjacent pair other than the decoded one keys both of
    # that pair's starts, so a block is framed three times.
    keys = np.array([_packed(_start_key(((1, 0, 0), (0, 1, 0), (1, 1, 2), (1, 1, 3)), 3))])
    frames = count_calls(monkeypatch, census, "_frames")
    census._class_keys(keys)
    assert len(frames) == 3


def test_out_of_domain_box_fails_before_the_determinant_table():
    # At bound 6 the largest triple determinant is 847, past the digit
    # limit, and the n^3 determinant table would take 4.8 GiB.  At bound 20
    # the n x n cross-product table alone would take 18 GiB.  Under a 2 GiB
    # address-space limit the census must still end with the domain error
    # (exit 3), so the check has to run before those tables exist.
    script = (
        "import resource, sys; "
        "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30)); "
        "from torusorbits.cli import main; sys.exit(main(sys.argv[1:]))"
    )
    # One BLAS thread, so the buffers numpy reserves at import stay small on
    # machines with many cores.
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    for bound in (6, 20):
        argv = ["census", "--rank", "3", "--bound", str(bound)]
        proc = subprocess.run(
            [sys.executable, "-c", script, *argv],
            capture_output=True,
            text=True,
            timeout=120,
            env=env,
        )
        assert proc.returncode == 3, proc.stderr
        message = f"entry bound {bound} gives determinants beyond the packed-key limit"
        assert message in proc.stderr


def test_bound_5_is_refused_before_any_work():
    # 4 * 5**3 = 500 reaches the limit, so Hadamard's bound refuses the box
    # up front; the enumeration used to run for more than a minute first.
    argv = ["census", "--rank", "3", "--bound", "5"]
    script = "from torusorbits.cli import main; import sys; sys.exit(main(sys.argv[1:]))"
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv], capture_output=True, text=True, timeout=60
    )
    elapsed = time.perf_counter() - started
    assert proc.returncode == 3, proc.stderr
    assert "entry bound 5 gives canonical-key entries beyond the packed-key limit" in proc.stderr
    assert elapsed < 5


@pytest.mark.parametrize("bound", [0, 1, 2, 3, 4])
def test_bounds_up_to_4_pass_the_limit_guard(monkeypatch, bound):
    # 4 * 4**3 = 256 is below the limit: the guard lets the box through to
    # the enumeration, stubbed here so that nothing is enumerated.
    seen = []

    def no_weights(rank, box):
        seen.append((rank, box))
        return []

    monkeypatch.setattr(census, "primitive_weights", no_weights)
    assert _rank3_classes(bound) == []
    assert seen == [(3, bound)]


def test_rows_sorted_verified_simply_connected():
    for rank, bound, kind in ((2, 2, "t2"), (3, 1, "t3")):
        rows = run_census(rank, bound)
        keys = [zigzag_key(row.weights) for row in rows]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(rows)
        # A row exists only if its checks passed, so both serializations
        # write the pi1 and verified columns as constants.
        records = [json.loads(line) for line in census_ndjson(rows, rank, bound).splitlines()[1:]]
        cells = list(csv.reader(io.StringIO(census_csv(rows))))[1:]
        pi1, verified = CENSUS_COLUMNS.index("pi1"), CENSUS_COLUMNS.index("verified")
        for row, record, line in zip(rows, records, cells, strict=True):
            assert record["pi1"] == line[pi1] == "1"
            assert record["verified"] is True
            assert line[verified] == "true"
            assert realization_payload(row.realization)["kind"] == kind


def test_ndjson_deterministic_and_parsable():
    rows = run_census(2, 2)
    text_a = census_ndjson(rows, 2, 2)
    text_b = census_ndjson(run_census(2, 2), 2, 2)
    assert text_a == text_b
    lines = text_a.strip().split("\n")
    header = json.loads(lines[0])
    assert header["format"] == "orbit-census/1"
    assert header["rank"] == 2
    assert header["bound"] == 2
    assert header["count"] == len(rows) == len(lines) - 1
    assert header["columns"] == list(CENSUS_COLUMNS)
    for line in lines[1:]:
        record = json.loads(line)
        assert set(record) == set(CENSUS_COLUMNS)
        assert record["verified"] is True
        payload = record["realization"]
        assert payload["kind"] == "t2"
        assert all(field in payload for field in "abcdklmn")


def test_ndjson_empty_header_frozen():
    expected = (
        '{"bound":0,"columns":["weights","type","pi1","realization","verified"],'
        '"count":0,"format":"orbit-census/1","rank":2}\n'
    )
    assert census_ndjson((), 2, 0) == expected


def test_csv_mirror():
    rows = run_census(2, 1)
    text = census_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == ",".join(CENSUS_COLUMNS)
    assert len(lines) == len(rows) + 1
    first = lines[1].split(",", maxsplit=0)
    assert first  # header plus one line per row; cells checked below
    assert format_weights(((1, 0), (0, 1), (1, 0), (2, 1))) == "(1,0),(0,1),(1,0),(2,1)"
    for row, line in zip(rows, lines[1:]):
        assert '"' + format_weights(row.weights) + '"' in line
        assert line.endswith(",true")


def test_realization_payload_values():
    rows = run_census(3, 1)
    row = rows[0]
    payload = realization_payload(row.realization)
    for field in "abcdklmn":
        assert payload[field] == getattr(row.realization, field)
