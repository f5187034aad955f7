"""Tests for the exact integer linear algebra layer."""

import random
import re
import subprocess
import sys
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import torusorbits.lattice as lattice
from torusorbits.errors import NonSquareMatrixError, NotCompletableError, VerificationError
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
from torusorbits.orbit_space import WeightedOrbitSpace


def laplace_det(rows):
    """Cofactor-expansion determinant, independent of the Bareiss route."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        sub = [[row[k] for k in range(n) if k != j] for row in rows[1:]]
        total += (-1) ** j * rows[0][j] * laplace_det(sub)
    return total


def random_matrix(rng, nrows, ncols, lo=-20, hi=20):
    return IntMatrix(
        [[rng.randint(lo, hi) for _ in range(ncols)] for _ in range(nrows)]
    )


# --- gcd_ext


def test_gcd_ext_frozen_values():
    assert gcd_ext(0, 0) == (0, 0, 0)
    assert gcd_ext(0, 5) == (5, 0, 1)
    assert gcd_ext(3, 2) == (1, 1, -1)
    assert gcd_ext(12, 8) == (4, 1, -1)
    assert gcd_ext(1, 1) == (1, 0, 1)
    assert gcd_ext(5, 0) == (5, 1, 0)
    assert gcd_ext(-5, 0) == (5, -1, 0)


@given(st.integers(-100, 100), st.integers(-100, 100))
def test_gcd_ext_is_a_minimal_bezout_pair(a, c):
    g, s, t = gcd_ext(a, c)
    assert g == gcd(a, c)
    assert a * s + c * t == g
    if c != 0 and g != 0:
        # No other valid s is smaller under (|s|, s < 0).
        step = abs(c // g)
        for alt in (s - step, s + step):
            assert (abs(s), s < 0) <= (abs(alt), alt < 0)


@given(st.integers(-200, 200), st.integers(-200, 200))
def test_gcd_ext_matches_a_scan_of_the_bezout_line(a, c):
    # Every s with a*s == g (mod c) lies in [-|c|, |c|] once shifted by the
    # step |c/g| <= |c|; the least by (|s|, s < 0) is gcd_ext's s.
    g, s, t = gcd_ext(a, c)
    if c == 0:
        assert (g, s, t) == ((abs(a), (a > 0) - (a < 0), 0) if a else (0, 0, 0))
        return
    line = [x for x in range(-abs(c), abs(c) + 1) if (g - a * x) % c == 0]
    best = min(line, key=lambda x: (abs(x), x < 0))
    assert (s, t) == (best, (g - a * best) // c)


def test_gcd_ext_determinism_across_signs():
    for a in range(-12, 13):
        for c in range(-12, 13):
            g, s, t = gcd_ext(a, c)
            assert g >= 0
            assert a * s + c * t == g


# --- determinant


def test_determinant_rejects_non_square():
    with pytest.raises(NonSquareMatrixError):
        determinant(IntMatrix([[1, 2, 3], [4, 5, 6]]))


def test_determinant_edge_sizes():
    assert determinant(IntMatrix([])) == 1
    assert determinant(IntMatrix([[7]])) == 7
    assert determinant(IntMatrix.identity(5)) == 1


def test_determinant_of_weight_block():
    # Rows e2, e4, (-n, k, m, l), (a, b, c, d) have determinant a*m + c*n.
    rng = random.Random(20240117)
    for _ in range(200):
        a, b, c, d, n, k, m, l = (rng.randint(-9, 9) for _ in range(8))
        mat = IntMatrix(
            [[0, 1, 0, 0], [0, 0, 0, 1], [-n, k, m, l], [a, b, c, d]]
        )
        assert determinant(mat) == a * m + c * n


def test_determinant_matches_laplace():
    rng = random.Random(99)
    for _ in range(120):
        n = rng.randint(0, 5)
        m = random_matrix(rng, n, n, -9, 9)
        assert determinant(m) == laplace_det(m.to_lists())


def test_determinant_multiplicative():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(1, 4)
        x = random_matrix(rng, n, n, -6, 6)
        y = random_matrix(rng, n, n, -6, 6)
        assert determinant(x @ y) == determinant(x) * determinant(y)


# --- Smith normal form


def check_snf(m):
    snf = smith_normal_form(m)
    assert (snf.U @ m @ snf.V).entries == snf.D.entries
    assert determinant(snf.U) in (1, -1)
    assert determinant(snf.V) in (1, -1)
    diag = snf.diagonal
    assert all(d >= 0 for d in diag)
    for i in range(len(diag) - 1):
        if diag[i] != 0:
            assert diag[i + 1] % diag[i] == 0
        else:
            assert diag[i + 1] == 0
    for i in range(snf.D.rows):
        for j in range(snf.D.cols):
            if i != j:
                assert snf.D.entries[i][j] == 0
    return snf


def test_smith_frozen_examples():
    snf = smith_normal_form(IntMatrix([[2, 4]]))
    assert snf.diagonal == (2,)
    rng = random.Random(4242)
    for _ in range(100):
        p, q, r, x, y, z = (rng.randint(-9, 9) for _ in range(6))
        m = IntMatrix([[1, 0, 0], [0, 1, 0], [p, q, r], [x, y, z]])
        snf = check_snf(m)
        g = gcd(r, z)
        expected = (1, 1, g) if g != 0 else (1, 1)
        assert snf.invariant_factors == expected


def test_smith_zero_and_identity():
    snf = check_snf(IntMatrix([[0, 0], [0, 0]]))
    assert snf.diagonal == (0, 0)
    snf = check_snf(IntMatrix.identity(4))
    assert snf.diagonal == (1, 1, 1, 1)


def test_smith_random_properties():
    rng = random.Random(20240115)
    for _ in range(1000):
        nrows = rng.randint(1, 6)
        ncols = rng.randint(1, 6)
        check_snf(random_matrix(rng, nrows, ncols))


@settings(max_examples=60)
@given(
    st.lists(
        st.lists(st.integers(-30, 30), min_size=1, max_size=4),
        min_size=1,
        max_size=4,
    ).filter(lambda rows: len({len(r) for r in rows}) == 1)
)
def test_smith_properties_hypothesis(rows):
    check_snf(IntMatrix(rows))


def test_smith_rank_matches_determinant():
    rng = random.Random(31)
    for _ in range(200):
        n = rng.randint(1, 4)
        m = random_matrix(rng, n, n, -5, 5)
        snf = smith_normal_form(m)
        if determinant(m) != 0:
            assert snf.rank == n
        else:
            assert snf.rank < n


# --- abelian group bookkeeping


def test_abelian_group_str():
    assert str(AbelianGroup(0, ())) == "1"
    assert str(AbelianGroup(1, ())) == "Z"
    assert str(AbelianGroup(2, ())) == "Z^2"
    assert str(AbelianGroup(0, (4,))) == "Z/4"
    assert str(AbelianGroup(1, (2, 6))) == "Z x Z/2 x Z/6"


def test_abelian_group_is_trivial():
    assert AbelianGroup(0, ()).is_trivial
    assert not AbelianGroup(0, (2,)).is_trivial


def test_abelian_group_rejects_broken_chain():
    with pytest.raises(ValueError):
        AbelianGroup(0, (4, 6))
    with pytest.raises(ValueError):
        AbelianGroup(0, (1,))


def test_abelian_group_reads_integers():
    for bad in (2.0, 2.5, "2"):
        for args in ((bad, ()), (0, (bad,))):
            with pytest.raises(ValueError, match=re.escape(f"entry {bad!r} is not an integer")):
                AbelianGroup(*args)
    g = AbelianGroup(np.int64(2), [np.int64(2)])
    assert g == AbelianGroup(2, (2,))
    assert type(g.free_rank) is int and type(g.torsion[0]) is int
    assert str(g) == "Z^2 x Z/2"


def test_cyclic_group():
    assert cyclic_group(0) == AbelianGroup(1, ())
    assert cyclic_group(1) == AbelianGroup(0, ())
    assert cyclic_group(-1) == AbelianGroup(0, ())
    assert cyclic_group(6) == AbelianGroup(0, (6,))
    assert cyclic_group(-6) == AbelianGroup(0, (6,))


def test_quotient_group():
    assert quotient_group(IntMatrix([[2, 0], [0, 3]])) == cyclic_group(6)
    assert quotient_group(IntMatrix([[1, 0], [0, 1]])).is_trivial
    assert quotient_group(IntMatrix([[2, 4]])) == AbelianGroup(1, (2,))
    assert quotient_group(IntMatrix([[0, 0]])) == AbelianGroup(2, ())


# --- Hermite normal form


def test_hermite_frozen_examples():
    assert hermite_normal_form([(2, 3)]) == ((2, 3),)
    assert hermite_normal_form([(-2, -3)]) == ((2, 3),)
    assert hermite_normal_form([(2, 4), (0, 2)]) == ((2, 0), (0, 2))
    assert hermite_normal_form([], ncols=3) == ()
    # Dependent rows collapse to a basis.
    assert hermite_normal_form([(1, 2), (2, 4)]) == ((1, 2),)


def hnf_lattice_membership(basis, v):
    """Decide membership of v in the row lattice of an HNF basis."""
    v = list(v)
    for row in basis:
        c = next(j for j, x in enumerate(row) if x != 0)
        if v[c] % row[c] != 0:
            return False
        q = v[c] // row[c]
        v = [a - q * b for a, b in zip(v, row)]
    return all(x == 0 for x in v)


def test_hermite_preserves_lattice():
    rng = random.Random(555)
    for _ in range(300):
        nrows = rng.randint(1, 4)
        ncols = rng.randint(1, 4)
        rows = [[rng.randint(-9, 9) for _ in range(ncols)] for _ in range(nrows)]
        basis = hermite_normal_form(rows, ncols)
        # Every input row lies in the lattice of the basis.
        for row in rows:
            assert hnf_lattice_membership(basis, row)
        # Echelon shape with positive pivots and reduced entries above.
        pivots = []
        for row in basis:
            c = next(j for j, x in enumerate(row) if x != 0)
            assert row[c] > 0
            pivots.append(c)
        assert pivots == sorted(pivots)
        for i, row in enumerate(basis):
            for k in range(i):
                assert 0 <= basis[k][pivots[i]] < row[pivots[i]]


def test_hermite_is_canonical():
    # Row-shuffled and resigned generating sets give the same basis.
    rng = random.Random(808)
    for _ in range(200):
        ncols = rng.randint(1, 4)
        rows = [
            [rng.randint(-6, 6) for _ in range(ncols)]
            for _ in range(rng.randint(1, 4))
        ]
        basis = hermite_normal_form(rows, ncols)
        shuffled = [[-x for x in row] if rng.random() < 0.5 else list(row) for row in rows]
        rng.shuffle(shuffled)
        if rng.random() < 0.5 and len(shuffled) >= 2:
            # Adding a row plus a multiple of another does not change the lattice.
            f = rng.randint(-3, 3)
            shuffled.append([a + f * b for a, b in zip(shuffled[0], shuffled[-1])])
        assert hermite_normal_form(shuffled, ncols) == basis


# --- unimodular inverse


def test_invert_unimodular():
    m = IntMatrix([[2, 3], [1, 2]])
    inv = invert_unimodular(m)
    assert inv.entries == ((2, -3), (-1, 2))
    with pytest.raises(ValueError):
        invert_unimodular(IntMatrix([[2, 0], [0, 1]]))


def test_invert_unimodular_random():
    rng = random.Random(606)
    for _ in range(100):
        n = rng.randint(1, 4)
        m = random_unimodular(rng, n)
        inv = invert_unimodular(m)
        assert (m @ inv).entries == IntMatrix.identity(n).entries
        assert (inv @ m).entries == IntMatrix.identity(n).entries


def random_unimodular(rng, n, ops=8):
    """Product of elementary row operations, determinant +-1 by construction."""
    m = IntMatrix.identity(n).to_lists()
    for _ in range(ops):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        f = rng.randint(-3, 3)
        m[i] = [x + f * y for x, y in zip(m[i], m[j])]
    if rng.random() < 0.5:
        k = rng.randrange(n)
        m[k] = [-x for x in m[k]]
    return IntMatrix(m)


@st.composite
def unimodular_4x4_rows(draw):
    """Rows of a 4x4 matrix of determinant +-1: elementary moves on I.

    A move adds f times row j to row i, or negates row i when i == j.  Some
    factors sit at the census's packed-key limits (500 per entry, 2^31 per
    based coordinate), so the inverse is also checked on large entries.
    """
    factor = st.one_of(
        st.integers(-3, 3),
        st.sampled_from((499, -499, 500, -500, 2**31 - 1, -(2**31))),
    )
    moves = draw(
        st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3), factor), max_size=12)
    )
    m = IntMatrix.identity(4).to_lists()
    for i, j, f in moves:
        if i == j:
            m[i] = [-x for x in m[i]]
        else:
            m[i] = [x + f * y for x, y in zip(m[i], m[j])]
    return m


@settings(max_examples=400, deadline=None)
@given(unimodular_4x4_rows(), st.integers(0, 3), st.integers(1, 3))
def test_closed_form_4x4_inverse_matches_the_hermite_inverse(rows, r, shift):
    m = IntMatrix(rows)
    assert invert_unimodular_4x4(m) == invert_unimodular(m)
    # Doubling a row doubles the determinant; copying one row onto another
    # makes it zero.  Neither has an integer inverse.
    doubled = [[2 * x for x in row] if k == r else row for k, row in enumerate(rows)]
    copied = [rows[(r + shift) % 4] if k == r else row for k, row in enumerate(rows)]
    for bad in (doubled, copied):
        with pytest.raises(ValueError):
            invert_unimodular_4x4(IntMatrix(bad))


def test_closed_form_4x4_inverse_rejects_other_shapes():
    with pytest.raises(ValueError):
        invert_unimodular_4x4(IntMatrix.identity(3))
    with pytest.raises(ValueError):
        invert_unimodular_4x4(IntMatrix([[1, 0, 0, 0]] * 3))


# --- unimodular completion


def test_complete_frozen_examples():
    out = unimodular_complete([(2, 3)])
    assert out.entries == ((2, 3), (1, 1))
    assert determinant(out) in (1, -1)
    out = unimodular_complete([(1, 0, 0)])
    assert out.entries == IntMatrix.identity(3).entries
    with pytest.raises(NotCompletableError):
        unimodular_complete([(2, 4)])
    with pytest.raises(NotCompletableError):
        unimodular_complete([(1, 0), (0, 2)])
    with pytest.raises(NotCompletableError):
        unimodular_complete([(1, 0), (1, 0)])


def test_complete_output_check_raises(monkeypatch):
    # A completion that is not unimodular is an implementation fault: the
    # check raises VerificationError, which python -O keeps.
    monkeypatch.setattr(
        lattice, "invert_unimodular", lambda m: IntMatrix(((0,) * m.cols,) * m.rows)
    )
    with pytest.raises(VerificationError):
        unimodular_complete([(2, 3)])


def test_complete_random_primitive_vectors():
    rng = random.Random(2024)
    done = 0
    while done < 300:
        n = rng.randint(1, 4)
        v = [rng.randint(-9, 9) for _ in range(n)]
        if gcd(*v, 0) != 1:
            continue
        done += 1
        out = unimodular_complete([v])
        assert out.entries[0] == tuple(v)
        assert abs(determinant(out)) == 1
        # Determinism: a second call gives the identical matrix.
        assert unimodular_complete([v]).entries == out.entries


def test_complete_partial_bases():
    rng = random.Random(11)
    done = 0
    while done < 150:
        n = rng.randint(2, 4)
        k = rng.randint(1, n)
        u = random_unimodular(rng, n)
        rows = [list(u.entries[i]) for i in range(k)]
        done += 1
        out = unimodular_complete(rows)
        assert [list(out.entries[i]) for i in range(k)] == rows
        assert abs(determinant(out)) == 1


# --- integer kernel


def test_kernel_frozen_examples():
    assert kernel_basis(((2, 3),), 2) == ((3, -2),)
    assert kernel_basis(IntMatrix.identity(3).entries, 3) == ()
    assert kernel_basis(((0, 0),), 2) == ((1, 0), (0, 1))


@pytest.mark.parametrize(
    "rows, message",
    [
        ([(1, 2, 3)], "rows must all have 2 entries"),
        ([(1,)], "rows must all have 2 entries"),
        ([1, 2], "1 is not a sequence of integers"),
    ],
)
def test_kernel_refuses_rows_of_the_wrong_shape(rows, message):
    # Every row needs ncols entries: a longer one is not cut short, and a
    # shorter one or a bare integer is a ValueError like a bad entry.
    with pytest.raises(ValueError, match=message):
        kernel_basis(rows, 2)


def test_kernel_pair_rule():
    # For a primitive pair (a, c) the kernel of [a c] is spanned by (c, -a).
    rng = random.Random(77)
    done = 0
    while done < 200:
        a, c = rng.randint(-9, 9), rng.randint(-9, 9)
        if gcd(a, c) != 1:
            continue
        done += 1
        (v,) = kernel_basis(((a, c),), 2)
        assert v in ((c, -a), (-c, a))


def test_kernel_properties():
    rng = random.Random(313)
    for _ in range(300):
        nrows = rng.randint(1, 4)
        ncols = rng.randint(1, 4)
        m = random_matrix(rng, nrows, ncols, -7, 7)
        basis = kernel_basis(m.entries, m.cols)
        for v in basis:
            assert all(x == 0 for x in m.apply(v))
        assert len(basis) == ncols - smith_normal_form(m).rank
        # Saturation: scaled-down combinations stay inside the kernel lattice.
        if basis:
            coeffs = [rng.randint(-3, 3) for _ in basis]
            combo = [
                sum(c * v[j] for c, v in zip(coeffs, basis)) for j in range(ncols)
            ]
            assert hnf_lattice_membership(basis, combo)


# --- IntMatrix plumbing


def test_matrix_shapes_and_products():
    m = IntMatrix([[1, 2], [3, 4], [5, 6]])
    assert (m.rows, m.cols) == (3, 2)
    assert m.transpose().entries == ((1, 3, 5), (2, 4, 6))
    assert m.apply((1, -1)) == (-1, -1, -1)
    i2 = IntMatrix.identity(2)
    assert (m @ i2).entries == m.entries
    assert not m.is_unimodular()
    assert IntMatrix([[2, 3], [1, 2]]).is_unimodular()


# Each input guard raises ValueError rather than asserting, so it holds
# under python -O too.
SHAPE_GUARDS = (
    "IntMatrix(((1, 2), (3,)))",
    "IntMatrix.identity(2).apply((1, 2, 3))",
    "IntMatrix.identity(2) @ IntMatrix.identity(3)",
    "hermite_normal_form([[1, 2], [3]])",
    "unimodular_complete([(1, 0, 0), (0, 1)])",
)


@pytest.mark.parametrize("call", SHAPE_GUARDS)
def test_shape_guards_raise_value_error(call):
    namespace = {
        "IntMatrix": IntMatrix,
        "hermite_normal_form": hermite_normal_form,
        "unimodular_complete": unimodular_complete,
    }
    with pytest.raises(ValueError):
        eval(call, namespace)


def test_shape_guards_hold_under_optimized_python():
    script = (
        "from torusorbits.lattice import IntMatrix, hermite_normal_form, unimodular_complete\n"
        f"for call in {SHAPE_GUARDS!r}:\n"
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


def test_integers_names_the_failing_entry_of_a_one_shot_iterator():
    # The first pass consumes an iterator, so it is read into a tuple first
    # and the search for the failing entry sees every entry again.
    assert lattice._integers(iter((1, 2))) == (1, 2)
    assert lattice._integers(range(3)) == (0, 1, 2)
    message = re.escape("entry 1.5 is not an integer")
    with pytest.raises(ValueError, match=message):
        lattice._integers(iter((1, 1.5)))
    with pytest.raises(ValueError, match=message):
        WeightedOrbitSpace(2, [(x for x in (1.5, 0)), (0, 1)])


# --- the integer rule on construction


# Float and string entries are refused by the rows of
# test_biquotient.py::INTEGER_ENTRY_POINTS for IntMatrix and the functions
# that take one.


def test_numpy_entries_compute_exactly():
    # numpy int64 entries become Python ints, so Bareiss elimination does not
    # overflow: this determinant is 2**125, far outside int64.
    big = np.int64(2**62)
    det = determinant(IntMatrix(((big, big), (-big, big))))
    assert det == 2**125 and type(det) is int


def test_matrices_of_equal_entries_are_equal_and_hashable():
    listed = IntMatrix([[1, 2], [3, 4]])
    assert listed == IntMatrix(((1, 2), (3, 4)))
    assert hash(listed) == hash(IntMatrix(((1, 2), (3, 4))))
    assert listed.entries == ((1, 2), (3, 4))


def test_inverse_and_completion_refuse_bad_shapes():
    with pytest.raises(NonSquareMatrixError, match="matrix is 2x3"):
        invert_unimodular(IntMatrix(((1, 0, 0), (0, 1, 0))))
    with pytest.raises(ValueError, match="need at least one row"):
        unimodular_complete([])
    with pytest.raises(ValueError, match="3 rows cannot extend to a 2x2 basis"):
        unimodular_complete([(1, 0), (0, 1), (1, 1)])
