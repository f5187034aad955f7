"""Exact integer linear algebra over arbitrary-precision integers.

Everything in this module is deterministic: pivot choices and normalizations
are fixed so that repeated runs (and the census built on top) are
byte-for-byte reproducible.  Integer input is read by operator.index
(_integers) throughout the package: a float or a string is refused with a
ValueError naming it, never truncated.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import index
from typing import Iterable, Sequence

from .errors import NonSquareMatrixError, NotCompletableError, VerificationError

Vector = tuple[int, ...]


def _integers(entries: Iterable) -> Vector:
    """The entries as ints; ints and integer scalars such as numpy.int64
    pass, and the first other entry, or a non-iterable, raises ValueError."""
    if not isinstance(entries, (tuple, list)):
        # Read other iterables once, so a one-shot iterator can be searched
        # again for the entry that failed.
        try:
            entries = tuple(entries)
        except TypeError:
            raise ValueError(f"{entries!r} is not a sequence of integers") from None
    try:
        return tuple(map(index, entries))
    except TypeError:
        for e in entries:
            if not hasattr(type(e), "__index__"):
                raise ValueError(f"entry {e!r} is not an integer") from None
        raise


class _IntegerFields:
    """Base of the frozen dataclasses whose fields are all integers: the
    fields are read by _integers on construction, so a float or a string
    raises ValueError and a numpy integer is stored as an int."""

    def __post_init__(self) -> None:
        fields = vars(self)
        # Fields that are all ints already are left as they are.
        if set(map(type, fields.values())) != {int}:
            for name, value in zip(tuple(fields), _integers(tuple(fields.values()))):
                object.__setattr__(self, name, value)


def gcd_ext(a: int, c: int) -> tuple[int, int, int]:
    """Extended gcd with a deterministic coefficient choice.

    Returns (g, s, t) with a*s + c*t == g == gcd(a, c) >= 0.  Among all valid
    coefficient pairs, |s| is minimal, with ties broken by s >= 0; t is then
    forced (t = 0 when c == 0).  gcd_ext(0, 0) == (0, 0, 0).
    """
    if type(a) is not int or type(c) is not int:
        a, c = _integers((a, c))
    if a == 0 and c == 0:
        return (0, 0, 0)
    # Plain extended Euclid for a base solution.
    old_r, r = a, c
    old_s, s = 1, 0
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
    g, s0 = old_r, old_s
    if g < 0:
        g, s0 = -g, -s0
    if c == 0:
        return (g, s0, 0)
    # Valid s values form s0 + (c/g)Z; pick the smallest by (|s|, s < 0):
    # rem - step is smaller only when it is strictly nearer to zero.
    step = abs(c // g)
    rem = s0 % step
    s0 = rem - step if 2 * rem > step else rem
    t = (g - a * s0) // c
    # Internal invariant: moving s0 by multiples of c/g keeps it on the
    # Bezout line, so this division is exact; the assert guards only the
    # arithmetic just above, no input.
    assert a * s0 + c * t == g
    return (g, s0, t)


@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix: a tuple of row tuples of ints, read by
    _integers on construction; _matrix builds one from ints already held."""

    entries: tuple[Vector, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", tuple(map(_integers, self.entries)))
        widths = {len(row) for row in self.entries}
        if len(widths) > 1:
            raise ValueError(f"ragged rows of lengths {sorted(widths)}")

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        n = n if type(n) is int else _integers((n,))[0]
        return _matrix((int(i == j) for j in range(n)) for i in range(n))

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    def transpose(self) -> "IntMatrix":
        return _matrix(zip(*self.entries))

    def apply(self, v: Sequence[int]) -> Vector:
        """Matrix-vector product (v as a column, read by _integers)."""
        v = _integers(v)
        if len(v) != self.cols:
            raise ValueError(f"vector of length {len(v)} for a matrix with {self.cols} columns")
        return tuple(sum(a * x for a, x in zip(row, v)) for row in self.entries)

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        cols = other.transpose().entries
        return _matrix(
            (sum(a * b for a, b in zip(row, col)) for col in cols) for row in self.entries
        )

    def is_unimodular(self) -> bool:
        return self.rows == self.cols and determinant(self) in (1, -1)

    def to_lists(self) -> list[list[int]]:
        return [list(row) for row in self.entries]


def _matrix(rows: Iterable[Sequence[int]]) -> IntMatrix:
    """The matrix of rows of ints the library built, each as long as the
    first, as tuples: __post_init__ is skipped."""
    m = object.__new__(IntMatrix)
    object.__setattr__(m, "entries", tuple(map(tuple, rows)))
    return m


def determinant(m: IntMatrix) -> int:
    """Exact determinant via fraction-free (Bareiss) elimination."""
    if m.rows != m.cols:
        raise NonSquareMatrixError(f"matrix is {m.rows}x{m.cols}")
    n = m.rows
    if n == 0:
        return 1
    a = m.to_lists()
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                # Exact division is a Bareiss invariant.
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


@dataclass(frozen=True)
class SmithDecomposition:
    """U @ A @ V == D with U, V unimodular and D diagonal, d1 | d2 | ..."""

    U: IntMatrix
    D: IntMatrix
    V: IntMatrix

    @property
    def diagonal(self) -> Vector:
        return tuple(
            self.D.entries[i][i] for i in range(min(self.D.rows, self.D.cols))
        )

    @property
    def invariant_factors(self) -> Vector:
        return tuple(d for d in self.diagonal if d != 0)

    @property
    def rank(self) -> int:
        return len(self.invariant_factors)


def smith_normal_form(m: IntMatrix) -> SmithDecomposition:
    """Smith normal form with tracked unimodular row/column operations.

    Pivot rule: the entry of minimal absolute value in the trailing
    submatrix, ties broken row-major, making the decomposition deterministic.

    Returns:
        SmithDecomposition(U, D, V) with U @ m @ V == D, all diagonal entries
        of D nonnegative and each dividing the next.
    """
    a = m.to_lists()
    u = [[int(i == j) for j in range(m.rows)] for i in range(m.rows)]
    v = [[int(i == j) for j in range(m.cols)] for i in range(m.cols)]
    nrows, ncols = m.rows, m.cols

    def swap_rows(i: int, j: int) -> None:
        if i != j:
            a[i], a[j] = a[j], a[i]
            u[i], u[j] = u[j], u[i]

    def swap_cols(i: int, j: int) -> None:
        if i != j:
            for row in a + v:
                row[i], row[j] = row[j], row[i]

    def add_row(dst: int, src: int, f: int) -> None:
        a[dst] = [x + f * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x + f * y for x, y in zip(u[dst], u[src])]

    def add_col(dst: int, src: int, f: int) -> None:
        for row in a + v:
            row[dst] += f * row[src]

    limit = min(nrows, ncols)
    for t in range(limit):
        piv = None
        for i in range(t, nrows):
            for j in range(t, ncols):
                if a[i][j] != 0 and (
                    piv is None or abs(a[i][j]) < abs(a[piv[0]][piv[1]])
                ):
                    piv = (i, j)
        if piv is None:
            break
        swap_rows(t, piv[0])
        swap_cols(t, piv[1])
        while True:
            # Clear column t; a nonzero remainder becomes a smaller pivot.
            i = t + 1
            while i < nrows:
                if a[i][t] != 0:
                    add_row(i, t, -(a[i][t] // a[t][t]))
                    if a[i][t] != 0:
                        swap_rows(t, i)
                        i = t
                i += 1
            # Clear row t; a column swap can re-dirty column t, so restart.
            dirty = False
            j = t + 1
            while j < ncols:
                if a[t][j] != 0:
                    add_col(j, t, -(a[t][j] // a[t][t]))
                    if a[t][j] != 0:
                        swap_cols(t, j)
                        dirty = True
                        j = t
                j += 1
            if dirty:
                continue
            # Enforce divisibility of the trailing submatrix by the pivot.
            d = a[t][t]
            bad = next(
                (
                    (i, j)
                    for i in range(t + 1, nrows)
                    for j in range(t + 1, ncols)
                    if a[i][j] % d != 0
                ),
                None,
            )
            if bad is None:
                break
            add_col(t, bad[1], 1)
    for t in range(limit):
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]
    return SmithDecomposition(_matrix(u), _matrix(a), _matrix(v))


@dataclass(frozen=True)
class AbelianGroup:
    """Finitely generated abelian group Z^free_rank x Z/t1 x Z/t2 x ...

    The torsion orders form a divisibility chain t1 | t2 | ... with each
    ti >= 2, so equality of dataclasses is equality of groups.

    Raises:
        ValueError: an entry is not an integer, the free rank is negative,
            some torsion order is below 2, or the orders do not form a
            divisibility chain.
    """

    free_rank: int
    torsion: Vector = ()

    def __post_init__(self) -> None:
        (free_rank,) = _integers((self.free_rank,))
        object.__setattr__(self, "free_rank", free_rank)
        object.__setattr__(self, "torsion", _integers(self.torsion))
        if self.free_rank < 0:
            raise ValueError(f"free rank {self.free_rank} is negative")
        if any(t < 2 for t in self.torsion):
            raise ValueError(f"torsion orders {self.torsion} must all be at least 2")
        if any(
            self.torsion[i + 1] % self.torsion[i]
            for i in range(len(self.torsion) - 1)
        ):
            raise ValueError(
                f"torsion orders {self.torsion} must form a divisibility chain"
            )

    @property
    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def __str__(self) -> str:
        parts: list[str] = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{t}" for t in self.torsion)
        return " x ".join(parts) if parts else "1"


def cyclic_group(order: int) -> AbelianGroup:
    """Z/order, with the conventions Z/0 = Z and Z/1 = 1."""
    order = abs(order)
    if order == 0:
        return AbelianGroup(1, ())
    if order == 1:
        return AbelianGroup(0, ())
    return AbelianGroup(0, (order,))


def quotient_group(m: IntMatrix) -> AbelianGroup:
    """Structure of Z^cols / (row span of m), read off the invariant factors
    of smith_normal_form(m): each factor d > 1 is a Z/d, and each column
    beyond the rank a Z."""
    factors = smith_normal_form(m).invariant_factors
    return AbelianGroup(
        free_rank=m.cols - len(factors),
        torsion=tuple(d for d in factors if d > 1),
    )


def hermite_normal_form(
    rows: Iterable[Sequence[int]], ncols: int | None = None
) -> tuple[Vector, ...]:
    """Canonical row-echelon basis of the lattice spanned by the given rows.

    Row-style Hermite form: positive pivots, entries above each pivot reduced
    into [0, pivot).  Zero rows are dropped, so the result is a basis.
    """
    work = [list(_integers(row)) for row in rows]
    if ncols is None:
        ncols = len(work[0]) if work else 0
    ncols = ncols if type(ncols) is int else _integers((ncols,))[0]
    if any(len(row) != ncols for row in work):
        raise ValueError(f"rows must all have {ncols} entries")
    return _hermite(work, ncols)


def _hermite(work: list[Sequence[int]], ncols: int) -> tuple[Vector, ...]:
    """hermite_normal_form of a list of int rows, each ncols long, which it
    reorders and replaces in place but does not read again."""
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(work)) if work[i][c] != 0), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        for i in range(r + 1, len(work)):
            # Euclid on the two rows; the Hermite form does not depend on
            # which unimodular steps reach it.
            while work[i][c] != 0:
                q = work[r][c] // work[i][c]
                work[r], work[i] = work[i], [p - q * h for p, h in zip(work[r], work[i])]
        if work[r][c] < 0:
            work[r] = [-x for x in work[r]]
        for i in range(r):
            q = work[i][c] // work[r][c]
            if q:
                work[i] = [p - q * h for p, h in zip(work[i], work[r])]
        r += 1
        if r == len(work):
            break
    return tuple(tuple(row) for row in work[:r])


def invert_unimodular(m: IntMatrix) -> IntMatrix:
    """Exact inverse of a matrix with determinant +-1.

    The Hermite form of [m | I] is [I | m^-1] exactly when m is unimodular,
    so one fraction-free elimination both decides and inverts.
    """
    n = m.rows
    if n != m.cols:
        raise NonSquareMatrixError(f"matrix is {m.rows}x{m.cols}")
    augmented = [
        list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(m.entries)
    ]
    reduced = _hermite(augmented, 2 * n)
    if len(reduced) != n or any(reduced[i][i] != 1 for i in range(n)):
        raise ValueError(f"matrix has determinant {determinant(m)}, not +-1")
    return _matrix(row[n:] for row in reduced)


# The entries of the 4x4 identity, row by row.
_IDENTITY_4 = sum(IntMatrix.identity(4).entries, ())


def invert_unimodular_4x4(m: IntMatrix) -> IntMatrix:
    """Exact inverse of a 4x4 matrix with determinant +-1, in closed form.

    Laplace expansion along the first two rows: s holds the 2x2 minors of
    rows 0-1 and c those of rows 2-3, so the determinant is a signed sum of
    six products s*c, and every cofactor is a row entry times three of
    those minors.  Dividing the adjugate by a unit determinant is
    multiplying by it.  The result is checked by one product.

    Raises:
        ValueError: m is not 4x4 or its determinant is not +-1.
        VerificationError: m times the computed inverse is not the identity
            (an implementation fault).
    """
    if m.rows != 4 or m.cols != 4:
        raise ValueError(f"matrix is {m.rows}x{m.cols}, expected 4x4")
    (a00, a01, a02, a03), (a10, a11, a12, a13) = m.entries[:2]
    (a20, a21, a22, a23), (a30, a31, a32, a33) = m.entries[2:]
    s0 = a00 * a11 - a10 * a01
    s1 = a00 * a12 - a10 * a02
    s2 = a00 * a13 - a10 * a03
    s3 = a01 * a12 - a11 * a02
    s4 = a01 * a13 - a11 * a03
    s5 = a02 * a13 - a12 * a03
    c5 = a22 * a33 - a32 * a23
    c4 = a21 * a33 - a31 * a23
    c3 = a21 * a32 - a31 * a22
    c2 = a20 * a33 - a30 * a23
    c1 = a20 * a32 - a30 * a22
    c0 = a20 * a31 - a30 * a21
    det = s0 * c5 - s1 * c4 + s2 * c3 + s3 * c2 - s4 * c1 + s5 * c0
    if det not in (1, -1):
        raise ValueError(f"matrix has determinant {det}, not +-1")
    adjugate = (
        (a11 * c5 - a12 * c4 + a13 * c3, -a01 * c5 + a02 * c4 - a03 * c3,
         a31 * s5 - a32 * s4 + a33 * s3, -a21 * s5 + a22 * s4 - a23 * s3),
        (-a10 * c5 + a12 * c2 - a13 * c1, a00 * c5 - a02 * c2 + a03 * c1,
         -a30 * s5 + a32 * s2 - a33 * s1, a20 * s5 - a22 * s2 + a23 * s1),
        (a10 * c4 - a11 * c2 + a13 * c0, -a00 * c4 + a01 * c2 - a03 * c0,
         a30 * s4 - a31 * s2 + a33 * s0, -a20 * s4 + a21 * s2 - a23 * s0),
        (-a10 * c3 + a11 * c1 - a12 * c0, a00 * c3 - a01 * c1 + a02 * c0,
         -a30 * s3 + a31 * s1 - a32 * s0, a20 * s3 - a21 * s1 + a22 * s0),
    )
    inverse = adjugate if det == 1 else tuple(tuple(-x for x in row) for row in adjugate)
    columns = tuple(zip(*inverse))
    product = tuple([r0 * v0 + r1 * v1 + r2 * v2 + r3 * v3
                     for r0, r1, r2, r3 in m.entries for v0, v1, v2, v3 in columns])
    if product != _IDENTITY_4:
        raise VerificationError(f"closed-form inverse of {m.entries} fails m @ inv == I")
    return _matrix(inverse)


def unimodular_complete(vectors: Sequence[Sequence[int]]) -> IntMatrix:
    """Extend k independent integer n-vectors to a determinant +-1 matrix.

    The inputs become the first k rows.  The completion is the deterministic
    one read off the Smith decomposition, with each added row reduced against
    the input row lattice so repeated calls agree.

    Raises:
        ValueError: an entry is not an integer, or the rows are ragged, none,
            or more than their length.
        NotCompletableError: the rows do not span a direct summand of Z^n
            (some invariant factor differs from 1).
    """
    rows = IntMatrix(vectors)
    vecs, n, k = rows.entries, rows.cols, rows.rows
    if not vecs:
        raise ValueError("need at least one row")
    if k > n:
        raise ValueError(f"{k} rows cannot extend to a {n}x{n} basis")
    snf = smith_normal_form(rows)
    if snf.rank != k or any(f != 1 for f in snf.invariant_factors):
        raise NotCompletableError(
            f"rows span a sublattice with invariant factors {snf.diagonal}"
        )
    vinv = invert_unimodular(snf.V)
    hermite = _hermite(list(vecs), n)
    added = []
    for w in vinv.entries[k:]:
        # Bring each pivot entry of the Hermite basis into [0, pivot).
        for row in hermite:
            pivot = next(j for j, e in enumerate(row) if e)
            q = w[pivot] // row[pivot]
            if q:
                w = [a - q * b for a, b in zip(w, row)]
        added.append(tuple(w))
    out = _matrix(vecs + tuple(added))
    if abs(determinant(out)) != 1:
        raise VerificationError(f"completion {out.entries} is not unimodular")
    return out


def kernel_basis(rows: Sequence[Sequence[int]], ncols: int) -> tuple[Vector, ...]:
    """Hermite-canonical basis of {v in Z^ncols : m v == 0}, m the given
    rows, each of ncols entries.

    An empty row list has kernel Z^ncols.  The kernel of an integer matrix is
    a saturated sublattice, so every basis row returned is a primitive vector.

    The row lattice of [m^T | I] is {(v m^T, v)}.  In its Hermite form the
    rows with a vanishing left block have their pivots in the right block,
    so they span exactly {v : m v == 0}, already in Hermite form.
    """
    ncols = ncols if type(ncols) is int else _integers((ncols,))[0]
    rows = [_integers(row) for row in rows]
    if any(len(row) != ncols for row in rows):
        raise ValueError(f"rows must all have {ncols} entries")
    nrows = len(rows)
    augmented = [
        [row[j] for row in rows] + [int(i == j) for i in range(ncols)]
        for j in range(ncols)
    ]
    reduced = _hermite(augmented, nrows + ncols)
    return tuple(
        row[nrows:] for row in reduced if not any(row[:nrows])
    )
