"""Exception taxonomy for the torusorbits package.

Every error raised by the library derives from TorusOrbitsError, so callers
(and the CLI) can distinguish domain failures from programming bugs.  Each
class names one way an input can be outside the domain, except
VerificationError, the one class for implementation faults: a result check
or internal consistency check that no input should fail.  Input guards on
plain values raise ValueError, and the library raises no AssertionError.
"""


class TorusOrbitsError(Exception):
    """Base class for all domain errors raised by this package."""


class ParseError(TorusOrbitsError):
    """Malformed textual or JSON input."""


# ---------------------------------------------------------------------------
# integer linear algebra


class NonSquareMatrixError(TorusOrbitsError):
    """A determinant was requested for a non-square matrix."""


class NotCompletableError(TorusOrbitsError):
    """The given rows span a sublattice that is not a direct summand, so no
    unimodular completion exists."""


# ---------------------------------------------------------------------------
# weighted orbit spaces


class RankTooSmallError(TorusOrbitsError):
    """Weighted orbit spaces need rank at least 2."""


class IllegalOrbitSpaceError(TorusOrbitsError):
    """Some cyclically adjacent weight pair is not extendable to a lattice
    basis, so the boundary pattern is not realizable by a smooth action."""


class RankMismatchError(TorusOrbitsError):
    """Two orbit spaces of different rank were compared."""


class UnsupportedRankError(TorusOrbitsError):
    """Canonicalization is implemented for ranks 2 and 3 only."""


class UnsupportedWeightCountError(TorusOrbitsError):
    """The operation handles a fixed number of boundary weights and was given
    a different count."""


class NotCanonicalPositionError(TorusOrbitsError):
    """The operation requires the first two weights to be the first two
    standard basis vectors."""


# ---------------------------------------------------------------------------
# dimension-5 parameter extraction


class GcdConditionViolatedError(TorusOrbitsError):
    """One of the coprimality conditions required of a legal, simply
    connected rank-3 boundary pattern fails; the message names it."""


# ---------------------------------------------------------------------------
# torus actions on products of two 3-spheres


class DegenerateActionError(TorusOrbitsError):
    """All exponents vanish, so the circle acts trivially."""


class NotFreeError(TorusOrbitsError):
    """The action has a nontrivial stabilizer, but the operation requires a
    free action."""


class NotFreeSubtorusError(TorusOrbitsError):
    """The chosen subtorus has a nontrivial stabilizer on some stratum, so it
    does not act freely."""


class UnrealizableSupportError(TorusOrbitsError):
    """The coordinate support pattern misses one of the two unit-sphere
    factors, so no point of the space has exactly that support."""


class NotRealizableError(TorusOrbitsError):
    """No action in the implemented families induces the requested orbit
    space."""


class SlopesNotCoprimeError(TorusOrbitsError):
    """A subcircle slope (p, q) must be a primitive vector."""


class VerificationError(TorusOrbitsError):
    """A certificate the library computes before returning did not hold, for
    example the realized action does not induce the requested orbit space,
    a canonical form is in no family, the recovered parameters or the sign
    invariant contradict the weights, or an induced stratum stabilizer of a
    free subtorus is not a circle on an arc or a 2-torus at a vertex.
    Indicates an implementation fault, never bad user input."""


class PackedKeyLimitError(TorusOrbitsError):
    """The census entry box is too large for the packed integer keys of the
    rank-3 enumeration (ten bits per entry)."""
