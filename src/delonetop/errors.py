"""Exception types shared across the toolkit.

Every error raised on a contract violation derives from :class:`ToolkitError`
so callers (in particular the CLI) can distinguish "bad inputs / bad state"
from genuine bugs.
"""


class ToolkitError(Exception):
    """Base class for all toolkit errors."""


class InvalidInput(ToolkitError):
    """Arguments violate a documented precondition."""


class GenerationFailed(ToolkitError):
    """A point-set generator exhausted its budget without a valid set."""


class KernelNotSelfAdjoint(ToolkitError):
    """A hopping kernel violates the involution identity f*(w,a) = f(w-a,-a)^dagger."""


class GapUndefined(ToolkitError):
    """The Fermi level collides with an eigenvalue, or the gap closed on a grid."""


class LocalizerUnreliable(ToolkitError):
    """The even localizer cannot certify its result: the shift-invert
    eigensolve for the margin (the smallest |eigenvalue|) did not converge,
    or a guard of the signature's LU certificate failed while the margin is
    above margin_min.  A margin that is computed but small is not an error;
    it yields an IndexResult with status "unreliable"."""


class SymmetryViolation(ToolkitError):
    """An operator fails a required symmetry (e.g. chiral anticommutation)."""
