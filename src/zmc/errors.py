"""Exception types shared across the package.

The CLI maps these onto exit codes: input errors -> 2, unmet
preconditions -> 3, numeric failures -> 4.
"""


class ZmcError(Exception):
    """Base class for all package errors."""


class InputError(ZmcError):
    """Malformed or inconsistent user input."""


class AngularOrderError(InputError):
    """Angular data violates 0 = a_0 <= a_1 <= ... < 2*pi."""


class BlaschkeOutOfDisk(InputError):
    """A Blaschke parameter has modulus >= 1."""


class PreconditionUnmet(ZmcError):
    """An operation was called on data outside its guaranteed regime."""


class RepeatedAngles(PreconditionUnmet):
    """Closed-form residue coefficients need pairwise distinct angles."""


class NumericError(ZmcError):
    """A numeric routine failed to reach its target accuracy."""


class NoConvergence(NumericError):
    """Newton iteration did not converge; carries diagnostics."""

    def __init__(self, message, x=None, y=None, last=None, residual=None):
        super().__init__(message)
        self.x = x
        self.y = y
        self.last = last
        self.residual = residual


class PoleNotFound(ZmcError):
    """Requested pole does not match any denominator root."""


class DegreeError(ZmcError):
    """Numerator degree too large for a strictly proper decomposition."""


class ParityError(ZmcError):
    """Polynomial is not (anti-)self-reciprocal of the requested kind."""


class OutOfDisk(ZmcError):
    """Point lies outside the closed unit disk."""


class BelowOne(ZmcError):
    """u < 1 has no preimage in the closed unit disk."""


class OutsideDomain(ZmcError):
    """Point is not inside the extension domain."""


class PatternMismatch(ZmcError):
    """Angular data does not match the requested degenerate pattern."""


class PathBlocked(NumericError):
    """No integration path with the required clearance was found."""


class NoImplicitForm(ZmcError):
    """Gallery entry has no implicit-form oracle."""
