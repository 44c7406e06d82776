"""Exception types shared across the package.

Everything raised on purpose derives from FilippovError so the CLI can
separate analysis failures (exit 1) from malformed input (exit 2).
"""

from __future__ import annotations


class FilippovError(Exception):
    """Base class for all errors raised by this package."""


class SpecFileError(FilippovError):
    """Malformed or unreadable system spec file."""


class ZeroNormal(SpecFileError):
    """Switching-line normal vector c is (0, 0)."""


class DegenerateField(FilippovError):
    """An operation required det(A) != 0 and the field is singular."""


class NotSlidingRegion(FilippovError):
    """Sliding vector field requested at a crossing point."""


class NoAdmissibleFocus(FilippovError):
    """Canonical reduction needs an admissible focus on some side."""


class DeltaNotOne(FilippovError):
    """The equal-gamma shear is only defined for delta = 1."""


class EtaZero(FilippovError):
    """Axis-pattern classification needs eta != 0."""


class ConditionViolated(FilippovError):
    """The closed-form half-map machinery requires condition (addcond)."""


class OutOfRange(FilippovError):
    """Parametric half-map evaluated outside its transit-time interval."""


class PoleUnresolved(FilippovError, OverflowError):
    """Half-map height too large to reach: its arc time would sit closer to
    the pole than float resolution allows.  An OverflowError, so callers
    that fall back on float overflow fall back on this too."""


class ReturnOverflow(FilippovError, OverflowError):
    """Axis return whose time, landing height or speed there is not a finite
    float: the arc leaves float range first.  An OverflowError, so callers
    that fall back on float overflow fall back on this too."""


class DomainError(FilippovError):
    """Half map evaluated outside its y-domain."""


class NoReturn(FilippovError):
    """The orbit leaves the axis and never comes back to it."""


class RootNotBracketed(FilippovError, ValueError):
    """Bracketed root search given ends where f has the same sign, or a NaN
    from f.  A ValueError, as scipy.optimize.brentq raises in both cases."""


class RootNotConverged(FilippovError, RuntimeError):
    """Bracketed root search that ran out of iterations.  A RuntimeError, as
    scipy.optimize.brentq raises."""


class DegenerateTangency(FilippovError):
    """Tangency with vanishing curvature; the orbit taxonomy assumes generic contact."""


class TheoremViolation(FilippovError):
    """An exclusion that should hold structurally failed; signals an implementation bug."""


class WindowNotFound(FilippovError):
    """Parameter-window search exhausted its offsets without matching the expected counts."""
