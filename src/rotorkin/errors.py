"""Exception types shared across the package.

Every failure mode raises an explicit error instead of letting NaN/Inf
propagate into downstream limit computations.
"""


class KinematicsError(Exception):
    """Base class for all errors raised by rotorkin."""

    t = None  # the failing parameter, when an array sampler knows it


# -- vector algebra ---------------------------------------------------------

class DegenerateVector(KinematicsError):
    """Vector too short to normalize."""


# -- curves -----------------------------------------------------------------

class OutOfDomain(KinematicsError):
    """Parameter value outside the curve's domain."""


class OrderUnsupported(KinematicsError):
    """Derivative order outside 1..3."""


class NonMonotonic(KinematicsError):
    """Parameter substitution is not strictly monotonic on its domain."""


class UnknownCurve(KinematicsError):
    """Catalog lookup failed."""


class BadParameters(KinematicsError):
    """Curve/surface parameters violate their constraints."""


# -- expression parsing -----------------------------------------------------

class ExprSyntaxError(KinematicsError):
    """Malformed expression text; carries the byte offset of the failure."""

    def __init__(self, message: str, offset: int):
        super().__init__(message, offset)  # both, so pickle can rebuild it
        self.offset = offset

    def __str__(self) -> str:
        return f"{self.args[0]} (at offset {self.offset})"


class UnknownIdentifier(KinematicsError):
    """Expression references a name that is not bound."""


class EvalDomain(KinematicsError):
    """Expression evaluated outside its mathematical domain."""


# -- frames and kinematics --------------------------------------------------

class CenterOnCurve(KinematicsError):
    """The curve passes through (or too close to) the frame center."""


class SingularPoint(KinematicsError):
    """A required curve derivative vanishes at the evaluation point."""


class DegenerateChord(KinematicsError):
    """Chord between nearby curve points has (numerically) zero length."""


class DegenerateFrame(KinematicsError):
    """The first three curve derivatives fail to span 3-space."""


class DegenerateProjection(KinematicsError):
    """A projected vector required to be nonzero is (numerically) zero."""


class AxisProjectionDegenerate(DegenerateProjection):
    """A coordinate-plane projection of the position vector vanishes."""


class CurvesIntersect(KinematicsError):
    """Two curves coincide at the evaluation parameter."""


class IrregularNet(KinematicsError):
    """Surface coordinate net degenerates (r_u, r_v nearly parallel)."""


# -- reconstruction ---------------------------------------------------------

class NonTangentField(KinematicsError):
    """Direction ODE right-hand side is not tangent to the unit sphere."""


class StepTooLarge(KinematicsError):
    """Integrated distance became non-positive mid-run."""


class ProjectionCollapse(KinematicsError):
    """A projected direction approached a coordinate axis during integration."""


class InconsistentDirections(KinematicsError):
    """The three projected directions fail to triangulate a single point."""


class NonFiniteData(KinematicsError):
    """Reconstruction data or a reconstructed trajectory is NaN or infinite."""


# -- root finding -----------------------------------------------------------

class RootCountMismatch(KinematicsError):
    """Bisection scan found a different number of roots than expected."""
