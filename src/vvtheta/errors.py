"""Exception hierarchy for vvtheta."""


class VvthetaError(Exception):
    """Base class for all vvtheta errors."""


# lattice construction / sublattices

class NotSymmetric(VvthetaError):
    pass


class NotEven(VvthetaError):
    pass


class Degenerate(VvthetaError):
    pass


class NotPrimitive(VvthetaError):
    pass


class DegenerateSublattice(VvthetaError):
    pass


class IncompatibleSublattices(VvthetaError):
    pass


class NotIntegral(VvthetaError):
    """A Gram or generator entry that is not an exact integer."""


class NotRational(VvthetaError):
    """A span or shift entry that is neither a rational nor a finite float."""


# discriminant forms

class NotIsotropic(VvthetaError):
    pass


class NotSubgroup(VvthetaError):
    pass


class NotInDual(VvthetaError):
    pass


class MismatchedSignature(VvthetaError):
    pass


class EnumerationCapExceeded(VvthetaError):
    pass


# representation vectors

class IndexMismatch(VvthetaError):
    pass


# Grassmannian / polynomials

class NotPositiveDefiniteSpan(VvthetaError):
    pass


class WrongDimension(VvthetaError):
    pass


class NonHomogeneousPolynomial(VvthetaError):
    pass


class PolynomialNotHarmonic(VvthetaError):
    pass


# theta computation

class TauNotInUpperHalfPlane(VvthetaError):
    pass


class BoundTooLarge(VvthetaError):
    pass


class NegativeBound(VvthetaError):
    """A theta sum was asked for with a truncation bound below 0 (or NaN)."""


class TailTooLarge(VvthetaError):
    """A transformation-defect certificate above a tenth of the tolerance
    asked for.  Raised only by modularity_defects called with an explicit
    tolerance; the scenario runner passes none, and reports such a check as
    "uncertified" instead."""


class VectorNotInComplement(VvthetaError):
    pass


class DuplicateCosetKey(VvthetaError):
    """Two cosets of one theta sum under the same axis key."""


# contraction

class ComplementNotDefinite(VvthetaError):
    pass


class InconsistentDegrees(VvthetaError):
    pass


class EmptyGrid(VvthetaError):
    """A quadrature grid with no points: fewer than one cell per side, or a
    y_max that is not a finite number above the domain's lowest point."""


# CLI / scenarios

class ParseError(VvthetaError):
    pass


class UnknownCheck(VvthetaError):
    pass


class OutputNotWritable(VvthetaError):
    """An output file that cannot be opened or written."""
