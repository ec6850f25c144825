"""Exception types raised by qrange.

Every error raised deliberately by this package derives from
:class:`QRangeError`, so callers can catch one type at an API boundary.
"""

__all__ = [
    "QRangeError",
    "DimensionMismatch",
    "AsymmetricInput",
    "InvalidInstance",
    "ZeroVector",
    "ZeroMatrix",
    "ConvergenceFailure",
    "InvalidReport",
    "RootFailure",
    "DegenerateCloud",
    "IoFailure",
]


class QRangeError(Exception):
    """Base class for all qrange errors."""


class DimensionMismatch(QRangeError):
    """Operands have incompatible shapes."""


class AsymmetricInput(QRangeError):
    """A matrix is too far from symmetric to be silently symmetrized."""


class InvalidInstance(QRangeError):
    """A problem instance is malformed (bad shapes, non-finite data, ...)."""


class ZeroVector(QRangeError):
    """A direction vector required to be nonzero is (numerically) zero."""


class ZeroMatrix(QRangeError):
    """A matrix required to be nonzero is (numerically) zero."""


class ConvergenceFailure(QRangeError):
    """The underlying eigensolver failed to converge."""


class InvalidReport(QRangeError):
    """A separation report passed to a downstream step does not certify separation."""


class RootFailure(QRangeError):
    """Root extraction for witness points failed; the report is inconsistent."""


class DegenerateCloud(QRangeError):
    """A sampled point cloud is (numerically) collinear, so its hull has no interior.

    Hole detection on such a cloud is not decidable; callers treating this as a
    verdict should report "no hole suspected".
    """


class IoFailure(QRangeError):
    """A file could not be written or read."""
