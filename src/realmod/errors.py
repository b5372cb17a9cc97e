"""Shared exception types."""


class ShapeError(ValueError):
    """Operands have incompatible shapes."""


class SingularMatrixError(ArithmeticError):
    """A matrix that must be invertible is not."""


class CompositionError(ValueError):
    """Morphisms were composed across mismatched objects."""


class InvariantViolation(ValueError):
    """A structural law that defines a type failed to hold."""


# the errors a library call raises on input it rejects: a command reports
# them as a failed verdict, and the selftest as a failed suite
RUN_ERRORS = (InvariantViolation, ShapeError, SingularMatrixError, ZeroDivisionError)
