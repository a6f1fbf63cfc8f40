"""Exception types shared across the package, and `echo` for their messages."""

import math


def echo(value, form=str) -> str:
    """At most 40 characters of `form(value)` (str or repr), for an error line.

    An int is cut to its leading 50 or so digits before it is converted, so
    one past the interpreter's int/str digit limit still shows its first
    digits and a long one is not converted whole.  Any other value whose
    conversion meets that limit (a Fraction or list holding such an int)
    shows as its type name.
    """
    if value.__class__ is int:
        drop = int(abs(value).bit_length() * math.log10(2)) - 50  # at most its digit count - 50
        if drop > 0:
            value = -(-value // 10**drop) if value < 0 else value // 10**drop
    try:
        return form(value)[:40]
    except ValueError:
        return f"<{type(value).__name__}>"


class SpnError(Exception):
    """Base class for all library errors."""


class CircuitStructureError(SpnError):
    """Malformed circuit: bad references, ordering, or arity."""


class CycleError(CircuitStructureError):
    """A node references a child with an id >= its own id."""


class MonotonicityError(CircuitStructureError):
    """Negative weight, constant, or leaf value in a non-extended circuit."""


class DomainError(SpnError):
    """A value lies outside a variable's domain, or a domain is invalid."""


class UnknownVariableError(SpnError):
    """Assignment or query references a variable the circuit does not have."""


class SerializationError(SpnError):
    """Malformed circuit/machine document."""


class TermExplosionError(SpnError):
    """Polynomial expansion exceeded the configured monomial cap."""


class ExtendedCircuitError(SpnError):
    """An operation that requires a monotone circuit got an extended one."""


class ZeroCircuitError(SpnError):
    """Pruning eliminated the root: the circuit computes the zero polynomial."""


class TrivialVariableError(SpnError):
    """A variable has fewer than two domain values."""


class DegenerateCircuitError(SpnError):
    """The circuit has zero weights or zero constants; prune first."""


class NotDecomposableCompleteError(SpnError):
    """Operation requires a decomposable and complete circuit."""


class ZeroPartitionError(SpnError):
    """Partition function is zero; no distribution is defined."""


class NotNormalizedError(SpnError):
    """Sampling requires a weight-normalized circuit."""


class InstanceTooLargeError(SpnError):
    """Input exceeds the bounds of an exhaustive or exact operation."""
