"""dualkit: a workbench for string-diagram rewriting, exact model
categories, idempotent splittings, and equivariant collapse certificates."""

__version__ = "0.1.0"


class DomainError(Exception):
    """Base of every layer's domain failure: an input the mathematics
    rejects (a singular matrix, a group too large, an invalid action, a
    mistyped diagram, ...), as opposed to a bug.  The CLI reports any
    DomainError as a structured failure with exit code 1."""
