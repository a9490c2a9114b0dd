"""Errors raised by the counting engine.

Every DomainError maps to CLI exit code 3; usage errors, argparse's and
every ValueError, map to exit code 2.  InexactDivision and
IncompleteEnumeration mark a defect in the engine itself, not in the query,
so the CLI lets them end in a traceback.
"""

import math


class DomainError(Exception):
    """Base class for errors in the mathematical domain of a query."""


class InvalidTau(DomainError):
    """Jump counts on a cycle come in pairs; odd values are meaningless."""


class DegenerateFamily(DomainError):
    """Raised for point queries on a family with no zeros or no ones."""


class UnsupportedPattern(DomainError):
    """No closed form is shipped for this pattern; the oracle still handles it."""


class CapExceeded(DomainError):
    """Brute-force enumeration request above the size cap."""


class ConstantSequence(DomainError):
    """An all-zeros or all-ones sequence has no block decomposition into both digits."""


class InvalidDisplacement(DomainError):
    """Walk displacement must have the same parity as the step count."""


class BeyondDoubleRange(DomainError):
    """A floating-point answer lies beyond the double range."""


def within_double_range(compute, what: str) -> float:
    """compute(), refused with BeyondDoubleRange when its value overflows the doubles."""
    try:
        value = compute()
    except OverflowError:
        value = math.inf
    if math.isinf(value):
        raise BeyondDoubleRange(f"{what} exceeds the double range")
    return value


class InexactDivision(ArithmeticError):
    """A division that a counting formula guarantees to be exact left a remainder."""


class IncompleteEnumeration(ArithmeticError):
    """The oracle's rotation classes did not cover their family exactly once."""
