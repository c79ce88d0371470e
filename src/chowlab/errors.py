"""Exceptions shared across the package.

Exit-code mapping used by the CLI: RouteDisagreementError -> 1,
ValueError -> 2 (usage/domain), ResourceBoundError -> 3, any other
exception -> 4 (internal error).  Inside `check` both of ours are contained
per identity: a RouteDisagreementError is a FAIL entry (exit 1), a
ResourceBoundError a SKIPPED entry (exit 3 when nothing failed).
"""

from .exactalg import diff_terms


class ResourceBoundError(Exception):
    """An enumeration or lattice size bound would be exceeded."""


class RouteTable(dict):
    """A quantity's routes by method name; an unknown name is a `ValueError`."""

    def __missing__(self, method):
        raise ValueError(f"unknown method {method!r}")


class RouteDisagreementError(Exception):
    """Two routes that must produce the same exact value disagree.

    Carries a human-readable diff of the two values; any occurrence is an
    internal invariant violation, never a recoverable condition.
    """

    def __init__(self, what, left, right, diff=""):
        msg = f"{what}: routes disagree\n  left:  {left}\n  right: {right}"
        if diff:
            msg += f"\n  diff: {diff}"
        super().__init__(msg)


def require_equal(what, left, right):
    """Raise RouteDisagreementError, with the diff, unless the polynomials are equal."""
    if left != right:
        raise RouteDisagreementError(what, left.to_text(), right.to_text(), str(diff_terms(left, right)))
