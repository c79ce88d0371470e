"""Exceptions shared across the package.

Exit-code mapping used by the CLI: RouteDisagreementError -> 1,
ValueError -> 2 (usage/domain), ResourceBoundError -> 3, any other
exception -> 4 (internal error).  Inside `check` both of ours are contained
per identity: a RouteDisagreementError is a FAIL entry (exit 1), a
ResourceBoundError a SKIPPED entry (exit 3 when nothing failed).
"""


class ResourceBoundError(Exception):
    """An enumeration or lattice size bound would be exceeded."""


class RouteDisagreementError(Exception):
    """Two routes that must produce the same exact value disagree.

    Carries a human-readable diff of the two values; any occurrence is an
    internal invariant violation, never a recoverable condition.
    """

    def __init__(self, what, left, right, diff=""):
        self.what = what
        self.left = left
        self.right = right
        self.diff = diff
        msg = f"{what}: routes disagree\n  left:  {left}\n  right: {right}"
        if diff:
            msg += f"\n  diff: {diff}"
        super().__init__(msg)
