import pytest


@pytest.fixture
def holds():
    """Run a `chowlab.checks` identity: every entry must be ok, and the entry
    names must be exactly `names`, so the range it ran cannot shrink."""

    def check(identity, names):
        entries = list(identity)
        assert [e for e in entries if not e["ok"]] == [] and [e["name"] for e in entries] == list(names)
        return entries

    return check
