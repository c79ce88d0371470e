import pytest

from chowlab.exactalg import Layout


@pytest.fixture
def holds():
    """Run a `chowlab.checks` identity: every entry must be ok, and the entry
    names must be exactly `names`, so the range it ran cannot shrink."""

    def check(identity, names):
        entries = list(identity)
        assert [e for e in entries if not e["ok"]] == [] and [e["name"] for e in entries] == list(names)
        return entries

    return check


@pytest.fixture
def unpacked_widths(monkeypatch):
    """The list that collects the slot width of every `Layout.read` call the
    test makes, so a test can count how often a sum is read back."""
    widths = []
    real_read = Layout.read

    def read(layout, value, rows=None):
        widths.append(layout.nb)
        return real_read(layout, value, rows)

    monkeypatch.setattr(Layout, "read", read)
    return widths
