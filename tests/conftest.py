import pytest

from chowlab import charney, chow, qeuler
from chowlab.exactalg import bipoly


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
    """The list that collects the slot width of every `_unpack` call the
    test makes, in `bipoly` and in each module that imports it, so a test
    can count how often a sum is read back."""
    widths = []
    real_unpack = bipoly._unpack

    def unpack(value, rows, w, nb):
        widths.append(nb)
        return real_unpack(value, rows, w, nb)

    for module in (bipoly, qeuler, chow, charney):
        monkeypatch.setattr(module, "_unpack", unpack)
    return widths
