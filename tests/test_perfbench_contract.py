"""The benchmark tracer wraps module attributes by name; they must all exist."""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_traced_attribute_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    pairs = [(owner, attr) for _, owners, *_ in tracer._targets() for owner, attr in owners]
    assert pairs
    missing = ["%s.%s" % (getattr(owner, "__name__", owner), attr)
               for owner, attr in pairs if not hasattr(owner, attr)]
    assert missing == []
