"""The benchmark in `perfbench/` traces the program by replacing named
functions and methods. A rename in `src/` breaks it with a `KeyError`; this
test makes that fail here as well, without running the benchmark."""

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_installs_and_restores_every_hook(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "tracer", raising=False)
    import tracer

    t = tracer.Tracer()
    try:
        t.install()
        patched = list(t._patches)
        assert patched
        for owner, attr, original in patched:
            assert owner.__dict__[attr] is not original, f"{owner.__name__}.{attr}"
    finally:
        t.uninstall()
    for owner, attr, original in patched:
        assert owner.__dict__[attr] is original, f"{owner.__name__}.{attr} not restored"
