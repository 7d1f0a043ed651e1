"""The benchmark's span recorder finds every callable that it wraps.

``perfbench/tracer.py`` wraps named functions and methods of ``gentorus``.
A target that a refactor removes or moves is listed in the recorder's
``missing``, and its span then reads 0 in every benchmark metric.  The
recorder is loaded from its file with bytecode writing off, so nothing is
written under ``perfbench/``.
"""

import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_every_tracer_target_resolves(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert any(module.startswith("gentorus.") for _, module, _ in tracer.TARGETS)
    with tracer.SpanRecorder() as rec:
        missing = list(rec.missing)
    assert missing == []
