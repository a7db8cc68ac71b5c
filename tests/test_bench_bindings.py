"""Every name the benchmark's span tracer rebinds still exists in src/.

``faslab_bench/spans.py`` wraps faslab functions by replacing module
globals; a traced name that a refactor drops or moves would otherwise
surface only when the benchmark runs.
"""

import importlib
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parents[1] / "faslab_bench"


def test_every_traced_name_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    spans = importlib.import_module("spans")
    missing = [
        f"{owner.__name__}.{attr}"
        for owner, attr, _ in spans.Tracer()._bindings()
        if attr not in owner.__dict__
    ]
    assert not missing, f"traced by faslab_bench/spans.py but missing: {missing}"
