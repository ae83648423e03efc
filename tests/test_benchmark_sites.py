"""The benchmark tracer (benchmarks/tracing.py) patches gaptiles functions by
name at every module that looks them up, and a name missing there makes
``Tracer.installed()`` raise KeyError. The tracer's own site table is read
here, without changing anything under benchmarks/."""

import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def _span_sites() -> list:
    # compiled from its source, so no bytecode is written beside it
    namespace = {"__name__": "benchmark_tracing"}
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), namespace)
    return namespace["SPAN_SITES"]


def test_every_span_site_names_a_module_attribute():
    sites = [(attr, mod) for _, attr, modules in _span_sites() for mod in modules]
    assert sites
    missing = [
        (attr, mod)
        for attr, mod in sites
        if attr not in importlib.import_module(f"gaptiles.{mod}").__dict__
    ]
    assert missing == []
