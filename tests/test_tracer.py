"""The benchmark tracer (perfbench/tracing.py) wraps package names that
it looks up with getattr: deleting or renaming one breaks traced runs, so
the install must succeed here and detach must restore the originals."""

import pathlib

import fraclap
from fraclap import cli, flcore, quad


def test_install_finds_every_name_and_detach_restores(monkeypatch):
    bench = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
    monkeypatch.syspath_prepend(str(bench))
    import tracing

    names = ((quad, "integrate_adaptive"), (flcore, "fl_standard"),
             (cli, "main"))
    originals = [getattr(mod, attr) for mod, attr in names]
    tracer = tracing.Tracer()
    try:
        tracer.install(fraclap)
        for (mod, attr), fn in zip(names, originals):
            assert getattr(mod, attr).__wrapped__ is fn
    finally:
        tracer.detach()
    for (mod, attr), fn in zip(names, originals):
        assert getattr(mod, attr) is fn
