"""The benchmark tracer (perfbench/tracing.py) wraps package names that
it looks up with getattr: deleting or renaming one breaks traced runs, so
the install must succeed here and detach must restore the originals."""

import pathlib

import fraclap
from fraclap import cli, flcore, quad


def _tracing(monkeypatch):
    bench = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
    monkeypatch.syspath_prepend(str(bench))
    import tracing
    return tracing


def test_install_finds_every_name_and_detach_restores(monkeypatch):
    tracing = _tracing(monkeypatch)
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


def test_every_operator_call_is_traced(monkeypatch, capsys):
    # apply and eig dispatch through flcore.fl_apply, which must reach the
    # wrapped forms: 2 points per representation and a 3-point sweep
    tracer = _tracing(monkeypatch).Tracer()
    try:
        tracer.install(fraclap)
        for rep in flcore.REPRESENTATIONS:
            assert cli.main(["apply", "--rep", rep, "--alpha", "1.2",
                             "--samples", "2"]) == 0
        assert cli.main(["eig", "--alpha", "1.2", "--samples", "3"]) == 0
    finally:
        tracer.detach()
    capsys.readouterr()
    calls = 2 * len(flcore.REPRESENTATIONS) + 3
    assert tracer.counts["flcore.calls"] == calls
    assert len(tracer.results) == calls
