"""Tests of the benchmark itself: generators, references, checker, tracer,
and a smoke run of every workload.  Not part of the package's tier-1
suite; run with

    python3 -m pytest perfbench
"""

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys

import mpmath as mp
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [HERE, SRC]

import reference  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from fraclap import cli  # noqa: E402


def _cycles(workload, seed, count):
    it = workloads.cycles(workload, seed)
    return [next(it) for _ in range(count)]


def _first_cycles(workload, seed, count=2):
    return [[cmd.argv for cmd in cycle]
            for cycle in _cycles(workload, seed, count)]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generators_are_deterministic(workload):
    assert _first_cycles(workload, 3) == _first_cycles(workload, 3)
    assert _first_cycles(workload, 3) != _first_cycles(workload, 4)


def _run(cmd, tmp_path):
    return worker.run_command(cli, cmd, str(tmp_path / "out.csv"))


def _perturbed(text, row, col, delta):
    lines = text.splitlines()
    cells = lines[row + 1].split(",")
    cells[col] = repr(float(cells[col]) + delta)
    lines[row + 1] = ",".join(cells)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_checker_flags_a_value_off_by_more_than_tol(workload, tmp_path):
    cycle = next(workloads.cycles(workload, 11))
    cmd = min((c for c in cycle if c.kind != "selftest" and not c.defect),
              key=lambda c: len(c.argv))
    _, rc, text, error = _run(cmd, tmp_path)
    assert reference.check_command(cmd, rc, text, error).ok
    _, ref_rows = reference.expected(cmd)
    col = 1
    scale = max(1.0, abs(float(ref_rows[-1][col])))
    tol = cmd.params["tol"]
    bad = _perturbed(text, len(ref_rows) - 1, col, 3 * tol * scale)
    check = reference.check_command(cmd, rc, bad)
    assert not check.ok and check.digits < 0
    assert not reference.check_command(cmd, 1, text).ok


def test_checker_fails_a_row_with_missing_cells(tmp_path):
    cmd = workloads._cmd("constants", n=2, alpha=1.3, m=2, h=0.7, zeta=1.4,
                         tol=1e-9)
    _, rc, text, _ = _run(cmd, tmp_path)
    lines = text.splitlines()
    lines[1] = lines[1].rsplit(",", 1)[0]
    check = reference.check_command(cmd, rc, "\n".join(lines) + "\n")
    assert not check.ok and check.worst == math.inf
    assert not reference.check_command(cmd, rc, "").ok


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_cycle_probes_a_known_defect(workload):
    for cycle in _cycles(workload, 5, 3):
        probes = [c for c in cycle if c.defect]
        assert probes
        for c in probes:
            assert c.allow == workloads.ALLOW[c.defect] > 1.0


def test_a_probe_miss_within_its_allowance_is_not_a_failure(tmp_path):
    probe = next(c for cycle in workloads.cycles("line", 1) for c in cycle
                 if c.defect == 6)
    tally = worker.Tally(reference.check_command)
    out = str(tmp_path / "out.csv")
    tally.run(cli, probe, out)
    assert (tally.missed, tally.failed, tally.probes) == (1, 0, {"6": [1, 1]})
    # the same output beyond a tighter allowance is a failure
    tally.run(cli, dataclasses.replace(probe, allow=10.0), out)
    assert (tally.missed, tally.failed) == (2, 1)


def test_a_command_that_overruns_fails(tmp_path, monkeypatch):
    monkeypatch.setattr(worker, "COMMAND_TIMEOUT_S", 0.5)
    cmd = workloads._cmd("apply", field="gaussian", rep="order_m", alpha=4.6,
                         m=3, n=1, sigma=0.6, x_min=-1.0, x_max=1.7,
                         samples=3, tol=1e-10)
    latency, rc, _, error = _run(cmd, tmp_path)
    assert rc is None and error.startswith("timed out")
    assert latency < 5.0


def test_times_scale_with_the_local_calibration():
    tally = worker.Tally(reference.check_command)
    ref = worker.REFERENCE_CAL_S
    # the host at half speed for the first three commands, then at full
    tally.latencies = [0.2, 0.2, 0.2, 0.1, 0.1, 0.1, 0.1, 0.1]
    tally.cal = [2 * ref] * 3 + [ref] * 5
    scaled = tally.scaled_latencies()
    assert scaled[0] == pytest.approx(0.1)
    assert scaled[-1] == pytest.approx(0.1)
    assert worker.calibrated(0.3, 3 * ref) == pytest.approx(0.1)
    assert 1e-4 < worker.calibrate() < 0.1


def test_checker_flags_a_wrong_constant(tmp_path):
    cmd = workloads._cmd("constants", n=2, alpha=1.3, m=2, h=0.7, zeta=1.4,
                         tol=1e-9)
    _, rc, text, _ = _run(cmd, tmp_path)
    assert reference.check_command(cmd, rc, text).ok
    bad = text.replace("U,", "U,1", 1)
    assert not reference.check_command(cmd, rc, bad).ok


def test_gaussian_reference_matches_the_laplacian_at_alpha_two():
    for n in (1, 2, 3):
        for r in (0.0, 0.4, 1.3):
            t2 = (r / 0.8) ** 2
            lap = (4 * t2 - 2 * n) / 0.8 ** 2 * math.exp(-t2)
            got = float(reference.gaussian_value(2.0, 0.8, r, n))
            assert got == pytest.approx(lap, rel=1e-14, abs=1e-14)


def test_periodic_images_match_a_direct_sum():
    # images 1..J by the closed form itself; beyond J only the leading
    # far-field term K sigma^(alpha+1) |y|^-(alpha+1) matters
    alpha, x, length, big = 1.3, 0.5, 16.0, 400
    direct = mp.fsum(reference.gaussian_value(alpha, 1.0, x - j * length, 1)
                     + reference.gaussian_value(alpha, 1.0, x + j * length, 1)
                     for j in range(1, big + 1))
    kfac = -2 ** mp.mpf(alpha) * mp.gamma((alpha + 1) / 2) \
        * mp.rgamma(-mp.mpf(alpha) / 2)
    s = alpha + 1
    tail = kfac * length ** -s * (mp.zeta(s, big + 1 - x / length)
                                  + mp.zeta(s, big + 1 + x / length))
    assert reference.periodic_images(alpha, 1.0, x, length) == \
        pytest.approx(float(direct + tail), rel=1e-10)


def test_hurwitz_zeta_matches_mpmath():
    for s in (1.1, 2.3, 10.3, 48.3):
        for q in (0.875, 1.0, 1.125):
            assert reference.hurwitz_zeta(s, q) == pytest.approx(
                float(mp.zeta(s, q)), rel=1e-14)


def test_v_reference_matches_quadrature_and_the_m1_closed_form():
    from fraclap.constants import v_integral_quadrature
    for m, alpha in ((1, 0.7), (2, 1.7), (3, 4.3)):
        assert float(reference.v_radial(m, alpha)) == pytest.approx(
            v_integral_quadrature(m, alpha), rel=1e-10)
    with mp.workdps(40):
        alpha = mp.mpf(1.3)
        classic = mp.pi / (mp.gamma(alpha + 1) * mp.sin(mp.pi * alpha / 2))
        assert abs(reference.v_radial(1, alpha) - classic) < 1e-30 * classic


def test_wm_reference_matches_an_mpmath_level_sum():
    kh, a, delta, m = 1.3, 1.5, 0.8, 1
    with mp.workdps(60):
        s = mp.nsum(lambda s: mp.mpf(a) ** (-delta * s)
                    * mp.sin(mp.mpf(kh) * mp.mpf(a) ** s / 2) ** 2,
                    [-400, 200], method="direct")
        want = 4 * s
    assert reference.wm_dispersion(kh, a, delta, m) == pytest.approx(
        float(want), rel=1e-14)


def test_tracer_counts_the_known_bound_miss_and_restores(tmp_path):
    import fraclap
    from fraclap import flcore, quad
    original = flcore.integrate_adaptive
    tracer = tracing.Tracer()
    tracer.install(fraclap)
    try:
        tracer.cmd_id = 0
        _, rc, text, error = _run(workloads.BOUND_MISS_CASE, tmp_path)
    finally:
        tracer.detach()
    assert rc == 0 and error is None
    assert flcore.integrate_adaptive is original is quad.integrate_adaptive
    assert tracer.bound_misses(reference.operator_exact) == 1
    assert tracer.counts["flcore.calls"] == 1
    assert tracer.counts["fields.ray_calls"] > 0
    assert tracer.counts["quad.panels"] > tracer.counts["quad.adaptive_calls"] > 0
    assert tracer.self_s["fields"] > 0.0
    # spans nest: every parent index precedes its child
    assert all(p < i for i, p in enumerate(tracer.parent))


def _bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_emits_every_named_metric(workload, trace):
    bench = _bench()
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    proc = subprocess.run(
        bench["command"] + ["--workload", workload, "--seed", "1",
                            "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170)
    assert proc.returncode == 0
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    named = bench["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in named}
    for m in named:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"])


def test_fails_cleanly_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in _bench()["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(_bench()["command"] + [
        "--workload", "line", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# --------------------------------------------------------------------------
# Known defects of the program (NOTES.md).  Each test states the fixed
# behaviour and fails today; strict xfail makes a fix show up as an
# unexpected pass, the cue to widen the workload or retire its probe.

defect = pytest.mark.xfail(strict=True, reason="known defect, see NOTES.md")


@defect
def test_defect_level_sum_tails_share_the_tolerance():
    from fraclap.lattice import SelfSimilarParams, wm_dispersion
    kh, a, delta, tol = 0.10271583732603634, 1.1059345128615083, \
        1.5356190374938832, 1e-9
    got = wm_dispersion(kh, SelfSimilarParams(delta=delta, a=a, m=1, tol=tol))
    want = reference.wm_dispersion(kh, a, delta, 1)
    assert abs(got - want) <= tol * max(1.0, abs(want))


@defect
def test_defect_level_sum_stays_finite_near_delta_2m():
    from fraclap.lattice import SelfSimilarParams, wm_dispersion
    p = SelfSimilarParams(delta=5.75, a=1.541, m=3, tol=1e-10)
    assert math.isfinite(wm_dispersion(3.0, p))


@defect
def test_defect_limit_amplitude_meets_its_tolerance():
    from fraclap.lattice import SelfSimilarParams, wm_limit_amplitude
    delta, tol = 0.72, 1e-10
    got = wm_limit_amplitude(SelfSimilarParams(delta=delta, a=1.436, m=1),
                             1.0, tol=tol)
    want = float(reference.v_radial(1, delta))
    assert abs(got - want) <= tol * max(1.0, abs(want))


@defect
def test_defect_oracle_correction_honours_sigma(tmp_path):
    cmd = workloads._cmd("apply", field="gaussian", rep="standard",
                         alpha=1.2, m=1, n=1, sigma=0.8, x_min=-1.0,
                         x_max=1.0, samples=5, oracle_samples=1024,
                         oracle_length=16.0, tol=1e-8)
    _, rc, text, error = _run(cmd, tmp_path)
    assert reference.check_command(cmd, rc, text, error).ok


@defect
def test_defect_image_tail_is_accurate_at_small_alpha():
    from fraclap.oracle import periodic_image_tail
    alpha = 0.1
    assert abs(periodic_image_tail(0.0, alpha, 16.0)
               - reference.periodic_images(alpha, 1.0, 0.0, 16.0)) <= 1e-9


@defect
@pytest.mark.parametrize("alpha", (5.131, 2.707543549660725))
def test_defect_regularized_eig_meets_its_1e_10(alpha):
    from fraclap.flcore import fl_eigenvalue
    k = 1.7
    got = fl_eigenvalue("regularized", alpha, k, tol=1e-10)
    assert abs(got + k ** alpha) <= 1e-10 * k ** alpha


@defect
def test_defect_regularized_plane_wave_meets_tol(tmp_path):
    cmd = workloads._cmd(
        "apply", field="planewave", rep="regularized",
        alpha=1.853010959738926, m=1, n=2, k=1.9122857746870834,
        x_min=-1.8093044307308843, x_max=-0.82162723092521, samples=1,
        tol=1e-08)
    _, rc, text, error = _run(cmd, tmp_path)
    assert reference.check_command(cmd, rc, text, error).ok


@defect
def test_defect_order_m_at_m3_finishes(tmp_path, monkeypatch):
    monkeypatch.setattr(worker, "COMMAND_TIMEOUT_S", 2.0)
    cmd = workloads._cmd("apply", field="gaussian", rep="order_m", alpha=4.6,
                         m=3, n=1, sigma=0.6, x_min=-1.0, x_max=1.7,
                         samples=3, tol=1e-10)
    _, rc, text, error = _run(cmd, tmp_path)
    assert reference.check_command(cmd, rc, text, error).ok
