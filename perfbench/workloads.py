"""Seeded generators of fraclap CLI commands for the benchmark workloads.

A workload is an endless sequence of cycles.  Every cycle holds the same
mix of command kinds, so runs on different seeds measure the same kind of
work and a run that stops at a cycle boundary always holds whole mixes.
The seed draws the parameters inside each kind and the order of commands
within the cycle.  Draws are stratified to keep the cost of a cycle
steady: a kind that occurs k times in a cycle takes one draw from each
k-th of its range, and a kind that occurs once per cycle walks its range
along a golden-ratio sequence started at a seeded offset.

The same seed gives the same commands: `random.Random` is seeded with a
string, which does not depend on PYTHONHASHSEED.

The main ranges stay inside the region where the program meets the
requested tolerance.  Each cycle also holds *probes*: cheap commands drawn
inside the region of a known accuracy defect (NOTES.md numbers them).  A
probe that misses its tolerance counts in the measured fail ratio, but
not as a broken run, as long as its error stays within the probe's
allowance, a bound set from the defect's measured size.
"""

import random
from dataclasses import dataclass, replace

WORKLOADS = ("line", "sphere", "lattice")
REPS = ("standard", "order_m", "regularized")
# self-test groups the line workload rotates through; "lattice" is left
# out so that the lattice layer stays untouched outside its own workload
SELFTEST_GROUPS = ("constants", "quad", "flcore", "oracle")
_GOLDEN = 0.6180339887498949


@dataclass(frozen=True)
class Command:
    """One CLI invocation: its kind, the parameters the checker needs, and
    the argv the program receives (without --out).  A probe names its
    known defect and the error allowed, in multiples of its tolerance."""
    kind: str
    params: dict
    argv: tuple
    defect: int = 0
    allow: float = 1.0


def _cmd(kind, **params):
    argv = [kind]
    for key, val in params.items():
        flag = "--" + key.replace("_", "-")
        if isinstance(val, bool):
            if val:
                argv.append(flag)
        else:
            # "--flag=value": argparse takes a separate "-9.8e-05" for a flag
            argv.append("%s=%s" % (flag, repr(val) if isinstance(val, float)
                                   else val))
    if kind != "selftest":
        argv += ["--format", "csv"]
    return Command(kind, params, tuple(argv))


def _probe(defect, allow, cmd):
    return replace(cmd, defect=defect, allow=allow)


class _Draw:
    """Uniform draws in (0, 1) for one cycle of one workload."""

    def __init__(self, rng, offsets, index):
        self.rng, self.offsets, self.index = rng, offsets, index

    def slices(self, k):
        """k draws, one in each k-th of (0, 1), in random order."""
        u = [(i + self.rng.random()) / k for i in range(k)]
        self.rng.shuffle(u)
        return u

    def sweep(self, slot):
        """This cycle's point of a golden-ratio walk through (0, 1)."""
        return (self.offsets[slot] + self.index * _GOLDEN) % 1.0

    def pattern(self, values):
        out = list(values)
        self.rng.shuffle(out)
        return out


def _lerp(u, lo, hi):
    return lo + u * (hi - lo)


def _alpha(u, lo, hi):
    """alpha on (lo, hi) at u, moved at least 0.025 away from every even
    integer, where the fractional branches are ill-conditioned."""
    a = _lerp(u, lo, hi)
    even = 2.0 * round(a / 2.0)
    if abs(a - even) < 0.025:
        a = even + (0.025 if a >= even else -0.025)
    return a


# Upper alpha of each representation.  The regularized form is valid for
# every alpha >= 0, but above 3.9 it can miss 1e-9; probes cover that
# region (defect 9, NOTES.md).
_ALPHA_HI = {"standard": 1.9, "regularized": 3.9}


def _rep_alpha(u, rep, m=1, cap=None):
    """alpha across the representation's range; order_m runs with m = 1
    or 2, because at m = 3 it can grind for minutes (NOTES.md)."""
    hi = 2.0 * m - 0.1 if rep == "order_m" else _ALPHA_HI[rep]
    return _alpha(u, 0.1, hi if cap is None else min(hi, cap))


def _tol(rng, rep):
    # the regularized form misses 1e-10 (NOTES.md)
    return rng.choice((1e-8, 1e-9) if rep == "regularized" else (1e-9, 1e-10))


# Error a probe may reach, in multiples of its tolerance, before it counts
# as broken rather than as its known defect, by defect number (NOTES.md)
ALLOW = {3: 20.0, 5: 100.0, 6: 3e7, 7: 10.0, 9: 100.0, 11: 20.0}


# ------------------------------------------------------------------ line (1-D)

def _line_cycle(rng, draw):
    out = []
    for slot, rep in enumerate(REPS):
        m = 1 + draw.index % 2 if rep == "order_m" else 1
        # with the spectral-oracle column: the oracle's image correction
        # assumes sigma = 1, and above alpha = 2 the |k|^alpha multiplier
        # lifts rounding noise on the finest grids past the tolerance
        half = rng.choice((1.0, 1.5, 2.0))
        step = rng.choice((0.25, 0.5))
        out.append(_cmd(
            "apply", field="gaussian", rep=rep,
            alpha=_rep_alpha(draw.sweep(slot), rep, m, cap=2.0), m=m, n=1,
            sigma=1.0, x_min=-half, x_max=half,
            samples=int(round(2 * half / step)) + 1,
            oracle_samples=(256, 1024, 4096)[(draw.index + slot) % 3],
            oracle_length=16.0, tol=1e-8))
        # without it (14 sigma > oracle length): the whole alpha range
        x0 = rng.uniform(-2.0, 0.0)
        out.append(_cmd(
            "apply", field="gaussian", rep=rep,
            alpha=_rep_alpha(draw.sweep(3 + slot), rep, m), m=m, n=1,
            sigma=rng.uniform(1.2, 2.0), x_min=x0,
            x_max=x0 + rng.uniform(0.5, 3.0), samples=rng.randint(3, 9),
            tol=_tol(rng, rep)))
        if rep != "regularized":
            # regularized plane waves miss --tol by up to 2x (NOTES.md);
            # regularized eig, which keeps its own tolerance, stays
            x0 = rng.uniform(-2.0, 0.0)
            out.append(_cmd(
                "apply", field="planewave", rep=rep,
                alpha=_rep_alpha(draw.sweep(6 + slot), rep, m), m=m,
                n=rng.choice((1, 2, 3)), k=rng.uniform(0.3, 3.0),
                x_min=x0, x_max=x0 + rng.uniform(0.5, 2.0),
                samples=rng.randint(3, 9), tol=_tol(rng, rep)))
        # two regularized sweeps (its eig recomputes the cos moment per k,
        # so these are the heaviest commands): p90 then falls inside them.
        # Their cost falls from 0.9 s to 0.06 s as alpha rises, so alpha
        # walks both halves of its range along the golden-ratio sequence,
        # which spreads a run's draws evenly (NOTES.md)
        walk = draw.sweep(9 + slot)
        for u in (walk / 2, (1 + walk) / 2) if rep == "regularized" \
                else [walk]:
            k_min = rng.uniform(0.2, 1.0)
            out.append(_cmd(
                "eig", rep=rep, alpha=_rep_alpha(u, rep, m), m=m,
                n=rng.choice((1, 2, 3)), k_min=k_min,
                k_max=k_min + rng.uniform(0.5, 3.0),
                samples=2 if rep == "regularized" else rng.randint(2, 6),
                # regularized eig ignores --tol and can be off by 1.6e-9
                tol=1e-8 if rep == "regularized" else _tol(rng, rep)))
    for u in draw.slices(2):
        m = rng.choice((1, 2, 3))
        out.append(_cmd(
            "constants", n=rng.choice((1, 2, 3)),
            alpha=_alpha(u, 0.1, 2.0 * m - 0.1), m=m,
            h=rng.uniform(0.5, 2.0), zeta=rng.uniform(0.5, 2.0), tol=1e-9))
    out.append(_cmd("selftest", filter="potentials"))
    out.append(_cmd("selftest", filter=SELFTEST_GROUPS[
        draw.index % len(SELFTEST_GROUPS)]))
    out.append(_LINE_PROBES[draw.index % len(_LINE_PROBES)](rng, draw))
    return out


# Probes of the line workload, one per cycle in turn.  Each one draws its
# parameters inside the region of the defect it names (NOTES.md).

def _probe_oracle_sigma(rng, draw):
    # 6: the oracle's image correction ignores sigma
    rep = REPS[draw.index // 5 % 3]
    return _probe(6, ALLOW[6], _cmd(
        "apply", field="gaussian", rep=rep,
        alpha=_rep_alpha(draw.sweep(12), rep, cap=2.0), m=1, n=1,
        sigma=rng.uniform(0.7, 0.95), x_min=-1.0, x_max=1.0, samples=5,
        oracle_samples=1024, oracle_length=16.0, tol=1e-8))


def _probe_image_tail(rng, draw):
    # 7: the image-tail remainder at small alpha
    return _probe(7, ALLOW[7], _cmd(
        "apply", field="gaussian", rep="standard",
        alpha=_lerp(draw.sweep(13), 0.1, 0.4), m=1, n=1, sigma=1.0,
        x_min=-1.0, x_max=1.0, samples=5, oracle_samples=1024,
        oracle_length=16.0, tol=1e-9))


def _probe_regularized_large_alpha(rng, draw):
    # 9: the regularized form above alpha = 3.9
    x0 = rng.uniform(-2.0, 0.0)
    return _probe(9, ALLOW[9], _cmd(
        "apply", field="gaussian", rep="regularized",
        alpha=_alpha(draw.sweep(14), 3.9, 4.9), m=1, n=1,
        sigma=rng.uniform(1.2, 2.0), x_min=x0, x_max=x0 + 2.0, samples=5,
        tol=1e-9))


def _probe_regularized_eig(rng, draw):
    # 9: regularized eig ignores --tol
    k_min = rng.uniform(0.2, 1.0)
    return _probe(9, ALLOW[9], _cmd(
        "eig", rep="regularized", alpha=_alpha(draw.sweep(14), 3.9, 5.5),
        m=1, n=1, k_min=k_min, k_max=k_min + rng.uniform(0.5, 2.0),
        samples=2, tol=1e-10))


def _probe_regularized_planewave(rng, draw):
    # 11: regularized plane waves scale the half-line error by a prefactor
    # that grows with alpha.  Below alpha = 1.9 a probe costs 0.7-1.7 s
    # against 0.06-0.5 s above, and a run holds only three (NOTES.md)
    x0 = rng.uniform(-2.0, 0.0)
    return _probe(11, ALLOW[11], _cmd(
        "apply", field="planewave", rep="regularized",
        alpha=_alpha(draw.sweep(15), 1.9, 3.9), m=1, n=1,
        k=rng.uniform(0.3, 3.0), x_min=x0, x_max=x0 + rng.uniform(0.5, 2.0),
        samples=5, tol=1e-8))


_LINE_PROBES = (_probe_oracle_sigma, _probe_image_tail,
                _probe_regularized_large_alpha, _probe_regularized_eig,
                _probe_regularized_planewave)


# ------------------------------------------------------------- sphere (2-D, 3-D)

def _sphere_apply(rep, n, m, alpha, samples, sigma, x_min, x_max, tol):
    return _cmd(
        "apply", field="gaussian", rep=rep, alpha=alpha, m=m, n=n,
        sigma=sigma, x_min=x_min, x_max=x_max, samples=samples, tol=tol)


def _sphere_cycle(rng, draw):
    out = []
    for rep, count, samples, tols in (
            ("standard", 10, (1, 1, 1, 2, 2, 2, 2, 3, 3, 3),
             (1e-7, 1e-8, 1e-9) * 3 + (1e-8,)),
            ("order_m", 8, (1, 1, 2, 2, 2, 3, 3, 3),
             (1e-7, 1e-8, 1e-9) * 2 + (1e-8, 1e-9)),
            ("regularized", 4, (1, 2, 2, 3), (1e-7, 1e-8, 1e-8, 1e-9))):
        ms = draw.pattern((1, 1, 1, 1, 2, 2, 2, 2)) if rep == "order_m" \
            else [1] * count
        for u, m, npts, tol, us, ux, uy in zip(
                draw.slices(count), ms, draw.pattern(samples),
                draw.pattern(tols), draw.slices(count), draw.slices(count),
                draw.slices(count)):
            out.append(_sphere_apply(
                rep, 2, m, _rep_alpha(u, rep, m), npts,
                _lerp(us, 0.6, 1.4), -ux, uy, tol))
    for slot, rep in enumerate(REPS):
        m = 1 + draw.index % 2 if rep == "order_m" else 1
        # one sweep sets alpha, sigma and the point: a 3-D point costs most
        # at large alpha or far out at small sigma, and a run holds only
        # five or six of each, so their cost must not hinge on corners
        # (NOTES.md).  The CLI's default tolerance: in 3-D the cost of a
        # point hardly depends on it.
        u = draw.sweep(slot)
        sigma = _lerp(u, 0.6, 1.4)
        out.append(_sphere_apply(
            rep, 3, m, _rep_alpha(u, rep, m), 1, sigma, -0.5 * sigma,
            -0.5 * sigma, 1e-9))
    # probe of defect 9: the regularized form above alpha = 3.9 (below
    # sigma = 1 the angular loop there can take 2-3 s instead of 0.2 s)
    out.append(_probe(9, ALLOW[9], _sphere_apply(
        "regularized", 2, 1, _alpha(draw.sweep(12), 3.9, 4.9), 1,
        _lerp(rng.random(), 1.0, 1.4), -rng.random(), rng.random(), 1e-9)))
    return out


# ------------------------------------------------------------------- lattice

def _tails_within_tol(a, delta, m):
    """True when the level-sum truncation provably stays within tol.

    wm_dispersion cuts each tail of the level sum at tol, so the two
    together can reach tol * (a^-delta + a^-(2m-delta)); see NOTES.md."""
    return a ** -delta + a ** -(2 * m - delta) <= 0.95


def _dispersion(rng, u, m):
    # delta <= 2m - 0.5: nearer 2m the level sum overflows to NaN
    lo_a = 2.1 if m == 1 else 1.4
    while True:
        a = _lerp(u, lo_a, lo_a + 0.6 if m == 1 else 2.0)
        delta = rng.uniform(0.5, 2.0 * m - 0.5)
        if _tails_within_tol(a, delta, m):
            break
        u = rng.random()
    # the continuum column comes from wm_limit_amplitude, which holds
    # 1e-8 only for delta >= 1.2 (NOTES.md)
    limit = delta >= 1.2 and rng.random() < 0.6
    kh_min = rng.choice((0.0, rng.uniform(0.05, 0.5)))
    return _cmd(
        "dispersion", delta=delta, a=a, m=m, kh_min=kh_min,
        kh_max=kh_min + rng.uniform(1.0, 3.5), samples=rng.randint(9, 33),
        limit=limit, tol=1e-8 if limit else rng.choice((1e-9, 1e-10, 1e-11)))


def _converge(rng, u, m):
    # a - 1 shrinks by a_factor per step down to a last a in [1.021, 1.03]:
    # the cost of a sweep is mostly its last level sum, so a narrow band
    # there keeps the sweeps, which set p90, alike
    a_start = rng.uniform(1.3, 1.6)
    steps = rng.randint(4, 6)
    a_last = rng.uniform(1.021, 1.03)
    a_factor = ((a_start - 1.0) / (a_last - 1.0)) ** (1.0 / (steps - 1))
    return _cmd(
        "converge", delta=_lerp(u, 1.2, min(2.0 * m - 0.5, 2.0)), m=m,
        kh=rng.uniform(0.5, 2.0), a_start=a_start, a_factor=a_factor,
        steps=steps, tol=1e-8)


def _probe_tails(rng, draw):
    # 3: a curve where the two tails of the level sum can spend more than
    # tol together; small a is also where exact phase reduction costs most
    m = 1 + draw.index % 3
    # up to these a the tails exceed 0.95 for every delta (at delta = m
    # their sum is 2 a^-m, its minimum)
    a = _lerp(draw.sweep(12), 1.1, 1.25 if m == 3 else 1.4)
    delta = rng.uniform(0.5, 2.0 * m - 0.5)
    return _probe(3, ALLOW[3], _cmd(
        "dispersion", delta=delta, a=a, m=m, kh_min=rng.uniform(0.05, 0.5),
        kh_max=rng.uniform(1.0, 3.0), samples=rng.randint(9, 33), limit=False,
        tol=1e-9))


def _probe_limit(rng, draw):
    # 5: the continuum column misses 1e-10; at m = 1 and delta < 1.15 it
    # always does, which keeps the measured fail ratio steady
    # from a = 2.4 the tails stay within tol for every such delta
    a = _lerp(draw.sweep(13), 2.4, 3.0)
    delta = rng.uniform(0.5, 1.1)
    return _probe(5, ALLOW[5], _cmd(
        "dispersion", delta=delta, a=a, m=1, kh_min=0.0,
        kh_max=rng.uniform(1.0, 3.5), samples=9, limit=True, tol=1e-10))


def _lattice_cycle(rng, draw):
    ms = draw.pattern((1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3))
    out = [_dispersion(rng, u, m) for u, m in zip(draw.slices(12), ms)]
    out += [_converge(rng, u, m)
            for u, m in zip(draw.slices(3), draw.pattern((1, 2, 3)))]
    out += [_probe_tails(rng, draw), _probe_limit(rng, draw)]
    return out


_CYCLES = {"line": _line_cycle, "sphere": _sphere_cycle,
           "lattice": _lattice_cycle}


def cycles(workload, seed):
    """Endless iterator over the workload's cycles (lists of Commands)."""
    if workload not in _CYCLES:
        raise ValueError("unknown workload %r" % (workload,))
    rng = random.Random("fraclap-bench:%s:%d" % (workload, seed))
    offsets = [rng.random() for _ in range(16)]
    index = 0
    while True:
        cycle = _CYCLES[workload](rng, _Draw(rng, offsets, index))
        rng.shuffle(cycle)
        yield cycle
        index += 1


def warmup(workload):
    """Small fixed commands run before timing: they pay each command
    kind's first-call costs (lazy imports, caches) once."""
    base = [_cmd("constants", n=1, alpha=1.0, m=1, tol=1e-9)]
    if workload == "line":
        base += [_cmd("apply", field="gaussian", rep="standard", alpha=1.0,
                      n=1, samples=1, oracle_samples=256, tol=1e-6),
                 _cmd("eig", rep="standard", alpha=1.0, samples=1, tol=1e-6),
                 _cmd("selftest", filter="potentials")]
    elif workload == "sphere":
        base += [_cmd("apply", field="gaussian", rep="standard", alpha=1.0,
                      n=n, samples=1, x_min=0.0, x_max=0.0, tol=1e-4)
                 for n in (2, 3)]
    else:
        base += [_cmd("dispersion", delta=1.0, a=2.0, samples=3, limit=True,
                      tol=1e-9),
                 _cmd("converge", delta=1.0, steps=2, tol=1e-9)]
    return base


# A 2-D standard-form value whose reported error (4.27e-11) is below its
# actual error against the closed form (8.26e-11); the traced sphere run
# applies it once so that flcore.bound_miss keeps counting it.
BOUND_MISS_CASE = _cmd(
    "apply", field="gaussian", rep="standard", alpha=1.8382404838364503,
    m=1, n=2, sigma=0.7257872456317662, x_min=-0.07115044720265384,
    x_max=-0.07115044720265384, samples=1, tol=1e-9)
