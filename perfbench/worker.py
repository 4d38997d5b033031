"""One benchmark worker process.

It times `import fraclap` plus the workload's warm-up (the set-up time),
then, in `run` mode, drives the workload closed loop with one client:
each CLI command goes through `fraclap.cli.main(argv)` in this process,
its output goes to a scratch CSV file, and the next command starts only
after the previous one returned.  Outputs are checked against
`reference` outside the timed region.  The worker prints one JSON object
on its last stdout line.

    python3 perfbench/worker.py --mode run --workload line --seed 1 \
        --seconds 30 --trace 0 --src src --out-dir perfbench/out
"""

import argparse
import contextlib
import io
import json
import math
import os
import resource
import signal
import statistics
import sys
import time
from itertools import islice

import workloads

# whole cycles in a traced run: a fixed count, so that its work counts
# repeat exactly for a seed, sized to 5-10 s of commands here
TRACE_CYCLES = {"line": 8, "sphere": 2, "lattice": 10}
# a run stops starting commands after this much wall time, whatever
# --seconds or the traced cycle count say, and a command that runs longer
# than COMMAND_TIMEOUT_S fails, so that a run always ends within its limit
HARD_STOP_S = 120.0
COMMAND_TIMEOUT_S = 30.0
# Times are reported at a fixed reference speed of the host.  The host is
# shared, and its speed drifts by up to half in phases of seconds to
# minutes; a fixed calibration task, timed before every command, slows
# with it, and each time is scaled by REFERENCE_CAL_S over the calibration
# time measured around it (NOTES.md).  REFERENCE_CAL_S is the
# calibration's median time over 30 runs on the host the bounds were set
# on (a shared 2-core Xeon), so that there scaled and raw times agree on
# average.
REFERENCE_CAL_S = 1.25e-3
# half-width, in commands, of the window whose median calibration time
# gives the host's speed at a command: the calibrations before the two
# previous commands, before the command and after it and the next one.
# The host's speed changes within seconds, so that wider windows steadied
# the times less
CAL_WINDOW = 2


class CommandTimeout(BaseException):
    """Raised into a command that overran COMMAND_TIMEOUT_S.  Not an
    Exception, so that handlers inside the program do not swallow it."""


def _overran(signum, frame):
    raise CommandTimeout()


def run_command(cli, cmd, out_path):
    """Run one command in-process; returns (latency, rc, output, error)."""
    argv = list(cmd.argv)
    if cmd.kind != "selftest":
        argv += ["--out", out_path]
        if os.path.exists(out_path):
            os.remove(out_path)
    buf = io.StringIO()
    rc, error = None, None
    previous = signal.signal(signal.SIGALRM, _overran)
    signal.setitimer(signal.ITIMER_REAL, COMMAND_TIMEOUT_S)
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
    except SystemExit as exc:          # argparse rejects bad argv this way
        rc = exc.code
    except Exception as exc:           # a crash is a failed command
        error = "%s: %s" % (type(exc).__name__, exc)
    except CommandTimeout:
        error = "timed out after %g s" % COMMAND_TIMEOUT_S
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
    latency = time.perf_counter() - t0
    if cmd.kind == "selftest" or not os.path.exists(out_path):
        text = buf.getvalue()
    else:
        with open(out_path) as fh:
            text = fh.read()
    return latency, rc, text, error


_CAL_X = None


def calibrate():
    """Seconds that a fixed piece of work takes now: small numpy array
    operations in a Python loop, then pure-Python integer arithmetic, the
    two kinds of work that fraclap's quadratures spend their time on."""
    global _CAL_X
    import numpy as np
    if _CAL_X is None:
        _CAL_X = np.linspace(0.0, 1.0, 15)
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(60):
        acc += float(np.sum(np.exp(-_CAL_X * (1.0 + i * 1e-3)) * _CAL_X))
    k = 0
    for i in range(6000):
        k += i * i % 7
    return time.perf_counter() - t0


def calibrated(seconds, cal_s):
    """seconds, scaled from the host speed at which the calibration took
    cal_s to the reference speed."""
    return seconds * REFERENCE_CAL_S / cal_s


def command_class(cmd):
    """A short label such as "apply gaussian regularized n=3"."""
    p = cmd.params
    words = [cmd.kind] + [str(p[k]) for k in ("field", "rep") if k in p]
    if "n" in p and cmd.kind != "constants":
        words.append("n=%d" % p["n"])
    if cmd.defect:
        words.append("probe %d" % cmd.defect)
    return " ".join(words)


class Tally:
    """Latencies and check outcomes of a sequence of commands.

    A command that misses its tolerance counts in `missed`.  It is also
    `failed`, the run's broken commands, unless it is a probe whose error
    stays within the allowance of its known defect."""

    def __init__(self, checker):
        self.checker = checker
        self.latencies = []
        self.cal = []              # calibration time before each command
        self.values = 0
        self.missed = 0
        self.failed = 0
        self.digits = []           # per command: min digits of its values
        self.probes = {}           # defect number -> [probes, misses]
        self.by_class = {}         # command class -> [count, seconds]
        self.failures = []

    def run(self, cli, cmd, out_path):
        self.cal.append(calibrate())
        latency, rc, text, error = run_command(cli, cmd, out_path)
        check = self.checker(cmd, rc, text, error)
        self.latencies.append(latency)
        spent = self.by_class.setdefault(command_class(cmd), [0, 0.0])
        spent[0] += 1
        spent[1] += latency
        known = check.ok or (cmd.defect and check.worst <= cmd.allow)
        if cmd.defect:
            probes = self.probes.setdefault(str(cmd.defect), [0, 0])
            probes[0] += 1
            probes[1] += not check.ok
        if known:
            self.values += check.values
        if not check.ok:
            self.missed += 1
            self.failed += not known
            # every failure; known misses only while fewer than 20 are listed
            if not known or len(self.failures) < 20:
                self.failures.append({
                    "argv": list(cmd.argv), "reason": check.reason,
                    "defect": cmd.defect if known else None})
        if math.isfinite(check.digits):
            self.digits.append(check.digits)
        return latency

    @property
    def timed(self):
        return math.fsum(self.latencies)

    def scaled_latencies(self):
        """Each latency at the reference speed, by the median calibration
        time of the commands within CAL_WINDOW of it."""
        n = len(self.cal)
        return [calibrated(lat, statistics.median(
            self.cal[max(0, i - CAL_WINDOW):min(n, i + CAL_WINDOW + 1)]))
            for i, lat in enumerate(self.latencies)]


def _p90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[8] \
        if len(values) > 1 else values[0]


def end_to_end(tally):
    scaled = tally.scaled_latencies()
    lat = sorted(scaled)
    p90 = _p90(lat)
    attempted = len(lat)
    return {
        "evals_per_s": tally.values / math.fsum(scaled),
        "cmd_p50_s": statistics.median(lat),
        "cmd_p90_s": p90,
        "pass_ratio": (attempted - tally.missed) / attempted,
        "acc_digits": statistics.median(tally.digits),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }, {"commands": attempted, "beyond_p90": sum(v > p90 for v in lat),
        "fail_ratio": tally.missed / attempted, "probes": tally.probes,
        "time_by_class": tally.by_class, "timed_s": tally.timed,
        "min_digits": min(tally.digits),
        # the same timings unscaled, and the host's speed during the run
        "raw": {"evals_per_s": tally.values / tally.timed,
                "cmd_p50_s": statistics.median(tally.latencies),
                "cmd_p90_s": _p90(sorted(tally.latencies))},
        "cal_s": {"median": statistics.median(tally.cal),
                  "quartiles": statistics.quantiles(tally.cal, n=4)
                  if len(tally.cal) > 1 else tally.cal * 3},
        "per_command": {"latency_s": tally.latencies, "cal_s": tally.cal}}


def run_untraced(cli, tally, args, out_path, wall0):
    plan = workloads.cycles(args.workload, args.seed)
    cycles = []                        # (values, command time) per cycle
    # after the first cycle that ends past each mark, pause: print "pause"
    # and wait for a line on stdin, so that the caller can sample set-up
    # times in fresh processes during the run
    marks = [args.seconds * (k + 1) / (args.pauses + 1)
             for k in range(args.pauses)]
    for cycle in plan:
        values, timed = tally.values, tally.timed
        for cmd in cycle:
            tally.run(cli, cmd, out_path)
            if time.perf_counter() - wall0 > HARD_STOP_S:
                return cycles
        cycles.append((tally.values - values, tally.timed - timed))
        if tally.timed >= args.seconds or args.smoke:
            return cycles
        if marks and tally.timed >= marks[0]:
            del marks[0]
            print("pause", flush=True)
            sys.stdin.readline()


def run_traced(fraclap, cli, checker, args, out_path, wall0):
    import reference
    import tracing

    n_cycles = 1 if args.smoke else TRACE_CYCLES[args.workload]
    cmds = [cmd for cycle in islice(
        workloads.cycles(args.workload, args.seed), n_cycles)
        for cmd in cycle]
    # each command runs untraced and traced back to back, in alternating
    # order, so that machine drift and first-run effects cancel in
    # trace_overhead_ratio
    plain, traced, extra = Tally(checker), Tally(checker), Tally(checker)
    tracer = tracing.Tracer()
    tracer.install(fraclap)
    tracer.detach()
    try:
        for i, cmd in enumerate(cmds):
            if time.perf_counter() - wall0 > HARD_STOP_S:
                break
            tracer.cmd_id = i
            for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
                if with_trace:
                    tracer.attach()
                    traced.run(cli, cmd, out_path)
                    tracer.detach()
                else:
                    plain.run(cli, cmd, out_path)
        if args.workload == "sphere":
            tracer.cmd_id = len(cmds)
            tracer.attach()
            extra.run(cli, workloads.BOUND_MISS_CASE, out_path)
    finally:
        tracer.detach()

    metrics = {"%s.self_s" % layer: t for layer, t in tracer.self_s.items()}
    metrics.update(tracer.counts)
    metrics["flcore.bound_miss"] = tracer.bound_misses(
        reference.operator_exact)
    metrics["trace_overhead_ratio"] = traced.timed / plain.timed
    spans = os.path.join(args.out_dir, "spans-%s-seed%d.npz"
                         % (args.workload, args.seed))
    tracer.write(spans)
    failures = plain.failures + traced.failures + extra.failures
    return metrics, {
        "commands": len(cmds), "spans": len(tracer.name), "spans_file": spans,
        "untraced_s": plain.timed, "traced_s": traced.timed,
        "attempted": len(plain.latencies) + len(traced.latencies)
        + len(extra.latencies),
        "failed": plain.failed + traced.failed + extra.failed,
        "failures": failures}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--mode", choices=("setup", "run"), required=True)
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--pauses", type=int, default=0,
                    help="times to pause during an untraced run")
    ap.add_argument("--src", required=True)
    ap.add_argument("--out-dir", required=True)
    args = ap.parse_args()
    src = os.path.abspath(args.src)
    out_path = os.path.join(args.out_dir, "cmd-%d.csv" % os.getpid())

    t0 = time.perf_counter()
    sys.path.insert(0, src)
    import fraclap
    from fraclap import cli
    if not os.path.abspath(fraclap.__file__).startswith(src + os.sep):
        raise SystemExit("fraclap imported from %s, not from %s"
                         % (fraclap.__file__, src))
    for cmd in workloads.warmup(args.workload):
        run_command(cli, cmd, out_path)
    setup_s = time.perf_counter() - t0
    # the host's speed just after set-up (not part of it)
    setup_cal = statistics.median(calibrate() for _ in range(9))

    result = {"setup_s": calibrated(setup_s, setup_cal),
              "setup_raw_s": setup_s, "setup_cal_s": setup_cal}
    if args.mode == "run":
        import numpy
        import reference
        result["numpy"] = numpy.__version__
        if args.trace:
            # each traced command runs twice: compute its references once
            metrics, detail = run_traced(fraclap, cli, reference.Checker(),
                                         args, out_path, t0)
            attempted, failed = detail["attempted"], detail["failed"]
        else:
            tally = Tally(reference.check_command)
            cycles = run_untraced(cli, tally, args, out_path, t0)
            metrics, detail = end_to_end(tally)
            detail.update(cycles=cycles, failures=tally.failures)
            attempted, failed = len(tally.latencies), tally.failed
        result.update(metrics=metrics, detail=detail, attempted=attempted,
                      failed=failed)
    if os.path.exists(out_path):
        os.remove(out_path)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
