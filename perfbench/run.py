"""fraclap benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload line --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
./src (pure Python, nothing to build).  `--trace 0` measures the
end-to-end metrics, `--trace 1` the per-layer ones (see NOTES.md).  Each
metric is printed on its own line, a full record with the environment is
written to perfbench/out/, and the last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

sys.path.insert(0, HERE)
import workloads  # noqa: E402

# fresh worker processes whose set-up times are pooled with the main
# worker's; setup_s is their median.  The host's speed drifts in phases of
# seconds, so the samples are spread over the run's whole time window:
# SETUP_BATCH before the main worker, SETUP_BATCH at each of its PAUSES
# (between cycles, untimed) and SETUP_BATCH after it.
SETUP_BATCH = 2
PAUSES = 3
DEADLINE_S = 175.0

END_TO_END_UNITS = {
    "evals_per_s": "1/s", "cmd_p50_s": "s", "cmd_p90_s": "s",
    "pass_ratio": "ratio", "acc_digits": "digits", "peak_rss_mb": "MiB",
    "setup_s": "s",
}


def per_layer_unit(name):
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("_ratio") else "count"


def worker_env():
    env = dict(os.environ)
    # one thread for numpy's BLAS: the benchmark's client is single-threaded
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def _worker_argv(args, mode, pauses=0):
    return [sys.executable, os.path.join(HERE, "worker.py"), "--mode", mode,
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--pauses", str(pauses), "--src", SRC, "--out-dir", OUT] \
        + (["--smoke"] if args.smoke else [])


def run_worker(args, mode, deadline):
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RuntimeError("no time left for a %s worker" % mode)
    proc = subprocess.run(_worker_argv(args, mode), cwd=ROOT, env=worker_env(),
                          stdout=subprocess.PIPE, text=True, timeout=remaining)
    if proc.returncode != 0:
        raise RuntimeError("%s worker exited with %d" % (mode, proc.returncode))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_main_worker(args, deadline, pauses, at_pause):
    """Run the measuring worker.  Each time it prints "pause" it waits,
    between two cycles, for a line on its stdin; at_pause() runs first."""
    proc = subprocess.Popen(_worker_argv(args, "run", pauses), cwd=ROOT,
                            env=worker_env(), stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, text=True)
    # a worker that overruns the deadline is killed, which ends the loop
    timer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    try:
        last = ""
        for line in proc.stdout:
            if line.strip() == "pause":
                at_pause()
                proc.stdin.write("go\n")
                proc.stdin.flush()
            elif line.strip():
                last = line
        rc = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if rc != 0:
        raise RuntimeError("run worker exited with %d" % rc)
    return json.loads(last)


def environment(args, numpy_version):
    import mpmath
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "fraclap")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "cpu_model": cpu, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy_version,
        "mpmath": mpmath.__version__, "seed": args.seed,
        "git_commit": commit, "source_sha256": digest.hexdigest(),
        "threads": {k: v for k, v in worker_env().items()
                    if k.endswith("_NUM_THREADS")},
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="timed command time of an untraced run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="smallest size: one cycle, one set-up sample")
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(SRC, "fraclap", "cli.py")):
        print("error: no fraclap sources under %s" % SRC, file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    deadline = time.monotonic() + DEADLINE_S

    sampled = not (args.smoke or args.trace)
    setups = []                        # worker results of set-up samples

    def sample_setup():
        setups.extend(run_worker(args, "setup", deadline)
                      for _ in range(SETUP_BATCH if sampled else 0))

    sample_setup()
    main_result = run_main_worker(args, deadline, PAUSES if sampled else 0,
                                  sample_setup)
    setups.append(main_result)
    sample_setup()
    if args.trace:
        metrics = {name: {"value": value, "unit": per_layer_unit(name)}
                   for name, value in sorted(main_result["metrics"].items())}
    else:
        values = dict(main_result["metrics"], setup_s=statistics.median(
            r["setup_s"] for r in setups))
        main_result["detail"]["setup_samples"] = [
            {k: r[k] for k in ("setup_s", "setup_raw_s", "setup_cal_s")}
            for r in setups]
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}

    attempted, failed = main_result["attempted"], main_result["failed"]
    record = {
        "workload": args.workload, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(
            args, main_result["numpy"]),
        "metrics": metrics, "attempted": attempted, "failed": failed,
        "detail": main_result["detail"],
    }
    path = os.path.join(OUT, "result-%s-seed%d-trace%d.json"
                        % (args.workload, args.seed, args.trace))
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)

    for name, m in metrics.items():
        print("%-28s %-14.6g %s" % (name, m["value"], m["unit"]))
    for failure in main_result["detail"].get("failures", []):
        if failure["defect"] is None:
            print("FAILED %s: %s" % (" ".join(failure["argv"]),
                                     failure["reason"]))
    for defect, (probes, missed) in sorted(
            main_result["detail"].get("probes", {}).items()):
        print("known defect %s: %d of %d probes missed their tolerance"
              % (defect, missed, probes))
    print("record: %s" % os.path.relpath(path, ROOT))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
