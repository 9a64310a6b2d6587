"""Run one benchmark workload and print its metrics as one JSON line.

    python3 bench/run.py --workload {euler_sweep,series_record} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout: the library is imported from its
``src/`` directory and nowhere else.  With ``--trace 0`` the run prints the
end-to-end metrics (setup_s, run_s, iters_per_s, peak_rss_mb; the
timings at the reference speed fixed by ``calibration_s``); with
``--trace 1`` it prints the per-layer metrics of a traced run.  The last
line of standard output is the JSON result; outputs, spans and the layer
summary are left in ``bench/out/<workload>-seed<N>-trace<T>/``.
"""

import os
import sys

# One thread everywhere: the studies run with threads = 1 and BLAS is
# pinned before numpy loads, so the figures are a single-threaded
# baseline and do not depend on how busy the second core is.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import functools  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH), "src")
WORKLOAD_NAMES = ("euler_sweep", "series_record")
# Set-up probes run half before and half after the timed jobs, so that
# their median spans the run rather than one moment of a shared machine.
N_SETUP_PROBES = 8
PROBE_TIMEOUT_S = 120
# The end-to-end timings are reported at a reference speed: as the time
# they would take on a machine that runs calibration_s()'s loop in
# CALIBRATION_NOMINAL_S.  On a shared VM the speed of a core can drift by
# up to 1.8x over minutes (see README.md), which no run of a minute can
# average out; a fixed loop of the same kind of work as the jobs slows
# with it.  It is timed between jobs and, since a job can last half a
# minute, also every CALIBRATE_EVERY_S inside one.
CALIBRATION_NOMINAL_S = 0.4
CALIBRATION_REPS = 50_000
CALIBRATE_EVERY_S = 3.0


def import_library():
    """Import mflangevin from the checkout's src/ and nowhere else."""
    sys.path.insert(0, SRC)
    import mflangevin
    if not os.path.abspath(mflangevin.__file__).startswith(SRC + os.sep):
        raise ImportError(f"mflangevin was imported from {mflangevin.__file__}, "
                          f"not from {SRC}")
    return mflangevin


def probe_setup_s(workload: str, seed: int, rundir: str) -> float:
    """Seconds from spawning a fresh interpreter to its first Langevin update.

    The child reads CLOCK_MONOTONIC, which it shares with this process, at
    the first call of ``train``, and exits there.
    """
    cmd = [sys.executable, os.path.join(BENCH, "probe.py"), "--workload",
           workload, "--seed", str(seed), "--rundir", rundir]
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True,
                          timeout=PROBE_TIMEOUT_S)
    return float(proc.stdout.split()[-1]) - t0


def calibration_s() -> float:
    """Wall time of a fixed mix of small numpy operations and interpreted
    arithmetic, the kind of work the jobs do; it never calls the library."""
    a = np.linspace(0.0, 1.0, 256).reshape(8, 32)
    acc = 0.0
    t0 = time.perf_counter()
    for i in range(CALIBRATION_REPS):
        acc += float((np.tanh(a * (i * 1e-4)) @ a.T)[0, 0])
        for j in range(20):
            acc += j * 0.5
    return time.perf_counter() - t0


class Calibration:
    """Samples of calibration_s() taken between and inside jobs.

    Inside a job the samples are taken from a wrapper around
    ``rng.step_normals``, which ``train`` calls once per Langevin update;
    ``paused_s`` counts the seconds they took since the last job began, so
    that the job's time can leave them out.
    """

    def __init__(self):
        self.samples = []
        self.paused_s = 0.0
        self.last = time.perf_counter()

    def sample(self) -> None:
        self.samples.append(calibration_s())
        self.last = time.perf_counter()

    def between_jobs(self) -> None:
        self.sample()
        self.paused_s = 0.0

    def wrap(self, step_normals):
        @functools.wraps(step_normals)
        def sampling_step_normals(*args, **kwargs):
            if time.perf_counter() - self.last >= CALIBRATE_EVERY_S:
                t0 = time.perf_counter()
                self.sample()
                self.paused_s += time.perf_counter() - t0
            return step_normals(*args, **kwargs)
        return sampling_step_normals


class Reps:
    """Repeats a workload's job, timing each and checking its outputs.

    Every job must write the same bytes as the first one that succeeded;
    :meth:`check` runs the full correctness check on the latest outputs.
    """

    def __init__(self, wl, paused_s=lambda: 0.0):
        self.wl = wl
        self.paused_s = paused_s  # seconds inside the current job not to time
        self.times = []
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.digest = None

    def run(self, seconds: float, before_job=None) -> list:
        """Whole jobs back to back for about ``seconds``, at least one; their times.

        The window ends at the job boundary nearest ``seconds``: another job
        starts only if it would end less than half a job past it.
        """
        times = []
        t0 = time.perf_counter()
        n = 0
        while True:
            if before_job is not None:
                before_job()
            t = self.once()
            n += 1
            if t is not None:
                times.append(t)
            elapsed = time.perf_counter() - t0
            if elapsed + 0.5 * elapsed / n >= seconds:
                return times

    def once(self):
        wl = self.wl
        shutil.rmtree(wl.outdir, ignore_errors=True)
        os.makedirs(wl.outdir)
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            wl.job()
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return None
        elapsed = time.perf_counter() - t0 - self.paused_s()
        self.times.append(elapsed)
        print(f"{wl.name}: job {self.attempted} took {elapsed:.4f} s",
              file=sys.stderr)
        digest = checks.digest(wl.outdir)
        if self.digest is None:
            self.digest = digest
            print(f"{wl.name}: outputs sha256 {digest}", file=sys.stderr)
        elif digest != self.digest:
            self.failures.append(f"job {self.attempted} wrote outputs that "
                                 "differ from the first job's")
        return elapsed

    def check(self) -> None:
        if not self.times:
            return
        try:
            self.failures += self.wl.check()
        except Exception:
            # Outputs too garbled to parse are a failed check, not a crash.
            traceback.print_exc()
            self.failures.append(f"{self.wl.name}: the check raised")


def end_to_end(args, rundir, wl, package):
    def probes():
        return [probe_setup_s(args.workload, args.seed,
                              os.path.join(rundir, "probe"))
                for _ in range(N_SETUP_PROBES // 2)]

    cal = Calibration()
    cal.sample()
    setup_s = probes()
    wl.setup()
    reps = Reps(wl, paused_s=lambda: cal.paused_s)
    from mflangevin import rng
    undo = tracing.rebind(tracing.package_modules(package),
                          {rng.step_normals: cal.wrap(rng.step_normals)})
    try:
        reps.run(args.seconds, before_job=cal.between_jobs)
    finally:
        tracing.restore(undo)
    cal.sample()
    setup_s += probes()
    cal.sample()
    reps.check()
    calibration = statistics.fmean(cal.samples)
    scale = CALIBRATION_NOMINAL_S / calibration
    wall_setup_s = statistics.median(setup_s)
    # The mean over the whole window rather than the median of its few
    # jobs: the machine's speed drifts over tens of seconds, and the mean
    # weighs every part of the window where a median picks one job.
    wall_run_s = statistics.fmean(reps.times) if reps.times else None
    print(f"{wl.name}: wall set-up {wall_setup_s:.4f} s, wall job "
          f"{wall_run_s} s; calibration {calibration:.4f} s "
          f"(mean of {len(cal.samples)}), scale {scale:.4f}", file=sys.stderr)
    run_s = scale * wall_run_s if wall_run_s else None
    metrics = {
        "setup_s": (scale * wall_setup_s, "s"),
        "run_s": (run_s, "s"),
        "iters_per_s": (wl.updates / run_s if run_s else None, "updates/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MiB"),
    }
    return reps, metrics


def per_layer(args, rundir, wl, package):
    """Untraced jobs for half the time, then traced jobs for the other half."""
    wl.setup()
    reps = Reps(wl)
    plain = reps.run(args.seconds / 2)
    reps.check()
    tracer = tracing.Tracer()
    tracer.install(package)
    n_traced = 0

    def next_rep():
        nonlocal n_traced
        tracer.current_rep = n_traced
        n_traced += 1
        wl.setup()

    try:
        traced = reps.run(args.seconds / 2, before_job=next_rep)
    finally:
        tracer.uninstall()
    tracer.write(os.path.join(rundir, "spans.csv"),
                 os.path.join(rundir, "layers.json"))
    overhead = (statistics.median(traced) - statistics.median(plain)
                if traced and plain else None)
    return reps, tracing.layer_metrics(tracer, n_traced, overhead)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        package = import_library()
    except ImportError as exc:
        print(f"cannot import the library: {exc}", file=sys.stderr)
        return 2
    rundir = os.path.join(BENCH, "out",
                          f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(rundir, ignore_errors=True)
    os.makedirs(rundir)
    import workloads  # imports mflangevin, so only after import_library()
    wl = workloads.WORKLOADS[args.workload](args.seed, rundir)
    if args.trace:
        reps, metrics = per_layer(args, rundir, wl, package)
    else:
        reps, metrics = end_to_end(args, rundir, wl, package)
    for msg in reps.failures:
        print(f"CHECK FAILED: {msg}", file=sys.stderr)
    if any(value is None for value, _ in metrics.values()):
        print("no job completed; nothing to report", file=sys.stderr)
        return 1
    correct = not reps.failures
    print(json.dumps({
        "correct": correct, "attempted": reps.attempted, "failed": reps.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
