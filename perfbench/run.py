"""Benchmark for conversion, training and scoring.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Runs one workload in this process, one operation at a time (closed loop, one
client), for whole rounds of operations until the given seconds have passed.
Then it checks every operation's output and prints, as the last line of
standard output, one JSON object with the keys correct, attempted, failed and
metrics.  With --trace 0 the metrics are the end-to-end ones; with --trace 1
every layer module's public functions are wrapped, the per-layer metrics are
reported and the spans are written to perfbench/out/.

Operation times are scaled to a reference machine speed: a fixed calibration
kernel is timed every SAMPLE_INTERVAL_S during the timed phase, and each
operation's wall time is multiplied by REF_KERNEL_S over the kernel's median
time during that operation.  The host's speed drifts by +-20% over minutes,
and the scaled times cancel that drift; the raw wall times are printed on the
info line.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

BLAS_THREADS = 1
SETUP_REPEATS = 5

SAMPLE_INTERVAL_S = 0.04    # wall time between two calibration samples
KERNEL_ITEMS = 1500         # floats stored and sorted per calibration sample
KERNEL_MATMULS = 10         # small matmuls per calibration sample
REF_KERNEL_S = 5e-4         # the calibration sample's time at reference speed

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"


def _pin_blas_threads() -> None:
    """Must run before numpy is imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def _blas_version(np) -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        return "unknown"


class SpeedSampler:
    """Times a fixed calibration kernel from a SIGALRM handler every
    SAMPLE_INTERVAL_S of wall time while running.

    The kernel has the program's mix of work: pure interpreter work (dict
    stores and a sort of Python floats, as in the DTW loop and the autodiff
    graph) and small numpy calls (matmuls and reductions, as in the model), so
    the host's speed changes move it and the program alike.  The time spent in
    the handler is kept, so that it can be taken out of the operations' times.
    """

    def __init__(self, np):
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((32, 64))
        self._b = rng.standard_normal((64, 48))
        self._items = rng.standard_normal(KERNEL_ITEMS).tolist()
        self.samples: list[float] = []
        self.spent = 0.0

    def _sample(self, signum, frame) -> None:
        t = time.perf_counter()
        table = {}
        for i, x in enumerate(self._items):
            table[i & 255] = x * 2.0
        sorted(self._items)
        for _ in range(KERNEL_MATMULS):
            float((self._a @ self._b).sum())
        dt = time.perf_counter() - t
        self.samples.append(dt)
        self.spent += dt

    def start(self) -> None:
        self._sample(None, None)    # so that every operation has a sample
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def _timed_phase(workload, seconds: float, tracer, sampler, probe):
    """Whole rounds of operations until `seconds` of round time have passed.

    Returns per operation its wall time (without calibration samples), its
    median calibration sample (none without a sampler) and its frames.
    `probe`, when given, is run SETUP_REPEATS times between rounds, off the
    clock and spread over the phase, so that its median does not hang on one
    stretch of machine speed.
    """
    durations, kernels, frames, rounds, probes = [], [], [], [], []
    elapsed = 0.0
    while not rounds or elapsed < seconds:
        while (probe and len(probes) < SETUP_REPEATS
               and elapsed >= len(probes) * seconds / SETUP_REPEATS):
            probes.append(probe())
        if sampler is not None:
            sampler.start()
        t0 = time.perf_counter()
        outs = []
        for op in workload.round():
            if tracer is not None:
                tracer.op_id = len(durations)
            if sampler is not None:
                n0, spent0 = len(sampler.samples), sampler.spent
            t = time.perf_counter()
            try:
                n, out = op()
            except Exception:  # an operation that raises counts as failed
                traceback.print_exc(file=sys.stderr)
                n, out = 0, None
            dt = time.perf_counter() - t
            if sampler is not None:
                dt -= sampler.spent - spent0
                # an operation shorter than the interval takes the last sample
                kernels.append(statistics.median(sampler.samples[n0:] or sampler.samples[-1:]))
            durations.append(dt)
            frames.append(n)
            outs.append(out)
        elapsed += time.perf_counter() - t0
        if sampler is not None:
            sampler.stop()
        rounds.append(outs)
    while probe and len(probes) < SETUP_REPEATS:
        probes.append(probe())
    return durations, kernels, frames, rounds, elapsed, probes


def _setup_seconds(args) -> float:
    """Wall time of a fresh process that imports and sets up the workload."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    t = time.perf_counter()
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import and set up the workload, then exit (used to time set-up)")
    args = parser.parse_args(argv)

    if not (SRC / "vtn" / "__init__.py").is_file():
        print(f"error: package source not found at {SRC}", file=sys.stderr)
        return 2
    _pin_blas_threads()
    sys.path.insert(0, str(SRC))
    import numpy as np

    import vtn
    import tracing
    from workloads import WORKLOADS

    if Path(vtn.__file__).resolve().parent != SRC / "vtn":
        print(f"error: imported vtn from {vtn.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    workload = WORKLOADS[args.workload]()
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        workload.setup(args.seed, Path(tmp))
        if args.setup_only:
            return 0
        # set-up time is taken from fresh processes (interpreter start, imports,
        # inputs, model) so that import-time work shows too
        probe = sampler = None
        if not args.trace:
            probe = lambda: _setup_seconds(args)
            sampler = SpeedSampler(np)
        durations, kernels, frames, rounds, elapsed, setups = _timed_phase(
            workload, args.seconds, tracer, sampler, probe)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            tracer.op_id = tracing.CHECK
        ok_rounds = workload.check(rounds)
    failed = sum(not ok for row in ok_rounds for ok in row)
    attempted = len(durations)

    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "nproc": os.cpu_count(), "blas_threads": BLAS_THREADS,
        "numpy": np.__version__, "blas": _blas_version(np),
        "python": sys.version.split()[0],
        "rounds": len(rounds), "ops_per_round": len(rounds[0]),
        "op_s_p50": float(np.median(durations)), "op_s_p90": float(np.quantile(durations, 0.9)),
        "op_s_max": max(durations),
        "timed_s": elapsed, "setup_reps_s": setups,
    }
    if tracer is not None:
        tracer.uninstall()
        cols = tracer.columns()
        tracer.dump(OUT / f"trace-{args.workload}.npz")
        info["spans"] = int(len(cols["name"]))
        metrics = {name: {"value": value, "unit": tracing.UNITS[name]}
                   for name, value in tracing.layer_metrics(cols, attempted).items()}
    else:
        scaled = [dt * REF_KERNEL_S / k for dt, k in zip(durations, kernels)]
        info["kernel_s_p50"] = statistics.median(sampler.samples)
        info["kernel_samples"] = len(sampler.samples)
        info["frames_per_s"] = sum(frames) / sum(durations)
        metrics = {
            "setup_s": {"value": float(np.median(setups)), "unit": "s"},
            "op_ref_s_p50": {"value": float(np.median(scaled)), "unit": "s"},
            "frames_per_ref_s": {"value": sum(frames) / sum(scaled), "unit": "frames/s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
