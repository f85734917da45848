"""isosharp benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
./src.  A run repeats whole passes of the workload's operation list (see
workloads.py) until S seconds have passed, checks every result, and prints
as its last line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones: setup_s (median over
fresh interpreters), checks_per_s, op_p50_ms and peak_rss_mb; times are
scaled to reference speed by reference_kernel_s (see README.md).  With
--trace 1 the first half of the time runs untraced, the second half
traced, and the metrics are per-layer figures per pass plus the tracing
overhead; the spans go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import os
import sys

# single-threaded numerics, fixed before numpy is imported
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import json
import math
import resource
import statistics
import subprocess
import time

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")    # result and trace files
WORKLOADS = ("polya-interp", "quotients", "faber-krahn", "cli-short")
SETUP_STARTS = 5
# the kernel's time at reference speed: its median on a 2-vCPU x86-64
# sandbox with Python 3.11.7; scaled figures are at that speed
REFERENCE_KERNEL_S = 1.4e-3
KERNEL_EVERY_S = 0.2
PER_LAYER = (
    "quadrature.integrate.calls", "quadrature.integrate.retries",
    "quadrature.integrate.evals", "quadrature.integrate.self_ms",
    "rearrange.grad_lp_norm.ms", "rearrange.euclidean_rearrangement.ms",
    "rearrange.lq_norm.ms", "rearrange.volume_function.ms",
    "radial.value.calls", "radial.deriv.calls",
    "specfun.omega.calls", "specfun.log_gamma.calls",
    "specfun.bessel_j.calls", "specfun.bessel_j.ms",
    "specfun.bessel_first_zero.calls",
    "verify.fk_eigenvalue.ms", "verify.fk_eigenvalue.shoots",
    "verify.fk_sharpness_sweep.ms", "rearrange.layer_cake_radial_integral.ms",
    "spaces.vol_ball.calls", "spaces.vol_ball.ms",
    "sandbox.seeded_z_inclusion.ms", "constants.sharp_constants.ms",
    "cli.main.self_ms",
)


def _unit(metric):
    if metric.endswith("ms"):
        return "ms"
    return "count"


def _source_root():
    root = os.getcwd()
    init = os.path.join(root, "src", "isosharp", "__init__.py")
    if not os.path.isfile(init):
        sys.exit(f"error: no src/isosharp under {root}; run from the root "
                 "of an isosharp source checkout")
    return root


def _import_workloads(root):
    sys.path[:0] = [os.path.join(root, "src"), HERE]
    import isosharp
    import workloads
    where = os.path.dirname(os.path.abspath(isosharp.__file__))
    if where != os.path.join(root, "src", "isosharp"):
        sys.exit(f"error: imported isosharp from {where}, not from {root}/src")
    return workloads


def setup_probe(args):
    """Body of a fresh interpreter timed by setup_seconds."""
    workloads = _import_workloads(_source_root())
    workloads.build(args.workload, args.seed)
    sys.stdout.write("ready\n")
    sys.stdout.flush()


def reference_kernel_s():
    """Wall time of a fixed pure-Python loop: the machine's current speed.

    The speed of this machine drifts by +-15% over tens of seconds on its
    own (the loop shows it as well as the program does), and two runs a
    minute apart can differ by a fifth.  Interleaving this loop with the
    operations and scaling by its median removes that common factor.
    """
    t0 = time.perf_counter()
    s = 0
    for i in range(20_000):
        s += i * i
    return time.perf_counter() - t0


def setup_seconds(args, root):
    """Median time from spawning a fresh interpreter to a built workload.

    Each start is scaled to reference speed by the kernel timed just
    before and just after it; returns (scaled median, raw times).
    """
    argv = [sys.executable, os.path.abspath(__file__), "--setup-probe",
            "--workload", args.workload, "--seed", str(args.seed)]
    times, scaled = [], []
    for _ in range(SETUP_STARTS):
        before = reference_kernel_s()
        t0 = time.perf_counter()
        with subprocess.Popen(argv, cwd=root, stdout=subprocess.PIPE) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if line != b"ready\n" or code != 0:
            sys.exit(f"error: set-up probe failed with exit code {code}")
        slow = (before + reference_kernel_s()) / (2.0 * REFERENCE_KERNEL_S)
        times.append(elapsed)
        scaled.append(elapsed / slow)
    return statistics.median(scaled), times


class Runner:
    """Runs whole passes and keeps latencies, failures and check errors."""

    def __init__(self, ops, tracer=None):
        self.ops = ops
        self.tracer = tracer
        self.latencies = []
        self.pass_times = []
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.kernel_s = []
        self._last_kernel = -math.inf

    def one_pass(self):
        pass_time = 0.0
        for op in self.ops:
            if time.perf_counter() - self._last_kernel >= KERNEL_EVERY_S:
                self.kernel_s.append(reference_kernel_s())
                self._last_kernel = time.perf_counter()
            op_id = self.attempted
            run = op.run
            if self.tracer is not None:
                run = (lambda op=op, op_id=op_id:
                       self.tracer.operation(op_id, op.run))
            exc = res = None
            t0 = time.perf_counter()
            try:
                res = run()
            except Exception as e:   # a crash is a failed operation
                exc = e
            dt = time.perf_counter() - t0
            pass_time += dt
            self.latencies.append(dt)
            self.attempted += 1
            if exc is not None or op.failed(res):
                self.failed += 1
                if op.known_fault is None:
                    self.errors.append(f"{op.label}: failed ({exc!r})")
                continue
            msg = op.check(res, op.expected)
            if msg:
                self.errors.append(f"{op.label}: {msg}")
        self.pass_times.append(pass_time)

    def run_for(self, seconds):
        """Whole passes for about ``seconds`` of wall time, at least one.

        Another pass starts only if it would end nearer the target than
        stopping now, so a run overshoots by at most half a pass.
        """
        start = time.perf_counter()
        while True:
            self.one_pass()
            elapsed = time.perf_counter() - start
            mean_pass = elapsed / len(self.pass_times)
            if elapsed + mean_pass / 2.0 >= seconds:
                return

    def slowdown(self):
        """Median reference-kernel time over its reference value."""
        return statistics.median(self.kernel_s) / REFERENCE_KERNEL_S

    def checks_per_s(self):
        """Median over whole passes of operations per second (raw)."""
        n = len(self.ops)
        return statistics.median(n / t for t in self.pass_times)


def _prepare(workloads, args):
    ops = workloads.build(args.workload, args.seed)
    for op in ops:
        op.expected = op.expect()
    return ops


def run_end_to_end(args, root):
    setup_s, setup_raw = setup_seconds(args, root)
    workloads = _import_workloads(root)
    ops = _prepare(workloads, args)
    runner = Runner(ops)
    runner.run_for(args.seconds)
    slow = runner.slowdown()
    p50 = statistics.median(runner.latencies)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": (setup_s, "s"),
        "checks_per_s": (runner.checks_per_s() * slow, "1/s"),
        "op_p50_ms": (1e3 * p50 / slow, "ms"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }
    cuts = statistics.quantiles(runner.latencies, n=20, method="inclusive")
    info = {"passes": len(runner.pass_times), "ops_per_pass": len(ops),
            "slowdown": round(slow, 4),
            "raw_setup_s": round(statistics.median(setup_raw), 4),
            "raw_checks_per_s": round(runner.checks_per_s(), 4),
            "raw_op_p50_ms": round(1e3 * p50, 3),
            "raw_latency_ms_p10_p25_p50_p75_p90_max": [
                round(1e3 * t, 3) for t in (cuts[1], cuts[4], cuts[9],
                                            cuts[14], cuts[17],
                                            max(runner.latencies))]}
    return [runner], metrics, info


def run_traced(args, root):
    before = reference_kernel_s()
    t0 = time.perf_counter()
    workloads = _import_workloads(root)
    import_s = time.perf_counter() - t0
    import_slow = (before + reference_kernel_s()) / (2.0 * REFERENCE_KERNEL_S)
    import layertrace as trace
    ops = _prepare(workloads, args)

    plain = Runner(ops)
    plain.run_for(args.seconds / 2.0)
    tracer = trace.Tracer()
    tracer.install(callers=[workloads])
    traced = Runner(ops, tracer)
    start = tracer.snapshot()
    try:
        traced.run_for(args.seconds / 2.0)
    finally:
        tracer.uninstall()
    end = tracer.snapshot()

    passes = len(traced.pass_times)
    slow = traced.slowdown()
    layer = trace.layer_metrics(start, end, passes, PER_LAYER)
    overhead = (statistics.median(traced.pass_times) / slow
                / (statistics.median(plain.pass_times) / plain.slowdown())
                - 1.0)
    metrics = {name: (value / slow if _unit(name) == "ms" else value,
                      _unit(name)) for name, value in layer.items()}
    metrics["setup.import_ms"] = (1e3 * import_s / import_slow, "ms")
    metrics["trace.overhead_pct"] = (100.0 * overhead, "%")

    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")
    tracer.write(path, {"workload": args.workload, "seed": args.seed,
                        "traced_passes": passes,
                        "untraced_passes": len(plain.pass_times),
                        "ops_per_pass": len(ops)})
    info = {"traced_passes": passes, "untraced_passes": len(plain.pass_times),
            "trace_file": os.path.relpath(path, root),
            "spans": len(tracer.spans), "missing": tracer.missing}
    return [plain, traced], metrics, info


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    root = _source_root()
    if args.setup_probe:
        setup_probe(args)
        return 0

    run = run_traced if args.trace else run_end_to_end
    runners, metrics, info = run(args, root)
    errors = [msg for r in runners for msg in r.errors]
    result = {
        "correct": not errors,
        "attempted": sum(r.attempted for r in runners),
        "failed": sum(r.failed for r in runners),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT_DIR, name), "w") as fh:
        json.dump({**result, "info": info, "errors": errors,
                   "pass_s": [r.pass_times for r in runners],
                   "latency_s": [r.latencies for r in runners]}, fh)
    for msg in errors[:20]:
        print(f"CHECK FAILED {msg}", file=sys.stderr)
    print(f"# workload={args.workload} seed={args.seed} "
          + " ".join(f"{k}={v}" for k, v in info.items()))
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
