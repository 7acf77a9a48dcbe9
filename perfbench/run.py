"""ckdv benchmark: one workload, timed to a verified result.

    python3 perfbench/run.py --workload stepper --seed 1 --seconds 20 --trace 0

Run from the root of a ckdv checkout; the package is imported from ./src.
Workloads: stepper, picard, spacetime, quadrature (see perfbench/README.md).

The timed phase runs the workload's operation list, verdicts included, over
and over until --seconds is spent; each run of the list is a pass.  A fixed
reference loop (reference.py) is timed between operations, and each
operation's time is divided by the mean of the reference times on either
side of it, which cancels the shared host's drifts in speed.  With
--trace 0 the last stdout line reports the end-to-end metrics: wall_s (one
pass, each operation at its median reference-relative time, in seconds at
the reference's nominal speed), setup_s (median of separate set-up
processes, scaled by reference work) and peak_rss_mib.  With
--trace 1 it reports the per-layer metrics of a traced run: one traced
set-up plus the mean of the traced passes, next to untraced passes that give
the tracing overhead.  The line before it carries the environment, the raw
pass and operation times, the reference times and every verdict check.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
SETUP_PROBES = 3

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}

# layers whose span stats (calls, s, self_s) are reported, by span name
SPAN_LAYERS = (
    "grid.forward",
    "grid.inverse",
    "grid.oversampled_values",
    "systems.nonlinear_rhs",
    "solver.simulate",
    "solver.picard_iterate",
    "scipy.cumulative_simpson",
    "diagnostics.sobolev_norm",
    "diagnostics.record_for",
    "harness.config_from_dict",
    "harness.run",
    "io.write_csv",
    "io.write_snapshot",
    "bourgain.spacetime.xsb_norm",
    "bourgain.spacetime.free_field",
    "bourgain.spacetime.duhamel_field",
    "bourgain.spacetime.random_field",
    "bourgain.estimates.linear_estimate_check",
    "bourgain.estimates.embedding_check",
    "bourgain.estimates.intersection_equivalence",
    "bourgain.estimates.bilinear_ratio",
    "bourgain.estimates.pointwise_bound_scan",
    "bourgain.estimates.nonequivalence_demo",
    "bourgain.kernels.kernel_bound_check",
)
SPAN_STATS = (("calls", "count"), ("s", "s"), ("self_s", "s"))
# further per-layer metrics: name -> unit
LAYER_EXTRAS = {
    "numpy.fft.calls": "count",
    "numpy.fft.s": "s",
    "numpy.fft.points": "count",
    "numpy.fft.bytes": "B",
    "solver.simulate.steps": "count",
    "solver.simulate.us_per_step": "us",
    "solver.picard.sweeps": "count",
    "solver.picard.useful_sweeps": "count",
    "io.bytes": "B",
    "bourgain.estimates.bilinear_ratio.trials": "count",
    "bourgain.kernels.kernel_bound_check.cpu_s": "s",
    "bourgain.kernels.kernel_bound_check.wait_s": "s",
    "scipy.quad.calls": "count",
    "scipy.quad.neval": "count",
    "scipy.quad.s": "s",
    "process.cpu_s": "s",
    "trace.overhead_frac": "ratio",
}


def per_layer_units() -> dict:
    units = {f"{layer}.{stat}": unit for layer in SPAN_LAYERS for stat, unit in SPAN_STATS}
    units.update(LAYER_EXTRAS)
    return units


def parse_args(argv=None):
    p = argparse.ArgumentParser(description="Time one ckdv workload to a verified result.")
    p.add_argument("--workload", required=True, choices=("stepper", "picard", "spacetime", "quadrature"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_program():
    """Import ckdv from this checkout's src/, and nowhere else."""
    if not (SRC / "ckdv" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no ckdv package under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(ROOT / "perfbench"))
    import ckdv

    if Path(ckdv.__file__).resolve().parent != SRC / "ckdv":
        raise SystemExit(f"perfbench: imported ckdv from {ckdv.__file__}, not {SRC}")
    import workloads

    return workloads


def measure_setup(args, reference) -> tuple:
    """setup_s from separate set-up processes, and each process's record.

    The parent times each process from its start until it says "ready".  The
    process also reports how long its build (config validation and any
    reference solution) took, and then times the reference loop.  The start
    (interpreter, imports) is scaled by a bare-import process timed just
    before and just after; the build is scaled by the loop."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0"]
    probes = []
    bare_before = reference.process_timed()
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        try:
            line = proc.stdout.readline().strip()
            t1 = time.perf_counter()
            rest = proc.stdout.read()
            code = proc.wait(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if line != "ready" or code != 0:
            raise RuntimeError(f"set-up process failed (exit {code}, said {line!r})")
        bare_after = reference.process_timed()
        probes.append(dict(json.loads(rest), total_s=t1 - t0, bare_process_s=(bare_before + bare_after) / 2))
        bare_before = bare_after
    start = statistics.median((p["total_s"] - p["build_s"]) / p["bare_process_s"] for p in probes)
    build = statistics.median(p["build_s"] / p["loop_s"] for p in probes)
    return reference.PROCESS_NOMINAL_S * start + reference.NOMINAL_S * build, probes


class Passes:
    """Runs the operation list repeatedly and keeps each pass's times and verdicts.

    The reference loop runs before the first operation and after every
    operation; an operation's relative time is its wall time over the mean
    of the two reference times around it."""

    def __init__(self, ops, reference, tracer=None):
        self.ops = ops
        self.reference = reference
        self.tracer = tracer
        self.ref_s: list[float] = []
        self.walls: list[float] = []
        self.cpus: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[dict] = []
        self.first_checks: dict = {}
        self.op_walls: dict = {op.name: [] for op in ops}
        self.op_rel: dict = {op.name: [] for op in ops}

    def _time_reference(self) -> float:
        self.ref_s.append(self.reference.timed())
        return self.ref_s[-1]

    def run_once(self) -> float:
        """One pass; returns its wall time, reference loops included."""
        t0 = time.perf_counter()
        cpu = 0.0
        ref_before = self.ref_s[-1] if self.ref_s else self._time_reference()
        for op in self.ops:
            if self.tracer is not None:
                self.tracer.op += 1
            self.attempted += 1
            c_op = time.process_time()
            t_op = time.perf_counter()
            try:
                checks = op.verdict(op.call())
                error = None
            except Exception:  # an operation that raises is a failed operation
                checks, error = [], traceback.format_exc(limit=4)
            op_wall = time.perf_counter() - t_op
            cpu += time.process_time() - c_op
            ref_after = self._time_reference()
            self.op_walls[op.name].append(op_wall)
            self.op_rel[op.name].append(2.0 * op_wall / (ref_before + ref_after))
            ref_before = ref_after
            ok = error is None and bool(checks) and all(c.passed for c in checks)
            if not ok:
                self.failed += 1
                self.failures.append({"op": op.name, "error": error,
                                      "checks": [str(c) for c in checks if not c.passed]})
            self.first_checks.setdefault(op.name, [str(c) for c in checks])
        self.walls.append(sum(self.op_walls[op.name][-1] for op in self.ops))
        self.cpus.append(cpu)
        return time.perf_counter() - t0

    def wall(self) -> float:
        """One pass with every operation at its median relative time, in
        seconds at the reference loop's nominal speed."""
        return self.reference.NOMINAL_S * sum(statistics.median(r) for r in self.op_rel.values())

    def best_wall(self) -> float:
        """One pass with every operation at its fastest raw wall time."""
        return sum(min(times) for times in self.op_walls.values())

    def run_for(self, budget: float) -> None:
        """At least one pass; another only while it is expected to end within budget."""
        start = time.perf_counter()
        while True:
            wall = self.run_once()
            if time.perf_counter() - start + wall > budget:
                return


def git_revision():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            loose = ROOT / ".git" / name
            if loose.is_file():
                return loose.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
            return None
        return ref
    except OSError:
        return None


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "openblas": blas.get("version"),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "ckdv_threads_set": "CKDV_THREADS" in os.environ,
        "git_revision": git_revision(),
    }


def layer_metrics(setup: dict, end: dict, passes: int) -> dict:
    """Per-layer values for one set-up plus one pass (the mean of the traced passes)."""
    values = {}
    for key in per_layer_units():
        first = setup.get(key, 0.0)
        values[key] = first + (end.get(key, 0.0) - first) / passes
    steps = values["solver.simulate.steps"]
    values["solver.simulate.us_per_step"] = 1e6 * values["solver.simulate.s"] / steps if steps else 0.0
    kb = "bourgain.kernels.kernel_bound_check"
    values[f"{kb}.wait_s"] = values[f"{kb}.s"] - values[f"{kb}.cpu_s"]
    return values


def main(argv=None) -> int:
    args = parse_args(argv)
    workloads = import_program()
    build = workloads.WORKLOADS[args.workload]
    work = OUT / "work" / args.workload
    if args.setup_probe:
        t0 = time.perf_counter()
        build(args.seed, work)
        build_s = time.perf_counter() - t0
        print("ready", flush=True)
        import reference

        loop_s = statistics.median(reference.timed() for _ in range(3))
        print(json.dumps({"build_s": build_s, "loop_s": loop_s}))
        return 0
    import reference  # before the tracer wraps numpy.fft

    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "env": environment()}
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            ops = build(args.seed, work)
        finally:
            tracer.uninstall()
        at_setup = tracer.snapshot()
        plain = Passes(ops, reference)
        plain.run_for(args.seconds / 2)
        traced = Passes(ops, reference, tracer)
        tracer.install()
        try:
            traced.run_for(args.seconds / 2)
        finally:
            tracer.uninstall()
        values = layer_metrics(at_setup, tracer.snapshot(), len(traced.walls))
        values["process.cpu_s"] = min(plain.cpus)
        values["trace.overhead_frac"] = traced.wall() / plain.wall() - 1.0
        tracer.write(OUT / f"spans-{args.workload}")
        units = per_layer_units()
        runs = [plain, traced]
        report["spans"] = tracer.span_count()
        report["traced_pass_s"] = traced.walls
    else:
        setup_s, report["setup_probes"] = measure_setup(args, reference)
        ops = build(args.seed, work)
        plain = Passes(ops, reference)
        plain.run_for(args.seconds)
        report["best_wall_s"] = plain.best_wall()
        values = {
            "wall_s": plain.wall(),
            "setup_s": setup_s,
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
        runs = [plain]

    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    report.update(
        pass_s=plain.walls,
        op_s=plain.op_walls,
        op_rel=plain.op_rel,
        reference_s=plain.ref_s,
        reference_nominal_s=reference.NOMINAL_S,
        process_nominal_s=reference.PROCESS_NOMINAL_S,
        attempted=attempted,
        failed=failed,
        fail_frac=failed / attempted,
        checks=plain.first_checks,
        failures=[f for r in runs for f in r.failures][:20],
    )
    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"report-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(dict(report, metrics=metrics), indent=1) + "\n"
    )
    print(json.dumps(report))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
