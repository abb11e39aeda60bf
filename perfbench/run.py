#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the jacobispec command line.

Usage, from the repository root:

    python3 perfbench/run.py --workload m3_growth --seed 1 --seconds 44 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 44   # 44 s each

The load is a closed loop with one client: one CLI run at a time, each in a
fresh child process (``python -m jacobispec``, ``src`` on PYTHONPATH), so
import cost is paid as a user pays it.  The child keeps the CLI's default
``--jobs``.  Every run's outputs are checked (``checks.py``) and must be
byte-identical to the first run of the same seed; a nonzero exit or a
failed check counts the run as failed.

``--trace 0`` reports the end-to-end metrics: median wall time, CPU time
and peak RSS per CLI run (from ``os.wait4`` on that child), and the median
set-up time of a child that imports the package and makes three tiny calls.
``--trace 1`` alternates untraced runs with runs under ``tracer.py`` and
reports per-layer metrics plus the tracing overhead.  The last line of
standard output is one JSON object; the full record, with every sample and
the machine, goes to ``.bench_work/results/``.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Optional

import checks
import tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# set-up children timed before the first CLI run; one more is timed before
# each CLI run, so that the set-up samples span the whole run
SETUP_SAMPLES = 4
# a run's children are killed once the run is this old, so that a hung
# program still ends the run within the 180 s it is allowed
HARD_LIMIT_S = 165.0

WARM_CODE = (
    "import json, jacobispec\n"
    "print(json.dumps({'file': jacobispec.__file__,"
    " 'backend': getattr(jacobispec, 'BACKEND', None)}))\n"
)
SETUP_CODE = (
    "import numpy as np\n"
    "import jacobispec as js\n"
    "seq = js.JacobiSequence(rho=np.ones(4), q=np.zeros(4), source='external')\n"
    "sol = js.solve_at_zero(seq)\n"
    "ok = js.sturm_count(seq, 4, 0.0) == 2\n"
    "ok = ok and js.nevanlinna_evaluate(sol, 0.5j, 4).determinant_residual() < 1e-9\n"
    "raise SystemExit(0 if ok else 1)\n"
)

M1 = {"beta1": 2, "beta2": 0, "x0": 1, "y0": 1, "x1": 2, "x2": 1, "order": "second"}
M2 = {"beta1": 0.5, "beta2": 0, "x0": 1, "y0": 1}
M3 = {
    "beta1": 3, "beta2": 3, "x0": 1, "y0": -2, "x1": 2, "y1": 0, "x2": 0, "y2": 0,
    "order": "second",
}


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    subcommand: str
    check: Callable
    # (descriptor, N values, r_min, r_max); None for verify, which runs
    # fixed golden models and takes no config
    size: Optional[tuple] = None

    def config(self, seed: int, size: Optional[tuple] = None) -> Optional[dict]:
        """The CLI config: only ``descriptor``, ``N`` and ``r_grid``, with
        the seed in the remainder model."""
        size = size or self.size
        if size is None:
            return None
        descriptor, Ns, r_min, r_max = size
        remainder = {"kind": "seeded_noise", "amplitude": 0.5, "seed": seed}
        return {
            "descriptor": {**descriptor, "remainder": remainder},
            "N": list(Ns),
            "r_grid": {"r_min": r_min, "r_max": r_max, "points": 20},
        }


# Why these four: m1_report runs the whole pipeline as many small kernel
# calls; m3_growth is dominated by the 7-decade B-zero scan and never calls
# the spectrum layer; m2_spectrum puts every truncation eigenvalue in the
# window and never calls the growth layer; verify is the only workload that
# runs the verify layer, the charpoly oracle and the shared cached scans.
# BENCHMARK.json gates the last three only: each of m1_report's layers runs
# in one of them, and three workloads leave time for runs long enough that
# verify (~12 s a CLI run) gets three samples.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("m1_report", "report", checks.check_m1, (M1, (500, 1000, 2000), 10.0, 1e4)),
        Workload("m3_growth", "growth", checks.check_m3, (M3, (500, 1000, 2000), 100.0, 1e6)),
        Workload("m2_spectrum", "spectrum", checks.check_m2, (M2, (500, 1000, 2000), 10.0, 1e3)),
        Workload("verify", "verify", checks.check_verify),
    )
}

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB", "setup_s": "s"}


PER_LAYER = {
    **tracer.METRICS,
    "cli.output_bytes": "bytes",
    **{f"verify.{name}.s": "s" for name in checks.VERIFY_CHECKS},
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_frac": "ratio",
}


@dataclasses.dataclass
class Sample:
    rc: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    problems: list = dataclasses.field(default_factory=list)


class Runner:
    """Spawns, times and checks the children of one benchmark run."""

    def __init__(self, workload: Workload, seed: int, run_dir: Path, size=None):
        self.workload = workload
        self.run_dir = run_dir
        self.started = time.perf_counter()
        self.samples = []
        self.config = workload.config(seed, size)
        self.config_path = run_dir / "config.json"
        if self.config is not None:
            self.config_path.write_text(json.dumps(self.config, indent=2, sort_keys=True))
        self.reference = None
        self.backend = None
        self.missing_targets = []
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
        )

    @property
    def failed(self) -> int:
        return sum(1 for s in self.samples if s.rc != 0 or s.problems)

    def spawn(self, argv: list, log: Path) -> Sample:
        """Run one child to completion; CPU time and peak RSS come from
        ``os.wait4`` on that child alone."""
        timeout = max(1.0, HARD_LIMIT_S - (time.perf_counter() - self.started))
        with open(log, "wb") as fh:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                argv, stdout=fh, stderr=subprocess.STDOUT, env=self.env, cwd=ROOT
            )
            watchdog = threading.Timer(timeout, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        sample = Sample(
            rc=proc.returncode,
            wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime,
            peak_rss_mb=usage.ru_maxrss / 1024.0,
        )
        if sample.rc != 0:
            tail = log.read_text(errors="replace").strip().splitlines()[-1:]
            sample.problems.append(f"exit code {sample.rc}: {' '.join(tail)}")
        self.samples.append(sample)
        return sample

    def warm_up(self) -> bool:
        """First import, which writes the bytecode caches; records the
        backend and checks that the package comes from this checkout."""
        log = self.run_dir / "warm.log"
        sample = self.spawn([sys.executable, "-c", WARM_CODE], log)
        if sample.rc != 0:
            return False
        info = json.loads(log.read_text().strip().splitlines()[-1])
        self.backend = info["backend"]
        if Path(info["file"]).resolve().parent.parent != SRC:
            sample.problems.append(f"jacobispec imported from {info['file']}, not {SRC}")
        return not sample.problems

    def setup(self) -> Sample:
        return self.spawn([sys.executable, "-c", SETUP_CODE], self.run_dir / "setup.log")

    def cli_args(self, out: Path) -> list:
        args = [self.workload.subcommand]
        if self.config is not None:
            args += ["--config", str(self.config_path)]
        return args + ["--out", str(out)]

    def cli(self, index: int, traced: bool = False) -> tuple:
        """One CLI run; returns its sample, output directory and spans."""
        out = self.run_dir / f"out{index}"
        spans_path = self.run_dir / f"spans{index}.json"
        if traced:
            argv = [sys.executable, str(Path(tracer.__file__)), str(spans_path), "--"]
        else:
            argv = [sys.executable, "-m", "jacobispec"]
        sample = self.spawn(argv + self.cli_args(out), self.run_dir / f"cli{index}.log")
        spans = None
        if sample.rc == 0:
            self.inspect(sample, out)
            if traced and not sample.problems:
                record = json.loads(spans_path.read_text())
                spans = record["spans"]
                self.missing_targets = record["missing"]
        return sample, out, spans

    def inspect(self, sample: Sample, out: Path) -> None:
        """Add the output-check problems of one run to its sample."""
        try:
            sample.problems += self.workload.check(out, self.config)
            snap = checks.snapshot(out)
        except Exception as exc:  # output that cannot be read fails the run
            sample.problems.append(f"output check raised {exc!r}")
            return
        if self.reference is None:
            self.reference = snap
        sample.problems += checks.compare_snapshots(self.reference, snap)


def _median(values: list) -> float:
    return float(statistics.median(values)) if values else 0.0


def measure(runner: Runner, seconds: float) -> tuple:
    """Untraced runs until the next one would end after ``seconds``;
    returns the end-to-end metrics and the sample counts."""
    deadline = runner.started + seconds
    ready = runner.warm_up()
    setup = [runner.setup().wall_s for _ in range(SETUP_SAMPLES if ready else 0)]
    runs = []
    while True:
        if ready:
            setup.append(runner.setup().wall_s)
        sample, out, _ = runner.cli(len(runs))
        runs.append(sample)
        if len(runs) > 1:
            shutil.rmtree(out, ignore_errors=True)
        step = _median(setup) + _median([s.wall_s for s in runs])
        if time.perf_counter() + step > deadline:
            break
    return {
        "wall_s": _median([s.wall_s for s in runs]),
        "cpu_s": _median([s.cpu_s for s in runs]),
        "peak_rss_mb": _median([s.peak_rss_mb for s in runs]),
        "setup_s": _median(setup),
    }, {"cli_runs": len(runs), "setup_runs": len(setup)}


def measure_traced(runner: Runner, seconds: float) -> tuple:
    """Pairs of one untraced and one traced run until the next pair would
    end after ``seconds``; per-layer values are medians over traced runs,
    per-check seconds medians over the untraced verify runs."""
    deadline = runner.started + seconds
    runner.warm_up()
    plain, traced, layers, verify_s = [], [], [], []
    output_bytes = 0
    while True:
        t0 = time.perf_counter()
        index = 2 * len(plain)
        sample, out, _ = runner.cli(index)
        plain.append(sample)
        if runner.workload.name == "verify" and sample.rc == 0:
            verify_s.append(checks.verify_seconds(out))
        sample, out, spans = runner.cli(index + 1, traced=True)
        traced.append(sample)
        if spans is not None:
            layers.append(tracer.layer_metrics(spans))
            output_bytes = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
        now = time.perf_counter()
        if now + (now - t0) > deadline:
            break
    metrics = {name: _median([m[name] for m in layers]) for name in tracer.METRICS}
    metrics["cli.output_bytes"] = output_bytes
    for name in checks.VERIFY_CHECKS:
        metrics[f"verify.{name}.s"] = _median([v.get(name, 0.0) for v in verify_s])
    traced_wall = _median([s.wall_s for s in traced])
    plain_wall = _median([s.wall_s for s in plain])
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.untraced_wall_s"] = plain_wall
    metrics["trace.overhead_frac"] = traced_wall / plain_wall - 1.0 if plain_wall else 0.0
    return metrics, {"pairs": len(plain), "traced_runs_with_spans": len(layers)}


def machine(backend: Optional[str]) -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model or platform.processor(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "backend": backend,
    }


def bench(workload: Workload, seed: int, seconds: float, trace: bool, size=None) -> dict:
    """One benchmark run of one workload; returns its full record."""
    WORK.mkdir(exist_ok=True)
    run_dir = WORK / f"{workload.name}-s{seed}-t{int(trace)}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir()
    try:
        runner = Runner(workload, seed, run_dir, size)
        values, counts = (measure_traced if trace else measure)(runner, seconds)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    units = PER_LAYER if trace else END_TO_END
    return {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "machine": machine(runner.backend),
        "attempted": len(runner.samples),
        "failed": runner.failed,
        "problems": sorted({p for s in runner.samples for p in s.problems}),
        "counts": counts,
        "missing_targets": runner.missing_targets,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
        "samples": [dataclasses.asdict(s) for s in runner.samples],
    }


def _print_summary(record: dict) -> None:
    m = record["metrics"]
    failed, attempted = record["failed"], record["attempted"]
    counts = ", ".join(f"{k} {v}" for k, v in record["counts"].items())
    print(f"{record['workload']} (seed {record['seed']}): {counts}")
    if record["trace"]:
        for name in sorted(m):
            print(f"  {name:<46} {m[name]['value']:.6g} {m[name]['unit']}")
    else:
        for name, unit in END_TO_END.items():
            n = record["counts"]["setup_runs" if name == "setup_s" else "cli_runs"]
            print(f"  {name:<12} {m[name]['value']:10.4f} {unit:<4} (median of {n})")
    print(f"  {'failed_frac':<12} {failed / attempted:10.4f}      ({failed}/{attempted} runs)")
    for problem in record["problems"]:
        print(f"  FAILED: {problem}")


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "jacobispec" / "__init__.py").is_file():
        print(f"error: no jacobispec package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))  # the m2 check materializes the sequence

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    records = [bench(WORKLOADS[n], args.seed, args.seconds, bool(args.trace)) for n in names]
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(records, indent=2) + "\n")
    for record in records:
        _print_summary(record)
    print(f"machine: {json.dumps(records[0]['machine'])}")
    print(f"full record: {path.relative_to(ROOT)}")

    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {
            f"{r['workload']}.{name}": v for r in records for name, v in r["metrics"].items()
        }
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
