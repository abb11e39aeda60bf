#!/usr/bin/env python3
"""Self-test of the benchmark.

Runs each workload once at a tiny size (verify has only its fixed size),
traces the two workloads whose layer split is known, feeds the output
checks one corrupted output directory, checks that BENCHMARK.json names
exactly the metrics the benchmark prints, and checks that the benchmark
refuses to run without the package sources.

Usage, from the repository root:  python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import checks
import run

TINY = {
    "m1_report": (run.M1, (125, 250, 500), 10.0, 1e4),
    "m3_growth": (run.M3, (125, 250, 500), 100.0, 1e6),
    "m2_spectrum": (run.M2, (50, 100, 200), 10.0, 1e3),
}


def _expect(ok: bool, what: str, failures: list) -> None:
    print(f"[{'ok' if ok else 'FAIL'}] {what}")
    if not ok:
        failures.append(what)


def _untraced(failures: list) -> None:
    for name, workload in run.WORKLOADS.items():
        record = run.bench(workload, 1, 0.0, False, TINY.get(name))
        _expect(
            record["failed"] == 0 and record["counts"]["cli_runs"] == 1,
            f"{name}: one tiny run, no failures {record['problems']}",
            failures,
        )
        values = [m["value"] for m in record["metrics"].values()]
        _expect(
            set(record["metrics"]) == set(run.END_TO_END) and all(v > 0 for v in values),
            f"{name}: every end-to-end metric reported and nonzero",
            failures,
        )


def _traced(failures: list) -> None:
    record = run.bench(run.WORKLOADS["m3_growth"], 1, 0.0, True, TINY["m3_growth"])
    m = {name: v["value"] for name, v in record["metrics"].items()}
    self_times = {n: v for n, v in m.items() if n.endswith(".self_s")}
    _expect(
        record["failed"] == 0
        and m["kernels.sturm_counts.calls"] == 0
        and max(self_times, key=self_times.get) == "kernels.transfer_real.self_s"
        and m["growth.b_log_max_modulus.evaluator.calls"] == 20
        and m["classify.classify.calls"] > 0,
        "m3_growth traced: no Sturm calls, transfer_real has the largest self time, "
        "evaluator closure and classify (bound by from-import) traced",
        failures,
    )
    record = run.bench(run.WORKLOADS["m2_spectrum"], 1, 0.0, True, TINY["m2_spectrum"])
    m = {name: v["value"] for name, v in record["metrics"].items()}
    _expect(
        record["failed"] == 0
        and m["kernels.transfer_real.calls"] == 0
        and m["kernels.transfer_complex.calls"] == 0
        and m["kernels.sturm_counts.shift_rows"] > 0
        and 0 < m["spectrum.eigenvalues_in.yield"] < 1,
        "m2_spectrum traced: no transfer calls, Sturm work and eigenvalue yield counted",
        failures,
    )


def _corrupted(failures: list) -> None:
    workload = run.WORKLOADS["m1_report"]
    run_dir = run.WORK / "selftest-corrupt"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        runner = run.Runner(workload, 1, run_dir, TINY["m1_report"])
        sample, out, _ = runner.cli(0)
        _expect(not sample.problems, "m1_report: clean reference run", failures)
        bad = run_dir / "corrupt"
        shutil.copytree(out, bad)
        zeros = (bad / "b_zeros.csv").read_text().splitlines()
        del zeros[len(zeros) // 2 : len(zeros) // 2 + 6]  # lose three zero pairs
        (bad / "b_zeros.csv").write_text("\n".join(zeros) + "\n")
        _expect(
            bool(checks.check_m1(bad, runner.config)),
            "m1 content check rejects a B-zero list with six zeros missing",
            failures,
        )
        forged = run.Sample(rc=0, wall_s=1.0, cpu_s=1.0, peak_rss_mb=1.0)
        runner.samples.append(forged)
        runner.inspect(forged, bad)
        _expect(
            runner.failed == 1 and len(runner.samples) == 2,
            "the corrupted run is counted as failed",
            failures,
        )
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _benchmark_json(failures: list) -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())

    def declared(key):
        return {m["name"]: m["unit"] for m in spec[key]}

    _expect(declared("end_to_end") == run.END_TO_END, "BENCHMARK.json end_to_end", failures)
    _expect(declared("per_layer") == run.PER_LAYER, "BENCHMARK.json per_layer", failures)
    gated = [w["name"] for w in spec["workloads"]]
    _expect(
        gated == [name for name in run.WORKLOADS if name in gated],
        "BENCHMARK.json workloads are workloads of the benchmark",
        failures,
    )


def _bare_directory(failures: list) -> None:
    bare = run.WORK / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(
            run.ROOT / "perfbench", bare / "perfbench",
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "m1_report",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
        _expect(
            proc.returncode != 0 and '"correct"' not in proc.stdout,
            "without src/ the benchmark exits nonzero and prints no result",
            failures,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    sys.path.insert(0, str(run.SRC))  # the m2 check materializes the sequence
    failures = []
    _benchmark_json(failures)
    _bare_directory(failures)
    _corrupted(failures)
    _traced(failures)
    _untraced(failures)
    print(f"{len(failures)} self-test failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
