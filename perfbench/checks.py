"""Output checks of one benchmark run.

Each check reads the files a CLI run wrote and returns a list of problems;
an empty list means the run's outputs are correct.  The tolerances are the
acceptance suite's (c06/c09 for m1, c11/c12 for m3).
"""

from __future__ import annotations

import bisect
import csv
import json
import math
import re
from pathlib import Path
from xml.etree import ElementTree

VERIFY_CHECKS = [
    "c01_classification_table",
    "c02_wronskian",
    "c03_decay_slope",
    "c04_summability_dichotomy",
    "c05_determinant_identity",
    "c06_convergence_exponent",
    "c07_upper_density",
    "c08_coefficient_series",
    "c09_counting_agreement",
    "c10_exceptional_decay",
    "c11_delta_exponents",
    "c12_exceptional_exponent",
    "c13_interval_improvement",
    "c14_eigensolver_oracle",
]

# |sum of eigenvalues - trace(J_N)| relative to sum |eigenvalue|: each
# eigenvalue is bisected to 1e-10 * r_max, far inside this bound
TRACE_RTOL = 1e-6

# per-check timings are the only part of verify.xml that differs between runs
_XML_TIME = re.compile(rb' time="[^"]*"')


def _json(path: Path) -> dict:
    return json.loads(path.read_text())


def _column(path: Path, name: str) -> list:
    with open(path, newline="") as fh:
        return [float(row[name]) for row in csv.DictReader(fh)]


def _expect_case(cls: dict, label: str, problems: list) -> None:
    if cls.get("case_label") != label or cls.get("regime") != "lcc":
        problems.append(
            f"classified {cls.get('case_label')}/{cls.get('regime')}, expected {label}/lcc"
        )


def _expect_near(what: str, value, target: float, atol: float, problems: list) -> None:
    if value is None or not abs(value - target) <= atol:
        problems.append(f"{what} {value}, expected {target:.4g} +/- {atol}")


def check_m1(out: Path, config: dict) -> list:
    problems = []
    _expect_case(_json(out / "classification.json")["classification"], "T1(ii)", problems)
    growth = _json(out / "growth_report.json")
    _expect_near(
        "zero-route exponent",
        growth["zero_route"].get("convergence_exponent"), 0.5, 0.1, problems,
    )
    mods = sorted(abs(z) for z in _column(out / "b_zeros.csv", "zero"))
    worst = 0
    for entry in _json(out / "spectrum_report.json")["stabilization"]:
        nb = bisect.bisect_right(mods, entry["r"])
        worst = max(worst, abs(nb - entry["counts"][-1]))
    if worst > 2:
        problems.append(f"B-zero count and stabilized Sturm count differ by {worst} > 2")
    return problems


def check_m3(out: Path, config: dict) -> list:
    problems = []
    growth = _json(out / "growth_report.json")
    _expect_case(growth["classification"], "T2(ii)", problems)
    _expect_near(
        "zero-route exponent",
        growth["zero_route"].get("convergence_exponent"), 1 / 3, 0.1, problems,
    )
    _expect_near(
        "delta-exponent sum",
        growth.get("delta_exponents", {}).get("sum"), 3.0, 0.1, problems,
    )
    return problems


def check_m2(out: Path, config: dict) -> list:
    """Counts, ordering, and the eigenvalue sum against trace(J_N) =
    sum(q[:N]) from ``params.materialize`` (an independent cross-check)."""
    from jacobispec.params import descriptor_from_json, materialize

    q = materialize(descriptor_from_json(config["descriptor"]), max(config["N"])).q
    problems = []
    per_n = _json(out / "spectrum_report.json")["per_N"]
    for N in config["N"]:
        count = per_n[str(N)]["count_in_window"]
        if count != N:
            problems.append(f"N={N}: {count} eigenvalues in the window, expected {N}")
        ev = _column(out / f"eigenvalues_N{N}.csv", "lambda")
        if any(b <= a for a, b in zip(ev, ev[1:])):
            problems.append(f"N={N}: eigenvalues not strictly increasing")
        trace = math.fsum(q[:N])
        scale = math.fsum(abs(x) for x in ev) or 1.0
        if not abs(math.fsum(ev) - trace) <= TRACE_RTOL * scale:
            problems.append(
                f"N={N}: eigenvalue sum {math.fsum(ev)!r} != trace {trace!r} "
                f"(relative tolerance {TRACE_RTOL})"
            )
    return problems


def check_verify(out: Path, config: dict) -> list:
    suite = ElementTree.parse(out / "verify.xml").getroot()
    names = [case.get("name") for case in suite.iter("testcase")]
    problems = []
    if suite.get("failures") != "0":
        problems.append(f"verify.xml reports failures={suite.get('failures')}")
    if names != VERIFY_CHECKS:
        problems.append(f"verify.xml lists checks {names}, expected c01-c14")
    return problems


def verify_seconds(out: Path) -> dict:
    """Per-check seconds as recorded in verify.xml."""
    suite = ElementTree.parse(out / "verify.xml").getroot()
    return {case.get("name"): float(case.get("time")) for case in suite.iter("testcase")}


def snapshot(out: Path) -> dict:
    """Every output file's bytes, keyed by relative path, for the
    byte-identity check (verify.xml timings blanked)."""
    files = {}
    for path in sorted(out.rglob("*")):
        if path.is_file():
            data = path.read_bytes()
            if path.name == "verify.xml":
                data = _XML_TIME.sub(b"", data)
            files[str(path.relative_to(out))] = data
    return files


def compare_snapshots(first: dict, this: dict) -> list:
    if first == this:
        return []
    names = sorted(set(first) | set(this))
    differ = [n for n in names if first.get(n) != this.get(n)]
    return [f"outputs differ from the first run of this seed: {', '.join(differ)}"]
