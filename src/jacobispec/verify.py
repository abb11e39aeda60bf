"""Golden model set and the end-to-end verification checks.

Each check pins one quantitative prediction of the classification and
growth machinery at desk scale, with the tolerance stated next to the
observed value.  The registry drives both the pytest acceptance module
and the ``verify`` CLI subcommand (pass/fail lines plus JUnit XML).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from . import growth, hamburger, spectrum
from ._pcg64 import Pcg64
from .classify import Regime, classify
from .params import (
    ExpansionOrder,
    JacobiSequence,
    PowerAsymptotics,
    materialize,
)
from .recurrence import (
    SummabilityTrend,
    norm_exponent,
    solve_at_zero,
    square_summability_probe,
    transformed_recurrence,
    wronskian_residual,
)

__all__ = [
    "CheckResult",
    "CHECKS",
    "run_check",
    "run_all_checks",
    "write_junit",
    "golden_m1",
    "golden_m2",
    "golden_m3",
    "golden_m4",
    "golden_m5_sequence",
    "golden_table",
]


# ---------------------------------------------------------------------------
# golden models
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def golden_m1() -> PowerAsymptotics:
    """rho_n = (n+1)^2, q = 1: dominant off-diagonal, lcc, exponent 1/2."""
    return PowerAsymptotics(
        beta1=2, beta2=0, x0=1, y0=1, x1=2, x2=1, order=ExpansionOrder.SECOND
    )


@lru_cache(maxsize=None)
def golden_m2() -> PowerAsymptotics:
    """rho_n = sqrt(n), q = 1: Carleman-divergent, lpc."""
    return PowerAsymptotics(beta1=0.5, beta2=0, x0=1, y0=1)


@lru_cache(maxsize=None)
def golden_m3() -> PowerAsymptotics:
    """Exceptional family, z1 = 1 > 0, beta = 3: lcc with exponent 1/3."""
    return PowerAsymptotics(
        beta1=3, beta2=3, x0=1, y0=-2, x1=2, y1=0, x2=0, y2=0,
        order=ExpansionOrder.SECOND,
    )


@lru_cache(maxsize=None)
def golden_m4() -> PowerAsymptotics:
    """Exceptional boundary family (beta = B* = 3): lcc with exponent 1/3."""
    return PowerAsymptotics(
        beta1=3, beta2=3, x0=1, y0=-2, x1=1.5, y1=0, x2=2, y2=0,
        order=ExpansionOrder.SECOND,
    )


@lru_cache(maxsize=None)
def golden_m5_sequence(N: int = 5000) -> JacobiSequence:
    """Free matrix rho = 1, q = 0 (sequence-only; continuous spectrum)."""
    return JacobiSequence(rho=np.ones(N), q=np.zeros(N), source="external")


@lru_cache(maxsize=None)
def _seq(which: str, N: int) -> JacobiSequence:
    model = {"m1": golden_m1, "m2": golden_m2, "m3": golden_m3, "m4": golden_m4}
    return materialize(model[which](), N)


@lru_cache(maxsize=None)
def _sol(which: str, N: int):
    if which == "m5":
        return solve_at_zero(golden_m5_sequence(N))
    return solve_at_zero(_seq(which, N))


@lru_cache(maxsize=None)
def _golden_routes() -> tuple[list, np.ndarray]:
    """The zeros of B_2000 of m1 in [-1e4, 1e4] and of m3 and m4 in
    [-1e6, 1e6], with the eigenvalues of J_2000 of m1 in [-1e4, 1e4], all
    bracketed in one Sturm call; each model's sign check stays its own
    transfer-product call."""
    seq = _seq("m1", 2000)
    zeros, (eigs,) = growth.scan_b_zeros_each(
        [(_sol("m1", 2000), seq, 2000, 1e4)]
        + [(_sol(which, 2000), _seq(which, 2000), 2000, 1e6) for which in ("m3", "m4")],
        [(seq, 2000, (-1e4, 1e4), 1e-7)],
    )
    return zeros, eigs


def _m1_routes() -> tuple[np.ndarray, np.ndarray]:
    """The zeros of B_2000 and the eigenvalues of J_2000 of m1 in [-1e4, 1e4]
    (c06, whose zeros c07 and c09 read too), from ``_golden_routes``."""
    zeros, eigs = _golden_routes()
    return zeros[0], eigs


def _exceptional_zeros() -> tuple[np.ndarray, np.ndarray]:
    """The zeros of B_2000 of m3 and of m4 in [-1e6, 1e6] (c12), from
    ``_golden_routes``."""
    zeros, _ = _golden_routes()
    return zeros[1], zeros[2]


def golden_table() -> list:
    """Twelve hand-derived classifications spanning every case label."""
    e = math.e
    a4 = 2.0 / math.sqrt(3.0)
    rows = [
        (golden_m1(), Regime.LCC, "T1(ii)", 0.5, 1.0, 0.5, 2 * e),
        (PowerAsymptotics(beta1=1, beta2=2, x0=1, y0=1),
         Regime.LPC, "T1(i)", None, None, None, None),
        (PowerAsymptotics(beta1=2, beta2=2, x0=1, y0=3),
         Regime.LPC, "T1(i)", None, None, None, None),
        (PowerAsymptotics(beta1=3, beta2=3, x0=1, y0=1),
         Regime.LCC, "T1(ii)", 1.0 / 3.0, a4, 2.0 / 3.0,
         e * 1.5 * a4 ** (1.0 / 3.0)),
        (golden_m2(), Regime.LPC, "T1(ii)", None, None, None, None),
        (PowerAsymptotics(beta1=0.5, beta2=0.5, x0=1, y0=1),
         Regime.LPC, "T1(ii)", None, None, None, None),
        (PowerAsymptotics(beta1=1, beta2=1, x0=1, y0=2, order=ExpansionOrder.SECOND),
         Regime.LPC, "T2(i)", None, None, None, None),
        (PowerAsymptotics(beta1=5, beta2=5, x0=1, y0=-2, x1=2,
                          order=ExpansionOrder.SECOND),
         Regime.LPC, "T2(i)", None, None, None, None),
        (golden_m3(), Regime.LCC, "T2(ii)", 1.0 / 3.0, None, 2.0 / 3.0, None),
        (PowerAsymptotics(beta1=1.8, beta2=1.8, x0=1, y0=-2, x1=2,
                          order=ExpansionOrder.SECOND),
         Regime.LCC, "T2(ii)", (1.0 / 1.8, 1.0 / 1.6), None,
         (0.8 / 1.8), None),
        (golden_m4(), Regime.LCC, "T2(iii)", 1.0 / 3.0, None, 2.0 / 3.0, None),
        (PowerAsymptotics(beta1=3, beta2=3, x0=1, y0=-2, x1=1.5,
                          order=ExpansionOrder.SECOND),
         Regime.LPC, "T2(iii)", None, None, None, None),
    ]
    return rows


# ---------------------------------------------------------------------------
# check registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckResult:
    """One acceptance check: its verdict, observed and expected text, run time."""

    name: str
    passed: bool
    observed: str
    expected: str
    seconds: float

    def line(self) -> str:
        flag = "PASS" if self.passed else "FAIL"
        return (
            f"[{flag}] {self.name}: observed {self.observed} | "
            f"expected {self.expected} ({self.seconds:.2f}s)"
        )


def _within(x: float, lo: float, hi: float) -> bool:
    return lo <= x <= hi


def _close(x: float, target: float, atol: float) -> bool:
    return abs(x - target) <= atol


def _over_a_second(elapsed: float) -> str:
    """The run time of a check with a < 1 s gate, as observed text only
    where it fails that gate: the line's own suffix reports it always, so
    a passing line reads the same on every run."""
    return f" in {elapsed:.3f}s" if elapsed >= 1.0 else ""


def _check_classification_table():
    t0 = time.perf_counter()
    failures = []
    for i, (params, regime, label, exponent, a, dl, du) in enumerate(golden_table()):
        cls = classify(params)
        ok = cls.regime is regime and cls.case_label == label
        if ok and exponent is not None:
            if isinstance(exponent, tuple):
                got = cls.predicted_exponent
                ok = (
                    isinstance(got, tuple)
                    and _close(got[0], exponent[0], 1e-12)
                    and _close(got[1], exponent[1], 1e-12)
                )
            else:
                ok = _close(cls.predicted_exponent, exponent, 1e-12)
        if ok and a is not None:
            ok = _close(cls.a_constant, a, 1e-12)
        if ok and dl is not None:
            ok = _close(cls.density_lower, dl, 1e-12)
        if ok and du is not None:
            ok = _close(cls.density_upper, du, 1e-12)
        if ok and exponent is None:
            ok = cls.predicted_exponent is None
        if not ok:
            failures.append(f"row {i + 1}: got {cls.case_label}/{cls.regime.value}")
    elapsed = time.perf_counter() - t0
    passed = not failures and elapsed < 1.0
    obs = "all 12 rows match" if not failures else "; ".join(failures)
    return passed, obs + _over_a_second(elapsed), "exact match of all 12 rows, < 1 s"


def _check_wronskian():
    t0 = time.perf_counter()
    res = wronskian_residual(_sol("m1", 5000), _seq("m1", 5000))
    elapsed = time.perf_counter() - t0
    return (
        res <= 1e-8 and elapsed < 1.0,
        f"max residual {res:.3e}" + _over_a_second(elapsed),
        "<= 1e-8, < 1 s",
    )


def _check_decay_slope():
    fit = norm_exponent(_sol("m1", 5000), (100, 5000))
    return (
        _close(fit.slope, -2.0, 0.05),
        f"slope {fit.slope:.4f}",
        "-2.00 +/- 0.05 on [100, 5000]",
    )


def _check_summability():
    _, t1 = square_summability_probe(_sol("m1", 5000))
    _, t2 = square_summability_probe(_sol("m2", 5000))
    _, t5 = square_summability_probe(_sol("m5", 5000))
    ok = (
        t1 is SummabilityTrend.SUMMABLE
        and t2 is SummabilityTrend.DIVERGENT
        and t5 is SummabilityTrend.DIVERGENT
    )
    return (
        ok,
        f"m1={t1.value}, m2={t2.value}, m5={t5.value}",
        "summable / divergent / divergent",
    )


def _check_determinant_identity():
    sol = _sol("m1", 2000)
    zs = []
    for re, im in Pcg64(20240814).uniform(-10, 10, 40).reshape(20, 2):
        z = complex(re, im)
        zs.append(10 * z / abs(z) if abs(z) > 10 else z)
    parts = growth._partials(sol, zs, 2000)
    worst = max(part.determinant_residual() for part in parts)
    return worst <= 1e-6, f"max |AD-BC-1| = {worst:.3e}", "<= 1e-6 at 20 z, |z| <= 10"


def _check_convergence_exponent():
    zeros, eigs = (np.sort(np.abs(x)) for x in _m1_routes())
    fit = growth.convergence_exponent_from_zeros(zeros)
    fit2 = growth.convergence_exponent_from_zeros(eigs)
    ok = _close(fit.slope, 0.5, 0.1) and _close(fit2.slope, 0.5, 0.1)
    return (
        ok,
        f"zero-fit {fit.slope:.4f}, eigenvalue-fit {fit2.slope:.4f}",
        "0.5 +/- 0.1 via both routes",
    )


def _check_upper_density():
    zeros = np.sort(np.abs(_m1_routes()[0]))
    dens = growth.upper_density(zeros, 2.0)
    return (
        _within(dens, 0.45, 5.98),
        f"density proxy {dens:.4f}",
        "within [0.45, 5.98]",
    )


def _check_coefficient_series():
    logc = growth.leading_coefficient_logs(_seq("m1", 5000))
    order, tau = growth.order_type_from_coefficients(logc)
    ok = _close(order, 0.5, 0.02) and _close(tau, 2.0, 0.1)
    return (
        ok,
        f"order {order:.4f}, type {tau:.4f}",
        "order 0.5 +/- 0.02, type 2.0 +/- 0.1",
    )


def _check_counting_agreement():
    zeros = np.sort(np.abs(_m1_routes()[0]))
    seq = _seq("m1", 2000)
    rgrid = np.geomspace(10.0, 1e4, 20)
    table, _ = spectrum.stabilized_counting(seq, rgrid, (500, 1000, 2000))
    nb = np.searchsorted(zeros, rgrid, side="right")
    worst = int(np.max(np.abs(nb - table[:, -1])))
    return worst <= 2, f"max count difference {worst}", "<= 2 on a 20-point r-grid"


def _check_exceptional_decay():
    fit = norm_exponent(_sol("m3", 10002), (100, 5000))
    _, C = transformed_recurrence(_seq("m3", 10002))
    tail = 10000 * C[10000]
    ok = _close(fit.slope, -2.5, 0.1) and _close(tail, -1.0, 0.05)
    return (
        ok,
        f"slope {fit.slope:.4f}, n C_n at 1e4 = {tail:.4f}",
        "slope -2.50 +/- 0.1 and n C_n -> -1 +/- 0.05",
    )


def _check_delta_exponents():
    data = hamburger.lengths_angles(_sol("m3", 10002), _seq("m3", 10002))
    deltas = hamburger.delta_exponents(data, (100, 10000))
    ok = (
        _close(deltas.delta_l, 2.5, 0.1)
        and _close(deltas.delta_phi, 0.5, 0.1)
        and _close(deltas.total, 3.0, 0.1)
    )
    return (
        ok,
        f"delta_l {deltas.delta_l:.4f}, delta_phi {deltas.delta_phi:.4f}, "
        f"sum {deltas.total:.4f}",
        "2.5 / 0.5 / 3.0, each +/- 0.1",
    )


def _check_exceptional_exponent():
    z3, z4 = (np.sort(np.abs(x)) for x in _exceptional_zeros())
    fit3 = growth.convergence_exponent_from_zeros(z3)
    cls4 = classify(golden_m4())
    fit4 = growth.convergence_exponent_from_zeros(z4)
    third = 1.0 / 3.0
    ok = (
        _close(fit3.slope, third, 0.1)
        and cls4.regime is Regime.LCC
        and _close(cls4.predicted_exponent, third, 1e-12)
        and _close(fit4.slope, third, 0.1)
    )
    return (
        ok,
        f"m3 zero-fit {fit3.slope:.4f}; m4 {cls4.regime.value} "
        f"exponent {cls4.predicted_exponent}, zero-fit {fit4.slope:.4f}",
        "1/3 +/- 0.1 fits; m4 classified lcc at exactly 1/3",
    )


def _check_interval_improvement():
    rows = []
    ok = True
    for beta in (1.6, 1.75, 1.9):
        naive, improved = hamburger.exponent_upper_bounds(beta)
        ok = ok and improved < naive
        rows.append(f"beta={beta}: {improved:.4f} < {naive:.4f}")
    return ok, "; ".join(rows), "improved bound strictly below naive bound"


def _check_eigensolver_oracle():
    rng = Pcg64(987654321)
    problems = []
    for _ in range(100):
        n = rng.integers(1, 9)
        rho = rng.uniform(0.2, 3.0, max(n, 2))
        q = rng.uniform(-5.0, 5.0, max(n, 2))
        seq = JacobiSequence(rho=rho, q=q, source="external")
        a, b = spectrum.gershgorin_interval(seq, n)
        problems.append((seq, n, (a, b), 1e-12 * max(1, abs(a), abs(b))))
    ours = spectrum.eigenvalues_in_each(problems)
    oracle = spectrum.charpoly_eigenvalues_each((seq, n) for seq, n, _, _ in problems)
    worst = 0.0
    for (_, n, _, _), mine, theirs in zip(problems, ours, oracle):
        if mine.size != n or theirs.size != n:
            return False, f"eigenvalue count mismatch at n={n}", "all sizes match"
        worst = max(worst, float(np.max(np.abs(mine - theirs))))
    spectra = [s.eigenvalues for s in spectrum.full_spectra(_seq("m1", 51), range(1, 51))]
    interlace_ok = all(
        np.all(cur[:-1] < prev) and np.all(prev < cur[1:])
        for prev, cur in zip(spectra, spectra[1:])
    )
    ok = worst <= 1e-9 and interlace_ok
    return (
        ok,
        f"max |Sturm - charpoly| = {worst:.2e}, interlacing "
        f"{'holds' if interlace_ok else 'fails'}",
        "<= 1e-9 over 100 random matrices; interlacing for N <= 50",
    )


CHECKS: list[tuple[str, Callable]] = [
    ("c01_classification_table", _check_classification_table),
    ("c02_wronskian", _check_wronskian),
    ("c03_decay_slope", _check_decay_slope),
    ("c04_summability_dichotomy", _check_summability),
    ("c05_determinant_identity", _check_determinant_identity),
    ("c06_convergence_exponent", _check_convergence_exponent),
    ("c07_upper_density", _check_upper_density),
    ("c08_coefficient_series", _check_coefficient_series),
    ("c09_counting_agreement", _check_counting_agreement),
    ("c10_exceptional_decay", _check_exceptional_decay),
    ("c11_delta_exponents", _check_delta_exponents),
    ("c12_exceptional_exponent", _check_exceptional_exponent),
    ("c13_interval_improvement", _check_interval_improvement),
    ("c14_eigensolver_oracle", _check_eigensolver_oracle),
]


def run_check(name: str) -> CheckResult:
    fn = dict(CHECKS)[name]
    t0 = time.perf_counter()
    try:
        passed, observed, expected = fn()
    except Exception as exc:  # a crashing check is a failed check
        passed, observed, expected = False, f"raised {exc!r}", "no exception"
    return CheckResult(
        name=name,
        passed=bool(passed),
        observed=observed,
        expected=expected,
        seconds=time.perf_counter() - t0,
    )


def run_all_checks() -> list:
    return [run_check(n) for n, _ in CHECKS]


# ElementTree's escapes: character data, and attribute values
_TEXT = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;"})
_ATTRIB = str.maketrans({
    "&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&quot;",
    "\r": "&#13;", "\n": "&#10;", "\t": "&#09;",
})


def _attrs(**values: str) -> str:
    return "".join(f' {k}="{v.translate(_ATTRIB)}"' for k, v in values.items())


def write_junit(results: list, path) -> None:
    """Write the JUnit XML report of *results* to *path*, a file name or a
    text stream, as ``xml.etree`` writes it indented, without importing
    ``xml.etree``: that package and ``pyexpat`` would raise a ``verify``
    run's peak memory."""
    suite = _attrs(
        name="jacobispec.verify",
        tests=str(len(results)),
        failures=str(sum(not r.passed for r in results)),
        time=f"{sum(r.seconds for r in results):.3f}",
    )
    lines = ["<?xml version='1.0' encoding='utf-8'?>", f"<testsuite{suite}>"]
    for r in results:
        case = _attrs(classname="verify", name=r.name, time=f"{r.seconds:.3f}")
        if r.passed:
            lines.append(f"  <testcase{case} />")
        else:
            message = _attrs(message=f"observed {r.observed}; expected {r.expected}")
            lines += [
                f"  <testcase{case}>",
                f"    <failure{message}>{r.line().translate(_TEXT)}</failure>",
                "  </testcase>",
            ]
    lines.append("</testsuite>")
    text = "\n".join(lines)
    if hasattr(path, "write"):
        path.write(text)
    else:
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
