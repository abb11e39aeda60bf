"""Limit-circle / limit-point decision procedures for power families.

Two regimes are distinguished by the limiting characteristic polynomial of
the normalized recurrence: distinct roots (generic parameters, labels
``T1(i)``/``T1(ii)``) and a double root (the exceptional family
``beta1 = beta2``, ``2 x0 = |y0|``, labels ``T2(i)``/``T2(ii)``/``T2(iii)``).
All case boundaries are evaluated in exact rational arithmetic on the
descriptor's stored fractions; comparisons decided only by the 1e-12
relative tolerance are flagged with a near-boundary note.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Union

import numpy as np

from .params import (
    BOUNDARY_RTOL,
    CarlemanVerdict,
    ExpansionOrder,
    JacobiSequence,
    PowerAsymptotics,
    _z1_fraction,
    _z2_fraction,
    carleman_sum,
    exceptional_parameters,
    wouk_margin,
)

__all__ = [
    "Regime",
    "CriterionConclusion",
    "CriterionVerdict",
    "Classification",
    "classify",
    "classify_distinct_roots",
    "classify_double_root",
    "wouk_test",
    "berezanskii_test",
    "carleman_test",
]


class Regime(enum.Enum):
    LCC = "lcc"
    LPC = "lpc"
    UNDETERMINED = "undetermined"


class CriterionConclusion(enum.Enum):
    IMPLIES_LPC = "implies_lpc"
    IMPLIES_LCC = "implies_lcc"
    NO_CONCLUSION = "no_conclusion"


@dataclass(frozen=True)
class CriterionVerdict:
    name: str
    applies: bool
    conclusion: CriterionConclusion
    evidence: str

    def __post_init__(self):
        conclusive = self.conclusion is not CriterionConclusion.NO_CONCLUSION
        if conclusive and not self.applies:
            raise ValueError("a conclusive criterion must apply")


Exponent = Union[float, tuple]


@dataclass(frozen=True)
class Classification:
    regime: Regime
    case_label: str
    predicted_exponent: Optional[Exponent] = None
    density_lower: Optional[float] = None
    density_upper: Optional[float] = None
    a_constant: Optional[float] = None
    z1: Optional[float] = None
    z2: Optional[float] = None
    d: Optional[float] = None
    notes: tuple = field(default_factory=tuple)

    def __post_init__(self):
        if self.regime is Regime.LCC and self.predicted_exponent is None:
            raise ValueError("an lcc classification needs a predicted exponent")
        if isinstance(self.predicted_exponent, tuple):
            lo, hi = self.predicted_exponent
            if not lo <= hi:
                raise ValueError("predicted exponent interval must have lo <= hi")


def _compare(a: Fraction, b: Fraction, what: str, notes: list) -> int:
    """Three-way compare with tolerance-based equality on knife edges."""
    if a == b:
        return 0
    if abs(a - b) <= BOUNDARY_RTOL * max(1, abs(a), abs(b)):
        notes.append(
            f"near-boundary: treated {what} as equal (relative difference "
            f"below 1e-12)"
        )
        return 0
    return 1 if a > b else -1


def _float(value: Fraction, what: str) -> float:
    """The binary64 float of the exact *value*; a ValueError naming *what*
    where it lies beyond the binary64 range."""
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{what} lies beyond the binary64 range") from None


def classify_distinct_roots(params: PowerAsymptotics) -> Classification:
    """Classification for generic parameters (limiting roots distinct)."""
    exceptional, _ = exceptional_parameters(params)
    if exceptional:
        raise ValueError(
            "double-root family: use classify_double_root / classify"
        )
    notes: list = []
    b1, b2 = params.frac("beta1"), params.frac("beta2")
    x0, y0 = params.frac("x0"), params.frac("y0")
    cmp_beta = _compare(b1, b2, "beta1 = beta2", notes)
    if cmp_beta < 0 or (cmp_beta == 0 and 2 * x0 < abs(y0)):
        return Classification(
            regime=Regime.LPC, case_label="T1(i)", notes=tuple(notes)
        )
    # dominant off-diagonal: lcc exactly when beta1 > 1
    if _compare(b1, Fraction(1), "beta1 = 1", notes) <= 0:
        return Classification(
            regime=Regime.LPC, case_label="T1(ii)", notes=tuple(notes)
        )
    beta1 = _float(b1, "beta1")
    if cmp_beta > 0:
        a = 1.0
    else:
        ratio = _float(y0 * y0 / (4 * x0 * x0), "y0^2 / (4 x0^2)")
        a = float(1.0 / math.sqrt(1.0 - ratio))
    x0f = _float(x0, "x0")
    lower = (beta1 - 1.0) / beta1 * (1.0 / x0f) ** (1.0 / beta1)
    upper = math.e * beta1 / (beta1 - 1.0) * (a / x0f) ** (1.0 / beta1)
    return Classification(
        regime=Regime.LCC,
        case_label="T1(ii)",
        predicted_exponent=1.0 / beta1,
        density_lower=lower,
        density_upper=upper,
        a_constant=a,
        notes=tuple(notes),
    )


def classify_double_root(params: PowerAsymptotics) -> Classification:
    """Classification for the exceptional family (double characteristic root)."""
    exceptional, near = exceptional_parameters(params)
    if not exceptional:
        raise ValueError("not a double-root descriptor")
    if params.order is not ExpansionOrder.SECOND:
        raise ValueError(
            "second-order expansion terms (x2, y2) are required for the "
            "exceptional case"
        )
    notes: list = []
    if near:
        notes.append(
            "near-boundary: treated beta1 = beta2 and/or 2 x0 = |y0| as "
            "equal (relative difference below 1e-12)"
        )
    beta = params.frac("beta1")
    x0, y0 = params.frac("x0"), params.frac("y0")
    x1, y1 = params.frac("x1"), params.frac("y1")
    bstar = 2 * x1 / x0 - 2 * y1 / y0
    z1 = _z1_fraction(params)
    z2 = _z2_fraction(params)
    d = -z2 / x0 + beta * (beta - 2) / 4
    scalars = dict(z1=_float(z1, "z1"), z2=_float(z2, "z2"), d=_float(d, "d"))
    betaf = _float(beta, "beta")
    x0f = _float(x0, "x0")

    cmp_bstar = _compare(beta, bstar, "beta = 2 x1/x0 - 2 y1/y0", notes)
    cmp_three_half = _compare(beta, Fraction(3, 2), "beta = 3/2", notes)

    def lcc(exponent, label):
        lower = (betaf - 1.0) / betaf * (1.0 / x0f) ** (1.0 / betaf)
        return Classification(
            regime=Regime.LCC,
            case_label=label,
            predicted_exponent=exponent,
            density_lower=lower,
            density_upper=None,
            notes=tuple(notes),
            **scalars,
        )

    if cmp_bstar == 0 and cmp_three_half > 0:
        # boundary family: membership decided by the second-order terms
        threshold = Fraction(3, 2) + 2 * z2 / x0
        if (
            _compare(beta, Fraction(2), "beta = 2", notes) > 0
            and _compare(beta, threshold, "beta = 3/2 + 2 z2/x0", notes) < 0
        ):
            return lcc(1.0 / betaf, "T2(iii)")
        return Classification(
            regime=Regime.LPC, case_label="T2(iii)", notes=tuple(notes), **scalars
        )
    if cmp_three_half <= 0 or cmp_bstar > 0:
        return Classification(
            regime=Regime.LPC, case_label="T2(i)", notes=tuple(notes), **scalars
        )
    # 3/2 < beta < bstar
    if _compare(beta, Fraction(2), "beta = 2", notes) >= 0:
        return lcc(1.0 / betaf, "T2(ii)")
    notes.append(
        "exponent interval only; the point value 1/beta is conjectured but "
        "not asserted for 3/2 < beta < 2"
    )
    return lcc((1.0 / betaf, 1.0 / (2.0 * (betaf - 1.0))), "T2(ii)")


def classify(params: PowerAsymptotics) -> Classification:
    """Dispatch between the generic and exceptional decision procedures."""
    exceptional, near = exceptional_parameters(params)
    if not exceptional:
        return classify_distinct_roots(params)
    if params.order is not ExpansionOrder.SECOND:
        notes = [
            "exceptional family with first-order data only: second-order "
            "expansion terms (x2, y2) are required to classify"
        ]
        if near:
            notes.append("near-boundary: equality treated within 1e-12 relative")
        return Classification(
            regime=Regime.UNDETERMINED,
            case_label="exceptional/first-order",
            notes=tuple(notes),
        )
    return classify_double_root(params)


# ---------------------------------------------------------------------------
# classical criteria
# ---------------------------------------------------------------------------

def _wouk_descriptor(params: PowerAsymptotics) -> CriterionVerdict:
    # leading behaviour of rho_n + rho_{n-1} - |q_n|: bounded above => lpc
    notes: list = []
    b1, b2 = params.frac("beta1"), params.frac("beta2")
    x0, y0 = params.frac("x0"), params.frac("y0")
    exceptional, _ = exceptional_parameters(params)

    def verdict(bounded, evidence):
        return CriterionVerdict(
            name="wouk",
            applies=True,
            conclusion=(
                CriterionConclusion.IMPLIES_LPC
                if bounded
                else CriterionConclusion.NO_CONCLUSION
            ),
            evidence=evidence,
        )

    if not exceptional:
        cmp_beta = _compare(b1, b2, "beta1 = beta2", notes)
        if cmp_beta < 0:
            return verdict(True, "lim |q_n|/rho_n = infinity > 2")
        if cmp_beta == 0 and 2 * x0 < abs(y0):
            ratio = _float(abs(y0) / x0, "|y0|/x0")
            return verdict(True, f"lim |q_n|/rho_n = {ratio} > 2")
        # positive leading coefficient, exponent beta1
        bounded = b1 <= 0
        return verdict(
            bounded,
            "margin ~ c n^beta1 with c > 0; bounded iff beta1 <= 0 "
            f"(beta1 = {_float(b1, 'beta1')})",
        )
    z1 = _z1_fraction(params)
    beta = b1
    if z1 < 0:
        return verdict(True, f"exceptional family with z1 = {_float(z1, 'z1')} < 0")
    if z1 > 0:
        return verdict(
            beta <= 1,
            f"margin ~ z1 n^(beta-1), z1 = {_float(z1, 'z1')} > 0; bounded iff "
            f"beta <= 1 (beta = {_float(beta, 'beta')})",
        )
    if params.order is not ExpansionOrder.SECOND:
        return verdict(
            False,
            "z1 = 0 and no second-order terms: leading margin coefficient "
            "unknown",
        )
    z2 = _z2_fraction(params)
    if z2 < 0:
        return verdict(True, f"z1 = 0 and z2 = {_float(z2, 'z2')} < 0")
    if beta <= 2:
        return verdict(
            True,
            f"z1 = 0 and margin ~ z2 n^(beta-2) with beta = {_float(beta, 'beta')} <= 2",
        )
    if z2 == 0:
        return verdict(False, "z1 = z2 = 0 and beta > 2: remainder-dominated margin")
    return verdict(
        False,
        f"margin ~ z2 n^(beta-2) unbounded (z2 = {_float(z2, 'z2')} > 0, "
        f"beta = {_float(beta, 'beta')} > 2)",
    )


def wouk_test(
    obj: Union[PowerAsymptotics, JacobiSequence]
) -> CriterionVerdict:
    """Dominating-diagonal test: a margin bounded above implies lpc.

    Descriptors are analysed through the leading coefficients of the margin
    expansion; raw sequences get only an empirical boundedness heuristic.
    """
    if isinstance(obj, PowerAsymptotics):
        return _wouk_descriptor(obj)
    seq = obj
    if seq.descriptor is not None:
        return _wouk_descriptor(seq.descriptor)
    margin = wouk_margin(seq)
    half = len(margin) // 2
    scale = float(np.max(np.abs(margin))) or 1.0
    bounded = float(np.max(margin[half:])) <= float(np.max(margin[:half])) + 1e-9 * scale
    if bounded:
        return CriterionVerdict(
            name="wouk",
            applies=True,
            conclusion=CriterionConclusion.IMPLIES_LPC,
            evidence="margin empirically bounded on the sampled range "
            "(heuristic: finite data only)",
        )
    return CriterionVerdict(
        name="wouk",
        applies=False,
        conclusion=CriterionConclusion.NO_CONCLUSION,
        evidence="margin grows over the sampled range; no conclusion from "
        "finite data",
    )


def carleman_test(seq: JacobiSequence) -> CriterionVerdict:
    """Divergence of sum 1/rho_n implies lpc."""
    partial, verdict = carleman_sum(seq)
    if verdict is CarlemanVerdict.DIVERGENT:
        return CriterionVerdict(
            name="carleman",
            applies=True,
            conclusion=CriterionConclusion.IMPLIES_LPC,
            evidence=f"sum 1/rho_n diverges (beta1 <= 1); partial sum {partial:.6g}",
        )
    if verdict is CarlemanVerdict.CONVERGENT:
        return CriterionVerdict(
            name="carleman",
            applies=True,
            conclusion=CriterionConclusion.NO_CONCLUSION,
            evidence=f"sum 1/rho_n converges; partial sum {partial:.6g}",
        )
    return CriterionVerdict(
        name="carleman",
        applies=False,
        conclusion=CriterionConclusion.NO_CONCLUSION,
        evidence=f"no descriptor: finite partial sum {partial:.6g} cannot decide",
    )


def berezanskii_test(seq: JacobiSequence) -> CriterionVerdict:
    """Sufficient lcc test: log-concave rho, convergent sum 1/rho_n, and
    sum |q_n|/rho_n < infinity (descriptor check: beta2 - beta1 < -1).

    Index 0 of a materialized sequence carries the m = max(n, 1) guard value
    rho_0 = rho_1, which breaks log-concavity at n = 1 for every growing
    family; since the case dichotomy is invariant under finitely many
    parameter changes, the defect count here starts at n = 2.
    """
    if len(seq) < 3:
        raise ValueError("need at least three entries")
    desc = seq.descriptor
    if desc is None:
        return CriterionVerdict(
            name="berezanskii",
            applies=False,
            conclusion=CriterionConclusion.NO_CONCLUSION,
            evidence="series conditions need a descriptor",
        )
    # rho_n^2 < rho_{n+1} rho_{n-1} compared in logs, which cannot overflow
    log_rho = np.log(seq.rho)
    defect = int(np.sum(2.0 * log_rho[2:-1] < log_rho[3:] + log_rho[1:-2]))
    _, carleman = carleman_sum(seq)
    ratio_ok = desc.frac("beta2") - desc.frac("beta1") < -1
    if defect == 0 and carleman is CarlemanVerdict.CONVERGENT and ratio_ok:
        return CriterionVerdict(
            name="berezanskii",
            applies=True,
            conclusion=CriterionConclusion.IMPLIES_LCC,
            evidence="rho log-concave from n = 2 on, sum 1/rho_n < infinity, "
            "sum |q_n|/rho_n < infinity (beta2 - beta1 < -1)",
        )
    reasons = []
    if defect:
        reasons.append(f"{defect} log-concavity defects beyond n = 1")
    if carleman is not CarlemanVerdict.CONVERGENT:
        reasons.append("sum 1/rho_n not convergent")
    if not ratio_ok:
        gap = _float(desc.frac("beta2") - desc.frac("beta1"), "beta2 - beta1")
        reasons.append(f"beta2 - beta1 = {gap} >= -1")
    return CriterionVerdict(
        name="berezanskii",
        applies=True,
        conclusion=CriterionConclusion.NO_CONCLUSION,
        evidence="; ".join(reasons),
    )
