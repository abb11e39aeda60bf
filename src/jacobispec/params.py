"""Power-asymptotic parameter families and materialized Jacobi sequences.

A descriptor holds the data of the two-term (first-order) or three-term
(second-order) power expansion of the Jacobi parameters,

    rho_n = n^beta1 (x0 + x1/n [+ x2/n^2] + remainder),
    q_n   = n^beta2 (y0 + y1/n [+ y2/n^2] + remainder),

with x0 > 0 and y0 != 0.  Descriptors keep exact rational copies of every
numeric field (decimal strings are parsed exactly) so that the classifier
can evaluate knife-edge case boundaries without binary64 round-off.
"""

from __future__ import annotations

import csv
import enum
import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Union

import numpy as np

from ._pcg64 import Pcg64

__all__ = [
    "ExpansionOrder",
    "RemainderKind",
    "RemainderModel",
    "PowerAsymptotics",
    "JacobiSequence",
    "CarlemanVerdict",
    "materialize",
    "wouk_margin",
    "carleman_sum",
    "exceptional_parameters",
    "descriptor_from_json",
    "descriptor_to_json",
    "sequence_from_csv",
    "sequence_to_csv",
]

#: relative tolerance for treating two binary64-derived quantities as equal
#: on a case boundary (documented in every report that uses it)
BOUNDARY_RTOL = Fraction(1, 10**12)


class ExpansionOrder(enum.Enum):
    FIRST = "first"
    SECOND = "second"


class RemainderKind(enum.Enum):
    NONE = "none"
    DETERMINISTIC = "deterministic"
    SEEDED_NOISE = "seeded_noise"


@dataclass(frozen=True)
class RemainderModel:
    """Remainder term added inside the expansion parenthesis.

    ``deterministic`` adds c*n^(-1-eps) (first order) or c*n^(-2-eps)
    (second order); ``seeded_noise`` multiplies that envelope by a
    reproducible pseudo-random factor u_n in [-1, 1].  The u_n of rho are
    the first N draws of numpy's ``default_rng(seed).uniform(-1, 1)``
    stream (PCG64 seeded through ``SeedSequence``) and those of q the next
    N; ``_pcg64`` reproduces that stream bit for bit without importing
    numpy's random subpackage, so a seed gives the matrix that numpy's
    own generator gives.
    """

    kind: RemainderKind = RemainderKind.NONE
    amplitude: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.amplitude < 0:
            raise ValueError("remainder amplitude must be nonnegative")


NO_REMAINDER = RemainderModel()

Numeric = Union[int, float, str, Fraction]


def _to_fraction(value: Numeric) -> Fraction:
    # Fraction("0.1") is exact 1/10; Fraction(0.1) is the exact binary64.
    if isinstance(value, Fraction):
        return value
    return Fraction(value)


_NUMERIC_FIELDS = ("beta1", "beta2", "x0", "x1", "x2", "y0", "y1", "y2", "epsilon")


@dataclass(frozen=True)
class PowerAsymptotics:
    """Descriptor of a power-asymptotic parameter family."""

    beta1: float
    beta2: float
    x0: float
    y0: float
    x1: float = 0.0
    y1: float = 0.0
    x2: float = 0.0
    y2: float = 0.0
    epsilon: float = 1.0
    remainder: RemainderModel = NO_REMAINDER
    order: ExpansionOrder = ExpansionOrder.FIRST
    exact: Mapping[str, Fraction] = field(
        default_factory=dict, repr=False, compare=False
    )

    def __post_init__(self):
        exact = dict(self.exact)
        for name in _NUMERIC_FIELDS:
            raw = getattr(self, name)
            if name not in exact:
                exact[name] = _to_fraction(raw)
            object.__setattr__(self, name, float(exact[name]))
        object.__setattr__(self, "exact", exact)
        if exact["x0"] <= 0:
            raise ValueError("x0 must be positive")
        if exact["y0"] == 0:
            raise ValueError("y0 must be nonzero")
        if exact["epsilon"] <= 0:
            raise ValueError("epsilon must be positive")
        if self.order is ExpansionOrder.FIRST and (
            exact["x2"] != 0 or exact["y2"] != 0
        ):
            raise ValueError("first-order descriptors must have x2 = y2 = 0")

    def frac(self, name: str) -> Fraction:
        return self.exact[name]

    def scaled(self, lam: Numeric) -> "PowerAsymptotics":
        """Simultaneously scale (x0, x1, x2, y0, y1, y2) by lam > 0."""
        lam = _to_fraction(lam)
        if lam <= 0:
            raise ValueError("scale factor must be positive")
        kw = {n: self.exact[n] for n in _NUMERIC_FIELDS}
        for n in ("x0", "x1", "x2", "y0", "y1", "y2"):
            kw[n] = kw[n] * lam
        return PowerAsymptotics(remainder=self.remainder, order=self.order, **kw)


@dataclass(frozen=True, eq=False)
class JacobiSequence:
    """Finite arrays rho[0..N-1] > 0 and q[0..N-1] of Jacobi parameters."""

    rho: np.ndarray
    q: np.ndarray
    source: Union[PowerAsymptotics, str] = "external"

    def __post_init__(self):
        rho = np.ascontiguousarray(np.asarray(self.rho, dtype=np.float64))
        q = np.ascontiguousarray(np.asarray(self.q, dtype=np.float64))
        if rho.ndim != 1 or q.ndim != 1 or rho.shape != q.shape:
            raise ValueError("rho and q must be 1-d arrays of equal length")
        if np.any(rho <= 0) or not np.all(np.isfinite(rho)) or not np.all(
            np.isfinite(q)
        ):
            raise ValueError("rho must be positive and both arrays finite")
        rho.setflags(write=False)
        q.setflags(write=False)
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "q", q)

    def __len__(self) -> int:
        return self.rho.shape[0]

    @property
    def descriptor(self) -> Union[PowerAsymptotics, None]:
        return self.source if isinstance(self.source, PowerAsymptotics) else None


class CarlemanVerdict(enum.Enum):
    DIVERGENT = "divergent"
    CONVERGENT = "convergent"
    INCONCLUSIVE = "inconclusive"


def materialize(params: PowerAsymptotics, N: int) -> JacobiSequence:
    """Evaluate the descriptor at indices 0..N-1.

    The expansions are evaluated at m = max(n, 1): the leading power is
    degenerate at n = 0, and this guard preserves all asymptotics while
    keeping rho[0] positive.
    """
    if N < 2:
        raise ValueError("need N >= 2")
    n = np.arange(N, dtype=np.float64)
    m = np.maximum(n, 1.0)
    rem_rho = np.zeros(N)
    rem_q = np.zeros(N)
    if params.remainder.kind is not RemainderKind.NONE and params.remainder.amplitude:
        power = -1.0 if params.order is ExpansionOrder.FIRST else -2.0
        envelope = params.remainder.amplitude * m ** (power - params.epsilon)
        if params.remainder.kind is RemainderKind.DETERMINISTIC:
            rem_rho = envelope
            rem_q = envelope
        else:
            u = Pcg64(params.remainder.seed).uniform(-1.0, 1.0, 2 * N).reshape(2, N)
            rem_rho = u[0] * envelope
            rem_q = u[1] * envelope
    with np.errstate(over="ignore", invalid="ignore"):
        rho = m ** params.beta1 * (
            params.x0 + params.x1 / m + params.x2 / m**2 + rem_rho
        )
        q = m ** params.beta2 * (
            params.y0 + params.y1 / m + params.y2 / m**2 + rem_q
        )
    finite = np.isfinite(rho) & np.isfinite(q)
    if not finite.all():
        bad = int(np.argmin(finite))
        raise ValueError(
            f"materialized rho[{bad}] = {rho[bad]}, q[{bad}] = {q[bad]}: {bad} is "
            "the first index where the descriptor is not finite in binary64"
        )
    if np.any(rho <= 0):
        bad = int(np.argmax(rho <= 0))
        raise ValueError(
            f"materialized rho[{bad}] = {rho[bad]} <= 0: the expansion head "
            "terms or the remainder amplitude violate positivity at small n "
            "(the family only guarantees rho_n > 0 for n large)"
        )
    return JacobiSequence(rho=rho, q=q, source=params)


def wouk_margin(seq: JacobiSequence) -> np.ndarray:
    """margin[n-1] = rho_n + rho_{n-1} - |q_n| for n = 1..N-1.

    A margin bounded above implies the limit point case (dominating
    diagonal); the sign of q is eventually constant for all descriptors.
    """
    if len(seq) < 2:
        raise ValueError("need at least two entries")
    return seq.rho[1:] + seq.rho[:-1] - np.abs(seq.q[1:])


def exceptional_parameters(
    params: PowerAsymptotics,
) -> tuple[bool, bool]:
    """Whether beta1 = beta2 and 2 x0 = |y0| (the double-root family).

    Returns (exceptional, near_boundary): *near_boundary* is set when the
    verdict was decided by the relative 1e-12 tolerance rather than exact
    rational equality, i.e. the descriptor sits on a knife edge.
    """
    b1, b2 = params.frac("beta1"), params.frac("beta2")
    two_x0 = 2 * params.frac("x0")
    abs_y0 = abs(params.frac("y0"))
    beta_eq = b1 == b2
    beta_near = not beta_eq and abs(b1 - b2) <= BOUNDARY_RTOL * max(
        1, abs(b1), abs(b2)
    )
    ratio_eq = two_x0 == abs_y0
    ratio_near = not ratio_eq and abs(two_x0 - abs_y0) <= BOUNDARY_RTOL * max(
        two_x0, abs_y0
    )
    exceptional = (beta_eq or beta_near) and (ratio_eq or ratio_near)
    return exceptional, exceptional and (beta_near or ratio_near)


def _z1_fraction(params: PowerAsymptotics) -> Fraction:
    x0, x1 = params.frac("x0"), params.frac("x1")
    y0, y1 = params.frac("y0"), params.frac("y1")
    beta = params.frac("beta1")
    return x0 * (2 * x1 / x0 - 2 * y1 / y0 - beta)


def _z2_fraction(params: PowerAsymptotics) -> Fraction:
    x0, x1, x2 = params.frac("x0"), params.frac("x1"), params.frac("x2")
    y0, y2 = params.frac("y0"), params.frac("y2")
    beta = params.frac("beta1")
    return x0 * (
        2 * x2 / x0 - 2 * y2 / y0 + Fraction(beta - 1, 2) * (beta - 2 * x1 / x0)
    )


def carleman_sum(seq: JacobiSequence) -> tuple[float, CarlemanVerdict]:
    """Partial sum of 1/rho_n plus the descriptor-level divergence verdict.

    Sum 1/rho_n = infinity forces the limit point case.  For a power
    family the series diverges iff beta1 <= 1; finite external data alone
    cannot decide.
    """
    partial = float(np.sum(1.0 / seq.rho))
    desc = seq.descriptor
    if desc is None:
        return partial, CarlemanVerdict.INCONCLUSIVE
    if desc.frac("beta1") <= 1:
        return partial, CarlemanVerdict.DIVERGENT
    return partial, CarlemanVerdict.CONVERGENT


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

_ORDER_ALIASES = {
    "first": ExpansionOrder.FIRST,
    "firstorder": ExpansionOrder.FIRST,
    "first_order": ExpansionOrder.FIRST,
    "second": ExpansionOrder.SECOND,
    "secondorder": ExpansionOrder.SECOND,
    "second_order": ExpansionOrder.SECOND,
}

_KIND_ALIASES = {
    "none": RemainderKind.NONE,
    "deterministic": RemainderKind.DETERMINISTIC,
    "seedednoise": RemainderKind.SEEDED_NOISE,
    "seeded_noise": RemainderKind.SEEDED_NOISE,
}


def _is_finite_number(x) -> bool:
    # a JSON number; also rejects an integer literal too large for a double
    return (
        isinstance(x, (int, float))
        and not isinstance(x, bool)
        and abs(x) <= sys.float_info.max
    )


#: largest decimal exponent a descriptor string may carry: Fraction builds
#: 10**|exponent| exactly, so parsing slows as the exponent grows, while
#: binary64 itself spans decimal exponents -324 .. 308 only
_MAX_DECIMAL_EXPONENT = 1000
_DECIMAL_EXPONENT = re.compile(r"[eE][-+]?([\d_]+)\s*\Z")


def _json_numeric(key: str, value) -> Fraction:
    """A descriptor number: a finite JSON number or a decimal string."""
    exponent = _DECIMAL_EXPONENT.search(value) if isinstance(value, str) else None
    if exponent is not None:
        # compared as digit strings first, so a huge exponent is never parsed
        digits = exponent.group(1).replace("_", "").lstrip("0") or "0"
        cap = str(_MAX_DECIMAL_EXPONENT)
        if (len(digits), digits) > (len(cap), cap):
            raise ValueError(
                f"descriptor key '{key}' has a decimal exponent beyond "
                f"+-{_MAX_DECIMAL_EXPONENT}"
            )
    frac = None
    if isinstance(value, str) or _is_finite_number(value):
        try:
            frac = Fraction(value)
        except ValueError:  # not a decimal string
            pass
    if frac is None or abs(frac) > sys.float_info.max:
        raise ValueError(
            f"descriptor key '{key}' must be a finite number or a decimal string"
        )
    return frac


def descriptor_from_json(obj: dict) -> PowerAsymptotics:
    """Build a descriptor from its JSON document.

    Numeric values given as strings are parsed as exact decimals, which
    keeps case-boundary comparisons exact.  ``order`` defaults to second
    order when an ``x2`` or ``y2`` key is present.
    """
    if not isinstance(obj, dict):
        raise ValueError("descriptor document must be a JSON object")
    unknown = set(obj) - set(_NUMERIC_FIELDS) - {"remainder", "order"}
    if unknown:
        raise ValueError(f"unknown descriptor keys: {sorted(unknown)}")
    for key in ("beta1", "beta2", "x0", "y0"):
        if key not in obj:
            raise ValueError(f"descriptor is missing required key '{key}'")
    kw = {k: _json_numeric(k, obj[k]) for k in _NUMERIC_FIELDS if k in obj}
    rem = obj.get("remainder")
    if rem is not None:
        if not isinstance(rem, dict):
            raise ValueError("descriptor remainder must be a JSON object")
        kind = _KIND_ALIASES.get(str(rem.get("kind", "none")).lower())
        if kind is None:
            raise ValueError(f"unknown remainder kind {rem.get('kind')!r}")
        amplitude = rem.get("amplitude", 0.0)
        if not _is_finite_number(amplitude):
            raise ValueError("remainder amplitude must be a finite number")
        seed = rem.get("seed", 0)
        if not (isinstance(seed, int) and not isinstance(seed, bool) and seed >= 0):
            raise ValueError("remainder seed must be an integer >= 0")
        kw["remainder"] = RemainderModel(
            kind=kind, amplitude=float(amplitude), seed=seed
        )
    order = obj.get("order")
    if order is not None:
        parsed = _ORDER_ALIASES.get(str(order).replace(" ", "").lower())
        if parsed is None:
            raise ValueError(f"unknown expansion order {order!r}")
        kw["order"] = parsed
    elif "x2" in obj or "y2" in obj:
        kw["order"] = ExpansionOrder.SECOND
    return PowerAsymptotics(**kw)


def descriptor_to_json(params: PowerAsymptotics) -> dict:
    out = {name: getattr(params, name) for name in _NUMERIC_FIELDS}
    out["remainder"] = {
        "kind": params.remainder.kind.value,
        "amplitude": params.remainder.amplitude,
        "seed": params.remainder.seed,
    }
    out["order"] = params.order.value
    return out


def sequence_from_csv(path) -> JacobiSequence:
    """Read an external sequence from CSV with header ``n,rho,q``."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["n", "rho", "q"]:
            raise ValueError("sequence CSV must start with header 'n,rho,q'")
        rho, q = [], []
        for i, row in enumerate(reader):
            if len(row) != 3:
                raise ValueError(f"row {i + 2}: expected 3 columns")
            if int(row[0]) != i:
                raise ValueError(
                    f"row {i + 2}: indices must increase strictly from 0"
                )
            rho.append(float(row[1]))
            q.append(float(row[2]))
    return JacobiSequence(rho=np.array(rho), q=np.array(q), source="external")


def sequence_to_csv(seq: JacobiSequence, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "rho", "q"])
        for i in range(len(seq)):
            writer.writerow([i, repr(float(seq.rho[i])), repr(float(seq.q[i]))])
