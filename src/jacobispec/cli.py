"""Batch front end: reproducible experiments over descriptors and sequences.

Subcommands: classify, spectrum, growth, verify, report.  Config is JSON;
curve outputs are CSV and scalar outputs JSON, with sorted keys and repr
floats so identical configs produce byte-identical files.  This module
alone decides the output formats: the other modules return dataclasses.
Each command returns the text of its files, and ``main`` writes them only
once the command has returned, so a run that fails writes nothing.
Each command imports the layers it calls, never through the package root.
Exit codes: 0 ok, 1 check failure, 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import enum
import functools
import io
import json
import sys
from pathlib import Path
from typing import Optional

try:
    # CPython's built-in SHA-1, which maps no OpenSSL
    from _sha1 import sha1
except ImportError:
    from hashlib import sha1

import numpy as np

from . import __version__
from ._kernels import BACKEND
from .params import (
    JacobiSequence,
    PowerAsymptotics,
    _is_finite_number,
    descriptor_from_json,
    descriptor_to_json,
    exceptional_parameters,
    materialize,
    sequence_from_csv,
)
from .spectrum import TruncatedSpectrum, eigenvalues_in_each, stabilized_counting

_GUARD_NOTE = (
    "index-0 values are evaluated at m = max(n, 1); the asymptotic family "
    "does not constrain rho_0, q_0"
)
_BOUNDARY_NOTE = (
    "case boundaries use exact rational comparisons; equality of derived "
    "quantities is granted within 1e-12 relative and flagged as near-boundary"
)
#: why the max-modulus and zero routes, which read B_N, are not run, by regime
_SKIP_NOTES = {
    "lpc": "classified lpc: the Nevanlinna matrix does not converge, so B_N "
    "has no limit whose growth or zeros the route could estimate; the route is not run",
    "undetermined": "classified undetermined: the family is not known to be lcc, "
    "so B_N may have no limit whose growth or zeros the route could estimate; the "
    "route is not run",
}
#: the keys a config and its r_grid and tolerances objects may hold
_CONFIG_KEYS = {
    "descriptor", "sequence_file", "N", "r_grid", "window", "tolerances", "rays", "out",
}
_R_GRID_KEYS = {"r_min", "r_max", "points"}
_TOLERANCE_KEYS = {"eig_tol"}
#: largest accepted truncation dimension and r-grid size; the arrays are
#: allocated as asked, so a larger value would only exhaust memory
_MAX_SIZE = 10**7


@dataclasses.dataclass
class ExperimentConfig:
    """A checked config, with the raw bytes whose hash the report records."""

    descriptor: Optional[PowerAsymptotics]
    sequence_file: Optional[str]
    Ns: list
    r_min: float
    r_max: float
    r_points: int
    window: Optional[tuple]
    rays: int
    eig_tol: Optional[float]
    out: Optional[str]
    raw_bytes: bytes

    def r_grid(self) -> np.ndarray:
        return np.geomspace(self.r_min, self.r_max, self.r_points)

    @functools.cached_property
    def sequence(self) -> JacobiSequence:
        N = max(self.Ns)
        if self.descriptor is not None:
            return materialize(self.descriptor, N)
        seq = sequence_from_csv(self.sequence_file)
        if len(seq) < N:
            raise ValueError(
                f"sequence file has {len(seq)} rows but N = {N} was requested"
            )
        return seq


def _git_blob_sha1(content: bytes) -> str:
    h = sha1()
    h.update(b"blob %d\0" % len(content))
    h.update(content)
    return h.hexdigest()


def _is_json_number(x, types=(int, float)) -> bool:
    return isinstance(x, types) and not isinstance(x, bool)


def _check_keys(obj: dict, allowed: set, where: str) -> None:
    unknown = sorted(set(obj) - allowed)
    if unknown:
        raise ValueError(f"unknown {where} keys: {unknown}")


def load_config(path: str, seed: Optional[int] = None) -> ExperimentConfig:
    if seed is not None and seed < 0:
        raise ValueError("--seed must be an integer >= 0")
    raw = Path(path).read_bytes()
    obj = json.loads(raw)
    if not isinstance(obj, dict):
        raise ValueError("config must be a JSON object")
    _check_keys(obj, _CONFIG_KEYS, "config")
    if ("descriptor" in obj) == ("sequence_file" in obj):
        raise ValueError("config needs exactly one of 'descriptor', 'sequence_file'")
    for key in ("sequence_file", "out"):
        if not isinstance(obj.get(key, ""), str):
            raise ValueError(f"{key} must be a path string")
    descriptor = None
    if "descriptor" in obj:
        descriptor = descriptor_from_json(obj["descriptor"])
        if seed is not None:
            remainder = dataclasses.replace(descriptor.remainder, seed=seed)
            descriptor = dataclasses.replace(descriptor, remainder=remainder)
    Ns = obj.get("N", [500, 1000, 2000])
    if not (
        isinstance(Ns, list)
        and len(Ns) >= 1
        and all(_is_json_number(n, int) and 1 <= n <= _MAX_SIZE for n in Ns)
    ):
        raise ValueError(f"N must be a non-empty list of integers in [1, {_MAX_SIZE}]")
    if any(b <= a for a, b in zip(Ns, Ns[1:])):
        raise ValueError("N values must be strictly increasing")
    rg = obj.get("r_grid", {})
    if not isinstance(rg, dict):
        raise ValueError("r_grid must be a JSON object")
    _check_keys(rg, _R_GRID_KEYS, "r_grid")
    r_min = rg.get("r_min", 10.0)
    r_max = rg.get("r_max", 1e4)
    if not (_is_finite_number(r_min) and _is_finite_number(r_max)):
        raise ValueError("r_grid.r_min and r_grid.r_max must be finite numbers")
    r_min, r_max = float(r_min), float(r_max)
    r_points = rg.get("points", 20)
    if not (_is_json_number(r_points, int) and r_points <= _MAX_SIZE):
        raise ValueError(f"r_grid.points must be an integer <= {_MAX_SIZE}")
    if not (0 < r_min < r_max) or r_points < 8:
        raise ValueError("need 0 < r_min < r_max and at least 8 grid points")
    window = obj.get("window")
    if window is not None:
        if not (
            isinstance(window, list)
            and len(window) == 2
            and all(_is_json_number(w, int) for w in window)
            and 1 <= window[0] < window[1]
        ):
            raise ValueError("window must be two integers lo, hi with 1 <= lo < hi")
        window = (window[0], window[1])
    tol = obj.get("tolerances", {})
    if not isinstance(tol, dict):
        raise ValueError("tolerances must be a JSON object")
    _check_keys(tol, _TOLERANCE_KEYS, "tolerances")
    eig_tol = tol.get("eig_tol")
    if eig_tol is not None and not (_is_finite_number(eig_tol) and eig_tol > 0):
        raise ValueError("tolerances.eig_tol must be a finite positive number")
    rays = obj.get("rays", 16)
    if not (_is_json_number(rays, int) and 16 <= rays <= _MAX_SIZE):
        raise ValueError(f"rays must be an integer in [16, {_MAX_SIZE}]")
    # the counting table and the max-modulus route allocate these products
    if 2 * r_points * len(Ns) > _MAX_SIZE:
        raise ValueError(f"2 * r_grid.points * len(N) must be <= {_MAX_SIZE}")
    if rays * r_points > _MAX_SIZE:
        raise ValueError(f"rays * r_grid.points must be <= {_MAX_SIZE}")
    return ExperimentConfig(
        descriptor=descriptor,
        sequence_file=obj.get("sequence_file"),
        Ns=Ns,
        r_min=r_min,
        r_max=r_max,
        r_points=r_points,
        window=window,
        rays=rays,
        eig_tol=eig_tol,
        out=obj.get("out"),
        raw_bytes=raw,
    )


def _report_envelope(cfg: ExperimentConfig) -> dict:
    env = {
        "tool": {"name": "jacobispec", "version": __version__, "backend": BACKEND},
        "inputs": {"config_sha1": _git_blob_sha1(cfg.raw_bytes)},
        "notes": [_GUARD_NOTE, _BOUNDARY_NOTE],
    }
    if cfg.descriptor is not None:
        env["descriptor"] = descriptor_to_json(cfg.descriptor)
    else:
        env["sequence_file"] = cfg.sequence_file
        env["inputs"]["sequence_sha1"] = _git_blob_sha1(
            Path(cfg.sequence_file).read_bytes()
        )
    return env


def _json_default(obj):
    """An enum as its value and a result dataclass as its fields; tuples
    are already JSON lists."""
    if isinstance(obj, enum.Enum):
        return obj.value
    if dataclasses.is_dataclass(obj):
        return dataclasses.asdict(obj)
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _json_text(obj: dict) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, default=_json_default) + "\n"


def _csv_text(header: list, *columns) -> str:
    """One row per index of *columns*, sequences of Python numbers, which
    the csv module writes by repr."""
    buf = io.StringIO()
    csv.writer(buf).writerows([header, *zip(*columns)])
    return buf.getvalue()


def _exponent_str(exp) -> str:
    if exp is None:
        return "n/a"
    if isinstance(exp, tuple):
        return f"[{exp[0]:.6g}, {exp[1]:.6g}]"
    return f"{exp:.6g}"


def cmd_classify(cfg: ExperimentConfig) -> tuple[dict, dict]:
    from .classify import Regime, berezanskii_test, carleman_test, classify, wouk_test

    report = _report_envelope(cfg)
    seq = cfg.sequence
    criteria = [wouk_test(seq), carleman_test(seq), berezanskii_test(seq)]
    report["criteria"] = criteria
    if cfg.descriptor is not None:
        cls = classify(cfg.descriptor)
        report["classification"] = cls
        if cls.regime is Regime.UNDETERMINED:
            print(f"Undetermined: {cls.notes[0]}")
        else:
            print(
                f"{cls.case_label}: {cls.regime.value}, exponent "
                f"{_exponent_str(cls.predicted_exponent)}"
            )
            if cls.density_lower is not None:
                upper = _exponent_str(cls.density_upper)
                print(f"  upper-density bounds: [{cls.density_lower:.6g}, {upper}]")
    else:
        print("external sequence: criterion verdicts only (no family labels)")
    for c in criteria:
        print(f"  {c.name}: {c.conclusion.value} ({c.evidence})")
    return report, {"classification.json": _json_text(report)}


def cmd_spectrum(cfg: ExperimentConfig) -> tuple[dict, dict]:
    report = _report_envelope(cfg)
    seq = cfg.sequence
    rs = cfg.r_grid()
    table, stable = stabilized_counting(seq, rs, cfg.Ns)
    window = (-cfg.r_max, cfg.r_max)
    evs = eigenvalues_in_each((seq, N, window, cfg.eig_tol) for N in cfg.Ns)
    files, per_n = {}, {}
    for j, (N, ev) in enumerate(zip(cfg.Ns, evs)):
        ev = TruncatedSpectrum(eigenvalues=ev).eigenvalues
        files[f"eigenvalues_N{N}.csv"] = _csv_text(
            ["index", "lambda"], range(ev.size), ev.tolist()
        )
        counts = table[:, j].tolist()
        files[f"counting_N{N}.csv"] = _csv_text(["r", "count"], rs.tolist(), counts)
        per_n[str(N)] = {"count_in_window": int(ev.size), "counts": counts}
    stabilization = [
        {"r": float(r), "counts": counts, "stabilized": bool(s)}
        for r, counts, s in zip(rs, table.tolist(), stable)
    ]
    report.update(window=list(window), per_N=per_n, stabilization=stabilization)
    files["spectrum_report.json"] = _json_text(report)
    print(
        f"spectrum: {len(cfg.Ns)} truncations, counts stabilized at "
        f"{int(stable.sum())}/{len(rs)} radii"
    )
    return report, files


def _route(compute, skipped: Optional[str] = None) -> dict:
    """``{"skipped": note}``, the section *compute* returns, or, when it
    raises ValueError or RuntimeError, ``{"error": line}``."""
    if skipped is not None:
        return {"skipped": skipped}
    try:
        return compute()
    except (ValueError, RuntimeError) as exc:
        return {"error": str(exc)}


def _route_summary(section: dict, predicted) -> str:
    if "skipped" in section:
        return f"skipped ({predicted.regime.value})"
    if "error" in section:
        return f"error: {section['error']}"
    if "order" in section:
        return f"order {section['order']:.4f}, type {section['type_at_order']:.4f}"
    text = f"{section['count']} zeros"
    if "convergence_exponent" in section:
        text += f", convergence exponent {section['convergence_exponent']:.4f}"
    return text


def cmd_growth(cfg: ExperimentConfig) -> tuple[dict, dict]:
    from .classify import classify
    from .growth import (
        b_log_max_modulus, convergence_exponent_from_zeros, leading_coefficient_logs,
        majorant_bound_gap, order_type_from_coefficients, order_type_from_max_modulus,
        scan_b_zeros, upper_density,
    )
    from .hamburger import delta_exponents, lengths_angles
    from .recurrence import norm_exponent, solve_at_zero, wronskian_residual

    report = _report_envelope(cfg)
    N = max(cfg.Ns)
    seq = cfg.sequence
    sol = solve_at_zero(seq)
    report["wronskian_residual"] = wronskian_residual(sol, seq)
    window = cfg.window or (max(2, N // 50), N)
    report["decay_fit"] = norm_exponent(sol, window)
    # a sequence file carries no classification, so every route runs on it
    files, predicted, skipped = {}, None, None
    if cfg.descriptor is not None:
        predicted = classify(cfg.descriptor)
        report["classification"] = predicted
        skipped = _SKIP_NOTES.get(predicted.regime.value)

    def coefficient_route() -> dict:
        logc = leading_coefficient_logs(seq)
        order, type_at_order = order_type_from_coefficients(logc)
        return {"order": order, "type_at_order": type_at_order}

    def max_modulus_route() -> dict:
        rs = cfg.r_grid()
        logM = b_log_max_modulus(sol, N, rays=cfg.rays)(rs)
        fit = dataclasses.asdict(order_type_from_max_modulus(rs, logM))
        order, type_at_order = fit.pop("order"), fit.pop("type_at_order")
        files["log_max_modulus.csv"] = _csv_text(
            ["r", "log_max_modulus"], rs.tolist(), logM.tolist()
        )
        return {"order": order, "type_at_order": type_at_order, "fit": fit}

    def zero_route() -> dict:
        zeros = scan_b_zeros(sol, seq, N, cfg.r_max)
        mods = np.sort(np.abs(zeros))
        section = {"count": int(zeros.size)}
        if mods.size >= 32:
            fit = dataclasses.asdict(convergence_exponent_from_zeros(mods))
            section["convergence_exponent"] = fit.pop("slope")
            section["stderr"] = fit.pop("stderr")
            section["fit"] = fit
            beta1 = cfg.descriptor.beta1 if cfg.descriptor is not None else 0
            if beta1 > 1:
                section["upper_density"] = upper_density(mods, beta1)
        files["b_zeros.csv"] = "zero\n" + "".join(f"{z:.17g}\n" for z in zeros.tolist())
        return section

    report["coefficient_route"] = _route(coefficient_route)
    report["max_modulus_route"] = _route(max_modulus_route, skipped)
    report["zero_route"] = _route(zero_route, skipped)

    if predicted is not None and predicted.case_label == "T1(ii)" and skipped is None:
        gaps = majorant_bound_gap(sol, seq, 1j * np.geomspace(cfg.r_min, cfg.r_max, 8), N)
        report["majorant_gap"] = {"max": float(np.max(gaps)), "values": gaps.tolist()}
    if cfg.descriptor is not None and exceptional_parameters(cfg.descriptor)[0]:
        data = lengths_angles(sol, seq)
        deltas = delta_exponents(data, (max(1, window[0]), min(window[1], N - 1)))
        report["delta_exponents"] = {**dataclasses.asdict(deltas), "sum": deltas.total}

    files["growth_report.json"] = _json_text(report)
    lines = {}  # one line per route; routes with the same outcome share it
    for name in ("coefficient", "max-modulus", "zero"):
        section = report[f"{name.replace('-', '_')}_route"]
        lines.setdefault(_route_summary(section, predicted), []).append(f"{name} route")
    for lead, (summary, names) in zip(["growth:", "", ""], lines.items()):
        print(f"{lead:7} {' and '.join(names)} {summary}")
    if predicted is not None and predicted.predicted_exponent is not None:
        print(f"{'':7} predicted exponent", _exponent_str(predicted.predicted_exponent))
    return report, files


def cmd_verify() -> tuple[int, dict]:
    from .verify import run_all_checks, write_junit

    results = run_all_checks()
    for r in results:
        print(r.line())
    xml = io.StringIO()
    write_junit(results, xml)
    failed = [r for r in results if not r.passed]
    print(
        f"{len(results) - len(failed)}/{len(results)} checks passed; "
        "JUnit report in verify.xml"
    )
    return (1 if failed else 0), {"verify.xml": xml.getvalue()}


def cmd_report(cfg: ExperimentConfig) -> tuple[dict, dict]:
    combined, files = {}, {}
    for name, command in (
        ("classification", cmd_classify),
        ("spectrum_report", cmd_spectrum),
        ("growth_report", cmd_growth),
    ):
        combined[name], made = command(cfg)
        files.update(made)
    files["report.json"] = _json_text(combined)
    print("combined report in report.json")
    return combined, files


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="jacobispec",
        description="classify Jacobi matrices with power-asymptotic parameters "
        "and verify the predicted spectral density at desk scale",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
        ("classify", "family classification plus classical criterion verdicts"),
        ("spectrum", "truncation eigenvalues and counting curves"),
        ("growth", "order/type/exponent/density estimates from three routes"),
        ("verify", "run the full verification suite (JUnit XML output)"),
        ("report", "classify + spectrum + growth in one combined report"),
    ):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--out", help="output directory (default: config 'out' or '.')")
        if name != "verify":  # verify runs fixed golden models
            p.add_argument("--config", required=True, help="JSON config path")
            p.add_argument("--seed", type=int, help="override the remainder seed")
    args = parser.parse_args(argv)

    cfg = None
    if args.command != "verify":
        try:
            cfg = load_config(args.config, seed=args.seed)
        except json.JSONDecodeError as exc:
            print(f"error: malformed config JSON: {exc}", file=sys.stderr)
            return 2
        except (OSError, ValueError, KeyError, TypeError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    out = Path(args.out or (cfg.out if cfg and cfg.out else "."))
    try:
        out.mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError) as exc:  # a file on the path, a NUL byte
        print(f"error: cannot make output directory {str(out)!r}: {exc}", file=sys.stderr)
        return 2

    # each returns its report (verify: its exit code) and the text of every
    # file it makes, which is written only once the command has returned
    commands = {
        "classify": cmd_classify,
        "spectrum": cmd_spectrum,
        "growth": cmd_growth,
        "verify": lambda cfg: cmd_verify(),
        "report": cmd_report,
    }
    try:
        result, files = commands[args.command](cfg)
        for name, text in files.items():
            (out / name).write_text(text, encoding="utf-8", newline="")
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return result if args.command == "verify" else 0


if __name__ == "__main__":
    sys.exit(main())
