#!/usr/bin/env python3
"""Run the jacobispec CLI in this process with a span around every call
into each layer's public functions.

Usage (from the repository root, with ``src`` on PYTHONPATH):

    python3 perfbench/tracer.py SPANS.json -- report --config cfg.json --out out/

The wrappers live here, not in the package: each traced function is
replaced in every ``jacobispec`` module namespace that holds it, which
covers module attributes (``_kernels.sturm_counts``) as well as the names
that ``cli`` and ``verify`` bound with ``from ... import``
(``cli.solve_at_zero``, ``cli.classify``).  Spans are kept in memory and
written to SPANS.json when the CLI returns; ``layer_metrics`` turns them
into the per-layer metrics.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time

# (module, function) pairs traced; the span name drops the module's
# leading underscore so that every metric name starts with a letter
TARGETS = {
    "params": ["materialize"],
    "classify": ["classify"],
    "recurrence": ["solve_at_zero"],
    "spectrum": [
        "eigenvalues_in",
        "stabilized_counting",
        "full_spectrum",
        "charpoly_eigenvalues",
    ],
    "growth": ["scan_b_zeros", "nevanlinna_evaluate", "majorant_bound_gap"],
    "hamburger": ["lengths_angles"],
    "_kernels": ["sturm_counts", "transfer_real", "transfer_complex", "solve_three_term"],
}
EVALUATOR = "growth.b_log_max_modulus.evaluator"
SPAN_NAMES = [
    f"{mod.lstrip('_')}.{fn}" for mod, fns in TARGETS.items() for fn in fns
] + [EVALUATOR]

METRICS = {
    **{f"{name}.{kind}": unit for name in SPAN_NAMES
       for kind, unit in (("calls", "count"), ("busy_s", "s"), ("self_s", "s"))},
    "kernels.sturm_counts.shift_rows": "count",
    "kernels.transfer_real.point_steps": "count",
    "kernels.transfer_complex.point_steps": "count",
    "spectrum.eigenvalues_in.yield": "ratio",
    "growth.scan_b_zeros.zeros": "count",
    "growth.scan_b_zeros.yield": "ratio",
}

# work done by one call, computed from argument and result sizes
WORK = {
    "kernels.sturm_counts": lambda a, r: {
        "shift_rows": len(a[0]) * len(a[2]), "shifts": len(a[2])
    },
    "kernels.transfer_real": lambda a, r: {
        "point_steps": int(a[3]) * len(a[2]), "points": len(a[2])
    },
    "kernels.transfer_complex": lambda a, r: {"point_steps": int(a[3]) * len(a[2])},
    "spectrum.eigenvalues_in": lambda a, r: {"eigenvalues": len(r)},
    "growth.scan_b_zeros": lambda a, r: {"zeros": len(r)},
}


class Tracer:
    """Records one span per wrapped call: name, thread, start, end, parent.

    The parent is the innermost open span of the same thread, so self time
    is computed within a thread and work on pool threads is never
    subtracted from the caller's span.
    """

    def __init__(self):
        self.spans = []
        self._ids = itertools.count()
        self._local = threading.local()

    def wrap(self, name, fn):
        work = WORK.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            span = {
                "id": next(self._ids),
                "name": name,
                "thread": threading.get_ident(),
                "parent": stack[-1]["id"] if stack else None,
            }
            stack.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
                self.spans.append(span)
            if work is not None:
                span["work"] = work(args, result)
            return result

        return traced


def _replace_everywhere(original, replacement) -> None:
    for modname, mod in list(sys.modules.items()):
        if modname != "jacobispec" and not modname.startswith("jacobispec."):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def install(tracer: Tracer) -> list:
    """Wrap every target; return the targets this version of the package
    does not have (they report zero calls)."""
    import jacobispec.cli  # noqa: F401  (loads every layer module)
    import jacobispec.verify  # noqa: F401

    missing = []
    for modname, fns in TARGETS.items():
        # sys.modules, because the package attribute ``jacobispec.classify``
        # is the function, not the module
        mod = sys.modules[f"jacobispec.{modname}"]
        for fn in fns:
            original = getattr(mod, fn, None)
            if original is None:
                missing.append(f"{modname}.{fn}")
                continue
            _replace_everywhere(original, tracer.wrap(f"{modname.lstrip('_')}.{fn}", original))

    growth = sys.modules["jacobispec.growth"]
    factory = getattr(growth, "b_log_max_modulus", None)
    if factory is None:
        missing.append("growth.b_log_max_modulus")
    else:
        @functools.wraps(factory)
        def b_log_max_modulus(*args, **kwargs):
            return tracer.wrap(EVALUATOR, factory(*args, **kwargs))

        _replace_everywhere(factory, b_log_max_modulus)
    return missing


def layer_metrics(spans: list) -> dict:
    """Per-layer metrics of one traced run.

    ``busy_s`` sums span durations over all threads, so it can exceed the
    run's wall time when a thread pool overlaps calls; ``self_s`` subtracts
    the time covered by direct child spans of the same thread.  A ratio
    whose base is zero (the layer was not called) reads 0.
    """
    by_id = {s["id"]: s for s in spans}
    child_time = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["end"] - s["start"]

    def under(span, name):
        p = span["parent"]
        while p is not None:
            if by_id[p]["name"] == name:
                return True
            p = by_id[p]["parent"]
        return False

    def work(name, key, within=None):
        return sum(
            s.get("work", {}).get(key, 0)
            for s in spans
            if s["name"] == name and (within is None or under(s, within))
        )

    out = {}
    for name in SPAN_NAMES:
        mine = [s for s in spans if s["name"] == name]
        busy = sum(s["end"] - s["start"] for s in mine)
        out[f"{name}.calls"] = len(mine)
        out[f"{name}.busy_s"] = busy
        out[f"{name}.self_s"] = busy - sum(child_time.get(s["id"], 0.0) for s in mine)
    out["kernels.sturm_counts.shift_rows"] = work("kernels.sturm_counts", "shift_rows")
    out["kernels.transfer_real.point_steps"] = work("kernels.transfer_real", "point_steps")
    out["kernels.transfer_complex.point_steps"] = work(
        "kernels.transfer_complex", "point_steps"
    )
    shifts = work("kernels.sturm_counts", "shifts", within="spectrum.eigenvalues_in")
    eigs = work("spectrum.eigenvalues_in", "eigenvalues")
    out["spectrum.eigenvalues_in.yield"] = eigs / shifts if shifts else 0.0
    zeros = work("growth.scan_b_zeros", "zeros")
    points = work("kernels.transfer_real", "points", within="growth.scan_b_zeros")
    out["growth.scan_b_zeros.zeros"] = zeros
    out["growth.scan_b_zeros.yield"] = zeros / points if points else 0.0
    return out


def main(argv: list) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print("usage: tracer.py SPANS.json -- CLI_ARGS...", file=sys.stderr)
        return 2
    spans_path, cli_args = argv[0], argv[2:]
    tracer = Tracer()
    missing = install(tracer)
    from jacobispec import cli

    rc = cli.main(cli_args)
    with open(spans_path, "w") as fh:
        json.dump({"missing": missing, "spans": tracer.spans}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
