"""The names the benchmark in ``perfbench/`` relies on must exist.

A renamed or removed function would silently zero one of the benchmark's
per-layer metrics or fail every set-up sample, so the contract is checked
here.  ``perfbench/`` is only read, never imported or changed.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import jacobispec
from jacobispec import growth
from jacobispec.params import JacobiSequence
from jacobispec.recurrence import solve_at_zero

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _constant(path: Path, name: str):
    """The literal value assigned to a module-level name of a script."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise LookupError(f"{path.name} assigns no {name}")


TARGETS = [
    (module, fn)
    for module, fns in _constant(PERFBENCH / "tracer.py", "TARGETS").items()
    for fn in fns
]


@pytest.mark.parametrize("module, fn", TARGETS)
def test_traced_function_exists(module, fn):
    mod = importlib.import_module(f"jacobispec.{module}")
    assert callable(getattr(mod, fn, None)), f"jacobispec.{module}.{fn}"


def test_max_modulus_factory_returns_evaluator():
    seq = JacobiSequence(rho=np.ones(8), q=np.zeros(8))
    evaluator = growth.b_log_max_modulus(solve_at_zero(seq), 8)
    assert callable(evaluator)
    assert evaluator(np.array([1.0, 2.0])).shape == (2,)


def test_setup_code_runs():
    code = _constant(PERFBENCH / "run.py", "SETUP_CODE")
    src = str(Path(jacobispec.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
