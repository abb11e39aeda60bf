"""The package must stay importable and usable without scipy: importing
scipy.linalg alone roughly doubles the CLI's peak RSS."""

import os
import subprocess
import sys
from pathlib import Path

import jacobispec

CODE = """
import sys
import numpy as np
import jacobispec as js
from jacobispec.growth import b_log_max_modulus

seq = js.materialize(js.PowerAsymptotics(beta1=2, beta2=0, x0=1, y0=1), 200)
sol = js.solve_at_zero(seq)
zeros = js.scan_b_zeros(sol, seq, 200, 1e3)
logM = b_log_max_modulus(sol, 200)(np.geomspace(10.0, 1e3, 8))
assert zeros.size > 0 and logM.shape == (8,)
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print(",".join(loaded))
"""


def test_zero_and_max_modulus_routes_import_no_scipy():
    src = str(Path(jacobispec.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", CODE], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "", f"scipy modules loaded: {proc.stdout}"
