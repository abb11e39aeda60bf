"""The package must stay importable and usable without scipy: importing
scipy.linalg alone roughly doubles the CLI's peak RSS.  Nor may a route
call LAPACK through ``np.linalg``: the first ``lstsq`` call maps LAPACK's
code into the process, and every fit is a closed-form line fit or a
Gram-Schmidt four-term fit.  ``verify`` (with ``xml.etree``) is loaded
only by the ``verify`` subcommand.  No subcommand may load ``numpy.random``
(it imports ``secrets`` → ``hmac`` → ``_hashlib``) or ``hashlib``: either
maps OpenSSL's libcrypto.  Without them the peak RSS of one CLI run on the
bench configs fell by about 5.5 MiB, e.g. m3 ``growth`` 37.8 → 32.5 MiB
and ``verify`` 40.6 → 34.6 MiB (median of 6 runs, ``os.wait4``, Python
3.11, numpy 2.4, 2-core Xeon)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import jacobispec

SRC = str(Path(jacobispec.__file__).resolve().parent.parent)

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

# Every LAPACK entry point of np.linalg raises; growth then verify run in
# the same child, and the modules loaded after growth are recorded.
NO_LAPACK_CODE = """
import json
import sys
import numpy as np


class LapackCalled(Exception):
    pass


def refuse(name):
    def call(*args, **kwargs):
        raise LapackCalled(f"np.linalg.{name} called")
    return call


for name in ("lstsq", "solve", "qr", "svd", "eigh", "eigvalsh", "inv", "pinv", "det"):
    setattr(np.linalg, name, refuse(name))

from jacobispec.cli import main

config, out = sys.argv[1:3]
growth_rc = main(["growth", "--config", config, "--out", out + "/growth"])
after_growth = [m for m in ("jacobispec.verify", "xml.etree.ElementTree") if m in sys.modules]
verify_rc = main(["verify", "--out", out + "/verify"])
print(json.dumps({"growth_rc": growth_rc, "after_growth": after_growth, "verify_rc": verify_rc}))
"""

# growth, spectrum and report on a seeded-noise config, then verify, in one
# child; prints the modules that map OpenSSL or draw through numpy.random
NO_OPENSSL_CODE = """
import json
import sys

from jacobispec.cli import main

config, out = sys.argv[1:3]
rcs = [main([cmd, "--config", config, "--out", f"{out}/{cmd}"])
       for cmd in ("growth", "spectrum", "report")]
rcs.append(main(["verify", "--out", out + "/verify"]))
banned = ("numpy.random", "hashlib", "_hashlib", "hmac")
print(json.dumps({"rcs": rcs, "loaded": [m for m in banned if m in sys.modules]}))
"""

# golden m3 (exceptional, beta = 3), at small N
M3_SMALL = {
    "descriptor": {
        "beta1": 3, "beta2": 3, "x0": 1, "y0": -2, "x1": 2, "y1": 0, "x2": 0,
        "y2": 0, "order": "second",
    },
    "N": [100, 200, 400],
}


def _run(args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", *args], env=env, capture_output=True, text=True,
        timeout=120,
    )


def test_zero_and_max_modulus_routes_import_no_scipy():
    proc = _run([CODE])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "", f"scipy modules loaded: {proc.stdout}"


class TestWithoutLapack:
    @pytest.fixture(scope="class")
    def child(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("no_lapack")
        config = tmp / "m3_small.json"
        config.write_text(json.dumps(M3_SMALL))
        proc = _run([NO_LAPACK_CODE, str(config), str(tmp)])
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().splitlines()
        return json.loads(lines[-1]), lines[:-1]

    def test_growth_and_verify_run_without_lapack(self, child):
        result, lines = child
        assert result["growth_rc"] == 0
        assert result["verify_rc"] == 0
        assert "14/14 checks passed" in lines[-1]

    def test_growth_loads_neither_verify_nor_element_tree(self, child):
        assert child[0]["after_growth"] == []


def test_cli_runs_load_neither_openssl_nor_numpy_random(tmp_path):
    config = tmp_path / "m3_noise.json"
    noise = {"kind": "seeded_noise", "amplitude": 0.5, "seed": 7}
    descriptor = {**M3_SMALL["descriptor"], "remainder": noise}
    config.write_text(json.dumps({**M3_SMALL, "descriptor": descriptor}))
    proc = _run([NO_OPENSSL_CODE, str(config), str(tmp_path)])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result == {"rcs": [0, 0, 0, 0], "loaded": []}
