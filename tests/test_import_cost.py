"""The package must stay importable and usable without scipy: importing
scipy.linalg alone roughly doubles the CLI's peak RSS.  Nor may a route
call LAPACK through ``np.linalg``: the first ``lstsq`` call maps LAPACK's
code into the process, and every fit is a closed-form line fit or a
Gram-Schmidt four-term fit.  ``verify`` is loaded only by the ``verify``
subcommand, and writes its JUnit report without ``xml.etree``.  No
subcommand may load ``numpy.random`` (it imports ``secrets`` → ``hmac`` →
``_hashlib``) or ``hashlib``: either maps OpenSSL's libcrypto.  Without
them the peak RSS of one CLI run on the bench configs fell by about 5.5
MiB, e.g. m3 ``growth`` 37.8 → 32.5 MiB and ``verify`` 40.6 → 34.6 MiB
(median of 6 runs, ``os.wait4``, Python 3.11, numpy 2.4, 2-core Xeon).

The package root loads nothing until a name is used, then every layer
once, and binds each name of the layers' ``__all__``; a CLI command
imports only the layers it calls, never through the root; a CLI run
(``python -m jacobispec`` or the installed command) runs on one thread:
``__main__`` pins OpenBLAS to one thread before numpy loads, since no
route calls BLAS and its idle worker thread busy-waits for ~0.12 s of CPU
per run."""

import json
import os
import subprocess
import sys
from importlib import import_module
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
# the same child, and the modules loaded after each are recorded.
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
after_verify = [m for m in ("xml.etree.ElementTree", "pyexpat") if m in sys.modules]
print(json.dumps({
    "growth_rc": growth_rc, "after_growth": after_growth, "verify_rc": verify_rc,
    "after_verify": after_verify,
}))
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


# each layer's __all__, sorted: the 59 names the eager package root
# exported, in its order, and the 8 it missed (``b_log_max_modulus``,
# ``evaluate_entries``, ``evaluate_entries_real``, ``majorant_bound_gap``,
# ``exceptional_parameters``, ``power_law_fit``, ``solve_with_initial_data``,
# ``gershgorin_interval``)
EXPORTS = {
    "_kernels": ["BACKEND"],
    "classify": [
        "Classification", "CriterionConclusion", "CriterionVerdict", "Regime",
        "berezanskii_test", "carleman_test", "classify", "classify_distinct_roots",
        "classify_double_root", "wouk_test",
    ],
    "growth": [
        "MaxModulusFit", "NevanlinnaPartial", "b_log_max_modulus",
        "convergence_exponent_from_zeros", "evaluate_entries", "evaluate_entries_real",
        "leading_coefficient_logs", "log_majorant_product", "majorant_bound_gap",
        "nevanlinna_evaluate", "order_type_from_coefficients",
        "order_type_from_max_modulus", "scan_b_zeros", "scan_b_zeros_each",
        "upper_density",
    ],
    "hamburger": [
        "DeltaExponents", "HamburgerData", "delta_exponents",
        "exceptional_order_bound", "exponent_upper_bounds", "lengths_angles",
    ],
    "params": [
        "CarlemanVerdict", "ExpansionOrder", "JacobiSequence", "PowerAsymptotics",
        "RemainderKind", "RemainderModel", "carleman_sum", "descriptor_from_json",
        "descriptor_to_json", "exceptional_parameters", "materialize", "sequence_from_csv",
        "sequence_to_csv", "wouk_margin",
    ],
    "recurrence": [
        "ExponentFit", "PolySolution", "RecurrenceOverflowError",
        "SummabilityTrend", "norm_exponent", "power_law_fit", "solve_at_zero",
        "solve_with_initial_data", "square_summability_probe", "transformed_recurrence",
        "wronskian_residual",
    ],
    "spectrum": [
        "TruncatedSpectrum", "charpoly_eigenvalues", "charpoly_eigenvalues_each",
        "eigenvalues_in", "eigenvalues_in_each", "full_spectra", "full_spectrum",
        "gershgorin_interval", "stabilized_counting", "sturm_count",
    ],
}
EXPORTED = [(module, name) for module, names in EXPORTS.items() for name in names]

# one CLI command in a fresh child, then the package modules it loaded
COMMAND_LAYERS_CODE = """
import sys
from jacobispec.cli import main

config, out, command = sys.argv[1:4]
rc = main([command, "--config", config, "--out", out])
print(rc, *sorted(m for m in sys.modules if m.startswith("jacobispec.")))
"""

BARE_IMPORT_CODE = """
import sys
import jacobispec
print(",".join(m for m in sys.modules if m.split(".")[0] == "numpy" or m.startswith("jacobispec.")))
"""

# a module the eager package root imported, reached as an attribute of a
# bare ``import jacobispec``
SUBMODULE_CODE = """
import jacobispec
jacobispec.growth.b_log_max_modulus
jacobispec.params.NO_REMAINDER
print(callable(jacobispec.classify))
"""

# a layer imported first, before the root has served any name: the layers
# import ``_kernels`` through the root while half imported, and loading the
# ``classify`` submodule must not shadow the function of that name
LAYER_FIRST_CODE = """
import sys
import types
layer = sys.argv[1]
exec(f"import jacobispec.{layer}")
import jacobispec
assert jacobispec.classify is sys.modules["jacobispec.classify"].classify
assert not isinstance(jacobispec.classify, types.ModuleType)
if layer != "classify":
    assert getattr(jacobispec, layer) is sys.modules[f"jacobispec.{layer}"]
print(len(jacobispec.__all__))
"""

# the console script's import, then numpy; prints the process's threads
ENTRY_POINT_CODE = """
import os
from jacobispec.__main__ import main
import numpy
print(len(os.listdir("/proc/self/task")))
"""

# ``python -m jacobispec ARGS`` in this process; the last line printed is
# the number of threads left when it exits
MODULE_RUN_CODE = """
import atexit
import os
import runpy

atexit.register(lambda: print(len(os.listdir("/proc/self/task"))))
runpy.run_module("jacobispec", run_name="__main__", alter_sys=True)
"""

needs_proc = pytest.mark.skipif(
    not os.path.isdir("/proc/self/task"), reason="no /proc/self/task"
)


def _run(args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    # a thread count pinned by the caller would hide whether the package pins it
    for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        env.pop(name, None)
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

    def test_verify_loads_no_element_tree(self, child):
        assert child[0]["after_verify"] == []


def test_cli_runs_load_neither_openssl_nor_numpy_random(tmp_path):
    config = tmp_path / "m3_noise.json"
    noise = {"kind": "seeded_noise", "amplitude": 0.5, "seed": 7}
    descriptor = {**M3_SMALL["descriptor"], "remainder": noise}
    config.write_text(json.dumps({**M3_SMALL, "descriptor": descriptor}))
    proc = _run([NO_OPENSSL_CODE, str(config), str(tmp_path)])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result == {"rcs": [0, 0, 0, 0], "loaded": []}


@pytest.mark.parametrize("command, layers", [
    ("classify", ["_kernels", "_pcg64", "classify", "cli", "params", "spectrum"]),
    ("spectrum", ["_kernels", "_pcg64", "cli", "params", "spectrum"]),
])
def test_cli_command_loads_only_the_layers_it_calls(tmp_path, command, layers):
    config = tmp_path / "m3_small.json"
    config.write_text(json.dumps({**M3_SMALL, "r_grid": {"r_min": 10.0, "r_max": 1e3}}))
    proc = _run([COMMAND_LAYERS_CODE, str(config), str(tmp_path / "out"), command])
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.strip().splitlines()[-1].split()
    assert loaded == ["0", *(f"jacobispec.{layer}" for layer in layers)]


class TestLazyRoot:
    def test_bare_import_loads_no_numpy_and_no_submodule(self):
        proc = _run([BARE_IMPORT_CODE])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == ""

    def test_submodule_resolves_after_bare_import(self):
        proc = _run([SUBMODULE_CODE])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "True"

    def test_exports_pinned(self):
        assert jacobispec.__all__ == [name for _, name in EXPORTED]

    @pytest.mark.parametrize("module, name", EXPORTED)
    def test_export_resolves_from_its_module(self, module, name):
        value = getattr(jacobispec, name)
        assert value is getattr(sys.modules[f"jacobispec.{module}"], name)

    def test_star_import_yields_every_export(self):
        namespace = {}
        exec("from jacobispec import *", namespace)
        assert {name for _, name in EXPORTED} <= set(namespace)
        assert namespace["classify"] is sys.modules["jacobispec.classify"].classify

    def test_classify_stays_the_function(self):
        import_module("jacobispec.classify")
        assert callable(jacobispec.classify)
        assert "classify" in dir(jacobispec)

    @pytest.mark.parametrize("layer", jacobispec._LAYERS)
    def test_layer_imported_first_keeps_classify_the_function(self, layer):
        proc = _run([LAYER_FIRST_CODE, layer])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == str(len(EXPORTED))

    @pytest.mark.parametrize("layer", jacobispec._LAYERS)
    def test_layer_exports_are_defined_and_served(self, layer):
        module = import_module(f"jacobispec.{layer}")
        for name in module.__all__:
            assert name in vars(module), f"{layer}.__all__ names undefined {name!r}"
            assert getattr(jacobispec, name) is vars(module)[name]

    def test_no_two_layers_export_one_name(self):
        # the root binds the layers in turn, so a later layer would win silently
        owners = {}
        for layer in jacobispec._LAYERS:
            for name in import_module(f"jacobispec.{layer}").__all__:
                owners.setdefault(name, []).append(layer)
        assert {name: m for name, m in owners.items() if len(m) > 1} == {}

    def test_unknown_name_raises(self):
        with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
            jacobispec.nonexistent


def test_console_script_enters_through_main_module():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(SRC).parent / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    assert scripts == {"jacobispec": "jacobispec.__main__:main"}


@needs_proc
def test_console_script_import_pins_one_thread():
    proc = _run([ENTRY_POINT_CODE])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "1"


@needs_proc
@pytest.mark.parametrize("command", ["growth", "spectrum", "verify"])
def test_module_run_ends_with_one_thread(tmp_path, command):
    args = [command, "--out", str(tmp_path / "out")]
    if command != "verify":
        config = tmp_path / "m3_small.json"
        config.write_text(json.dumps({**M3_SMALL, "r_grid": {"r_min": 10.0, "r_max": 1e3}}))
        args += ["--config", str(config)]
    proc = _run([MODULE_RUN_CODE, *args])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "1"
