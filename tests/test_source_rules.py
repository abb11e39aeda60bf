"""Source rules for the package, checked on its syntax tree.

* no ``assert``: invariants raise, they do not vanish under ``python -O``;
* no read of ``os.environ`` / ``os.getenv``: no hidden runtime knobs;
* no import of ``numba`` or ``concurrent.futures``: one numpy backend and
  no thread pools;
* no import of ``numpy.random`` and no ``np.random`` / ``numpy.random``
  attribute: it imports ``secrets`` and so maps OpenSSL, and ``_pcg64``
  draws the same streams (``hashlib`` is left to ``test_import_cost.py``,
  since ``cli`` keeps it as the fallback of ``_sha1``);
* no dead surface: every module-level ``def`` and ``class``, and every
  method and property of a module-level class apart from dunder methods,
  is used somewhere in the package outside its own definition
  (``__all__`` and ``__init__.py`` do not count), or is named in
  ``perfbench/``, which is only read.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "jacobispec"
SOURCES = sorted(PACKAGE.glob("*.py"))
# public names with no caller in the package, kept on purpose
UNUSED_ALLOWED = {
    "params.sequence_to_csv",  # writes the documented ``n,rho,q`` input CSV
    "params.PowerAsymptotics.scaled",  # the scale-invariance property tests
}

_ENV_NAMES = {"environ", "getenv", "environb", "getenvb"}
_BANNED_MODULES = ("numba", "concurrent.futures", "numpy.random")


def _banned(module):
    return any(module == m or module.startswith(m + ".") for m in _BANNED_MODULES)


def _asserts(node):
    return isinstance(node, ast.Assert)


def _env_reads(node):
    if isinstance(node, ast.Attribute):
        return (
            isinstance(node.value, ast.Name)
            and node.value.id == "os"
            and node.attr in _ENV_NAMES
        )
    if isinstance(node, ast.ImportFrom):
        return node.module == "os" and any(a.name in _ENV_NAMES for a in node.names)
    return False


def _numpy_random_access(node):
    return (
        isinstance(node, ast.Attribute)
        and node.attr == "random"
        and isinstance(node.value, ast.Name)
        and node.value.id in ("np", "numpy")
    )


def _banned_imports(node):
    if isinstance(node, ast.Import):
        return any(_banned(a.name) for a in node.names)
    if isinstance(node, ast.ImportFrom) and node.module:
        return _banned(node.module) or any(
            _banned(f"{node.module}.{a.name}") for a in node.names
        )
    return False


def _offences(rule):
    return [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if rule(node)
    ]


def test_package_sources_found():
    assert "_kernels.py" in {p.name for p in SOURCES}


@pytest.mark.parametrize(
    "rule", [_asserts, _env_reads, _banned_imports, _numpy_random_access]
)
def test_source_rule(rule):
    assert _offences(rule) == []


@pytest.mark.parametrize(
    "rule, source",
    [
        (_asserts, "assert x > 0\n"),
        (_env_reads, "import os\nflag = os.environ.get('X')\n"),
        (_env_reads, "import os\nflag = os.getenv('X')\n"),
        (_env_reads, "from os import environ\n"),
        (_banned_imports, "import numba\n"),
        (_banned_imports, "from numba import njit\n"),
        (_banned_imports, "from concurrent.futures import ThreadPoolExecutor\n"),
        (_banned_imports, "from concurrent import futures\n"),
        (_banned_imports, "import concurrent.futures\n"),
        (_banned_imports, "import numpy.random\n"),
        (_banned_imports, "from numpy.random import default_rng\n"),
        (_banned_imports, "from numpy import random\n"),
        (_numpy_random_access, "import numpy as np\nrng = np.random.default_rng(1)\n"),
        (_numpy_random_access, "import numpy\nx = numpy.random.uniform()\n"),
    ],
)
def test_rule_catches_offence(rule, source):
    assert any(rule(node) for node in ast.walk(ast.parse(source)))


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _definitions(tree):
    """``(qualified name, node)`` of each module-level def and class of
    *tree*, and of each method of such a class that is not a dunder."""
    for defn in tree.body:
        if not isinstance(defn, (*_FUNCTIONS, ast.ClassDef)):
            continue
        yield defn.name, defn
        if isinstance(defn, ast.ClassDef):
            for method in defn.body:
                if isinstance(method, _FUNCTIONS) and not (
                    method.name.startswith("__") and method.name.endswith("__")
                ):
                    yield f"{defn.name}.{method.name}", method


def _unreferenced(modules, outside_text=""):
    """``module.name`` of each definition of *modules* (a mapping of module
    name to source; see ``_definitions``) that no other node of any module
    names, and that *outside_text* does not name either."""
    trees = {name: ast.parse(text) for name, text in modules.items()}
    used = {}
    for name, tree in trees.items():
        if name == "__init__":
            continue
        for node in ast.walk(tree):
            ref = (
                node.id if isinstance(node, ast.Name)
                else node.attr if isinstance(node, ast.Attribute)
                else None
            )
            if ref is not None:
                used.setdefault(ref, []).append(node)
    dead = []
    for name, tree in trees.items():
        for qualname, defn in _definitions(tree):
            own = set(map(id, ast.walk(defn)))
            if any(id(node) not in own for node in used.get(defn.name, [])):
                continue
            if re.search(rf"\b{re.escape(defn.name)}\b", outside_text):
                continue
            dead.append(f"{name}.{qualname}")
    return dead


def test_no_unused_module_level_definitions():
    modules = {path.stem: path.read_text() for path in SOURCES}
    perfbench = "\n".join(
        path.read_text() for path in sorted((ROOT / "perfbench").glob("*.py"))
    )
    assert sorted(set(_unreferenced(modules, perfbench)) - UNUSED_ALLOWED) == []


def test_unused_rule_catches_dead_definitions():
    modules = {
        "__init__": "from .a import dead, exported\n__all__ = ['dead']\n",
        "a": (
            "def dead():\n    return dead()\n"
            "def used():\n    pass\n"
            "def exported():\n    pass\n"
            "class Benched:\n    pass\n"
            "class Used:\n"
            "    def __init__(self):\n        self.helper()\n"
            "    def helper(self):\n        pass\n"
            "    @property\n    def idle(self):\n        return self.idle\n"
            "    def touched(self):\n        pass\n"
        ),
        "b": "from .a import used, exported, Used\nused()\nUsed().touched()\n",
    }
    assert _unreferenced(modules, "Benched") == ["a.dead", "a.exported", "a.Used.idle"]
