"""Source rules for the package, checked on its syntax tree.

* no ``assert``: invariants raise, they do not vanish under ``python -O``;
* no read of ``os.environ`` / ``os.getenv``: no hidden runtime knobs;
* no import of ``numba`` or ``concurrent.futures``: one numpy backend and
  no thread pools.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "jacobispec"
SOURCES = sorted(PACKAGE.glob("*.py"))

_ENV_NAMES = {"environ", "getenv", "environb", "getenvb"}
_BANNED_MODULES = ("numba", "concurrent.futures")


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


@pytest.mark.parametrize("rule", [_asserts, _env_reads, _banned_imports])
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
    ],
)
def test_rule_catches_offence(rule, source):
    assert any(rule(node) for node in ast.walk(ast.parse(source)))
