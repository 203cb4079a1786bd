"""Every name a module imports is used: a stand-in for a linter's F401 check.
Importing the package loads no scipy and builds or loads no compiled
library."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dtwmedian

MODULES = sorted(p for p in Path(dtwmedian.__file__).parent.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        for alias in node.names:
            imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name in imported if name not in used)


def test_finds_an_unused_import():
    source = "from __future__ import annotations\nimport os, sys\nimport json  # noqa: F401\nsys.exit()\n"
    assert unused_imports(source) == ["os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_importing_the_package_loads_no_scipy():
    src = str(Path(dtwmedian.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = (
        "import sys, dtwmedian, dtwmedian.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        check=True,
    )
    assert proc.stdout.strip() == "[]"


def test_importing_the_package_builds_no_library():
    src = str(Path(dtwmedian.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = (
        "import os, dtwmedian, dtwmedian.cli\n"
        "from dtwmedian import _kernels\n"
        "maps = '/proc/self/maps'\n"
        "mapped = os.path.exists(maps) and '_kernels-' in open(maps).read()\n"
        "print(_kernels.library.cache_info().currsize, mapped)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        check=True,
    )
    assert proc.stdout.strip() == "0 False"
