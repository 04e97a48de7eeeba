"""Every name a module imports is used in it.

A removal can leave an import behind that nothing reads any more; this
finds it.
"""

import ast
import os
import sys

import deacp
from conftest import run_python

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CHECKED = ("src/deacp", "tests", "bench")


def _modules():
    for folder in CHECKED:
        for name in sorted(os.listdir(os.path.join(ROOT, folder))):
            if name.endswith(".py"):
                yield os.path.join(folder, name)


def unused_imports(source: str) -> list:
    """The names bound by the module's import statements that no expression
    of the module reads, in order of appearance."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name.split(".")[0], node.lineno) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(a.asname or a.name, node.lineno) for a in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(name, line) for name, line in imported if name not in read]


def test_the_checker_finds_an_unused_import():
    source = "import os\nimport os.path as p\nfrom a import b, c as d\nprint(os, d)\n"
    assert unused_imports(source) == [("p", 2), ("b", 3)]


def test_no_module_imports_a_name_it_does_not_use():
    unused = []
    for path in _modules():
        with open(os.path.join(ROOT, path), encoding="utf-8") as handle:
            unused += [f"{path}:{line}: {name}" for name, line in unused_imports(handle.read())]
    assert unused == []


def test_the_package_exports_lazily():
    """`import deacp` loads no submodule; each exported name loads its own."""
    done = run_python("-c", "import sys, deacp; print([m for m in sys.modules if 'deacp.' in m])")
    assert (done.returncode, done.stdout) == (0, b"[]\n")
    assert len(deacp.__all__) == 56
    for module, names in deacp._EXPORTS.items():
        assert getattr(deacp, module) is sys.modules[f"deacp.{module}"]
        for name in names:
            assert getattr(deacp, name) is getattr(sys.modules[f"deacp.{module}"], name)
