"""Each demo script and each Python example of the README runs to completion
against the package in ``src`` with every warning an error (so the targets'
"-inf, no warning" contract holds end to end), the package exports exactly
the names the demos import from it, and no other module of the package
imports a name it never reads; only ``kernels.matern_kernel`` evaluates
scipy's Bessel K."""

import ast
import glob
import os
import re
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))


@pytest.mark.parametrize("script", DEMOS, ids=os.path.basename)
def test_demo_runs(script, tmp_path):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-W", "error", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_readme_python_blocks_run(tmp_path):
    with open(os.path.join(ROOT, "README.md")) as fh:
        blocks = re.findall(r"^```python\n(.*?)^```", fh.read(), re.MULTILINE | re.DOTALL)
    assert blocks
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    for block in blocks:
        proc = subprocess.run([sys.executable, "-W", "error", "-c", block], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, (block, proc.stderr)


def _imported_names(path, wanted):
    """Names bound by the ``from ... import`` statements of a file that
    ``wanted(node)`` selects."""
    with open(path) as fh:
        tree = ast.parse(fh.read())
    return {alias.asname or alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and wanted(node) for alias in node.names}


def test_exports_are_the_names_the_demos_import():
    exported = _imported_names(os.path.join(ROOT, "src", "fixedgp", "__init__.py"),
                               lambda node: node.level == 1)
    imported = set().union(*(
        _imported_names(path, lambda node: node.level == 0 and node.module == "fixedgp")
        for path in DEMOS))
    assert exported == imported, (sorted(exported - imported), sorted(imported - exported))


# __init__ is left out: its imports are the package's exports
MODULES = sorted(path for path in glob.glob(os.path.join(ROOT, "src", "fixedgp", "*.py"))
                 if os.path.basename(path) != "__init__.py")


@pytest.mark.parametrize("module", MODULES, ids=os.path.basename)
def test_module_reads_every_name_it_imports(module):
    with open(module) as fh:
        tree = ast.parse(fh.read())
    imported = {(alias.asname or alias.name).split(".")[0] for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom)) and
                getattr(node, "module", None) != "__future__" for alias in node.names}
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    assert imported <= read, sorted(imported - read)


def _bessel_k_users(path):
    """The top-level definitions of a module (``<module>`` for its other
    statements) that name scipy's Bessel K, ``kv`` or ``kve``."""
    with open(path) as fh:
        tree = ast.parse(fh.read())
    bessel = ("kv", "kve")
    return {getattr(stmt, "name", "<module>") for stmt in tree.body for node in ast.walk(stmt)
            if isinstance(node, ast.Attribute) and node.attr in bessel
            or isinstance(node, ast.Name) and node.id in bessel
            or isinstance(node, ast.alias) and node.name.split(".")[-1] in bessel}


def test_matern_kernel_is_the_one_bessel_k_path():
    users = {f"{os.path.basename(path)}:{name}"
             for path in glob.glob(os.path.join(ROOT, "src", "fixedgp", "*.py"))
             for name in _bessel_k_users(path)}
    assert users <= {"kernels.py:matern_kernel"}, sorted(users)
