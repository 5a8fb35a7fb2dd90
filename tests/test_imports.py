import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_import_loads_no_heavy_scipy_modules():
    # the normal quantile uses the stdlib and the toy ridge series numpy alone
    # because these scipy modules add measurable import time and memory
    code = ("import sys, augquant; "
            "print(*sorted(m for m in ('scipy.special', 'scipy.stats', 'scipy.integrate') "
            "if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == ""


def test_package_and_cli_load_no_scipy():
    # the runtime needs only numpy; scipy is a test-only reference
    code = ("import sys, augquant, augquant.cli; "
            "print(*sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == ""


def _unused_imports(path):
    """Names a module imports and never reads, by walking its syntax tree."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{path.name}:{line}: {name}" for name, line in imported.items()
                  if name not in read)


def test_modules_use_every_name_they_import():
    # __init__.py imports only to re-export, so it is the one module exempt
    modules = sorted(p for p in (SRC / "augquant").glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = [entry for p in modules for entry in _unused_imports(p)]
    assert unused == []
