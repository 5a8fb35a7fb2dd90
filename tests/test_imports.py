import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_import_loads_no_heavy_scipy_modules():
    # the normal quantile uses the stdlib and quadrature stays in the package
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
