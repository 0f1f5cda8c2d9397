"""Import-path guard: ``import reconlab`` must not pull in scipy or a process pool.

Each CLI command is its own process, so whatever the package imports is paid
on every step of ``train-released → gen-shadows → attack``. scipy.stats alone
takes over a second. Only ``rero.wilson_interval`` at an unusual confidence
imports ``scipy.special``; the ReRo soundness grid (confidence 0.99) runs
without it.
"""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import reconlab

SRC = str(Path(__file__).resolve().parents[1] / "src")

PROBE = """
import sys
import reconlab, reconlab.cli
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert not loaded, loaded
assert "concurrent.futures.process" not in sys.modules
list(reconlab.rero.rero_soundness_grid(n_trials=100))
reconlab.rero.wilson_interval(5, 100)
assert "scipy.special" not in sys.modules
reconlab.rero.wilson_interval(5, 100, confidence=0.8)
assert "scipy.special" in sys.modules
assert "scipy.stats" not in sys.modules
print("ok")
"""


def test_import_loads_no_scipy_and_no_process_pool():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run([sys.executable, "-c", PROBE], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "ok"


def test_every_all_entry_is_an_attribute_of_its_module():
    # a stale __all__ entry breaks ``from reconlab.<module> import *``
    names = ["reconlab"] + [f"reconlab.{m.name}" for m in pkgutil.iter_modules(reconlab.__path__)]
    for name in names:
        module = importlib.import_module(name)
        missing = [a for a in getattr(module, "__all__", ()) if not hasattr(module, a)]
        assert not missing, (name, missing)
