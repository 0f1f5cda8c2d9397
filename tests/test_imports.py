"""Import-path guard: ``import reconlab`` must not pull in scipy or a process pool.

Each CLI command is its own process, so whatever the package imports is paid
on every step of ``train-released → gen-shadows → attack``. scipy.stats alone
takes over a second. Only ``rero.kappa_gaussian_exact`` and
``rero.wilson_interval`` at an unusual confidence import ``scipy.special``; the
ReRo soundness grid (confidence 0.99) runs without it.
"""

import os
import subprocess
import sys
from pathlib import Path

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
