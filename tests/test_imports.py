"""Import-path guard: ``import reconlab`` must not pull in scipy or a process pool.

Each CLI command is its own process, so whatever the package imports is paid
on every step of ``train-released → gen-shadows → attack``. scipy.stats alone
takes over a second. The library needs no scipy at all: the probe runs
``rero-bound``, ``rero-check`` and a toy pipeline and finds no scipy module
loaded.
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


def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))


assert not scipy_modules(), scipy_modules()
assert "concurrent.futures.process" not in sys.modules
cfg, out = sys.argv[1:]
for argv in (["rero-bound", "--cor1", "--eps", "1", "--kappa", "0.1"],
             ["rero-check", "--trials", "100"],
             ["train-released", "--config", cfg, "--out", out + "/released"],
             ["gen-shadows", "--config", cfg, "--out", out + "/shadows"],
             ["attack", "--config", cfg, "--shadows", out + "/shadows",
              "--released", out + "/released", "--out", out + "/results"]):
    assert reconlab.cli.main(argv) == 0, argv
assert not scipy_modules(), scipy_modules()
print("ok")
"""

TOY_CONFIG = """\
[data]
d=4
num_classes=2
n=60
[split]
fixed_size=20
shadow_size=30
test_target_size=2
[released]
hidden_widths=3
epochs=2
[reconn]
epochs=2
batch_size=16
"""


def test_import_loads_no_scipy_and_no_process_pool(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    cfg = tmp_path / "toy.cfg"
    cfg.write_text(TOY_CONFIG)
    out = subprocess.run([sys.executable, "-c", PROBE, str(cfg), str(tmp_path)], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "ok"


def test_every_all_entry_is_an_attribute_of_its_module():
    # a stale __all__ entry breaks ``from reconlab.<module> import *``
    names = ["reconlab"] + [f"reconlab.{m.name}" for m in pkgutil.iter_modules(reconlab.__path__)]
    for name in names:
        module = importlib.import_module(name)
        missing = [a for a in getattr(module, "__all__", ()) if not hasattr(module, a)]
        assert not missing, (name, missing)
