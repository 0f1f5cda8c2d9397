"""reconlab: training-data reconstruction attacks by informed adversaries,
differentially private training as mitigation, and the reconstruction
robustness bound calculus.

Each submodule loads on its first access (``reconlab.nn`` or
``from reconlab import nn``), so a process pays only for the modules it uses.
"""

import importlib

from .rng import Rng

__all__ = [
    "accounting",
    "data",
    "glm",
    "metrics",
    "mia",
    "nn",
    "rero",
    "shadow",
    "Rng",
]

__version__ = "0.1.0"

_SUBMODULES = frozenset(__all__) - {"Rng"}


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
