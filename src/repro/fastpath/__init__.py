"""Vectorized whole-fabric slot engine (DESIGN §13).

``FabricArrayEngine`` batches every registered switch fabric's crossbar
match into one array pass per cell slot; ``FabricSlotDriver`` coalesces
per-switch kernel slot events into one wave event per slot.  numpy is an
optional dev extra -- without it (or with ``REPRO_FASTPATH_FORCE_PYTHON``
set) the same API runs a pure-Python stacked loop with identical
results.
"""

from repro.fastpath.backend import FORCE_PYTHON_ENV, load_numpy, python_forced
from repro.fastpath.driver import FabricSlotDriver

__all__ = [
    "FORCE_PYTHON_ENV",
    "FabricArrayEngine",
    "FabricSlotDriver",
    "load_numpy",
    "python_forced",
]


def __getattr__(name: str):
    # Every Network imports this package for the slot driver; only
    # standalone-fabric users pay for loading the array engine.
    if name == "FabricArrayEngine":
        from repro.fastpath.engine import FabricArrayEngine

        return FabricArrayEngine
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
