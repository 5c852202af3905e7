"""The fabric-wide slot wave (DESIGN §13).

``FabricSlotDriver`` coalesces the per-switch kernel slot events of a
``Network``'s drift-free switches into one wave event per slot.
"""

from repro.fastpath.driver import FabricSlotDriver

__all__ = ["FabricSlotDriver"]
