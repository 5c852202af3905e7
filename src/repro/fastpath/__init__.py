"""The fabric-wide slot wave (DESIGN §13).

:class:`~repro.fastpath.driver.FabricSlotDriver` coalesces the
per-switch kernel slot events of a ``Network``'s drift-free switches
into one wave event per slot.
"""
