"""The slot wave (DESIGN §13).

:class:`~repro.fastpath.driver.FabricSlotDriver` coalesces the kernel
slot events of a ``Network``'s drift-free switches into one wave event
per slot; a drifting switch rides a one-member wave of its own.
"""
