"""The one audit of a ``Crossbar``'s maintained request matrix.

Both owners -- ``AN2Switch`` (``test_request_masks.py``) and
``VoqFabric`` (``test_fabric_masks.py``) -- flip request bits on edges;
each test recomputes, from its owner's buffers, which outputs every
input *should* be requesting and hands that here.
"""

from repro.core.matching.bitmask import mask_of


def assert_crossbar_mirrors(crossbar, wanted, context=""):
    """``wanted[i]`` is the set of outputs input ``i`` must request:
    rows, their transpose and the union all have to agree with it."""
    n = crossbar.n_ports
    assert len(wanted) == n
    assert crossbar.rows == [mask_of(outs) for outs in wanted], context
    assert crossbar.cols == [
        mask_of(i for i in range(n) if o in wanted[i]) for o in range(n)
    ], context
    assert crossbar.want == mask_of(set().union(*wanted)), context
