"""Every dotted path the e2e benchmark names still resolves.

``benchmarks/e2e/spans.py`` attributes kernel events and boundary calls
to layers by the dotted path of the program's functions.  A path that
stops resolving does not fail the benchmark: it is listed under
``missing_boundaries`` and the per-layer metrics that needed it read
``None``.  This test turns a refactor that renames or moves one of those
functions into a tier-1 failure instead of a silently blank row.
"""

from __future__ import annotations

import pytest

from benchmarks.e2e import spans


@pytest.mark.parametrize(
    "dotted",
    [dotted for dotted, _ in (*spans.CALLBACK_LAYERS, *spans.BOUNDARIES)],
)
def test_span_table_path_resolves(dotted):
    found = spans.resolve(dotted)
    assert found is not None, f"{dotted} no longer names anything"
    assert callable(found[2])
