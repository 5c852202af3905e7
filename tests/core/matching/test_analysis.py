"""Tests for matching analysis helpers."""

from repro.core.matching.analysis import (
    is_legal_matching,
    is_maximal_matching,
    maximum_size,
)


def test_legal_checks_requested_edges():
    requests = [{1}, {0}]
    assert is_legal_matching(requests, {0: 1, 1: 0})
    assert not is_legal_matching(requests, {0: 0})  # unrequested edge


def test_legal_rejects_shared_output():
    requests = [{0}, {0}]
    assert not is_legal_matching(requests, {0: 0, 1: 0})


def test_legal_rejects_bad_input_index():
    assert not is_legal_matching([{0}], {5: 0})


def test_maximal_detection():
    requests = [{0, 1}, {1}]
    assert is_maximal_matching(requests, {0: 0, 1: 1})
    # {0:1} blocks input 1's only output, so nothing can be added: maximal
    # (though smaller than the maximum) -- exactly maximal vs maximum.
    assert is_maximal_matching(requests, {0: 1})
    assert not is_maximal_matching(requests, {})
    assert not is_maximal_matching(requests, {1: 1})  # input 0 could take 0


def test_maximum_size_and_match_size():
    requests = [{0, 1}, {0}]
    assert maximum_size(requests) == 2
