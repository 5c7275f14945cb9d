"""CLI outputs against the digests in tests/golden/, written by tests/golden.py."""

import pytest

import golden


@pytest.mark.parametrize("group", golden.GROUPS)
def test_outputs_match_their_digests(group):
    assert golden.mismatch(group) is None
