"""CLI outputs against the digests in tests/golden/, written by tests/golden.py."""

import pytest

import golden


# certify's first 12 chunks are |n| <= 100; CI checks every chunk of every group
@pytest.mark.parametrize("group, chunks", [("certify", 12), ("family", None)])
def test_outputs_match_their_digests(group, chunks):
    assert golden.mismatch(group, chunks) is None
