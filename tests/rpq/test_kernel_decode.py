"""``kernel.decode_matrix`` against a transcription of the full unpack.

The decoder unpacks only the nonzero uint64 words of an answer matrix;
the reference below unpacks every bit of every row, as the decoder once
did.  Both must return identical sorted ``(sources, targets)`` arrays
on sparse, dense and empty matrices, for widths that are not a multiple
of 64 (bits at or beyond ``width`` are dropped) and for windows re-based
by ``lo > 0``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.rpq.kernel import decode_matrix


def _full_unpack(answers: np.ndarray, width: int, lo: int = 0):
    num_nodes = answers.shape[0]
    source_parts, target_parts = [], []
    if width > 0:
        rows_per_chunk = max(1, (1 << 22) // max(1, width))
        for start in range(0, num_nodes, rows_per_chunk):
            stop = min(start + rows_per_chunk, num_nodes)
            bits = np.unpackbits(
                answers[start:stop].view(np.uint8), axis=1, bitorder="little"
            )[:, :width]
            target_offsets, columns = np.nonzero(bits)
            if columns.size:
                source_parts.append(columns.astype(np.int64) + lo)
                target_parts.append(target_offsets.astype(np.int64) + start)
    if not source_parts:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    sources = np.concatenate(source_parts)
    targets = np.concatenate(target_parts)
    order = np.lexsort((targets, sources))
    return sources[order], targets[order]


def _matrix(rng, num_nodes: int, width: int, density: float) -> np.ndarray:
    blocks = (width + 63) // 64
    bits = rng.random((num_nodes, blocks * 64)) < density
    # Padding bits beyond ``width`` are set on purpose: the decoder must
    # drop them, exactly as the reference's ``[:, :width]`` slice does.
    packed = np.packbits(bits, axis=1, bitorder="little")
    return np.ascontiguousarray(packed).view(np.uint64).reshape(num_nodes, blocks)


@pytest.mark.parametrize("width", [1, 63, 64, 65, 130, 200])
@pytest.mark.parametrize("density", [0.0, 0.002, 0.05, 0.5, 1.0])
@pytest.mark.parametrize("lo", [0, 37])
def test_decode_matches_full_unpack(width, density, lo):
    rng = np.random.default_rng(width * 1000 + int(density * 1000) + lo)
    answers = _matrix(rng, 97, width, density)
    got_sources, got_targets = decode_matrix(answers, width, lo)
    want_sources, want_targets = _full_unpack(answers, width, lo)
    assert got_sources.dtype == want_sources.dtype == np.int64
    assert got_targets.dtype == want_targets.dtype == np.int64
    np.testing.assert_array_equal(got_sources, want_sources)
    np.testing.assert_array_equal(got_targets, want_targets)


def test_decode_of_zero_width_and_empty_matrices():
    for answers, width in (
        (np.zeros((0, 1), dtype=np.uint64), 0),
        (np.zeros((5, 2), dtype=np.uint64), 100),
        (np.full((5, 2), np.uint64(2**64 - 1)), 0),
    ):
        sources, targets = decode_matrix(answers, width)
        assert sources.size == targets.size == 0
        assert sources.dtype == targets.dtype == np.int64
