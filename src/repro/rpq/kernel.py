"""Vectorized all-pairs product sweep over uint64 block bitmatrices.

This is the numpy twin of the big-int sweep in :mod:`repro.rpq.engine`.
Both compute the same semi-naive fixpoint — per automaton state, the set
of *source* nodes known to reach each (state, node) product point — but
where the engine packs a node's source set into one Python integer and
crosses product edges in an interpreted loop, this kernel packs the
whole per-state relation into a ``(num_nodes, ceil(W / 64))`` uint64
block matrix (``W`` = the width of the source window, the full graph for
the monolithic sweep or one shard's node range for the sharded one) and
expands a frontier with three vectorized passes per label:

1. **Gather** the delta rows of every target's in-neighbours through the
   label's padded reverse-CSR schedule
   (:class:`repro.rpq.csr._GatherPlan`) — a dense ``(m, w, B)`` cube per
   in-degree bucket, short rows padded with a pinned all-zero sentinel
   row.
2. **Reduce** the cube down its neighbour axis with one regular
   ``bitwise_or.reduce`` (measured ~3x faster than ``reduceat`` over
   ragged groups).
3. **Accumulate** into the successor states' matrices, then turn the
   accumulation into the next delta with two in-place ops
   (``new = acc & ~reached``; ``reached |= new``).

Every round therefore costs a handful of numpy calls regardless of
frontier size, and all large buffers are preallocated once per sweep and
reused across rounds — on the target hardware a cold allocation runs an
order of magnitude slower than a warm in-place OR, so buffer reuse *is*
the optimization, not a nicety.

Exactness contract: for every graph and compiled automaton,
:func:`all_pairs_ids` returns exactly the id pairs of
``engine._all_pairs_ids`` (the differential harness in
``tests/rpq/test_kernel_differential.py`` asserts list equality after
sorting), including the epsilon diagonal over *all* interned nodes —
drained nodes included — and with the padding bits of the last block
provably never set (seeds and gathers only ever touch valid columns).
"""

from __future__ import annotations

from typing import Hashable, TYPE_CHECKING

import numpy as np

from .csr import CSRSnapshot, blocks_for

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .engine import CompiledAutomaton

__all__ = [
    "all_pairs_ids",
    "sweep_window",
    "decode_matrix",
    "matrix_to_masks",
]

# Cap on the number of uint64 words gathered per chunk (~4 MiB): keeps
# the gather cube and its reduction inside the cache tier where this
# machine's fancy-indexing throughput is ~8x its streaming-DRAM rate.
_CHUNK_WORDS = 1 << 19


def sweep_window(
    snapshot: CSRSnapshot,
    compiled: "CompiledAutomaton",
    lo: int = 0,
    hi: int | None = None,
    *,
    reached_out: dict | None = None,
) -> np.ndarray:
    """Sweep sources in ``[lo, hi)``; return the answer block matrix.

    Row ``t`` of the result holds one bit per window source: bit ``j``
    set means ``(lo + j, t)`` is an answer pair.  ``lo``/``hi`` default
    to the whole graph; :class:`repro.rpq.sharded.ParallelEvaluator`
    passes one shard's range per task, which keeps each task's matrices
    a factor ``k`` narrower (the same mask-width saving the big-int
    shard kernel gets from re-based masks).

    With ``reached_out`` (a dict), the settled per-state ``(num_nodes,
    B)`` matrices are handed back to the caller after the fixpoint —
    :class:`repro.rpq.incremental.NumpyDeltaSweepState` keeps them alive
    to resume the sweep from edge deltas.  On degenerate inputs (empty
    graph, no initial states) the dict is left empty; delta application
    allocates state rows lazily, like the big-int engine.
    """
    num_nodes = snapshot.num_nodes
    if hi is None:
        hi = num_nodes
    width = hi - lo
    num_blocks = blocks_for(width)
    answers = np.zeros((num_nodes, num_blocks), dtype=np.uint64)
    if compiled.accepts_epsilon and width > 0:
        window = np.arange(lo, hi, dtype=np.intp)
        answers[window, (window - lo) >> 6] |= np.uint64(1) << (
            (window - lo).astype(np.uint64) & np.uint64(63)
        )
    if num_nodes == 0 or width <= 0 or not compiled.initials:
        return answers

    table = compiled.table
    finals = compiled.finals
    states = set(table)
    for row in table.values():
        for next_states in row.values():
            states |= next_states

    # Per state: the settled matrix, the current delta (one sentinel row
    # pinned to zero for padded gathers), and the accumulator that
    # becomes the next delta.  Allocated once, reused every round.
    reached = {s: np.zeros((num_nodes, num_blocks), dtype=np.uint64) for s in states}
    delta = {s: np.zeros((num_nodes + 1, num_blocks), dtype=np.uint64) for s in states}
    acc = {s: np.zeros((num_nodes + 1, num_blocks), dtype=np.uint64) for s in states}
    invert_scratch = np.empty((num_nodes, num_blocks), dtype=np.uint64)
    active = {s: False for s in states}
    # A freshly seeded initial state's delta is exactly the seed
    # diagonal, and every in-neighbour of a label is one of that label's
    # seeds — so the state's first-round contribution per label is the
    # label's precomputed adjacency bitmap, no gather needed.  The flag
    # drops as soon as the diagonal delta has been consumed.
    diagonal = {s: False for s in states}

    for state in compiled.initials:
        row = table.get(state)
        if not row:
            continue
        seed_union: np.ndarray | None = None
        for label in row:
            plan = snapshot.gather_plan(label)
            if plan is None or plan.sources.size == 0:
                continue
            seed_union = (
                plan.sources
                if seed_union is None
                else np.union1d(seed_union, plan.sources)
            )
        if seed_union is None:
            continue
        seeds = seed_union[(seed_union >= lo) & (seed_union < hi)].astype(np.intp)
        if seeds.size == 0:
            continue
        columns = seeds - lo
        bits = np.uint64(1) << (columns.astype(np.uint64) & np.uint64(63))
        reached[state][seeds, columns >> 6] |= bits
        delta[state][seeds, columns >> 6] |= bits
        active[state] = True
        diagonal[state] = True

    while any(active.values()):
        for state_acc in acc.values():
            state_acc.fill(0)
        touched: set[int] = set()
        for state, row in table.items():
            if not active[state]:
                continue
            if diagonal[state]:
                for label, next_states in row.items():
                    bitmap = snapshot.adjacency_bitmap(label, lo, hi)
                    if bitmap is None:
                        continue
                    for next_state in next_states:
                        acc[next_state][:num_nodes] |= bitmap
                        touched.add(next_state)
                continue
            state_delta = delta[state]
            for label, next_states in row.items():
                plan = snapshot.gather_plan(label)
                if plan is None:
                    continue
                for dsts, idx in plan.spans:
                    rows_total, bucket_width = idx.shape
                    rows_per_chunk = max(
                        1, _CHUNK_WORDS // (bucket_width * num_blocks)
                    )
                    for start in range(0, rows_total, rows_per_chunk):
                        stop = min(start + rows_per_chunk, rows_total)
                        gathered = state_delta[idx[start:stop]]
                        reduced = np.bitwise_or.reduce(gathered, axis=1)
                        chunk_dsts = dsts[start:stop]
                        for next_state in next_states:
                            acc[next_state][chunk_dsts] |= reduced
                            touched.add(next_state)
        for state in states:
            active[state] = False
            diagonal[state] = False
        for state in touched:
            new = acc[state][:num_nodes]
            np.invert(reached[state], out=invert_scratch)
            np.bitwise_and(new, invert_scratch, out=new)
            if not new.any():
                continue
            np.bitwise_or(reached[state], new, out=reached[state])
            if state in finals:
                np.bitwise_or(answers, new, out=answers)
            # The accumulator (now holding exactly the new bits) becomes
            # the next round's delta; the old delta becomes the next
            # accumulator.  Sentinel rows stay zero on both.
            delta[state], acc[state] = acc[state], delta[state]
            active[state] = True
    if reached_out is not None:
        reached_out.update(reached)
    return answers


def decode_matrix(
    answers: np.ndarray, width: int, lo: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Unpack an answer matrix into sorted ``(sources, targets)`` arrays.

    Sorted by ``(source_id, target_id)`` — the engine's documented
    deterministic order.  ``width`` is the number of valid source
    columns (padding bits at or beyond it are dropped); ``lo`` re-bases
    window columns to absolute ids.
    """
    rows, words = np.nonzero(answers)
    if width <= 0 or not words.size:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    # Unpack only the nonzero words: answer matrices are sparse, and a
    # full unpack would materialize one byte per (target, source) cell.
    bits = np.unpackbits(
        answers[rows, words].view(np.uint8).reshape(-1, 8),
        axis=1,
        bitorder="little",
    )
    word_index, bit = np.nonzero(bits)
    columns = words[word_index].astype(np.int64) * 64 + bit
    valid = columns < width
    sources = columns[valid] + lo
    targets = rows[word_index][valid].astype(np.int64)
    order = np.lexsort((targets, sources))
    return sources[order], targets[order]


def matrix_to_masks(answers: np.ndarray) -> dict[int, int]:
    """Collapse an answer matrix to ``{target_id: int mask}`` (nonzero
    rows only) — the result shape of the big-int shard kernel, so the
    sharded merge path is backend-agnostic."""
    masks: dict[int, int] = {}
    for target in np.flatnonzero(answers.any(axis=1)):
        masks[int(target)] = int.from_bytes(
            answers[target].tobytes(), "little"
        )
    return masks


def all_pairs_ids(
    snapshot: CSRSnapshot, compiled: "CompiledAutomaton"
) -> list[tuple[int, int]]:
    """The full all-pairs sweep, decoded to sorted dense-id pairs."""
    if snapshot.num_nodes == 0 or not compiled.initials:
        return []
    answers = sweep_window(snapshot, compiled)
    sources, targets = decode_matrix(answers, snapshot.num_nodes)
    return list(zip(sources.tolist(), targets.tolist()))
