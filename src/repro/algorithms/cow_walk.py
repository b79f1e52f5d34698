"""``LinearCowWalk`` and ``PlanarCowWalk`` (Algorithms 3 and 2 of the paper).

``LinearCowWalk(i)`` performs the first ``i`` steps of the classic cow-path
linear search along the agent's local x-axis: step ``j`` goes East ``2**j``,
West ``2**(j+1)`` and back East ``2**j``, so every step (and therefore the
whole walk) starts and ends at the same point while visiting every point of
the line at distance at most ``2**j`` from it.

``PlanarCowWalk(i)`` repeats ``LinearCowWalk(i)`` from every point
``(0, k / 2**i)`` with ``|k| <= 2**(2*i)`` of the local y-axis (first sweeping
North, then South, returning to the start in between and at the end), which
lets an agent pass within ``2**-i`` local units of every point of the square
``[-2**i, 2**i]^2`` around its start.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterator, Optional, Tuple

import numpy as np

from repro.algorithms.base import UniversalAlgorithm
from repro.motion.compiler import ColumnChunk
from repro.motion.instructions import (
    Instruction,
    Move,
    go_east,
    go_north,
    go_south,
    go_west,
    rotated_components,
)

#: Walks whose analytic segment count stays below this are memoized as tuples
#: (instance-independent instruction streams: every agent of every batched
#: simulation replays the identical list, so regenerating it is pure waste).
#: Above the limit the lazy generators are used — deep walks are consumed
#: under a budget and rarely to the end, so materializing them would trade
#: unbounded memory for nothing.
MEMO_SEGMENT_LIMIT = 100_000


def _linear_cow_walk_gen(i: int) -> Iterator[Instruction]:
    for j in range(1, i + 1):
        step = float(2**j)
        yield go_east(step)
        yield go_west(2.0 * step)
        yield go_east(step)


@lru_cache(maxsize=64)
def _linear_cow_walk_steps(i: int) -> Tuple[Instruction, ...]:
    return tuple(_linear_cow_walk_gen(i))


def linear_cow_walk(i: int) -> Iterator[Instruction]:
    """Algorithm 3: the first ``i`` steps of the linear cow-path search."""
    if i < 0:
        raise ValueError("LinearCowWalk parameter must be non-negative")
    if linear_cow_walk_segment_count(i) <= MEMO_SEGMENT_LIMIT:
        return iter(_linear_cow_walk_steps(i))
    return _linear_cow_walk_gen(i)


def _planar_cow_walk_gen(i: int) -> Iterator[Instruction]:
    row_step = 1.0 / float(2**i)
    rows = 2 ** (2 * i)
    half_height = float(2**i)

    yield from linear_cow_walk(i)
    for direction in (1, 2):
        for _ in range(rows):
            if direction == 1:
                yield go_north(row_step)
            else:
                yield go_south(row_step)
            yield from linear_cow_walk(i)
        if direction == 1:
            yield go_south(half_height)
        else:
            yield go_north(half_height)


@lru_cache(maxsize=16)
def _planar_cow_walk_steps(i: int) -> Tuple[Instruction, ...]:
    return tuple(_planar_cow_walk_gen(i))


def planar_cow_walk(i: int) -> Iterator[Instruction]:
    """Algorithm 2: parallel linear searches on a dyadic grid of rows."""
    if i < 0:
        raise ValueError("PlanarCowWalk parameter must be non-negative")
    if planar_cow_walk_segment_count(i) <= MEMO_SEGMENT_LIMIT:
        return iter(_planar_cow_walk_steps(i))
    return _planar_cow_walk_gen(i)


# -- columnar form, for the vectorized batch engine ------------------------------------

#: Most rows per column chunk of :func:`cow_walk_columns`: a rotated walk of a
#: deep phase (3.3M rows at resolution 8) is emitted in bounded pieces, like
#: the lazy generators.
COLUMN_CHUNK_ROWS = 65_536


@lru_cache(maxsize=16)
def planar_cow_walk_code(i: int) -> Tuple[Tuple[Move, ...], np.ndarray]:
    """``PlanarCowWalk(i)`` as an alphabet of ``3i + 4`` moves and a code per step.

    ``[alphabet[k] for k in codes]`` equals ``list(planar_cow_walk(i))``: codes
    ``0 .. 3i-1`` are the moves of ``LinearCowWalk(i)`` in order, then come the
    row hops North and South and the returns South and North to the start.
    The ``uint8`` codes are built from that repeating structure, not by
    running the walk.
    """
    if i < 0:
        raise ValueError("PlanarCowWalk parameter must be non-negative")
    row_step = 1.0 / float(2**i)
    rows = 2 ** (2 * i)
    half_height = float(2**i)
    alphabet = _linear_cow_walk_steps(i) + (
        go_north(row_step),
        go_south(row_step),
        go_south(half_height),
        go_north(half_height),
    )
    linear = np.arange(3 * i, dtype=np.uint8)
    north, south, home_south, home_north = np.arange(3 * i, 3 * i + 4, dtype=np.uint8)
    codes = np.concatenate(
        (
            linear,
            np.tile(np.append(north, linear), rows),
            [home_south],
            np.tile(np.append(south, linear), rows),
            [home_north],
        )
    ).astype(np.uint8)
    codes.flags.writeable = False
    return alphabet, codes


def cow_walk_columns(i: int, alpha: Optional[float] = None) -> Iterator[ColumnChunk]:
    """``PlanarCowWalk(i)`` as ``(dx, dy, duration)`` chunks, optionally rotated.

    Only the alphabet is rotated, through the arithmetic of
    :meth:`~repro.motion.instructions.Move.rotated`, and only the alphabet's
    lengths are taken with ``math.hypot``; indexing by the codes then yields
    rows bit-identical to ``rotate_instructions(planar_cow_walk(i), alpha)``
    (null moves dropped, as :func:`~repro.motion.compiler.instruction_chunks`
    does).
    """
    alphabet, codes = planar_cow_walk_code(i)
    if alpha is None:
        moves = [(move.dx, move.dy) for move in alphabet]
    else:
        moves = [rotated_components(move.dx, move.dy, alpha) for move in alphabet]
    dx = np.array([x for x, _ in moves])
    dy = np.array([y for _, y in moves])
    length = np.array([math.hypot(x, y) for x, y in moves])
    moving = (dx != 0.0) | (dy != 0.0)
    if not moving.all():
        codes = codes[moving[codes]]
    for start in range(0, len(codes), COLUMN_CHUNK_ROWS):
        part = codes[start : start + COLUMN_CHUNK_ROWS]
        yield dx[part], dy[part], length[part]


# -- analytic helpers used by schedules, tests and benchmarks -----------------------


def linear_cow_walk_duration(i: int) -> float:
    """Local time units needed to execute ``LinearCowWalk(i)`` (``= 2**(i+3) - 8``)."""
    return float(sum(4 * 2**j for j in range(1, i + 1)))


def linear_cow_walk_segment_count(i: int) -> int:
    """Number of move instructions emitted by ``LinearCowWalk(i)``."""
    return 3 * i


def planar_cow_walk_duration(i: int) -> float:
    """Local time units needed to execute ``PlanarCowWalk(i)``.

    One leading ``LinearCowWalk(i)``, then for each of the two vertical sweeps
    ``2**(2i)`` rows each costing ``2**-i`` (the vertical hop) plus one
    ``LinearCowWalk(i)``, plus the final vertical return of ``2**i``.
    """
    lcw = linear_cow_walk_duration(i)
    rows = 2 ** (2 * i)
    per_sweep = rows * (1.0 / 2**i + lcw) + 2**i
    return lcw + 2.0 * per_sweep


def planar_cow_walk_segment_count(i: int) -> int:
    """Number of move instructions emitted by ``PlanarCowWalk(i)``."""
    lcw = linear_cow_walk_segment_count(i)
    rows = 2 ** (2 * i)
    return lcw + 2 * (rows * (1 + lcw) + 1)


class LinearCowWalk(UniversalAlgorithm):
    """``LinearCowWalk(i)`` packaged as a (finite) universal algorithm."""

    def __init__(self, i: int) -> None:
        self.i = int(i)
        self.name = f"linear-cow-walk({self.i})"

    @property
    def program_cache_key(self):
        return ("linear-cow-walk", self.i) if type(self) is LinearCowWalk else None

    def program(self) -> Iterator[Instruction]:
        return linear_cow_walk(self.i)


class PlanarCowWalk(UniversalAlgorithm):
    """``PlanarCowWalk(i)`` packaged as a (finite) universal algorithm."""

    def __init__(self, i: int) -> None:
        self.i = int(i)
        self.name = f"planar-cow-walk({self.i})"

    @property
    def program_cache_key(self):
        return ("planar-cow-walk", self.i) if type(self) is PlanarCowWalk else None

    def program(self) -> Iterator[Instruction]:
        return planar_cow_walk(self.i)
