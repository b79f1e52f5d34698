"""The instruction IR emitted by rendezvous algorithms.

Only two instruction kinds exist, mirroring the model:

* :class:`Move` — a straight-line displacement expressed in the agent's local
  length units and local coordinates (the ``go(dir, d)`` of the paper, with
  the direction generalized from the four cardinal shorthands to an arbitrary
  local vector, which the paper's algorithms use implicitly when they work in
  rotated systems ``Rot(alpha)``).
* :class:`Wait` — stay idle for a number of local time units.

Instructions are immutable value objects; algorithms are generators that yield
them one at a time, so infinite algorithms (every algorithm in the paper runs
"forever until the other agent is seen") stay lazy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple, Union

from repro.util.errors import AlgorithmContractError


def rotated_components(dx: float, dy: float, alpha: float) -> Tuple[float, float]:
    """``(dx, dy)`` rotated by ``alpha`` (ccw): the arithmetic of :meth:`Move.rotated`.

    The batch engine's columnar cow walks rotate their move alphabets through
    this function, so their rows are bit-identical to rotated ``Move`` objects.
    """
    c = math.cos(alpha)
    s = math.sin(alpha)
    return c * dx - s * dy, s * dx + c * dy


@dataclass(frozen=True)
class Move:
    """Straight-line move by ``(dx, dy)`` local length units in local coordinates."""

    dx: float
    dy: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.dx) and math.isfinite(self.dy)):
            raise AlgorithmContractError(
                f"Move displacement must be finite, got ({self.dx!r}, {self.dy!r})"
            )
        object.__setattr__(self, "dx", float(self.dx))
        object.__setattr__(self, "dy", float(self.dy))

    @property
    def length(self) -> float:
        """Length of the move in local length units."""
        return math.hypot(self.dx, self.dy)

    @property
    def duration(self) -> float:
        """Local time units the move takes (equal to its local length)."""
        return self.length

    def is_null(self) -> bool:
        """Whether the move has zero length (a no-op)."""
        return self.dx == 0.0 and self.dy == 0.0

    def reversed(self) -> "Move":
        """The move undoing this one."""
        return Move(-self.dx, -self.dy)

    def rotated(self, alpha: float) -> "Move":
        """The move expressed after rotating the working frame by ``alpha`` (ccw)."""
        return Move(*rotated_components(self.dx, self.dy, alpha))

    def scaled(self, factor: float) -> "Move":
        """The move scaled by a positive factor."""
        if factor < 0.0 or not math.isfinite(factor):
            raise AlgorithmContractError(f"scale factor must be non-negative, got {factor!r}")
        return Move(self.dx * factor, self.dy * factor)


@dataclass(frozen=True)
class Wait:
    """Stay idle for ``duration`` local time units."""

    duration: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.duration) and self.duration >= 0.0):
            raise AlgorithmContractError(
                f"Wait duration must be finite and non-negative, got {self.duration!r}"
            )
        object.__setattr__(self, "duration", float(self.duration))

    def is_null(self) -> bool:
        """Whether the wait has zero duration (a no-op)."""
        return self.duration == 0.0


Instruction = Union[Move, Wait]


# -- the paper's ``go (dir, d)`` shorthands -----------------------------------------

_CARDINAL = {
    "E": (1.0, 0.0),
    "W": (-1.0, 0.0),
    "N": (0.0, 1.0),
    "S": (0.0, -1.0),
}


def go(direction: str, distance: float) -> Move:
    """The paper's ``go(dir, d)`` with ``dir`` one of ``"N"``, ``"S"``, ``"E"``, ``"W"``."""
    try:
        ux, uy = _CARDINAL[direction.upper()]
    except KeyError:
        raise AlgorithmContractError(
            f"unknown direction {direction!r}; expected one of N, S, E, W"
        ) from None
    if distance < 0.0 or not math.isfinite(distance):
        raise AlgorithmContractError(f"go distance must be non-negative, got {distance!r}")
    return Move(ux * distance, uy * distance)


def go_east(distance: float) -> Move:
    """``go(E, distance)``."""
    return go("E", distance)


def go_west(distance: float) -> Move:
    """``go(W, distance)``."""
    return go("W", distance)


def go_north(distance: float) -> Move:
    """``go(N, distance)``."""
    return go("N", distance)


def go_south(distance: float) -> Move:
    """``go(S, distance)``."""
    return go("S", distance)


def move_by(dx: float, dy: float) -> Move:
    """A move by an arbitrary local displacement vector."""
    return Move(dx, dy)


def wait(duration: float) -> Wait:
    """The paper's ``wait(z)``."""
    return Wait(duration)
