"""Vectorized batch engine for asymmetric visibility radii (Section 5).

The event-driven :func:`repro.sim.asymmetric.simulate_asymmetric` generalizes
the rendezvous semantics to per-agent radii ``r_a``/``r_b``: the first time
the distance reaches the *larger* radius, that agent sees the other one and
freezes forever at its current position; rendezvous is declared at the first
time the distance reaches the *smaller* radius.  This module is its columnar
counterpart for Section 5 sweep campaigns.  It holds only what is specific
to per-agent radii — the radius columns, the per-instance result names and
the :class:`~repro.sim.asymmetric.AsymmetricOutcome` build — and runs the
one batch round loop of :mod:`repro.sim.batch` with per-instance freeze
radii.  That loop's freeze branch (the dual-radius kernel pass, the freeze
state machine, the frozen agent's stationary table and segment budget) is
described in :mod:`repro.sim.batch`.

Parity contract (pinned by ``tests/test_sim_asymmetric_batch_parity.py``):
per instance, ``met``, the meeting time (1e-9 relative), the termination
reason, the closest approach, the frozen agent and the freeze time/distance
match :func:`~repro.sim.asymmetric.simulate_asymmetric` on every
float-timebase run.  Equal radii degenerate to the symmetric semantics: the
freeze never fires (a smaller-radius hit is never strictly later than the
larger-radius hit of the same window) and every result field matches
:func:`~repro.sim.batch.simulate_batch` exactly.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence

import numpy as np

from repro.contracts import core as _contracts
from repro.contracts.invariants import check_outcome
from repro.core.instance import Instance
from repro.sim.asymmetric import AsymmetricOutcome
from repro.sim.batch import _run_rounds
from repro.sim.engine import _algorithm_name
from repro.sim.rounds import positive_option

__all__ = ["simulate_batch_asymmetric"]


def _radius_array(value, instances: Sequence[Instance], label: str) -> np.ndarray:
    """Per-instance radius column from ``None`` (instance ``r``), scalar or sequence."""
    if value is None:
        return np.array([instance.r for instance in instances], dtype=float)
    return positive_option(value, len(instances), label)


def simulate_batch_asymmetric(
    instances: Sequence[Instance],
    algorithm: Any,
    *,
    radius_a=None,
    radius_b=None,
    max_time: float = 1e9,
    max_segments: int = 2_000_000,
    radius_slack: float = 0.0,
    track_min_distance: bool = True,
    initial_horizon: Optional[float] = None,
    backend=None,
    kernel_threads: Optional[int] = None,
    speed_a: Any = 1.0,
    speed_b: Any = 1.0,
    stall_agent: Optional[str] = None,
    stall_time: Any = None,
    stall_duration: Any = None,
) -> List[AsymmetricOutcome]:
    """Simulate ``algorithm`` under per-agent radii with the vectorized engine.

    Parameters
    ----------
    instances:
        The instances to simulate, all under the same ``algorithm`` object.
    radius_a, radius_b:
        Visibility radii of agents A and B in absolute length units:
        ``None`` (default) uses each instance's own ``r``, a scalar applies
        to every instance, a sequence supplies one radius per instance —
        which is how a Section 5 sweep carries a whole radius-ratio grid in
        one batch.  Radii must be positive; the instance's ``r`` is otherwise
        ignored for meeting detection (it still defines the feasibility
        classification of the underlying symmetric instance).
    max_time, max_segments, radius_slack, track_min_distance, initial_horizon,
    backend, kernel_threads:
        Exactly as in :func:`repro.sim.batch.simulate_batch` — including the
        combined ``max_segments`` budget semantics across both agents (the
        frozen agent stops drawing on the budget at its freeze time, like the
        event engine's frozen cursor), the kernel-backend selection and the
        threaded chunk dispatch (bit-identical for every thread count).
    speed_a, speed_b, stall_agent, stall_time, stall_duration:
        The heterogeneous-speed and stalling-agent scenario options, exactly
        as in :func:`repro.sim.batch.simulate_batch` (scalars or per-instance
        sequences; ``stall_agent`` is one agent for the whole batch).  A
        frozen agent's pending stall is discarded — its stationary table
        replaces all remaining motion, like the event engine's cleared
        cursor stream.

    Returns one :class:`~repro.sim.asymmetric.AsymmetricOutcome` per instance,
    in input order: an ordinary :class:`SimulationResult` (``met`` means the
    distance reached the smaller radius; meeting time at 1e-9 relative parity
    with the event engine) plus the freeze event of the larger-radius agent,
    if any.  Float timebase only.
    """
    instances = list(instances)
    radii_a = _radius_array(radius_a, instances, "radius_a")
    radii_b = _radius_array(radius_b, instances, "radius_b")
    base_name = _algorithm_name(algorithm)
    # The smaller radius declares the meeting, the larger one the freeze; the
    # agent holding the larger radius freezes first (ties never freeze).
    results, frozen = _run_rounds(
        instances,
        algorithm,
        [
            base_name + f"[r_a={float(r_a):g}, r_b={float(r_b):g}]"
            for r_a, r_b in zip(radii_a, radii_b)
        ],
        np.minimum(radii_a, radii_b),
        (np.maximum(radii_a, radii_b), np.where(radii_a >= radii_b, "A", "B")),
        max_time=max_time,
        max_segments=max_segments,
        radius_slack=radius_slack,
        track_min_distance=track_min_distance,
        initial_horizon=initial_horizon,
        backend=backend,
        kernel_threads=kernel_threads,
        speed_a=speed_a,
        speed_b=speed_b,
        stall_agent=stall_agent,
        stall_time=stall_time,
        stall_duration=stall_duration,
    )
    outcomes = []
    for k, result in enumerate(results):
        freeze = frozen.get(k)
        outcomes.append(
            AsymmetricOutcome(
                result=result,
                radius_a=float(radii_a[k]),
                radius_b=float(radii_b[k]),
                frozen_agent=freeze.agent if freeze is not None else None,
                freeze_time=freeze.time if freeze is not None else None,
                freeze_distance=freeze.distance if freeze is not None else None,
            )
        )
    if _contracts.enabled():
        for outcome in outcomes:
            check_outcome(outcome, max_time=max_time)
    return outcomes
