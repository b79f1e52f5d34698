"""The vectorized batch simulation engine.

The event engine (:mod:`repro.sim.engine`) advances one simulation window by
window in Python — exact, timebase-generic, but paying interpreter overhead
and two quadratic-kernel calls per window.  This module is the columnar
counterpart for Monte-Carlo campaigns: it bulk-compiles both agents'
trajectories into :class:`~repro.motion.compiler.TrajectoryTable` arrays,
stacks the merged event windows of *every instance of the batch* into flat
arrays with one cross-instance pass
(:func:`repro.sim.rounds.build_windows`), and solves all window quadratics
with chunked calls of the fused batch kernel
(:func:`repro.geometry.closest_approach.fused_window_batch`, dispatching to a
pluggable element-wise backend — see :mod:`repro.geometry.backends`).

The engine matches the event engine's early-exit economics through *adaptive
horizons*: every instance is first simulated to a small horizon derived from
its geometry (meetings cannot happen before the agents could close the
distance), and only the instances that neither met nor terminated are retried
with a geometrically grown horizon.  A meeting found within a horizon is the
global first meeting — windows are scanned in time order — so the horizon
schedule never changes a result, it only bounds how much trajectory is
compiled and how many windows are solved.  The round/horizon building blocks
live in :mod:`repro.sim.rounds`; the round loop itself (:func:`_run_rounds`)
lives here, once, for both entry points.

One loop, one optional branch.  :func:`simulate_batch` runs the loop with a
single meeting radius per instance, and every round makes one single-radius
:func:`~repro.geometry.closest_approach.fused_window_batch` pass.  The
Section 5 asymmetric-radius engine
(:func:`repro.sim.batch_asymmetric.simulate_batch_asymmetric`) runs the same
loop with per-instance *freeze radii* — the larger of the two visibility
radii — mirroring the event engine's ``drive_windows(freeze=...)``.  Only then
is the freeze branch live:

* every window is solved against both radius columns in one pass of the dual
  kernel (:func:`~repro.geometry.closest_approach.fused_window_batch_dual`,
  which shares every dot product between the two quadratics);
* each run becomes a two-phase state machine.  Before the freeze, the round's
  first hit at the freeze radius (strictly before any hit at the meeting
  radius — the event engine's rule) freezes the larger-radius agent: the loop
  records the freeze event, substitutes a one-row
  :func:`~repro.motion.compiler.constant_table` for the frozen agent and
  resumes scanning from the freeze time.  After the freeze only the meeting
  radius is live, and the frozen agent's pre-freeze segment count keeps
  feeding the combined ``max_segments`` budget (``RoundEntry``'s
  ``extra_segments``), so the event loop's stopping rule is reproduced across
  the phase change.

Round resolution and result assembly are themselves flat: each round's
entries are classified at once with numpy masks (met / freeze / horizon-grow
/ terminal), per-instance round state (requested horizon, scan resume point,
window counts, partial closest approach) lives in the preallocated columns of
:class:`~repro.sim.columns.ResultColumns`, meeting times/positions and
closest-approach merges are masked column writes, and the
:class:`SimulationResult` objects are materialized once per batch after the
last round.  The only remaining per-instance Python runs exactly once per
instance, at a freeze or at resolution (segment-cursor counts, the
horizon-cut final-window rescan) — never per round per instance.

Scope and guarantees:

* float timebase only — the event engine stays authoritative for exact-
  timebase runs (S1/S2 boundary experiments, astronomically long waits);
* results are deterministic and independent of any worker count (there are no
  workers: the batch runs inline as array code) and of the horizon schedule;
* per instance, the outcome (``met``, meeting time, termination reason,
  closest-approach *distance*, and with freeze radii the freeze event) matches
  the event engine up to float associativity — the parity test suites pin
  this to a 1e-9 relative tolerance.  ``min_distance_time`` is best-effort:
  when several windows attain near-equal minima (periodic programs revisit
  the same geometry), ulp-level differences between the engines' accumulated
  positions can pick a different — equally minimal — window;
* ``max_segments`` is the event engine's *combined* budget across both
  agents: the batch engine computes the exact absolute time at which the
  event loop would stop pulling segments and caps the horizon there;
* universal algorithms (instance-independent programs) are consumed **once**
  per batch through a shared :class:`~repro.motion.compiler.LocalProgramBuilder`,
  so a thousand instances pay for one instruction stream; non-universal
  programs are resolved once per (instance, agent), exactly like the event
  engine.
"""

from __future__ import annotations

import math
import time as _time
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.contracts import core as _contracts
from repro.contracts.invariants import check_result
from repro.obs import core as _obs
from repro.core.instance import Instance
from repro.geometry.backends import get_backend, resolve_kernel_threads
from repro.motion.compiler import constant_table
from repro.sim.columns import (
    MAX_SEGMENTS as _CODE_MAX_SEGMENTS,
    MAX_TIME as _CODE_MAX_TIME,
    PROGRAMS_FINISHED as _CODE_PROGRAMS_FINISHED,
    RENDEZVOUS as _CODE_RENDEZVOUS,
    ResultColumns,
)
from repro.sim.engine import _algorithm_name
from repro.sim.results import SimulationResult
from repro.sim.rounds import (
    GROWTH_FACTOR,
    KERNEL_CHUNK_WINDOWS,
    ProgramSource,
    RoundEntry,
    StallTransform,
    build_windows,
    default_initial_horizon,
    entry_state_arrays,
    full_final_window_min,
    positive_option,
    solve_round,
    stall_arrays,
    trim_builder_cache,
    trim_compiler_cache,
)
from repro.sim.scenarios import scaled_agents
from repro.util.logging import get_logger

logger = get_logger("sim.batch")

__all__ = [
    "simulate_batch",
    "batch_group_key",
    "GROWTH_FACTOR",
    "KERNEL_CHUNK_WINDOWS",
]


def batch_group_key(algorithm: Any) -> Any:
    """Key under which algorithm objects may share one ``simulate_batch`` call.

    Two tasks can run in the same batch when one algorithm object can stand
    in for the other.  Algorithm classes declare that explicitly through the
    :attr:`~repro.algorithms.base.Algorithm.batch_interchangeable` opt-in
    ("``program_for`` is a pure function of its arguments"): opted-in objects
    group by class, everything else only with itself.  An undeclared stateful
    algorithm therefore degrades to size-1 groups — correct, just slower —
    instead of being silently mixed with lookalikes.
    """
    if getattr(algorithm, "batch_interchangeable", False):
        return type(algorithm)
    return id(algorithm)


class _FreezeState:
    """Where/when the larger-radius agent froze, for one instance."""

    __slots__ = ("agent", "time", "position", "distance", "segments")

    def __init__(
        self,
        agent: str,
        time: float,
        position: Tuple[float, float],
        distance: float,
        segments: int,
    ) -> None:
        self.agent = agent
        self.time = time
        self.position = position
        self.distance = distance
        self.segments = segments


def simulate_batch(
    instances: Sequence[Instance],
    algorithm: Any,
    *,
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
) -> List[SimulationResult]:
    """Simulate ``algorithm`` on every instance with the vectorized engine.

    Parameters
    ----------
    instances:
        The instances to simulate, all under the same ``algorithm`` object.
    algorithm:
        Anything the event engine accepts: an object with
        ``program_for(instance, spec, role)`` or a bare callable with that
        signature.
    max_time:
        Simulated-time budget in absolute time units (must be finite: the
        float timebase caps how far a horizon can reach).  Mirrors
        :class:`~repro.sim.engine.RendezvousSimulator`.
    max_segments:
        Combined per-run budget on trajectory segments across *both* agents —
        exactly the event engine's stopping rule, reproduced by capping the
        horizon at the start time of the first over-budget segment.
    radius_slack:
        Additive tolerance (absolute length units) on the visibility radius,
        used only for meeting detection; see the event engine.
    track_min_distance:
        With ``False`` the closest-approach bookkeeping is skipped entirely
        (results carry ``min_distance = inf``), the fastest mode for
        campaigns that only need the verdict.
    initial_horizon:
        Overrides the per-instance starting horizon of the adaptive round
        loop.  Results never depend on it — only performance does.
    backend:
        Kernel backend selection — a registry name (``"numpy"``,
        ``"numexpr"``) or a resolved
        :class:`~repro.geometry.backends.KernelBackend`.  ``None`` honours
        ``REPRO_KERNEL_BACKEND`` and defaults to numpy.  Results never depend
        on it (backends are parity-pinned) — only performance does.
    kernel_threads:
        Thread count of the chunked kernel dispatch.  ``None`` honours
        ``REPRO_KERNEL_THREADS`` and defaults to 1 (serial).  Chunks write
        disjoint output slices and numpy releases the GIL, so results are
        bit-identical for every thread count — only wall time depends on it
        (worth > 1 on multi-core campaign hardware, pointless on 1-core CI).
    speed_a, speed_b:
        Heterogeneous-speed scenario (:mod:`repro.sim.scenarios`): positive
        finite speed factors for agents A and B, each a scalar applied to the
        whole batch or a per-instance sequence.  Defaults to the paper's
        homogeneous model.
    stall_agent, stall_time, stall_duration:
        Stalling-agent scenario: ``stall_agent`` (``"A"`` or ``"B"``, one
        agent for the whole batch) pauses for ``stall_duration`` time units
        at the first segment boundary at or after ``stall_time``; the time
        and duration may be per-instance sequences.  All three must be given
        together or not at all.

    Returns one :class:`SimulationResult` per instance, in input order, with
    ``met``, the meeting time (1e-9 relative parity with the event engine),
    the termination reason and the closest approach.  The float timebase is
    used throughout; use the event engine for exact runs.  Options are
    validated the same way for every batch size, the empty batch included.
    """
    instances = list(instances)
    results, _ = _run_rounds(
        instances,
        algorithm,
        _algorithm_name(algorithm),
        np.array([instance.r for instance in instances], dtype=float),
        None,
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
    if _contracts.enabled():
        for result in results:
            check_result(result, max_time=max_time)
    return results


def _run_rounds(
    instances: List[Instance],
    algorithm: Any,
    names: Union[str, Sequence[str]],
    radius: np.ndarray,
    freeze: Optional[Tuple[np.ndarray, np.ndarray]],
    *,
    max_time: float,
    max_segments: int,
    radius_slack: float,
    track_min_distance: bool,
    initial_horizon: Optional[float],
    backend: Any,
    kernel_threads: Optional[int],
    speed_a: Any,
    speed_b: Any,
    stall_agent: Optional[str],
    stall_time: Any,
    stall_duration: Any,
) -> Tuple[List[SimulationResult], Dict[int, _FreezeState]]:
    """THE batch round loop: both entry points run through here.

    ``radius`` is the per-instance meeting radius and ``names`` the result
    algorithm name (one shared or one per instance).  ``freeze`` is ``None``
    for the symmetric model, or ``(freeze_radius, freeze_agent)`` columns:
    the per-instance radius at which the agent named in ``freeze_agent``
    (``"A"``/``"B"``) freezes.  Both radii exclude ``radius_slack``, which
    is added here.  Every other option is :func:`simulate_batch`'s and is
    validated here, before the empty-batch return, so a bad option fails
    for every batch size.

    Returns the results in input order and the freeze event of every
    instance whose agent froze, keyed by input position.
    """
    if not (math.isfinite(max_time) and max_time > 0.0):
        raise ValueError("max_time must be positive and finite")
    if max_segments <= 0:
        raise ValueError("max_segments must be positive")
    if radius_slack < 0.0:
        raise ValueError("radius_slack must be non-negative")
    if initial_horizon is not None and initial_horizon <= 0.0:
        raise ValueError("initial_horizon must be positive")
    kernel = get_backend(backend)
    threads = resolve_kernel_threads(kernel_threads)
    count = len(instances)
    speeds_a = positive_option(speed_a, count, "speed_a")
    speeds_b = positive_option(speed_b, count, "speed_b")
    stall = stall_arrays(stall_agent, stall_time, stall_duration, count)
    frozen: Dict[int, _FreezeState] = {}
    if not instances:
        return [], frozen

    wall_start = _time.perf_counter()
    with _obs.span("engine.compile"):
        source = ProgramSource(algorithm, max_segments)
        specs = [
            scaled_agents(instance, sa, sb)
            for instance, sa, sb in zip(instances, speeds_a.tolist(), speeds_b.tolist())
        ]
        stall_memo = StallTransform() if stall is not None else None
        meet_radius = radius + radius_slack
        if freeze is not None:
            freeze_radius = freeze[0] + radius_slack
            freeze_agent = freeze[1]
            frozen_rows = np.zeros(count, dtype=bool)

        cols = ResultColumns(count)
        if initial_horizon is None:
            cols.horizon[:] = [
                default_initial_horizon(instance, max_time) for instance in instances
            ]
        else:
            cols.horizon[:] = min(initial_horizon, max_time)

    def agent_table(idx: int, agent: str, spec, horizon: float, state):
        if state is not None and state.agent == agent:
            # The frozen agent's stationary table replaces all remaining
            # motion, pending stall included (the event engine clears the
            # frozen cursor's stream); the other agent keeps its stall.
            return constant_table(state.position)
        table = source.table_for(idx, instances[idx], spec, agent, horizon)
        if stall is not None and stall[0] == agent:
            table = stall_memo.apply(table, stall[1][idx], stall[2][idx])
        return table

    pending = np.arange(count, dtype=np.int64)
    total_windows = 0
    round_number = 0

    while pending.size:
        round_number += 1
        with _obs.span("engine.compile"):
            # Plain-float views of the pending rows: scalar numpy indexing
            # inside the construction loop would pay boxing overhead per entry.
            entries = []
            for idx, horizon, scan_from in zip(
                pending.tolist(),
                cols.horizon[pending].tolist(),
                cols.scan_from[pending].tolist(),
            ):
                spec_a, spec_b = specs[idx]
                state = frozen.get(idx)
                entries.append(
                    RoundEntry(
                        idx,
                        instances[idx],
                        agent_table(idx, "A", spec_a, horizon, state),
                        agent_table(idx, "B", spec_b, horizon, state),
                        horizon,
                        scan_from,
                        max_segments,
                        max_time,
                        extra_segments=state.segments if state is not None else 0,
                    )
                )
        with _obs.span("engine.build_windows"):
            windows = build_windows(entries)
            entry_radius = meet_radius[pending]
            window_radius = np.repeat(entry_radius, windows.counts)
            window_freeze_radius = None
            if freeze is not None:
                pending_frozen = frozen_rows[pending]
                # After the freeze only the meeting radius is live; feeding it
                # as the freeze column keeps the scan limit (and therefore the
                # closest-approach prefix) at the meeting window.
                window_freeze_radius = np.repeat(
                    np.where(pending_frozen, entry_radius, freeze_radius[pending]),
                    windows.counts,
                )
        with _obs.span("engine.kernel_solve", backend=kernel.name, threads=threads):
            solution = solve_round(
                windows,
                window_radius,
                track_min_distance=track_min_distance,
                second_radius=window_freeze_radius,
                backend=kernel,
                threads=threads,
                # Freeze semantics (dual pass only): the closest-approach
                # tracking of a window in which the freeze wins is clamped to
                # the freeze offset — the minimum past it would come from
                # counterfactual motion.
                clamp_at_second_hit=True,
            )
        total_windows += len(windows)

        with _obs.span("engine.assemble"):
            offsets = windows.offsets
            lo = offsets[:-1]
            hi = offsets[1:]
            meet_hit = solution.first_hit

            if track_min_distance:
                # Earlier rounds take precedence on ties, mirroring the event
                # engine's first-window-wins rule.  The matching is best-effort:
                # on near-equal minima, ulp-level differences between the engines
                # can pick a different (equally minimal) window.
                cols.fold_round_min(pending, solution.group_min, solution.min_time)

            if freeze is None:
                freezes = np.zeros(pending.shape[0], dtype=bool)
            else:
                # The event engine's rule: the larger-radius agent freezes iff
                # it sees the other one *strictly before* the distance reaches
                # the meeting radius; on a tie (equal radii, or an instance
                # already within both at a window start) the meeting wins.
                freeze_hit = solution.first_hit2
                freezes = (
                    ~pending_frozen
                    & (freeze_hit < hi)
                    & (
                        (meet_hit > freeze_hit)
                        | ((meet_hit == freeze_hit)
                           & (solution.hit_offset2 < solution.hit_offset))
                    )
                )
            met = (meet_hit < hi) & ~freezes

            # Round classification over the non-met, non-freezing remainder:
            # the mask form of RoundEntry.resolves_without_hit.
            budget_limited, entry_horizon, finish = entry_state_arrays(entries)
            finished_within = finish <= entry_horizon
            unresolved = (
                ~met
                & ~freezes
                & ~budget_limited
                & ~finished_within
                & (entry_horizon < max_time)
            )
            terminal = ~met & ~freezes & ~unresolved

            if np.any(freezes):
                # Bulk geometry for all freeze events of the round, then a small
                # per-freeze Python pass (at most one per instance per run) for
                # the state objects and segment-cursor counts.
                rows = pending[freezes]
                hit_index = freeze_hit[freezes]
                offset = solution.hit_offset2[freezes]
                freeze_time = windows.starts[hit_index] + offset
                pax, pay, vax, vay, pbx, pby, vbx, vby = (
                    column[hit_index] for column in windows.states
                )
                pos_ax = pax + vax * offset
                pos_ay = pay + vay * offset
                pos_bx = pbx + vbx * offset
                pos_by = pby + vby * offset
                distance = np.hypot(pos_ax - pos_bx, pos_ay - pos_by)
                agents = freeze_agent[rows]
                for j, k in enumerate(np.nonzero(freezes)[0].tolist()):
                    entry = entries[k]
                    agent = str(agents[j])
                    segments_a, segments_b = entry.segments_in_play(float(freeze_time[j]))
                    frozen[entry.index] = _FreezeState(
                        agent=agent,
                        time=float(freeze_time[j]),
                        position=(
                            (float(pos_ax[j]), float(pos_ay[j]))
                            if agent == "A"
                            else (float(pos_bx[j]), float(pos_by[j]))
                        ),
                        distance=float(distance[j]),
                        segments=segments_a if agent == "A" else segments_b,
                    )
                    # The closest-approach tracking of the freeze window was
                    # clamped at the freeze offset inside ``solve_round`` (motion
                    # past the freeze never happens), so — unlike a meeting
                    # window — a horizon-cut freeze window needs *no* full-length
                    # rescan: nothing beyond the freeze time is ever scanned.
                frozen_rows[rows] = True
                # Resume scanning at the freeze time, with the frozen agent
                # replaced by its stationary table; same horizon.
                cols.scan_from[rows] = freeze_time
                cols.windows_before[rows] += (hit_index - lo[freezes]) + 1

            if np.any(unresolved):
                grow = pending[unresolved]
                cols.horizon[grow] = np.minimum(
                    cols.horizon[grow] * GROWTH_FACTOR, max_time
                )
                # The final window was cut at the horizon; the next round re-scans
                # it from its start, at full length.
                cols.scan_from[grow] = windows.starts[hi[unresolved] - 1]
                cols.windows_before[grow] += (hi - lo)[unresolved] - 1

            if np.any(terminal):
                rows = pending[terminal]
                code = np.full(rows.shape[0], _CODE_MAX_TIME, dtype=np.int8)
                code[budget_limited[terminal]] = _CODE_MAX_SEGMENTS
                code[
                    ~budget_limited[terminal]
                    & finished_within[terminal]
                    & (finish[terminal] < max_time)
                ] = _CODE_PROGRAMS_FINISHED
                cols.termination[rows] = code
                cols.windows_processed[rows] = (
                    cols.windows_before[rows] + (hi - lo)[terminal]
                )
                # The event loop reports the capped horizon on a budget stop and
                # the full time budget otherwise.
                cols.simulated_time[rows] = np.where(
                    budget_limited[terminal], entry_horizon[terminal], max_time
                )

            if np.any(met):
                rows = pending[met]
                hit_index = meet_hit[met]
                offset = solution.hit_offset[met]
                meeting_time = windows.starts[hit_index] + offset
                pax, pay, vax, vay, pbx, pby, vbx, vby = (
                    column[hit_index] for column in windows.states
                )
                cols.met[rows] = True
                cols.termination[rows] = _CODE_RENDEZVOUS
                cols.meeting_time[rows] = meeting_time
                cols.meet_ax[rows] = pax + vax * offset
                cols.meet_ay[rows] = pay + vay * offset
                cols.meet_bx[rows] = pbx + vbx * offset
                cols.meet_by[rows] = pby + vby * offset
                cols.simulated_time[rows] = meeting_time
                cols.windows_processed[rows] = (
                    cols.windows_before[rows] + (hit_index - lo[met]) + 1
                )

            # Per-resolved-instance residue (runs once per instance per batch):
            # segment-cursor counts up to the stopping point (a frozen agent's
            # cursor stopped pulling at its freeze time), and the event
            # engine's full-length rescan of a meeting window that was cut at
            # the adaptive horizon rather than at a segment boundary.
            resolved_positions = np.nonzero(met | terminal)[0]
            if resolved_positions.size:
                met_list = met.tolist()
                for k in resolved_positions.tolist():
                    entry = entries[k]
                    if met_list[k]:
                        segments_until = float(windows.starts[meet_hit[k]])
                        if (
                            track_min_distance
                            and meet_hit[k] == hi[k] - 1
                            and not entry.budget_limited
                        ):
                            full_window = full_final_window_min(
                                entry, windows, int(meet_hit[k]), max_time
                            )
                            if full_window is not None:
                                cols.improve_min(entry.index, *full_window)
                    else:
                        segments_until = entry.horizon
                    segments_a, segments_b = entry.segments_in_play(segments_until)
                    state = frozen.get(entry.index)
                    if state is not None:
                        if state.agent == "A":
                            segments_a = state.segments
                        else:
                            segments_b = state.segments
                    cols.segments_a[entry.index] = segments_a
                    cols.segments_b[entry.index] = segments_b

            pending = pending[unresolved | freezes]

    trim_builder_cache()
    trim_compiler_cache()
    elapsed = _time.perf_counter() - wall_start
    with _obs.span("engine.assemble"):
        results = cols.build_results(
            instances, names, elapsed_wall_seconds=elapsed / count
        )

    logger.debug(
        "batch rounds: %d instances (%d frozen), %d windows over %d rounds, %.3fs",
        count,
        len(frozen),
        total_windows,
        round_number,
        elapsed,
    )
    return results, frozen
