"""Continuous-time rendezvous simulator.

Two engines answer the same question — the first absolute time at which the
agents are at distance at most ``r`` of each other, the definition of
rendezvous in the paper:

* the **event engine** (:class:`RendezvousSimulator` with the default
  ``engine="event"``) advances one simulation window at a time in Python.
  It is timebase-generic (``float`` or exact ``Fraction`` timestamps), can
  record trajectories, and is the authority for exact-timebase runs such as
  the S1/S2 boundary experiments.  Everything is event-driven: waits of
  ``2**60`` time units cost the same as waits of one time unit.
* the **vectorized batch engine** (:func:`simulate_batch`, or
  ``engine="vectorized"`` on the simulator) compiles trajectories into
  columnar numpy arrays and solves all window quadratics of many instances
  in bulk.  Float timebase only, no trajectory recording — but one to two
  orders of magnitude faster on Monte-Carlo campaigns, with outcomes matching
  the event engine to 1e-9 relative tolerance (see the parity test suite).

Each engine has one loop.  The Section 5 asymmetric-radius model is a strict
generalization of the symmetric one and runs through the same loop with the
freeze as its one optional branch: :func:`simulate_asymmetric` passes a freeze
rule to the event engine's ``drive_windows``, and
:func:`simulate_batch_asymmetric` passes per-instance freeze radii to the
batch engine's round loop.
"""

from repro.sim.events import EventKind, get_event_kind, register_event_kind, registered_event_kinds
from repro.sim.scenarios import (
    ScenarioFamily,
    available_scenarios,
    get_scenario,
    register_scenario,
    registered_scenarios,
    scenarios_for_options,
    validate_scenario_options,
)
from repro.sim.timebase import FloatTimebase, ExactTimebase, Timebase, get_timebase
from repro.sim.results import SimulationResult, TerminationReason
from repro.sim.recorder import TrajectoryRecorder
from repro.sim.engine import RendezvousSimulator, simulate
from repro.sim.batch import simulate_batch
from repro.sim.asymmetric import AsymmetricOutcome, simulate_asymmetric
from repro.sim.batch_asymmetric import simulate_batch_asymmetric

__all__ = [
    "EventKind",
    "ScenarioFamily",
    "available_scenarios",
    "get_event_kind",
    "get_scenario",
    "register_event_kind",
    "register_scenario",
    "registered_event_kinds",
    "registered_scenarios",
    "scenarios_for_options",
    "validate_scenario_options",
    "FloatTimebase",
    "ExactTimebase",
    "Timebase",
    "get_timebase",
    "SimulationResult",
    "TerminationReason",
    "TrajectoryRecorder",
    "RendezvousSimulator",
    "simulate",
    "simulate_batch",
    "AsymmetricOutcome",
    "simulate_asymmetric",
    "simulate_batch_asymmetric",
]
