"""Equivalence digests of the batch engine, for refactors that must not change results.

Usage (from the root of a checkout)::

    PYTHONPATH=src python scripts/batch_digests.py

Point ``PYTHONPATH`` at another checkout's ``src`` to digest that code with
the same inputs; two checkouts are equivalent when every line matches.

Each batch line is a sha256 over every :class:`SimulationResult` field but
``elapsed_wall_seconds`` (wall time), plus, for the asymmetric engine, the
radii and the freeze event.  Inputs are the benchmark's engine instances
(``perfbench/workloads.py``: 400 stratified type-1..4 instances from seed 1,
its algorithm and budgets); the asymmetric batches use its Section 5
radius-ratio grid, the speed and stall batches per-instance columns on every
third instance.  The ``campaign_columns`` line is the benchmark's
``columns_digest`` of a small campaign store.  The ``program_columns`` line
is a sha256 over the four program-builder columns (``dx``, ``dy``,
``duration``, ``cumulative``) of the first ``PROGRAM_ROWS`` rows of
``almost-universal`` and ``almost-universal-compact``, the batch engine's
input, so program-generation changes are checked row by row.
"""

import dataclasses
import hashlib
import math
import os
import shutil
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench"))

import workloads  # noqa: E402
from repro.algorithms.registry import get_algorithm  # noqa: E402
from repro.campaign import CampaignStore, run_campaign  # noqa: E402
from repro.motion.compiler import LocalProgramBuilder  # noqa: E402
from repro.sim.batch import simulate_batch  # noqa: E402
from repro.sim.batch_asymmetric import simulate_batch_asymmetric  # noqa: E402


def digest(items) -> str:
    sha = hashlib.sha256()
    for item in items:
        result = getattr(item, "result", item)
        fields = [
            (field.name, getattr(result, field.name))
            for field in dataclasses.fields(result)
            if field.name != "elapsed_wall_seconds"
        ]
        if item is not result:
            fields.append((item.radius_a, item.radius_b, item.frozen_agent,
                           item.freeze_time, item.freeze_distance))
        sha.update(repr(fields).encode())
    return sha.hexdigest()


PROGRAM_ROWS = 300_000


def program_digest(names=("almost-universal", "almost-universal-compact")) -> str:
    sha = hashlib.sha256()
    for name in names:
        algorithm = get_algorithm(name)
        # Checkouts whose builder reads instructions have no program_columns.
        columns = getattr(algorithm, "program_columns", None)
        builder = LocalProgramBuilder(columns() if columns else algorithm.program())
        builder.ensure_time(math.inf, max_steps=PROGRAM_ROWS)
        table = builder.snapshot(max_steps=PROGRAM_ROWS)
        assert len(table) == PROGRAM_ROWS
        for column in (table.dx, table.dy, table.duration, table.cumulative):
            sha.update(column.tobytes())
    return sha.hexdigest()


def main() -> None:
    algorithm = get_algorithm(workloads.ALGORITHM)
    budgets = dict(max_time=workloads.MAX_TIME, max_segments=workloads.MAX_SEGMENTS)
    instances = workloads.stratified_instances(seed=1, per_type=100)
    radii_a, radii_b = workloads.radii(instances)
    grid = dict(radius_a=radii_a, radius_b=radii_b)
    third = instances[::3]
    count = len(third)
    third_grid = dict(radius_a=radii_a[::3], radius_b=radii_b[::3])
    speeds = dict(
        speed_a=[0.5 + 0.25 * (k % 7) for k in range(count)],
        speed_b=[2.0 - 0.3 * (k % 5) for k in range(count)],
    )
    stall = dict(
        stall_time=[3.0 * (k % 9) for k in range(count)],
        stall_duration=[1.0 + 5.0 * (k % 4) for k in range(count)],
    )
    batches = {
        "sym_engine": simulate_batch(instances, algorithm, **budgets),
        "asym_section5_grid": simulate_batch_asymmetric(instances, algorithm, **grid, **budgets),
        "sym_speed": simulate_batch(third, algorithm, **speeds, **budgets),
        "sym_stall": simulate_batch(third, algorithm, stall_agent="B", **stall, **budgets),
        "sym_untracked": simulate_batch(instances, algorithm, track_min_distance=False, **budgets),
        "asym_speed": simulate_batch_asymmetric(third, algorithm, **third_grid, **speeds, **budgets),
        "asym_stall": simulate_batch_asymmetric(
            third, algorithm, **third_grid, stall_agent="A", **stall, **budgets),
        "asym_untracked": simulate_batch_asymmetric(
            instances, algorithm, **grid, track_min_distance=False, **budgets),
    }
    for name, items in batches.items():
        frozen = sum(getattr(item, "frozen_agent", None) is not None for item in items)
        met = sum(item.met for item in items)
        print(f"{name:20s} n={len(items):4d} met={met:4d} frozen={frozen:4d} {digest(items)}")

    scratch = tempfile.mkdtemp()
    try:
        directory = os.path.join(scratch, "campaign")
        run_campaign(directory, workloads.campaign_spec(1000, 50, 25), workers=1)
        print(f"{'campaign_columns':20s} {workloads.columns_digest(CampaignStore(directory))}")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(f"{'program_columns':20s} rows={PROGRAM_ROWS} {program_digest()}")


if __name__ == "__main__":
    main()
