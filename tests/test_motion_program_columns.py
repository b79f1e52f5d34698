"""The batch engine's columnar program path against the instruction path.

``AlmostUniversalRV.program_columns`` builds the rotated cow walks of
Algorithm 1 as numpy columns; every other program reaches
:class:`LocalProgramBuilder` through :func:`instruction_chunks`.  The two
must give bit-identical builder columns, the builder's ``cumulative`` must
keep its 1024-row blocked fold whatever the chunk sizes, and a cold batch run
must not fall back to one ``Move`` per row.
"""

import itertools
import json
import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro.algorithms.almost_universal import AlmostUniversalRV
from repro.algorithms.cow_walk import (
    COLUMN_CHUNK_ROWS,
    cow_walk_columns,
    planar_cow_walk,
    planar_cow_walk_code,
    planar_cow_walk_segment_count,
)
from repro.algorithms.schedules import CompactSchedule, PaperSchedule
from repro.core.instance import Instance
from repro.motion.compiler import LocalProgramBuilder, instruction_chunks
from repro.motion.instructions import Wait
from repro.motion.program import rotate_instructions
from repro.sim.batch import simulate_batch

ROWS = 300_000
COLUMNS = ("dx", "dy", "duration", "cumulative")


def column_builder(algorithm):
    return LocalProgramBuilder(algorithm.program_columns())


def instruction_builder(algorithm):
    return LocalProgramBuilder(instruction_chunks(algorithm.program()))


def prefix(builder, rows=ROWS):
    builder.ensure_time(math.inf, max_steps=rows)
    return builder.snapshot(max_steps=rows)


def assert_tables_identical(left, right):
    assert len(left) == len(right)
    assert left.complete == right.complete
    for name in COLUMNS:
        a, b = getattr(left, name), getattr(right, name)
        assert np.array_equal(a.view(np.int64), b.view(np.int64)), name


def blocked_fold(duration, block=1024):
    """The reference ``cumulative``: per block, ``base + cumsum(block)``."""
    out = np.empty_like(duration)
    base = 0.0
    for start in range(0, len(duration), block):
        out[start : start + block] = base + np.cumsum(duration[start : start + block])
        base = float(out[min(start + block, len(duration)) - 1])
    return out


def concat(chunks):
    parts = list(chunks)
    if not parts:
        return tuple(np.empty(0) for _ in range(3))
    return tuple(np.concatenate([part[k] for part in parts]) for k in range(3))


@pytest.mark.parametrize("schedule", [PaperSchedule(), CompactSchedule()], ids=["paper", "compact"])
class TestColumnParity:
    def test_first_rows_bit_identical(self, schedule):
        algorithm = AlmostUniversalRV(schedule)
        columns = prefix(column_builder(algorithm))
        instructions = prefix(instruction_builder(algorithm))
        assert len(columns) == ROWS
        assert_tables_identical(columns, instructions)

    def test_cumulative_is_the_blocked_fold(self, schedule):
        table = prefix(column_builder(AlmostUniversalRV(schedule)))
        reference = blocked_fold(table.duration)
        assert np.array_equal(table.cumulative.view(np.int64), reference.view(np.int64))
        # The rule is observable: one running sum rounds differently.
        assert not np.array_equal(np.cumsum(table.duration), table.cumulative)

    def test_snapshots_match_on_a_budget_grid(self, schedule):
        algorithm = AlmostUniversalRV(schedule)
        columns, instructions = column_builder(algorithm), instruction_builder(algorithm)
        budgets = [0.5, 7.0, 1e3, 3e4, 1e6, 1e9, 1e20, 1e40]
        for local_time, max_steps in itertools.product(budgets, [None, 1, 1024, 1025, 70_000, ROWS]):
            if max_steps is None and local_time > 1e6:
                continue  # beyond the first few phases: millions of rows
            assert_tables_identical(
                columns.snapshot(local_time, max_steps=max_steps),
                instructions.snapshot(local_time, max_steps=max_steps),
            )


class TestFiniteProgram:
    def test_max_phase_program_ends_identically(self):
        algorithm = AlmostUniversalRV(CompactSchedule(), max_phase=2)
        columns, instructions = column_builder(algorithm), instruction_builder(algorithm)
        full_columns = columns.snapshot(math.inf)
        full_instructions = instructions.snapshot(math.inf)
        assert columns.exhausted and instructions.exhausted
        assert full_columns.complete and full_instructions.complete
        assert_tables_identical(full_columns, full_instructions)
        assert len(full_columns) == len(concat(instruction_chunks(algorithm.program()))[2])

    @pytest.mark.parametrize("rows", [5, 1024, 2048])
    def test_snapshot_reaching_the_end_is_complete(self, rows):
        builder = LocalProgramBuilder(instruction_chunks([Wait(1.0)] * rows))
        table = builder.snapshot(float(rows))
        assert builder.exhausted and table.complete and len(table) == rows


class TestReadAhead:
    @staticmethod
    def counted_waits(drawn):
        for k in itertools.count(1):
            drawn[0] = k
            yield Wait(1.0)

    def test_pulls_read_nothing_ahead(self):
        drawn = [0]
        builder = LocalProgramBuilder(instruction_chunks(self.counted_waits(drawn)))
        table = builder.snapshot(4.5)
        assert len(table) == 5 and not table.complete
        assert drawn[0] == 1024

    def test_peeked_chunk_is_consumed_next(self):
        drawn = [0]
        builder = LocalProgramBuilder(instruction_chunks(self.counted_waits(drawn)))
        assert not builder.snapshot(1024.0).complete  # covers every row: peeks
        assert drawn[0] == 2048 and len(builder) == 1024
        builder.ensure_time(1500.0)
        assert drawn[0] == 2048 and len(builder) == 2048
        assert list(builder.snapshot().cumulative) == [float(k) for k in range(1, 2049)]


class TestBuilderFold:
    def test_chunk_sizes_do_not_change_rows(self):
        rng = np.random.default_rng(3)
        duration = rng.uniform(0.0, 1.0, 9000) * 10.0 ** rng.integers(-8, 8, 9000)
        dx, dy = rng.normal(size=9000), rng.normal(size=9000)
        reference = LocalProgramBuilder([(dx, dy, duration)]).snapshot(math.inf)
        cuts = np.cumsum(rng.integers(1, 1500, 40))
        cuts = [0, *cuts[cuts < 9000], 9000]
        chunks = [(dx[a:b], dy[a:b], duration[a:b]) for a, b in zip(cuts, cuts[1:])]
        builder = LocalProgramBuilder(chunks)
        for rows in (1, 1000, 1024, 5000):
            builder.ensure_time(float(np.sum(duration[:rows])))
        builder.ensure_time(math.inf)
        assert_tables_identical(builder.snapshot(), reference)
        assert np.array_equal(reference.cumulative, blocked_fold(duration))

    def test_empty_chunks_are_harmless(self):
        empty = (np.empty(0), np.empty(0), np.empty(0))
        one = (np.ones(1), np.zeros(1), np.ones(1))
        table = LocalProgramBuilder([empty, one, empty, one]).snapshot(math.inf)
        assert table.complete and list(table.cumulative) == [1.0, 2.0]


class TestCodedWalk:
    @pytest.mark.parametrize("i", [0, 1, 2, 3, 4])
    def test_code_spells_the_walk(self, i):
        alphabet, codes = planar_cow_walk_code(i)
        assert len(alphabet) == 3 * i + 4 and codes.dtype == np.uint8
        assert len(codes) == planar_cow_walk_segment_count(i)
        assert [alphabet[k] for k in codes] == list(planar_cow_walk(i))

    @pytest.mark.parametrize("i", [1, 3])
    @pytest.mark.parametrize("alpha", [None, 0.0, math.pi / 8.0, 5.0 * math.pi / 4.0, 2.0 * math.pi])
    def test_columns_equal_rotated_instructions(self, i, alpha):
        walk = planar_cow_walk(i)
        expected = concat(instruction_chunks(walk if alpha is None else rotate_instructions(walk, alpha)))
        got = concat(cow_walk_columns(i, alpha))
        for a, b in zip(got, expected):
            assert np.array_equal(a.view(np.int64), b.view(np.int64))

    def test_deep_walk_chunks_are_bounded(self):
        sizes = [len(chunk[2]) for chunk in cow_walk_columns(6, 0.5)]
        assert max(sizes) == COLUMN_CHUNK_ROWS
        assert sum(sizes) == planar_cow_walk_segment_count(6)


class TestFallback:
    def test_subclass_overriding_phase_keeps_its_program(self):
        class StayPut(AlmostUniversalRV):
            def phase(self, i):
                yield Wait(1.0)

        instance = Instance(r=0.5, x=1.0, y=1.0, phi=1.5708, tau=1.0, v=1.0, t=0.0, chi=1)
        rows = concat(itertools.islice(StayPut().program_columns(), 1))[2]
        assert list(rows) == [1.0] * len(rows) and len(rows) > 1
        (stay,) = simulate_batch([instance], StayPut(), max_time=1e4, max_segments=10_000)
        (moving,) = simulate_batch([instance], AlmostUniversalRV(), max_time=1e4, max_segments=10_000)
        assert moving.met and not stay.met
        assert stay.min_distance == pytest.approx(instance.initial_distance)

    def test_unhashable_schedule_adapts_program(self):
        class Unhashable(CompactSchedule):
            __hash__ = None

        algorithm = AlmostUniversalRV(Unhashable())
        assert algorithm.program_cache_key is None
        assert_tables_identical(
            prefix(column_builder(algorithm), 5000),
            prefix(LocalProgramBuilder(AlmostUniversalRV(CompactSchedule()).program_columns()), 5000),
        )


GUARD_SCRIPT = textwrap.dedent(
    """
    import itertools, json
    from repro.algorithms import almost_universal
    from repro.algorithms.registry import get_algorithm
    from repro.analysis.sampler import InstanceSampler
    from repro.core.classification import InstanceClass
    from repro.motion.instructions import Move
    from repro.sim.batch import simulate_batch

    calls = {"rotated": 0, "phase_instruction_list": 0}
    rotated, phase_list = Move.rotated, almost_universal.phase_instruction_list

    def counted_rotated(self, alpha):
        calls["rotated"] += 1
        return rotated(self, alpha)

    def counted_phase_list(*args):
        calls["phase_instruction_list"] += 1
        return phase_list(*args)

    Move.rotated = counted_rotated
    almost_universal.phase_instruction_list = counted_phase_list

    sampler = InstanceSampler(seed=5)
    instances = [sampler.batch_of_class(InstanceClass(f"type-{k}"), 1)[0] for k in (1, 2, 3, 4)]
    algorithm = get_algorithm("almost-universal-compact")
    results = simulate_batch(instances, algorithm, max_time=1e6, max_segments=100_000)
    batch = dict(calls, segments=sum(r.segments_a + r.segments_b for r in results))
    # Control: the instruction path does reach both patched functions.
    list(itertools.islice(algorithm.program(), 100))
    print(json.dumps({"batch": batch, "control": calls}))
    """
)


class TestMechanismGuard:
    def test_cold_batch_builds_no_move_per_row(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.join(os.getcwd(), "src"), env.get("PYTHONPATH")) if p
        )
        done = subprocess.run(
            [sys.executable, "-c", GUARD_SCRIPT], capture_output=True, text=True, env=env, check=True
        )
        counts = json.loads(done.stdout.strip().splitlines()[-1])
        batch, control = counts["batch"], counts["control"]
        assert batch["segments"] > 1000
        assert batch["rotated"] == 0 and batch["phase_instruction_list"] == 0
        assert control["rotated"] > 0 and control["phase_instruction_list"] == 1
