"""The three legs every benchmark run drives: engine, campaign and service.

Each leg generates its inputs from the run's seed, times its operations and
checks every output.  A timed operation returns its *windows*, the
``(start, end)`` ``perf_counter`` intervals of the calls it timed.  A failed
check or a raised error counts one failed operation in :class:`Tally`; the
run's ``error_rate`` is failed / attempted.

* engine   -- ``simulate_batch`` and ``simulate_batch_asymmetric`` passes
  over stratified type-1..4 instances (the asymmetric call on the Section 5
  radius-ratio grid), a fixed number of instances per call, checked
  against the event engines on a fixed sub-sample and against the
  process's first (cold) pass.
* campaign -- ``run_campaign`` into a fresh store, inline (``workers=1``) and
  pooled (``workers=nproc``); both stores must verify and hold byte-identical
  columns.
* service  -- ``repro serve`` as a subprocess and one closed-loop HTTP client:
  each small spec is submitted, submitted again (must deduplicate), and its
  status polled until the job completes.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

ALGORITHM = "almost-universal-compact"
MAX_TIME = 1e6
MAX_SEGMENTS = 100_000
CLASSES = ("type-1", "type-2", "type-3", "type-4")
#: Section 5 radius-ratio grid r_b / r_a, cycled over the instances.
RATIOS = (1.0, 0.75, 0.5, 0.25)
#: Simulator options of the campaign and service specs.  Their instances are
#: sampled inside ``run_campaign`` and cannot be stratified like the engine
#: batch, so the segment budget is lower: a few budget-exhausted instances
#: then cannot move a campaign's cost by a quarter from one seed to the next.
SPEC_SIMULATOR = {"max_time": MAX_TIME, "max_segments": 5_000}
#: Client pause between status polls while waiting for a service job
#: (seconds).  The time from a job's completion to the poll that sees it is
#: the client's, not the service's: the pause keeps it a small share of the
#: latency.
POLL_INTERVAL = 0.005
#: Client pause before each job, drawn from the seed, uniform below this
#: (seconds; not part of the job's latency).  The service's scheduler picks
#: up queued jobs on a fixed tick; a client that submits the moment the last
#: job completed lands at the same phase of that tick every time, so the
#: latency locks to a whole number of ticks and jumps by one tick when the
#: host is a little slower.  A random pause spreads submissions over the
#: tick and makes the latency's median move smoothly with the service.
THINK_MAX = 0.1

#: Difficulty strata of the engine batch: upper edges (exclusive) of the
#: trajectory segments an instance uses under the engine budget; the last
#: stratum holds the budget-exhausted instances.
STRATA_EDGES = (100, 300, 1_000, 3_000, 10_000, 20_000, 40_000, 70_000, MAX_SEGMENTS + 1)
#: Instances taken from each stratum per 100 instances of a type: the
#: strata's shares in a 1,500-instance sample of each type.  Drawn without
#: strata, the number of budget-exhausted instances (about four in 500)
#: alone moves warm engine throughput by a quarter between seeds.
QUOTAS_PER_100 = {
    "type-1": (52, 17, 22, 8, 0, 1, 0, 0, 0, 0),
    "type-2": (28, 17, 20, 18, 8, 2, 2, 1, 1, 3),
    "type-3": (60, 23, 15, 2, 0, 0, 0, 0, 0, 0),
    "type-4": (56, 12, 20, 5, 4, 1, 0, 1, 0, 1),
}
#: Total trajectory segments of the reference campaign (4 classes x 250
#: instances under ``SPEC_SIMULATOR``): the median over 24 spec seeds.
CAMPAIGN_REFERENCE_SEGMENTS = 575_000
CAMPAIGN_TOLERANCE = 0.03
CAMPAIGN_TRIES = 8
#: Event-engine parity takes only instances resolved within this many segments.
PARITY_MAX_SEGMENTS = 10_000
#: The most screening rounds per type (each draws ``per_type`` candidates).
SCREEN_ROUNDS = 16

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (os.cpu_count() or 1)


@dataclass
class Tally:
    """Operations attempted and failed; each failure is printed to stderr."""

    attempted: int = 0
    failed: int = 0

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAIL: {what}", file=sys.stderr)
        return ok


def child_env() -> Dict[str, str]:
    """Environment for child interpreters: the checkout's ``src`` on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("PERFBENCH_SPANS", None)
    return env


# -- engine ------------------------------------------------------------------------


def quotas(cls: str, per_type: int) -> List[int]:
    """``QUOTAS_PER_100`` scaled to ``per_type`` (largest remainder)."""
    base = QUOTAS_PER_100[cls]
    exact = [per_type * q / 100.0 for q in base]
    counts = [int(e) for e in exact]
    order = sorted(range(len(base)), key=lambda k: counts[k] - exact[k])
    for k in order[: per_type - sum(counts)]:
        counts[k] += 1
    return counts


def segments(result) -> int:
    return result.segments_a + result.segments_b


def stratified_instances(seed: int, per_type: int):
    """``per_type`` instances of each type, drawn from ``seed`` by difficulty.

    Candidates are drawn in rounds and screened with ``simulate_batch``; each
    is kept while its stratum (``STRATA_EDGES``) is short of its quota.  The
    kept instances stay in draw order.  A stratum still short after
    ``SCREEN_ROUNDS`` rounds takes the nearest stratum's spare candidates.
    """
    import bisect

    from repro.analysis.sampler import InstanceSampler
    from repro.core.classification import InstanceClass
    from repro.sim.rounds import compiler_cache_admission

    sampler = InstanceSampler(seed=seed)
    instances = []
    for cls in CLASSES:
        wanted = quotas(cls, per_type)
        kept = [[] for _ in wanted]
        spare = [[] for _ in wanted]
        drawn = 0
        for _ in range(SCREEN_ROUNDS):
            if all(len(k) >= w for k, w in zip(kept, wanted)):
                break
            candidates = sampler.batch_of_class(InstanceClass(cls), per_type)
            with compiler_cache_admission("shared-only"):
                results = run_sym(candidates, track_min_distance=False)
            for instance, result in zip(candidates, results):
                stratum = bisect.bisect_right(STRATA_EDGES, segments(result))
                target = kept[stratum] if len(kept[stratum]) < wanted[stratum] else spare[stratum]
                target.append((drawn, instance))
                drawn += 1
        for stratum, want in enumerate(wanted):
            for distance in range(1, len(wanted)):
                if len(kept[stratum]) >= want:
                    break
                for other in (stratum - distance, stratum + distance):
                    if 0 <= other < len(wanted):
                        while spare[other] and len(kept[stratum]) < want:
                            kept[stratum].append(spare[other].pop(0))
        chosen = sorted(pair for stratum in kept for pair in stratum)
        instances.extend(instance for _, instance in chosen)
    return instances


def radii(instances):
    """Per-instance radius pairs: ``r`` for A, ``r`` times the cycled ratio for B."""
    radii_a = [instance.r for instance in instances]
    radii_b = [instance.r * RATIOS[k % len(RATIOS)] for k, instance in enumerate(instances)]
    return radii_a, radii_b


def matched_campaign_seed(seed: int, per_cell: int, shard_size: int) -> int:
    """The campaign spec seed for run seed ``seed``, matched for difficulty.

    Candidates ``seed * 1000 + k`` are screened in order; the first whose
    instances need within ``CAMPAIGN_TOLERANCE`` of the reference total of
    trajectory segments is taken (else the closest of ``CAMPAIGN_TRIES``).
    Unmatched, spec seeds spread the campaign's engine work by 8% (IQR).
    """
    from repro.campaign.shards import plan_shards, shard_instances
    from repro.sim.rounds import compiler_cache_admission

    target = CAMPAIGN_REFERENCE_SEGMENTS * per_cell / 250.0
    best = None
    for k in range(CAMPAIGN_TRIES):
        candidate = seed * 1000 + k
        spec = campaign_spec(candidate, per_cell, shard_size)
        instances = [i for shard in plan_shards(spec) for i in shard_instances(spec, shard)]
        with compiler_cache_admission("shared-only"):
            results = run_sym(instances, track_min_distance=False, **SPEC_SIMULATOR)
        gap = abs(sum(segments(result) for result in results) / target - 1.0)
        if gap <= CAMPAIGN_TOLERANCE:
            return candidate
        if best is None or gap < best[0]:
            best = (gap, candidate)
    return best[1]


def save_inputs(path: str, instances, campaign_seed: int) -> None:
    with open(path, "w") as handle:
        json.dump({
            "engine": [dataclasses.asdict(instance) for instance in instances],
            "campaign_seed": campaign_seed,
        }, handle)


def load_inputs(path: str):
    """``(engine instances, campaign spec seed)`` as written by :func:`save_inputs`."""
    from repro.core.instance import Instance

    with open(path) as handle:
        data = json.load(handle)
    return [Instance(**fields) for fields in data["engine"]], int(data["campaign_seed"])


def run_sym(instances, track_min_distance: bool = True, max_time=MAX_TIME, max_segments=MAX_SEGMENTS):
    from repro.algorithms.registry import get_algorithm
    from repro.sim import batch

    return batch.simulate_batch(
        instances, get_algorithm(ALGORITHM), max_time=max_time, max_segments=max_segments,
        track_min_distance=track_min_distance,
    )


def run_asym(instances, radii_a, radii_b):
    from repro.algorithms.registry import get_algorithm
    from repro.sim import batch_asymmetric

    return batch_asymmetric.simulate_batch_asymmetric(
        instances, get_algorithm(ALGORITHM), radius_a=radii_a, radius_b=radii_b,
        max_time=MAX_TIME, max_segments=MAX_SEGMENTS,
    )


def calls(count: int, call_size: int) -> List[List[int]]:
    """The indices each engine call gets when ``count`` instances are handed
    over ``call_size`` at a time; interleaved, so every call holds every type."""
    number = max(1, -(-count // call_size))
    return [list(range(k, count, number)) for k in range(number)]


def run_in_calls(plan, engine, *columns) -> list:
    """``engine`` on each call's slice of ``columns``; results in input order."""
    results = [None] * sum(len(indices) for indices in plan)
    for indices in plan:
        for k, result in zip(indices, engine(*([column[i] for i in indices] for column in columns))):
            results[k] = result
    return results


def verdicts(results) -> str:
    """Digest of every result's verdict, meeting time and termination."""
    digest = hashlib.sha256()
    for result in results:
        digest.update(repr((result.met, result.meeting_time, str(result.termination))).encode())
    return digest.hexdigest()


def check_event_parity(tally: Tally, instances, radii_a, radii_b, sym, asym, indices) -> None:
    """The event engines must give the batch engines' verdict on ``indices``."""
    from repro.algorithms.registry import get_algorithm
    from repro.sim.asymmetric import simulate_asymmetric
    from repro.sim.engine import RendezvousSimulator

    algorithm = get_algorithm(ALGORITHM)
    simulator = RendezvousSimulator(max_time=MAX_TIME, max_segments=MAX_SEGMENTS)
    for k in indices:
        try:
            event = simulator.run(instances[k], algorithm)
            ok = event.met == sym[k].met
        except Exception as error:  # noqa: BLE001 - a raised engine is a failed check
            ok, event = False, error
        tally.record(ok, f"engine: event vs batch verdict differs on instance {k}: {event!r}")
        try:
            outcome = simulate_asymmetric(
                instances[k], algorithm, radius_a=radii_a[k], radius_b=radii_b[k],
                max_time=MAX_TIME, max_segments=MAX_SEGMENTS,
            )
            ok = outcome.met == asym[k].met
        except Exception as error:  # noqa: BLE001
            ok, outcome = False, error
        tally.record(ok, f"engine: asymmetric event vs batch verdict differs on instance {k}: {outcome!r}")


@dataclass
class EngineSamples:
    sym_verdicts: str = ""
    asym_verdicts: str = ""
    sym_rates: List[float] = field(default_factory=list)
    asym_rates: List[float] = field(default_factory=list)


class EngineLeg:
    """Warm-up (the process's first, cold pass) then timed warm passes.

    A pass hands the whole batch to the engine ``call_size`` instances per
    call (:func:`calls`); its rate is the batch over the pass's seconds.
    """

    def __init__(self, instances, per_type: int, call_size: int) -> None:
        self.instances = instances
        self.radii_a, self.radii_b = radii(instances)
        self.per_type = per_type
        self.plan = calls(len(instances), call_size)
        self.samples = EngineSamples()
        self.sym = self.asym = None

    def _sym(self):
        return run_in_calls(self.plan, run_sym, self.instances)

    def _asym(self):
        return run_in_calls(self.plan, run_asym, self.instances, self.radii_a, self.radii_b)

    def warm_up(self, tally: Tally) -> list:
        """The process's first symmetric and asymmetric passes; returns their windows."""
        start = time.perf_counter()
        self.sym = self._sym()
        middle = time.perf_counter()
        self.asym = self._asym()
        end = time.perf_counter()
        self.samples.sym_verdicts = verdicts(self.sym)
        self.samples.asym_verdicts = verdicts(r.result for r in self.asym)
        tally.record(len(self.sym) == len(self.instances), "engine: result count")
        return [(start, middle), (middle, end)]

    def unit(self, tally: Tally) -> list:
        """One warm symmetric and one warm asymmetric pass; returns their windows."""
        count = len(self.instances)
        start = time.perf_counter()
        sym = self._sym()
        middle = time.perf_counter()
        asym = self._asym()
        end = time.perf_counter()
        if tally.record(verdicts(sym) == self.samples.sym_verdicts, "engine: warm sym differs from first call"):
            self.samples.sym_rates.append(count / (middle - start))
        if tally.record(
            verdicts(r.result for r in asym) == self.samples.asym_verdicts,
            "engine: warm asym differs from first call",
        ):
            self.samples.asym_rates.append(count / (end - middle))
        return [(start, middle), (middle, end)]

    def check_parity(self, tally: Tally, take: int) -> None:
        """Re-run ``take`` instances per type on the event engines.

        The first instances of each type (in draw order) that both batch
        engines resolved within ``PARITY_MAX_SEGMENTS`` are taken: the event
        engines are far slower on budget-exhausted instances.
        """
        sym = self.sym
        asym = [outcome.result for outcome in self.asym]
        indices = []
        for block in range(len(CLASSES)):
            span = range(block * self.per_type, (block + 1) * self.per_type)
            cheap = [
                k for k in span
                if max(segments(sym[k]), segments(asym[k])) <= PARITY_MAX_SEGMENTS
            ]
            indices.extend(cheap[:take])
        check_event_parity(tally, self.instances, self.radii_a, self.radii_b, sym, asym, indices)


def cold_engine_call(inputs_file: str, call_size: int, tally: Tally, env) -> Optional[Dict[str, Any]]:
    """Launch a fresh interpreter that sets up and makes one cold pass.

    Returns ``setup`` (launch to first call: interpreter start, imports and
    reading the instances), ``cold`` (the first ``simulate_batch`` pass over
    the batch, ``call_size`` instances per call) and the verdict digest.  Both clocks are ``perf_counter`` (system-wide
    monotonic), so the child's timestamps compare with the launch time.
    """
    launched = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "cold.py"), inputs_file, str(call_size)],
        env=env, capture_output=True, text=True, timeout=170,
    )
    if not tally.record(proc.returncode == 0, f"engine: cold child exited {proc.returncode}: {proc.stderr[-400:]}"):
        return None
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    return {
        "setup": report["ready"] - launched,
        "cold": report["done"] - report["ready"],
        "verdicts": report["verdicts"],
    }


# -- campaign ----------------------------------------------------------------------


def campaign_spec(seed: int, per_cell: int, shard_size: int):
    from repro.campaign import CampaignArm, CampaignSpec

    return CampaignSpec(
        name="perfbench-campaign",
        arms=(CampaignArm(algorithm=ALGORITHM),),
        classes=CLASSES,
        instances_per_cell=per_cell,
        seed=seed,
        simulator=SPEC_SIMULATOR,
        shard_size=shard_size,
    )


def columns_digest(store) -> str:
    """sha256 over every stored column, in plan order and column order."""
    from repro.campaign.store import RESULT_COLUMNS

    columns = store.export_columns()
    digest = hashlib.sha256()
    for name in RESULT_COLUMNS:
        digest.update(name.encode())
        digest.update(columns[name].tobytes())
    return digest.hexdigest()


@dataclass
class CampaignSamples:
    inline_rates: List[float] = field(default_factory=list)
    pool_rates: List[float] = field(default_factory=list)
    digest: str = ""
    shard_attempts: int = 0
    shards_retried: int = 0
    worker_restarts: int = 0
    pool_busy: float = 0.0


class CampaignLeg:
    """One spec, run into a fresh store inline and pooled, each repetition."""

    def __init__(self, seed: int, per_cell: int, shard_size: int, scratch: str) -> None:
        self.spec = campaign_spec(seed, per_cell, shard_size)
        self.scratch = scratch
        self.samples = CampaignSamples()
        self._runs = 0

    def _run(self, tally: Tally, workers: int) -> list:
        from repro.campaign import CampaignStore, run_campaign

        self._runs += 1
        directory = os.path.join(self.scratch, f"campaign-{self._runs}")
        total = self.spec.total_instances
        try:
            start = time.perf_counter()
            stats = run_campaign(directory, self.spec, workers=workers)
            end = time.perf_counter()
            store = CampaignStore(directory)
            problems = store.verify()
            digest = columns_digest(store)
            if workers > 1:
                self.samples.pool_busy += sum(
                    float(record.get("wall_seconds", 0.0)) for record in store.manifest_records()
                )
        except Exception as error:  # noqa: BLE001 - a raised run is a failed operation
            tally.record(False, f"campaign(workers={workers}): {error!r}")
            return []
        finally:
            shutil.rmtree(directory, ignore_errors=True)
        self.samples.shard_attempts += stats.shard_attempts
        self.samples.shards_retried += stats.shards_retried
        self.samples.worker_restarts += stats.worker_restarts
        if not self.samples.digest:
            self.samples.digest = digest
        ok = (
            stats.complete
            and stats.rows_computed == total
            and stats.rows_recomputed == 0
            and not problems
            and digest == self.samples.digest
        )
        if tally.record(ok, f"campaign(workers={workers}): complete={stats.complete} "
                            f"rows={stats.rows_computed}/{total} problems={problems} "
                            f"identical={digest == self.samples.digest}"):
            rates = self.samples.pool_rates if workers > 1 else self.samples.inline_rates
            rates.append(total / (end - start))
        return [(start, end)]

    def unit(self, tally: Tally, workers: int) -> list:
        """One inline and one pooled run; returns their windows."""
        return self._run(tally, 1) + self._run(tally, workers)


# -- service -----------------------------------------------------------------------


def http_json(url: str, body: Optional[bytes] = None, timeout: float = 30.0):
    request = urllib.request.Request(
        url, data=body,
        headers={"Content-Type": "application/json"} if body else {},
        method="POST" if body else "GET",
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read() or b"{}")


class Daemon:
    """``repro serve`` in a subprocess, on an ephemeral port of this host.

    ``spans_file`` (the traced run) starts it through ``daemon_host.py``,
    which wraps the layers first and appends the daemon's spans there;
    otherwise it is plain ``python -m repro serve``.
    """

    def __init__(self, service_dir: str, env, spans_file: Optional[str] = None) -> None:
        self.service_dir = service_dir
        self.env = env
        if spans_file is None:
            self.prefix = [sys.executable, "-m", "repro"]
        else:
            self.prefix = [sys.executable, os.path.join(BENCH_DIR, "daemon_host.py"), spans_file]
        self.process = None
        self.url = ""

    def start(self, timeout: float = 60.0) -> float:
        """Launch and wait until ``/readyz`` answers 200; returns the seconds taken."""
        os.makedirs(self.service_dir, exist_ok=True)
        argv = self.prefix + ["serve", "--service-dir", self.service_dir, "--log-level", "warning"]
        log = open(os.path.join(self.service_dir, "daemon.log"), "ab")
        launched = time.perf_counter()
        try:
            self.process = subprocess.Popen(argv, env=self.env, stdout=log, stderr=log)
        finally:
            log.close()
        daemon_file = os.path.join(self.service_dir, "daemon.json")
        deadline = launched + timeout
        while time.perf_counter() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError(f"daemon exited with {self.process.returncode} during start-up")
            if not self.url:
                try:
                    with open(daemon_file) as handle:
                        info = json.load(handle)
                    if info.get("pid") == self.process.pid:
                        self.url = f"http://{info['host']}:{info['port']}"
                except (OSError, ValueError):
                    pass
            if self.url:
                try:
                    if http_json(f"{self.url}/readyz", timeout=5.0)[0] == 200:
                        return time.perf_counter() - launched
                except (urllib.error.URLError, OSError):
                    pass
            time.sleep(0.005)
        raise RuntimeError("daemon not ready in time")

    def stop(self) -> int:
        """SIGTERM (graceful drain) and wait; returns the exit code."""
        if self.process is None:
            return 0
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=30)
        code = self.process.returncode
        self.process = None
        return code


def service_spec(seed: int, index: int, per_cell: int, shard_size: int):
    from repro.campaign import CampaignArm, CampaignSpec

    return CampaignSpec(
        name=f"perfbench-job-{index}",
        arms=(CampaignArm(algorithm=ALGORITHM),),
        classes=CLASSES,
        instances_per_cell=per_cell,
        seed=seed * 100_000 + index,
        simulator=SPEC_SIMULATOR,
        shard_size=shard_size,
    )


@dataclass
class ServiceSamples:
    latencies: List[float] = field(default_factory=list)
    campaign_wall: List[float] = field(default_factory=list)
    polls: int = 0
    shard_attempts: int = 0
    shards_retried: int = 0
    worker_restarts: int = 0


class ServiceLeg:
    """One closed-loop client: submit, resubmit (dedup), poll until complete."""

    def __init__(self, seed: int, per_cell: int, shard_size: int, daemon: Daemon, tracer=None) -> None:
        self.seed = seed
        self.per_cell = per_cell
        self.shard_size = shard_size
        self.daemon = daemon
        self.tracer = tracer
        self.samples = ServiceSamples()
        self._jobs = 0
        self._think = random.Random(seed)

    def _span(self, name: str, trace_id: Optional[str] = None):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(name, trace_id)

    def unit(self, tally: Tally) -> list:
        """One job, first submit to complete; returns its window (none on failure)."""
        spec = service_spec(self.seed, self._jobs, self.per_cell, self.shard_size)
        self._jobs += 1
        body = spec.to_json().encode()
        url = self.daemon.url
        digest = spec.digest()
        time.sleep(self._think.uniform(0.0, THINK_MAX))
        start = time.perf_counter()
        try:
            with self._span("client.submit", digest):
                code, first = http_json(f"{url}/campaigns", body)
            if not tally.record(code == 201 and first.get("digest") == digest,
                                f"service: submit answered {code} {first}"):
                return []
            with self._span("client.submit"):
                code, again = http_json(f"{url}/campaigns", body)
            tally.record(
                code == 200 and again.get("deduplicated") is True and again.get("digest") == digest,
                f"service: resubmit answered {code} {again}",
            )
            while True:
                with self._span("client.poll"):
                    code, status = http_json(f"{url}/campaigns/{digest}/status")
                self.samples.polls += 1
                job = status.get("job") or {}
                if code != 200 or job.get("state") in ("complete", "quarantined"):
                    break
                time.sleep(POLL_INTERVAL)
        except (urllib.error.URLError, OSError, ValueError) as error:
            tally.record(False, f"service: job {digest[:12]}: {error!r}")
            return []
        end = time.perf_counter()
        latency = end - start
        stats = job.get("stats") or {}
        ok = (
            job.get("state") == "complete"
            and stats.get("rows_computed") == spec.total_instances
            and stats.get("rows_recomputed") == 0
        )
        if tally.record(ok, f"service: job {digest[:12]} ended {job.get('state')} with stats {stats}"):
            self.samples.latencies.append(latency)
            self.samples.campaign_wall.append(float(stats.get("wall_seconds", 0.0)))
            self.samples.shard_attempts += int(stats.get("shard_attempts", 0))
            self.samples.shards_retried += int(stats.get("shards_retried", 0))
            self.samples.worker_restarts += int(stats.get("worker_restarts", 0))
        return [(start, end)]


def tail_percentile(samples: Sequence[float]):
    """The highest whole percentile with at least ten samples beyond it.

    Nearest-rank percentiles; returns ``(percentile, value)``.  With fewer
    than 20 samples no percentile above the median qualifies, and the median
    is returned as p50.
    """
    ordered = sorted(samples)
    count = len(ordered)
    for percentile in range(99, 50, -1):
        rank = math.ceil(percentile * count / 100.0)
        if count - rank >= 10:
            return percentile, ordered[rank - 1]
    return 50, statistics.median(ordered)
