"""The rendezvous simulator's benchmark: one command, three legs, two workloads.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload {bulk,fine} --seed N \
        --seconds S --trace {0,1} [--size {full,tiny}]

Every run drives all three entry points of the system -- the batch engines
(the engine leg), ``run_campaign`` (the campaign leg) and the ``repro serve``
job service (the service leg) -- so that every end-to-end metric is measured
on every workload.  The workloads (``WORKLOADS``) differ in how much work each
call gets: ``bulk`` runs large batches, shards and jobs, ``fine`` small ones,
so the same metric weighs the cost per instance on one and the cost per call
on the other.

``--trace 0`` prints the end-to-end metrics, measured untraced.  ``--trace 1``
is a separate run: it repeats the same measured pass with every layer's
public calls wrapped (``tracer.py``), in this process, in the pooled campaign
workers and in the service daemon, writes the spans under
``.perfbench/spans/`` and prints the per-layer metrics, each leg's span
coverage (checked against ``COVERAGE_FLOOR``) and the tracing overhead
against an untraced pass in a fresh interpreter.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
when every output checked correct, 1 when any check failed and 2 when the
run refused to start (no ``src/repro`` in the checkout, or a ``REPRO_*``
setting that changes what is measured).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from dataclasses import asdict, dataclass, replace

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".perfbench")
SPANS_ENV = "PERFBENCH_SPANS"

if SRC not in sys.path:
    sys.path.insert(0, SRC)

if __name__ == "__mp_main__" and os.environ.get(SPANS_ENV):
    # A spawned campaign worker of a traced run re-imports this file as
    # ``__mp_main__`` before it unpickles its target: wrap the layers here so
    # the worker's calls are timed too.  Its spans go to a file of its own.
    import tracer as _tracer

    _tracer.import_layers()
    _tracer.install(
        _tracer.Tracer(
            flush_path=os.path.join(os.environ[SPANS_ENV], f"worker-{os.getpid()}.jsonl")
        )
    )


@dataclass(frozen=True)
class Workload:
    """The work a run hands to each leg, the size of the pieces it hands it
    over in, and how many units of each leg a run makes.

    An engine unit is one warm symmetric plus one warm asymmetric pass over
    the batch, a campaign unit one inline plus one pooled ``run_campaign``,
    a service unit one job.  The unit counts are per ``UNIT_SECONDS`` of
    ``--seconds``.
    """

    engine_per_type: int  # engine batch: this many instances of each type 1..4
    engine_call: int  # instances per engine call
    campaign_per_cell: int  # campaign spec: instances per class (4 classes)
    campaign_shard: int  # campaign shard size
    service_per_cell: int  # service job spec: instances per class (4 classes)
    service_shard: int  # service job shard size
    engine_units: int
    campaign_units: int
    service_jobs: int
    cold_children: int = 6  # fresh interpreters timed for setup_s / cold_call_s


UNIT_SECONDS = 20
#: Both workloads run the same instances, campaign spec and job sizes.
#: ``bulk`` hands them over in large pieces (the whole batch per engine call,
#: a shard per class), so the cost per instance dominates; ``fine`` in small
#: ones (40 instances per call, shards of 20 and of 2), so the cost per call
#: dominates: validation and dispatch per engine call, a commit and a lease
#: per shard.
WORKLOADS = {
    "bulk": Workload(
        engine_per_type=100, engine_call=400, campaign_per_cell=200, campaign_shard=200,
        service_per_cell=8, service_shard=8,
        engine_units=10, campaign_units=8, service_jobs=40,
    ),
    "fine": Workload(
        engine_per_type=100, engine_call=40, campaign_per_cell=200, campaign_shard=20,
        service_per_cell=8, service_shard=2,
        engine_units=8, campaign_units=5, service_jobs=30,
    ),
}
#: The self-test's sizes: every leg once or twice on a few instances, in
#: the same pieces relative to the work as the full workload.
TINY = {
    "bulk": Workload(
        engine_per_type=3, engine_call=12, campaign_per_cell=4, campaign_shard=4,
        service_per_cell=2, service_shard=2,
        engine_units=1, campaign_units=1, service_jobs=2, cold_children=1,
    ),
    "fine": Workload(
        engine_per_type=3, engine_call=4, campaign_per_cell=4, campaign_shard=2,
        service_per_cell=2, service_shard=1,
        engine_units=1, campaign_units=1, service_jobs=2, cold_children=1,
    ),
}
#: Instances per type re-run on the event engines (outside the timed pass).
PARITY_PER_TYPE = 1
#: The least share of each leg's traced time the program's spans must cover.
COVERAGE_FLOOR = 0.9
#: End-to-end metrics scaled by the host-speed probe (``speed.py``): every
#: time and rate.  The service metrics are scaled too: across six runs of
#: ``bulk`` whose median kernel time ranged over 0.018-0.024 s, the job
#: latency's median followed it with a correlation of 0.99 (its sleeps, the
#: client's poll pause and the scheduler's poll, are a small share of it).
SCALED = frozenset({
    "setup_s", "cold_call_s", "warm_sym_inst_per_s", "warm_asym_inst_per_s",
    "campaign_inline_inst_per_s", "campaign_pool_inst_per_s",
    "job_latency_p50_s", "job_latency_tail_s", "jobs_per_s",
})
LEGS = ("engine", "campaign", "service")


def workload_for(args) -> Workload:
    if args.size == "tiny":
        return TINY[args.workload]
    base = WORKLOADS[args.workload]
    repeat = max(1, round(args.seconds / UNIT_SECONDS))
    return replace(
        base,
        engine_units=base.engine_units * repeat,
        campaign_units=base.campaign_units * repeat,
        service_jobs=base.service_jobs * repeat,
    )


# -- provenance and refusal --------------------------------------------------------


def settings_problems():
    """``REPRO_*`` settings away from their defaults (each changes what is measured)."""
    from repro import contracts, obs

    problems = []
    if contracts.mode() != "off":
        problems.append(f"REPRO_CONTRACTS={contracts.mode()!r} (default 'off')")
    if obs.mode() != "off":
        problems.append(f"REPRO_OBS={obs.mode()!r} (default 'off')")
    for name, default in (("REPRO_TRACE_FILE", ""), ("REPRO_KERNEL_BACKEND", "numpy"),
                          ("REPRO_KERNEL_THREADS", "1")):
        value = os.environ.get(name, "").strip()
        if value not in ("", default):
            problems.append(f"{name}={value!r} (default {default or 'unset'})")
    return problems


def git_commit() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def provenance(args, workload: Workload, nproc: int) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
        "sizes": asdict(workload),
    }


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest of its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


# -- the measured pass -------------------------------------------------------------


def schedule(counts: dict) -> list:
    """Unit kinds in run order, each kind's units spread evenly over the run.

    The machine's speed drifts by tens of percent over seconds, so a leg
    timed in one block would see a different machine than one timed in the
    next; spread out, every leg's median sees the whole run.
    """
    slots = [
        ((k + 0.5) / count, kind)
        for kind, count in counts.items()
        for k in range(count)
    ]
    return [kind for _, kind in sorted(slots)]


class Pass:
    """One run's work on all three legs, traced or not.

    ``windows`` holds, per leg, the ``(start, end)`` intervals of its timed
    calls (the engine's first and warm calls, ``run_campaign`` calls, job
    round trips); output checks and the set-up probes are outside them.
    """

    def __init__(self, workload: Workload, seed: int, inputs_file: str, scratch: str, tally,
                 nproc: int, tracer=None, spans_dir=None) -> None:
        import speed
        import workloads

        self.workload = workload
        self.inputs_file = inputs_file
        self.tally = tally
        self.nproc = nproc
        self.tracer = tracer
        self.spans_dir = spans_dir
        self.env = workloads.child_env()
        self.windows = {leg: [] for leg in LEGS}
        self.cold = []
        self.daemon_start_s = float("nan")
        self.speed = speed.SpeedProbe()
        instances, campaign_seed = workloads.load_inputs(inputs_file)
        self.engine = workloads.EngineLeg(instances, workload.engine_per_type, workload.engine_call)
        self.campaign = workloads.CampaignLeg(
            campaign_seed, workload.campaign_per_cell, workload.campaign_shard, scratch,
        )
        spans_file = os.path.join(spans_dir, "daemon.jsonl") if tracer else None
        daemon = workloads.Daemon(os.path.join(scratch, "service"), self.env, spans_file)
        self.service = workloads.ServiceLeg(
            seed, workload.service_per_cell, workload.service_shard, daemon, tracer,
        )

    def leg_seconds(self, leg: str) -> float:
        return sum(end - start for start, end in self.windows[leg])

    @property
    def seconds(self) -> float:
        return sum(self.leg_seconds(leg) for leg in LEGS)

    def start_daemon(self) -> None:
        self.daemon_start_s = self.service.daemon.start()

    def stop_daemon(self) -> None:
        if self.service.daemon.process is not None:
            code = self.service.daemon.stop()
            self.tally.record(code == 0, f"service: daemon drain exit code {code}")

    def _probe_cold(self) -> None:
        import workloads

        report = workloads.cold_engine_call(self.inputs_file, self.workload.engine_call, self.tally, self.env)
        if report is not None:
            self.cold.append(report)

    def run(self, probes: bool) -> None:
        """The engine's first call, then every unit of the workload, interleaved.

        ``probes`` adds the cold-interpreter probes of the untraced run to the
        schedule.
        """
        tally = self.tally
        workload = self.workload
        counts = {
            "engine": workload.engine_units,
            "campaign": workload.campaign_units,
            "service": workload.service_jobs,
        }
        if probes:
            counts["cold"] = workload.cold_children
        self.speed.probe()
        self.windows["engine"] += self.engine.warm_up(tally)
        for kind in schedule(counts):
            self.speed.probe()
            if kind == "engine":
                self.windows["engine"] += self.engine.unit(tally)
            elif kind == "campaign":
                if self.tracer is not None:
                    os.environ[SPANS_ENV] = self.spans_dir
                try:
                    self.windows["campaign"] += self.campaign.unit(tally, self.nproc)
                finally:
                    os.environ.pop(SPANS_ENV, None)
            elif kind == "service":
                self.windows["service"] += self.service.unit(tally)
            else:
                self._probe_cold()

    def check(self) -> None:
        """Event-engine parity on the fixed sub-sample (outside the timed pass)."""
        self.engine.check_parity(self.tally, PARITY_PER_TYPE)

    def print_shares(self) -> None:
        """Each leg's share of the timed pass (the workload's traffic mix)."""
        total = self.seconds
        shares = ", ".join(
            f"{leg} {self.leg_seconds(leg):.3f} s ({self.leg_seconds(leg) / total:.1%})"
            for leg in LEGS
        )
        print(f"timed pass {total:.3f} s: {shares}")


# -- end-to-end metrics (--trace 0) --------------------------------------------------


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def median(values):
    return statistics.median(values) if values else float("nan")


def end_to_end(bench: Pass, tally) -> dict:
    import workloads

    cold = bench.cold
    engine = bench.engine.samples
    campaign = bench.campaign.samples
    service = bench.service.samples
    for report in cold:
        tally.record(
            report["verdicts"] == engine.sym_verdicts,
            "engine: cold call in a fresh process differs from this process's calls",
        )
    percentile, tail = workloads.tail_percentile(service.latencies) if service.latencies else (50, float("nan"))
    jobs = len(service.latencies)
    raw = {
        "setup_s": (median([report["setup"] for report in cold]), "s"),
        "cold_call_s": (median([report["cold"] for report in cold]), "s"),
        "warm_sym_inst_per_s": (median(engine.sym_rates), "inst/s"),
        "warm_asym_inst_per_s": (median(engine.asym_rates), "inst/s"),
        "campaign_inline_inst_per_s": (median(campaign.inline_rates), "inst/s"),
        "campaign_pool_inst_per_s": (median(campaign.pool_rates), "inst/s"),
        "job_latency_p50_s": (median(service.latencies), "s"),
        "job_latency_tail_s": (tail, "s"),
        "jobs_per_s": (jobs / sum(service.latencies) if jobs else float("nan"), "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    factor = bench.speed.time_factor()

    def scaled(name, value, unit):
        if name not in SCALED:
            return value
        return value * factor if unit == "s" else value / factor

    metrics = {name: metric(scaled(name, value, unit), unit) for name, (value, unit) in raw.items()}
    print(f"setup_s, cold_call_s: median of {len(cold)} fresh interpreters "
          "(interpreter start, imports and reading the instances; then the first pass)")
    print(f"warm_*_inst_per_s: median of {len(engine.sym_rates)} passes over "
          f"{len(bench.engine.instances)} instances in {len(bench.engine.plan)} calls each")
    print(f"campaign_*_inst_per_s: median of {len(campaign.inline_rates)} runs of "
          f"{bench.campaign.spec.total_instances} instances in shards of "
          f"{bench.campaign.spec.shard_size}, pool workers={bench.nproc}")
    print(f"job_latency_p50_s: {jobs} samples; job_latency_tail_s is p{percentile}; "
          "jobs_per_s: one closed-loop client")
    print(f"daemon start-up (launch to /readyz 200): {bench.daemon_start_s:.4f} s")
    print(f"host speed: reference kernel median {bench.speed.kernel_seconds():.5f} s over "
          f"{len(bench.speed.samples)} probes; factor {factor:.4f} applied to "
          + ", ".join(sorted(SCALED)))
    for name, entry in metrics.items():
        how = f"raw {raw[name][0]:.6g}, host-speed scaled" if name in SCALED else "not scaled"
        print(f"{name} = {entry['value']:.6g} {entry['unit']} ({how})")
    return metrics


# -- per-layer metrics (--trace 1) ----------------------------------------------------


def union(intervals):
    """The union of ``(start, end)`` intervals as sorted, disjoint intervals."""
    merged = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    return merged


def covered(windows, intervals) -> float:
    """Seconds of ``windows`` that lie inside the union of ``intervals``."""
    merged = union(intervals)
    total = 0.0
    for start, end in windows:
        for low, high in merged:
            if high > start and low < end:
                total += min(high, end) - max(low, start)
    return total


def queue_waits(windows, spans):
    """Per service job: the end of the daemon's handling of its first POST to
    its dispatch (``service.job`` start).  Time queued in the journal until the
    scheduler's next poll picks the job up."""
    http = sorted((span["start"], span["end"]) for span in spans if span["name"] == "service.http")
    dispatches = sorted(span["start"] for span in spans if span["name"] == "service.job")
    waits = []
    for start, end in windows:
        posted = next((high for low, high in http if low >= start and high <= end), None)
        dispatched = next((t for t in dispatches if start <= t <= end), None)
        if posted is not None and dispatched is not None and dispatched > posted:
            waits.append((posted, dispatched))
    return waits


def coverage(spans, bench: Pass, waits) -> dict:
    """Per leg: the share of its timed windows inside the program's spans.

    The engine and campaign legs are covered by this process's outermost
    program spans (the benchmark's own ``client.*`` spans do not count).  A
    service job is covered by the daemon's handling of its requests, the
    job's run and its wait in the queue between the two.
    """
    import tracer as tracing

    own = [
        (span["start"], span["end"]) for span in spans
        if span["pid"] == os.getpid() and span["parent"] == -1 and span["name"] in tracing.PROGRAM_SPANS
    ]
    daemon = [
        (span["start"], span["end"]) for span in spans if span["name"] in ("service.request", "service.job")
    ]
    intervals = {"engine": own, "campaign": own, "service": daemon + waits}
    return {
        leg: covered(bench.windows[leg], intervals[leg]) / bench.leg_seconds(leg)
        if bench.leg_seconds(leg) else 0.0
        for leg in LEGS
    }


def per_layer(spans, bench: Pass, shares: dict, waits) -> dict:
    """Per-layer metrics of the traced pass, in this host's seconds (not scaled)."""

    def self_s(*names):
        return sum(span["self"] for span in spans if span["name"] in names)

    def total_s(name):
        return sum(span["end"] - span["start"] for span in spans if span["name"] == name)

    def count(name):
        return sum(1 for span in spans if span["name"] == name)

    def value_sum(name):
        return sum(span["value"] or 0 for span in spans if span["name"] == name)

    campaign = bench.campaign.samples
    service = bench.service.samples
    windows = value_sum("sim.build_windows")
    pool_wall = total_s("campaign.pool")
    latency = sum(service.latencies)
    campaign_wall = sum(service.campaign_wall)
    values = {
        "algorithms.program_s": (self_s("algorithms.program"), "s"),
        "algorithms.program_calls": (count("algorithms.program"), "count"),
        "motion.build_s": (self_s("motion.build"), "s"),
        "motion.compile_s": (self_s("motion.compile"), "s"),
        "motion.rows_compiled": (value_sum("motion.compile"), "count"),
        "sim.table_for_s": (self_s("sim.table_for"), "s"),
        "sim.build_windows_s": (self_s("sim.build_windows"), "s"),
        "sim.rounds": (count("sim.build_windows"), "count"),
        "sim.windows": (windows, "count"),
        "sim.meets_per_window": (value_sum("sim.engine") / windows if windows else 0.0, "ratio"),
        "sim.solve_round_s": (self_s("sim.solve_round"), "s"),
        "sim.engine_other_s": (self_s("sim.engine"), "s"),
        "geometry.kernel_s": (self_s("geometry.kernel"), "s"),
        "geometry.kernel_calls": (count("geometry.kernel"), "count"),
        "analysis.sample_s": (self_s("analysis.sample"), "s"),
        "parallel.runner_s": (self_s("parallel.runner"), "s"),
        "campaign.run_s": (self_s("campaign.run"), "s"),
        "campaign.collate_s": (self_s("campaign.collate"), "s"),
        "campaign.write_shard_s": (total_s("campaign.write_shard"), "s"),
        "campaign.shards": (count("campaign.write_shard"), "count"),
        "campaign.lease_s": (total_s("campaign.lease"), "s"),
        "campaign.shard_attempts": (campaign.shard_attempts + service.shard_attempts, "count"),
        "campaign.pool_wall_s": (pool_wall, "s"),
        "campaign.pool_busy_s": (campaign.pool_busy, "s"),
        "campaign.pool_idle_s": (bench.nproc * pool_wall - campaign.pool_busy, "s"),
        "service.submit_s": (total_s("client.submit"), "s"),
        "service.request_s": (self_s("service.request"), "s"),
        "service.http_s": (self_s("service.http"), "s"),
        "service.journal_s": (self_s("service.journal"), "s"),
        "service.queue_wait_s": (sum(end - start for start, end in waits), "s"),
        "service.campaign_wall_s": (campaign_wall, "s"),
        "service.overhead_s": (latency - campaign_wall, "s"),
        "service.status_polls": (service.polls, "count"),
        "trace.wall_s": (bench.seconds, "s"),
        "trace.coverage": (min(shares.values()), "ratio"),
    }
    return {name: metric(value, unit) for name, (value, unit) in values.items()}


def print_self_times(spans, wall: float) -> None:
    totals = {}
    for span in spans:
        entry = totals.setdefault(span["name"], [0.0, 0])
        entry[0] += span["self"]
        entry[1] += 1
    print(f"self times over all traced processes (this process's pass: {wall:.3f} s)")
    for name, (seconds, calls) in sorted(totals.items(), key=lambda item: -item[1][0]):
        print(f"  {name:<22s} {seconds:10.4f} s  {calls:8d} calls")


# -- main ------------------------------------------------------------------------------


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--size", default="full", choices=("full", "tiny"))
    parser.add_argument(
        "--pass-only", metavar="INPUTS_JSON", default=None,
        help="run only the untraced measured pass on these inputs and "
             "print its seconds (the traced run's reference for the tracing overhead)",
    )
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def untraced_pass_seconds(args, inputs_file: str) -> float:
    """The same pass untraced, in a fresh interpreter: its seconds."""
    import workloads

    argv = [
        sys.executable, os.path.abspath(__file__), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
        "--size", args.size, "--pass-only", inputs_file,
    ]
    proc = subprocess.run(argv, env=workloads.child_env(), capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"untraced reference pass failed: {proc.stderr[-600:]}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["pass_seconds"])


def make_inputs(args, workload: Workload, path: str) -> None:
    """Write the seed's inputs to ``path`` from a separate interpreter."""
    import workloads

    argv = [
        sys.executable, os.path.join(BENCH_DIR, "inputs.py"), str(args.seed),
        str(workload.engine_per_type), str(workload.campaign_per_cell),
        str(workload.campaign_shard), path,
    ]
    proc = subprocess.run(argv, env=workloads.child_env(), capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"input generation failed: {proc.stderr[-600:]}")


def traced(args, bench: Pass, spans_dir: str, recorder, tally) -> dict:
    import tracer as tracing

    bench.start_daemon()
    bench.run(probes=False)
    bench.stop_daemon()
    recorder.write(os.path.join(spans_dir, "main.jsonl"))
    files = [os.path.join(spans_dir, name) for name in sorted(os.listdir(spans_dir))]
    spans = tracing.read_spans(files)
    waits = queue_waits(bench.windows["service"], spans)
    shares = coverage(spans, bench, waits)
    for leg, share in shares.items():
        tally.record(share >= COVERAGE_FLOOR,
                     f"trace: program spans cover {share:.3f} of the {leg} leg, below {COVERAGE_FLOOR}")
    untraced = untraced_pass_seconds(args, bench.inputs_file)
    metrics = per_layer(spans, bench, shares, waits)
    print_self_times(spans, bench.seconds)
    print(f"spans written to {os.path.relpath(spans_dir, ROOT)}/ ({len(spans)} spans)")
    bench.print_shares()
    print("span coverage per leg: " + ", ".join(f"{leg} {share:.4f}" for leg, share in shares.items()))
    print(f"tracing overhead: {bench.seconds:.3f} s traced - {untraced:.3f} s untraced "
          f"= {bench.seconds - untraced:.3f} s (one untraced pass in a fresh interpreter)")
    campaign, service = bench.campaign.samples, bench.service.samples
    print(f"campaign shards retried: {campaign.shards_retried + service.shards_retried}, "
          f"worker restarts: {campaign.worker_restarts + service.worker_restarts}")
    for name, entry in metrics.items():
        print(f"{name} = {entry['value']:.6g} {entry['unit']}")
    return metrics


def run(args) -> int:
    import tracer as tracing
    import workloads

    nproc = workloads.nproc()
    workload = workload_for(args)
    tally = workloads.Tally()
    os.makedirs(WORK_DIR, exist_ok=True)
    scratch = os.path.join(WORK_DIR, f"run-{os.getpid()}")
    os.makedirs(scratch)
    bench = None
    try:
        inputs_file = args.pass_only
        if inputs_file is None:
            print("provenance: " + json.dumps(provenance(args, workload, nproc), sort_keys=True))
            inputs_file = os.path.join(scratch, "inputs.json")
            make_inputs(args, workload, inputs_file)
        if args.trace:
            spans_dir = os.path.join(WORK_DIR, "spans", f"{args.workload}-seed{args.seed}-{os.getpid()}")
            os.makedirs(spans_dir)
            tracing.import_layers()
            recorder = tracing.Tracer()
            tracing.install(recorder)
            bench = Pass(workload, args.seed, inputs_file, scratch, tally, nproc, recorder, spans_dir)
            metrics = traced(args, bench, spans_dir, recorder, tally)
        else:
            bench = Pass(workload, args.seed, inputs_file, scratch, tally, nproc)
            bench.start_daemon()
            bench.run(probes=not args.pass_only)
            bench.stop_daemon()
            if args.pass_only:
                print(json.dumps({"pass_seconds": bench.seconds}))
                return 0 if tally.failed == 0 else 1
            bench.print_shares()
            metrics = end_to_end(bench, tally)
        bench.check()
    finally:
        if bench is not None:
            bench.stop_daemon()
        shutil.rmtree(scratch, ignore_errors=True)
    error_rate = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"error_rate = {error_rate:.6g} ratio ({tally.failed}/{tally.attempted})")
    correct = tally.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


def stop_resource_tracker() -> None:
    """Stop the resource tracker that spawning the campaign pool started, and
    wait for it.  It would otherwise outlive this process until it notices
    the closed pipe, and be reaped by whoever inherits it."""
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


def _terminate(signum, frame) -> None:
    # Unwind through the ``finally`` blocks, which drain the daemon.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no src/repro under {ROOT}: run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, BENCH_DIR)
    problems = settings_problems()
    if problems:
        print("error: refusing to run, results would not be comparable: " + "; ".join(problems),
              file=sys.stderr)
        return 2
    try:
        return run(args)
    finally:
        stop_resource_tracker()


if __name__ == "__main__":
    raise SystemExit(main())
