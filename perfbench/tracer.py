"""Span tracing from outside the program: wrap the public calls of each layer.

The benchmark never edits ``src/repro``.  For a traced run it replaces a fixed
set of public functions and methods with thin wrappers that record one span
per call -- name, start, end, parent span and a shared id per shard or job --
into per-thread in-memory lists.  The benchmark process writes its spans out
as JSON lines when the run ends; traced worker and daemon processes append
theirs each time an outermost span ends.

A span's *self* time is its duration minus the durations of its direct
children; the per-layer metrics are sums of self times by span name, plus the
counts the wrappers read off return values (windows built, instances met,
trajectory rows compiled).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import sys
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional

def _shard_id(args, kwargs):
    """The shard of ``f(spec, shard)`` and ``method(self, shard)`` calls."""
    return args[1].shard_id


def _lease_id(args, kwargs):
    """``LeaseManager.acquire(self, shard_id)``."""
    return args[1]


def _store_id(args, kwargs):
    """``run_campaign(directory, ...)``: a service job's store is named by its digest."""
    return os.path.basename(os.path.normpath(args[0]))


def _job_id(args, kwargs):
    """``Scheduler._run_job(self, job)``: a job is named by its spec digest."""
    return args[1].digest


def _met_count(args, kwargs, result, before):
    return sum(1 for outcome in result if outcome.met)


def _windows_count(args, kwargs, result, before):
    return len(result)


def _rows_compiled_before():
    from repro.motion.compiler import rows_compiled_total

    return rows_compiled_total()


def _rows_compiled_delta(args, kwargs, result, before):
    from repro.motion.compiler import rows_compiled_total

    return rows_compiled_total() - before


#: Each wrapped call: (module, attribute path, span name, id extractor, pre,
#: value extractor).  The id extractor maps ``(args, kwargs)`` to the shard
#: or store id the span and its children share; ``pre`` runs before the call
#: and the value extractor gets ``(args, kwargs, result, pre's result)``; its
#: value is stored on the span.
WRAPPED = (
    ("repro.algorithms.almost_universal", "phase_instruction_list", "algorithms.program", None, None, None),
    ("repro.motion.compiler", "LocalProgramBuilder.ensure_time", "motion.build", None, None, None),
    ("repro.motion.compiler", "IncrementalTableCompiler.table", "motion.compile", None,
     _rows_compiled_before, _rows_compiled_delta),
    ("repro.sim.rounds", "ProgramSource.table_for", "sim.table_for", None, None, None),
    ("repro.sim.rounds", "build_windows", "sim.build_windows", None, None, _windows_count),
    ("repro.sim.rounds", "solve_round", "sim.solve_round", None, None, None),
    ("repro.sim.batch", "simulate_batch", "sim.engine", None, None, _met_count),
    ("repro.sim.batch_asymmetric", "simulate_batch_asymmetric", "sim.engine", None, None, _met_count),
    ("repro.geometry.closest_approach", "fused_window_batch", "geometry.kernel", None, None, None),
    ("repro.geometry.closest_approach", "fused_window_batch_dual", "geometry.kernel", None, None, None),
    ("repro.campaign.shards", "shard_instances", "analysis.sample", _shard_id, None, None),
    ("repro.parallel.runner", "BatchRunner.run", "parallel.runner", None, None, None),
    ("repro.campaign.store", "records_to_columns", "campaign.collate", None, None, None),
    ("repro.campaign.store", "CampaignStore.write_shard", "campaign.write_shard", _shard_id, None, None),
    ("repro.campaign.leases", "LeaseManager.acquire", "campaign.lease", _lease_id, None, None),
    ("repro.campaign.executor", "ShardExecutor.run", "campaign.pool", None, None, None),
    ("repro.campaign.orchestrator", "run_campaign", "campaign.run", _store_id, None, None),
    ("repro.service.api", "ServiceRequestHandler.handle", "service.request", None, None, None),
    ("repro.service.api", "ServiceRequestHandler.do_POST", "service.http", None, None, None),
    ("repro.service.api", "ServiceRequestHandler.do_GET", "service.http", None, None, None),
    ("repro.service.queue", "JobQueue._append", "service.journal", None, None, None),
    ("repro.service.scheduler", "Scheduler._run_job", "service.job", _job_id, None, None),
)

#: Span names of the program's own calls; the benchmark's own spans (the
#: client side of the service leg) are named ``client.*``.
PROGRAM_SPANS = frozenset(name for _, _, name, *_ in WRAPPED)

#: Modules whose ``from x import f`` bindings must be rebound to the wrapper.
_BINDING_PREFIXES = ("repro",)


class Tracer:
    """In-memory span store: one list per thread, merged when written out.

    A span is ``[name, start, end, parent, trace_id, value]``; ``parent`` is
    the index of the enclosing span in the same thread's list (-1 at top
    level).  ``trace_id`` is set by spans that know their shard or job and is
    inherited by their children and later siblings in the same thread.
    """

    def __init__(self, flush_path: Optional[str] = None) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: List[List[list]] = []
        #: When set, a thread's spans are appended to this file and dropped
        #: each time its outermost span ends -- used in worker and daemon
        #: processes, which may be stopped without a chance to write at exit.
        self._flush_path = flush_path

    def _state(self):
        state = self._local
        if not hasattr(state, "spans"):
            state.spans = []
            state.stack = []
            state.trace_id = None
            with self._lock:
                self._threads.append(state.spans)
        return state

    def begin(self, name: str, trace_id: Optional[str] = None) -> list:
        state = self._state()
        if trace_id is not None:
            state.trace_id = trace_id
        parent = state.stack[-1] if state.stack else -1
        record = [name, time.perf_counter(), 0.0, parent, state.trace_id, None]
        state.stack.append(len(state.spans))
        state.spans.append(record)
        return record

    def end(self, record: list, value: Any = None) -> None:
        record[2] = time.perf_counter()
        record[5] = value
        state = self._local
        state.stack.pop()
        if self._flush_path is not None and not state.stack:
            lines = [json.dumps(span) + "\n" for span in _finished(state.spans)]
            state.spans.clear()
            with self._lock, open(self._flush_path, "a") as handle:
                handle.writelines(lines)

    @contextlib.contextmanager
    def span(self, name: str, trace_id: Optional[str] = None):
        """A span around a block of the benchmark's own code."""
        record = self.begin(name, trace_id)
        try:
            yield
        finally:
            self.end(record)

    def spans(self) -> List[Dict[str, Any]]:
        """Every finished span with its self time, across threads."""
        with self._lock:
            threads = [list(spans) for spans in self._threads]
        return [span for spans in threads for span in _finished(spans)]

    def write(self, path: str) -> None:
        """Append every finished span to ``path`` as JSON lines."""
        with open(path, "a") as handle:
            for span in self.spans():
                handle.write(json.dumps(span) + "\n")


def _finished(spans: List[list]) -> List[Dict[str, Any]]:
    """One thread's finished spans as dicts, each with its self time."""
    child_total = [0.0] * len(spans)
    for record in spans:
        if record[2] and record[3] >= 0:
            child_total[record[3]] += record[2] - record[1]
    out = []
    for index, record in enumerate(spans):
        if not record[2]:
            continue  # still open (a thread cut off mid-call)
        out.append({
            "name": record[0],
            "start": record[1],
            "end": record[2],
            "parent": record[3],
            "id": record[4],
            "self": record[2] - record[1] - child_total[index],
            "value": record[5],
            "pid": os.getpid(),
        })
    return out


def _wrap(tracer: Tracer, fn: Callable, name: str, id_fn, pre, value_fn) -> Callable:
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        trace_id = id_fn(args, kwargs) if id_fn is not None else None
        before = pre() if pre is not None else None
        record = tracer.begin(name, trace_id)
        value = None
        try:
            result = fn(*args, **kwargs)
            if value_fn is not None:
                value = value_fn(args, kwargs, result, before)
            return result
        finally:
            tracer.end(record, value)

    traced.__perfbench_original__ = fn
    return traced


def install(tracer: Tracer) -> None:
    """Wrap every function in :data:`WRAPPED`, rebinding imported aliases too.

    Methods are replaced on their class (an inherited one too, on the named
    class only).  Module-level functions are replaced
    in every loaded ``repro`` module that bound the same object with
    ``from ... import``, so call sites that resolved the name at import time
    also reach the wrapper.
    """
    for module_name, path, name, id_fn, pre, value_fn in WRAPPED:
        module = importlib.import_module(module_name)
        owner_path, _, attr = path.rpartition(".")
        owner = module
        for part in owner_path.split(".") if owner_path else ():
            owner = getattr(owner, part)
        if owner is module:
            original = getattr(module, attr)
        else:
            # A method the class inherits is wrapped on the class itself.
            original = owner.__dict__[attr] if attr in owner.__dict__ else getattr(owner, attr)
        if getattr(original, "__perfbench_original__", None) is not None:
            continue
        wrapper = _wrap(tracer, original, name, id_fn, pre, value_fn)
        setattr(owner, attr, wrapper)
        if owner is module:
            for loaded_name, loaded in list(sys.modules.items()):
                if loaded is None or not loaded_name.startswith(_BINDING_PREFIXES):
                    continue
                for key, value in list(vars(loaded).items()):
                    if value is original:
                        setattr(loaded, key, wrapper)


def import_layers() -> None:
    """Import every module whose calls are wrapped (before :func:`install`)."""
    for module_name, *_ in WRAPPED:
        importlib.import_module(module_name)
    importlib.import_module("repro")
    importlib.import_module("repro.campaign")
    importlib.import_module("repro.sim")


def read_spans(paths: Iterable[str]) -> List[Dict[str, Any]]:
    spans: List[Dict[str, Any]] = []
    for path in paths:
        with open(path) as handle:
            spans.extend(json.loads(line) for line in handle if line.strip())
    return spans
