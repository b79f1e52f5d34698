"""A fresh interpreter's first engine pass (the cold measurement).

Usage: ``python perfbench/cold.py INPUTS_JSON CALL_SIZE`` with the
checkout's ``src`` on ``PYTHONPATH``.  Prints one JSON line: ``ready``
(``perf_counter`` after imports and reading the instances), ``done`` (after
the first ``simulate_batch`` pass over the batch, ``CALL_SIZE`` instances
per call) and the pass's verdict digest.
"""

import json
import sys
import time

from workloads import calls, load_inputs, run_in_calls, run_sym, verdicts


def main() -> None:
    instances, _ = load_inputs(sys.argv[1])
    ready = time.perf_counter()
    results = run_in_calls(calls(len(instances), int(sys.argv[2])), run_sym, instances)
    done = time.perf_counter()
    print(json.dumps({"ready": ready, "done": done, "verdicts": verdicts(results)}))


if __name__ == "__main__":
    main()
