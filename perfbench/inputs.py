"""Generate a run's inputs from its seed, in a separate interpreter.

Usage: ``python perfbench/inputs.py SEED PER_TYPE CAMPAIGN_PER_CELL
CAMPAIGN_SHARD OUT_JSON`` with the checkout's ``src`` on ``PYTHONPATH``.
Writes the engine batch and the campaign spec seed, both chosen for
difficulty.  Screening the candidates runs the batch engine, which fills its
program caches; doing it here keeps the benchmark process cold until its
first timed call.
"""

import sys

from workloads import matched_campaign_seed, save_inputs, stratified_instances


def main() -> None:
    seed, per_type, per_cell, shard = (int(arg) for arg in sys.argv[1:5])
    out = sys.argv[5]
    save_inputs(
        out,
        stratified_instances(seed, per_type),
        matched_campaign_seed(seed, per_cell, shard),
    )


if __name__ == "__main__":
    main()
