"""Seeded sweep of the one-order search of exhaustive `trace`, beyond the
tier-1 inputs.

Draws processes from `gen.generate_corpus` and runs on each the checks of
`test_dstep.py`: every D-step closes a one-step diamond with every other
step of its state (full graph at bound 64), and the reduced graph has the
full graph's normal forms at their depths and the same cause, or is
complete where the full graph is cut and has all its normal forms
(bounds 4, 8 and 64). It prints the number of processes, diamond pairs,
states that sit deeper in the reduced graph and reduced graphs complete
where the full one is cut, how many D-steps of each rule the reduced
graphs at bound 64 take, and the first faults if there are any. It exits
1 on a fault, or if no `id` or no `repl` D-step is taken, so that neither
rule stops firing unnoticed.

    PYTHONPATH=src python tests/run_sweep.py
"""

import os
import sys
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from eagerpi.gen import generate_corpus  # noqa: E402
from tests.test_dstep import (diamond_faults, differences,  # noqa: E402
                              dstep_rules)

SEEDS = range(11, 21)
COUNT = 100


def main():
    faults, pairs, deeper, completed, count = [], 0, 0, 0, 0
    rules = Counter()
    for seed in SEEDS:
        for i, p in enumerate(generate_corpus(seed, COUNT)):
            name = f"seed {seed} #{i}"
            count += 1
            found, n = diamond_faults(name, p, 64)
            faults += found
            pairs += n
            for bound in (4, 8, 64):
                found, d, done = differences(name, p, bound)
                faults += found
                deeper += len(d)
                completed += done
            rules += dstep_rules(p, 64)
    print(f"{count} processes, {pairs} diamond pairs, {deeper} states "
          f"deeper, {completed} complete where the full graph is cut, "
          f"{len(faults)} faults")
    print("D-steps taken: " + ", ".join(f"{rule} {rules[rule]}"
                                        for rule in sorted(rules)))
    for fault in faults[:5]:
        print("  " + fault)
    if not (rules["id"] and rules["repl"]):
        print("  no id or no repl D-step was taken")
        return 1
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
