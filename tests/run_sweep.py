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
graphs at bound 64 take, and the first faults if there are any.

It then runs the same checks on untyped processes: generated ones with
forwarders between bound names put beside some of their parts and some
occurrences of bound names renamed to other bound names, kept only where
`typecheck` rejects them. There a step could free a bound name, which no
step may do; the one-order search must still find the full graph's
normal forms.

It exits 1 on a fault, or if no `id` or no `repl` D-step is taken on the
typed processes, so that neither rule stops firing unnoticed.

    PYTHONPATH=src python tests/run_sweep.py
"""

import os
import random
import sys
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from eagerpi.gen import generate_corpus  # noqa: E402
from eagerpi.process import (BINDING, Forward, Par,  # noqa: E402
                             _children, _with_children)
from eagerpi.typecheck import typechecks  # noqa: E402
from tests.test_dstep import (diamond_faults, differences,  # noqa: E402
                              dstep_rules)

SEEDS = range(11, 21)
COUNT = 100
UNTYPED_SEEDS = range(31, 39)
UNTYPED_COUNT = 100
# Untyped states can grow without end (a forwarder beside a server's body
# is copied with each replica), and scope-normalizing them gets slow, so
# the untyped checks stop at bound 12.
UNTYPED_BOUND = 12


def untyped(p, rng, bound=()):
    """p with a forwarder between two of the names bound above a part
    put beside it (odds 1 in 6 a part), and an occurrence of a bound name
    in a prefix or forwarder renamed to another bound name (1 in 8)."""
    names, binder, _ = BINDING[type(p)]
    inner = bound + ((getattr(p, binder),) if binder else ())
    kids = []
    for c in _children(p):
        c = untyped(c, rng, inner)
        if len(inner) > 1 and rng.random() < 1 / 6:
            c = Par(c, Forward(*rng.sample(inner, 2)))
        kids.append(c)
    changed = {f: rng.choice(bound) for f in names
               if f != "deps" and getattr(p, f) in bound
               and rng.random() < 1 / 8}
    return _with_children(p, kids, changed)


def untyped_corpus():
    """The mutated generated processes that `typecheck` rejects."""
    rng = random.Random(0)
    for seed in UNTYPED_SEEDS:
        for i, p in enumerate(generate_corpus(seed, UNTYPED_COUNT)):
            q = untyped(p, rng)
            if not typechecks(q, {}):
                yield f"untyped seed {seed} #{i}", q


def sweep(named, bound=64):
    """The checks on each (name, process), diamonds at `bound` and graphs
    at 4, 8 and `bound`; prints the number of processes, diamond pairs,
    states deeper, graphs complete where the full one is cut, D-steps by
    rule and the first faults, and returns the faults and the rules."""
    faults, pairs, deeper, completed, count = [], 0, 0, 0, 0
    rules = Counter()
    for name, p in named:
        count += 1
        found, n = diamond_faults(name, p, bound)
        faults += found
        pairs += n
        for b in (4, 8, bound):
            found, d, done = differences(name, p, b)
            faults += found
            deeper += len(d)
            completed += done
        rules += dstep_rules(p, bound)
    print(f"{count} processes, {pairs} diamond pairs, {deeper} states "
          f"deeper, {completed} complete where the full graph is cut, "
          f"{len(faults)} faults")
    print("D-steps taken: " + ", ".join(f"{rule} {rules[rule]}"
                                        for rule in sorted(rules)))
    for fault in faults[:5]:
        print("  " + fault)
    return faults, rules


def main():
    faults, rules = sweep((f"seed {seed} #{i}", p) for seed in SEEDS
                          for i, p in enumerate(generate_corpus(seed, COUNT)))
    print(f"untyped, at bound {UNTYPED_BOUND}:")
    untyped_faults, _ = sweep(untyped_corpus(), UNTYPED_BOUND)
    if not (rules["id"] and rules["repl"]):
        print("  no id or no repl D-step was taken")
        return 1
    return 1 if faults or untyped_faults else 0


if __name__ == "__main__":
    sys.exit(main())
