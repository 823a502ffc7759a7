"""Seeded sweep of scope-rewrite walks, beyond the tier-1 sample.

Runs the check of `test_scope_normal.py` (a state and the same state after
six random `scope_rewrites` get equal normalized keys) with five walks
from every state explored from the `.spi` corpus (bound 64) and three from
every state of the translations of all `corr.lc` terms and of ex32's `M`
(bound 30). It prints the number of walks, and the first split if there
is one, and exits 1 on that split.

    PYTHONPATH=src python tests/scope_sweep.py
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from eagerpi.printer import process_text  # noqa: E402
from tests.conftest import spi_corpus, translations  # noqa: E402
from tests.test_scope_normal import splits, states  # noqa: E402


def main():
    corr = [*translations().values(),
            *translations(("M",), "ex32.lc").values()]
    runs = ((states(spi_corpus().values(), 64), 5), (states(corr, 30), 3))
    walks = 0
    for found, per_state in runs:
        walks += len(found) * per_state
        for state, end in splits(found, per_state, 6, seed=1):
            print(f"split after {walks} walks at most:")
            print("  state:    ", process_text(state, canonical=True))
            print("  rewritten:", process_text(end, canonical=True))
            return 1
    print(f"{walks} walks, no split")
    return 0


if __name__ == "__main__":
    sys.exit(main())
