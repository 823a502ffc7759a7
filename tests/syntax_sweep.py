"""Differential sweep of the concrete syntax, beyond the tier-1 oracle.

Runs the comparison of `test_syntax_oracle.py` (the parser against
`reference_parser.py`: the same trees and name ids, or the same error) on
every cut after a token and every deletion of one token of each line of
`corpus/generated.spi` and of the benchmark's lambda family script, each
line parsed on its own: about 22,000 cases. It prints the number of cases
and the first differences, and exits 1 if there is any.

    PYTHONPATH=src python tests/syntax_sweep.py
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from tests.conftest import perfbench_workloads  # noqa: E402
from tests.test_syntax_oracle import (difference, mangled,  # noqa: E402
                                      read_corpus)


def main():
    inputs = (("spi", read_corpus("generated.spi")),
              ("lc", perfbench_workloads().lambda_script()))
    cases, diffs = 0, []
    for kind, text in inputs:
        for line in text.splitlines():
            for case in mangled(line):
                cases += 1
                d = difference(kind, case)
                if d:
                    diffs.append(d)
    print(f"{cases} cases, {len(diffs)} differences")
    for d in diffs[:5]:
        print(d)
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
