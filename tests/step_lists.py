"""The one-step reducts of every corpus process and term, as the CLI prints
them.

Prints `eagerpi step FILE NAME --all --json` for every definition of
`corpus/movie.spi`, `vm.spi`, `generated.spi`, `corr.lc` and `ex32.lc`,
each definition's lines after a header line naming it. The order of the
steps is CLI output, so two runs under different hash seeds must print the
same text:

    PYTHONHASHSEED=0 PYTHONPATH=src python tests/step_lists.py > a.txt
    PYTHONHASHSEED=1 PYTHONPATH=src python tests/step_lists.py > b.txt
    diff a.txt b.txt
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from eagerpi.cli import main as cli  # noqa: E402
from tests.conftest import corpus_path, load_lc, load_spi  # noqa: E402

FILES = ("movie.spi", "vm.spi", "generated.spi", "corr.lc", "ex32.lc")


def main():
    for file in FILES:
        load = load_lc if file.endswith(".lc") else load_spi
        for name in load(file).defs:
            print(f"-- {file} {name}", flush=True)
            code = cli(["step", corpus_path(file), name, "--all", "--json"])
            if code:
                return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
