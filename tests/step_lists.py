"""The one-step reducts and the normal forms of every corpus process and
term, as the CLI prints them.

Prints `eagerpi step FILE NAME --all --json` for every definition of
`corpus/movie.spi`, `vm.spi`, `generated.spi`, `corr.lc` and `ex32.lc`,
and `eagerpi run FILE NAME --json` for every definition of the `.spi`
files, each command's lines after a header line naming it. The order of
the steps and of the normal forms is CLI output, so two runs under
different hash seeds must print the same text:

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
            commands = [["step", corpus_path(file), name, "--all", "--json"]]
            if file.endswith(".spi"):
                commands.append(["run", corpus_path(file), name, "--json"])
            for args in commands:
                print(f"-- {file} {name} {args[0]}", flush=True)
                code = cli(args)
                if code:
                    return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
