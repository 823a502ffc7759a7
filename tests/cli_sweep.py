"""Sweep of the command line's exit-code contract, beyond the tier-1 tests.

Runs every command on every definition of `corpus/movie.spi`, `vm.spi`,
`generated.spi`, `corr.lc` and `ex32.lc` at a small bound and depth
(`bisim` compares each definition with itself), then the hostile inputs
of `test_cli.hostile_inputs`. It prints the number of runs and the first
faults, and exits 1 if a run raised (a traceback), exited outside 0-3,
or, on a hostile input, did not exit 2 with one line on stderr.

    PYTHONPATH=src python tests/cli_sweep.py
"""

import contextlib
import io
import os
import sys
import tempfile
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from eagerpi.cli import main as cli  # noqa: E402
from tests.conftest import corpus_path, load_lc, load_spi  # noqa: E402
from tests.test_cli import hostile_inputs  # noqa: E402

FILES = ("movie.spi", "vm.spi", "generated.spi", "corr.lc", "ex32.lc")
SMALL = "3"


def corpus_runs():
    """The command lines of every command on every corpus definition."""
    for file in FILES:
        path = corpus_path(file)
        lc = file.endswith(".lc")
        for name in (load_lc if lc else load_spi)(file).defs:
            yield ["check", path, "--name", name]
            yield ["step", path, name]
            if not lc:
                yield ["step", path, name, "--seed", "1", "--bound", SMALL]
            yield ["run", path, name, "--bound", SMALL]
            if lc:
                yield ["translate", path, name]
                yield ["correspond", path, name, "--bound", SMALL]
            else:
                yield ["bisim", path, name, name, "--depth", SMALL]


def fault(argv, hostile):
    """What went wrong when running argv, or None."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli(argv)
    except Exception:
        return traceback.format_exc()
    if hostile and (code != 2 or len(err.getvalue().splitlines()) != 1):
        return f"exit {code}, stderr {err.getvalue()!r}"
    if code not in (0, 1, 2, 3):
        return f"exit {code}"
    return None


def main():
    with tempfile.TemporaryDirectory() as tmp:
        cases = [(argv, False) for argv in corpus_runs()]
        cases += [(argv, True) for argv in hostile_inputs(tmp)]
        faults = [(argv, f) for argv, hostile in cases
                  if (f := fault(argv, hostile))]
    print(f"{len(cases)} runs, {len(faults)} faults")
    for argv, f in faults[:5]:
        print(" ".join(argv))
        print(f)
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
