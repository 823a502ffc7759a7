import dataclasses
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import pytest

from eagerpi import eager
from eagerpi.equivalence import _graph, _translate_fresh
from eagerpi.parser import parse_lc, parse_spi
from eagerpi.printer import process_text
from eagerpi.process import Process, term_key

HERE = os.path.dirname(__file__)
CORPUS = os.path.join(HERE, "..", "corpus")


def corpus_path(name):
    return os.path.join(CORPUS, name)


def load_spi(name):
    with open(corpus_path(name), "r", encoding="utf-8") as fh:
        return parse_spi(fh.read())


def load_lc(name):
    with open(corpus_path(name), "r", encoding="utf-8") as fh:
        return parse_lc(fh.read())


# The inputs of the oracle tests, kept here for all of them.
SPI_FILES = ("movie.spi", "vm.spi", "generated.spi")
# criterion 9: the closed corr.lc terms, explored at the correspondence bound
CLOSED = ("T01", "T02", "T03", "T04", "T06", "T08", "T10", "T11", "T12",
          "T15", "T16", "T17", "T18")
# the open terms have no normal form within bound 30, and the reference
# scope search takes about 25 ms per target on their states, so they are
# explored less deeply
OPEN = ("T05", "T07", "T09", "T13", "T14")


def spi_corpus():
    """Every definition of the .spi corpus files: name -> process."""
    return {n: d[0] for f in SPI_FILES for n, d in load_spi(f).defs.items()}


def translations(names=None, file="corr.lc"):
    """name -> `_translate_fresh` of the term, for the named definitions
    of an .lc corpus file, or for all of them."""
    defs = load_lc(file).defs
    return {n: _translate_fresh(defs[n][0]) for n in names or defs}


def full_trace(p, bound, max_states=20000):
    """The full reduction graph of p: `graph.explore` over every step of
    `eager.step_all`, with `trace`'s `rule@cut` labels (`eager._all_steps`).
    Exhaustive `trace` takes one D-step where a state has one; the tests
    that need every interleaving read this graph."""
    return _graph(p, bound, max_states, step=eager._all_steps)


def _fresh(x):
    """x rebuilt from new nodes through its dataclass fields, so that no
    value cached on a node carries over."""
    if isinstance(x, Process):
        return type(x)(*(_fresh(getattr(x, f.name))
                         for f in dataclasses.fields(x)))
    if isinstance(x, tuple):
        return tuple(map(_fresh, x))
    return x


def assert_fixpoint(form, normalize):
    """`normalize` maps `form` to itself when it walks it: a form that
    keeps its key is returned unwalked, so this checks a copy without
    cached values, which must get form's key and text."""
    cold = normalize(_fresh(form))
    assert term_key(cold) == term_key(form)
    assert process_text(cold) == process_text(form)


def perfbench_workloads():
    """The benchmark's workload module (`perfbench/workloads.py`)."""
    perfbench = os.path.join(HERE, "..", "perfbench")
    if perfbench not in sys.path:
        sys.path.insert(0, perfbench)
    import workloads
    return workloads


@pytest.fixture(scope="session")
def movie():
    return load_spi("movie.spi")


@pytest.fixture(scope="session")
def vm():
    return load_spi("vm.spi")


@pytest.fixture(scope="session")
def ex32():
    return load_lc("ex32.lc")


@pytest.fixture(scope="session")
def corr():
    return load_lc("corr.lc")


@pytest.fixture(scope="session")
def generated():
    return load_spi("generated.spi")
