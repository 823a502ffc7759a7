import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import pytest

from eagerpi.parser import parse_lc, parse_spi

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
