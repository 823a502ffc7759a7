"""Differential test of the correspondence checks, which share one graph of
each calculus, against the checks that built their own
(`reference_correspond.py`).

On every `corr.lc` and `ex32.lc` term, at bounds 0 to 30 and at state caps
from 1 to the default, the three reports must be equal. The one
difference allowed is in success sensitivity: a side whose search was cut
before it found success leaves the check undecided, so `agrees` is False
whenever `exhausted` is True, where the old check compared the two
undecided answers.

For each term and bound the caps are run one after another, so a shared
graph that answered for another cap or bound would give a wrong report.
"""

import pytest

from eagerpi import equivalence
from eagerpi import lam as L
from eagerpi.equivalence import (check_loose_completeness,
                                 check_loose_soundness,
                                 check_success_sensitivity)
from eagerpi.parser import parse_lc
from eagerpi.process import term_key
from tests import reference_correspond as ref
from tests.conftest import load_lc

BOUNDS = (0, 1, 2, 3, 5, 30)
CAPS = (1, 5, 10, 6000)
# the ex32 terms whose translations take minutes to explore in full at
# bound 30: there they are compared at the small caps only
LARGE = {"M0", "M", "N3"}


def _tower(depth):
    term = "I"
    for _ in range(depth):
        term = f"(\\x. x1 [x1 <- x]) <{term}>"
    return term


# OK next to an unused tower of seven identity applications. At bound 21
# the translation has reached success, while the lambda graph has reached
# OK and is cut in the tower. No corpus term has one side cut after a
# success and the other side decided.
TAIL = parse_lc("def I = \\x. x1 [x1 <- x]\n"
                f"def Tail = (\\x. x1 [x1,x2 <- x]) <OK, {_tower(7)}>\n")


@pytest.fixture
def shared_work(monkeypatch):
    """Compute each process state's steps once, and each lambda term's
    translation once. Both sides explore with `equivalence.step_all`,
    whose result depends only on the state's canonical form, and translate
    with `_translate_fresh`, which is deterministic; sharing them by state
    key and by term leaves the two sides' inputs equal and saves most of
    the work."""
    steps, translations = {}, {}
    real_step_all = equivalence.step_all
    real_translate = equivalence._translate_fresh

    def step_all(p):
        key = term_key(p)
        if key not in steps:
            steps[key] = real_step_all(p)
        return steps[key]

    def translate(m):
        if m not in translations:
            translations[m] = real_translate(m)
        return translations[m]

    monkeypatch.setattr(equivalence, "step_all", step_all)
    for module in (equivalence, ref):
        monkeypatch.setattr(module, "_translate_fresh", translate)


def _compare(m, bound, cap):
    new = [check(m, bound, cap) for check in (
        check_loose_completeness, check_loose_soundness,
        check_success_sensitivity)]
    old = [check(m, bound, cap) for check in (
        ref.check_loose_completeness, ref.check_loose_soundness,
        ref.check_success_sensitivity)]
    old[2] = dict(old[2], agrees=old[2]["agrees"] and not old[2]["exhausted"])
    assert new == old, f"bound {bound}, cap {cap}"
    return new


def _terms():
    return [(f, n) for f in ("corr.lc", "ex32.lc")
            for n in load_lc(f).defs]


@pytest.mark.parametrize("file,name", _terms())
def test_shared_graph_reports_equal_the_old_checks(file, name, shared_work):
    m = load_lc(file).defs[name][0]
    for bound in BOUNDS:
        for cap in CAPS:
            if not (name in LARGE and (bound, cap) == (30, 6000)):
                _compare(m, bound, cap)


def test_lambda_side_cut_after_success_is_decided(shared_work):
    m = TAIL.defs["Tail"][0]
    assert L.reachable(m, 21)[1]
    sens = _compare(m, 21, 6000)[2]
    assert sens == {"lambda": True, "pi": True, "agrees": True,
                    "exhausted": False}
