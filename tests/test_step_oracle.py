"""Differential test of one-step reduction (`eager.step_all`) against the
search it replaced (`reference_steps.py`).

The library memoises each node's local steps on the node, decomposes a
cut's sides only into prefixes on the cut name, and searches only the
first of adjacent alike parallel parts. On every state explored from the
three `.spi` files, the 13 closed `corr.lc` translations (bound 30) and a
generated corpus, on one-step `scope_rewrites` of those roots and of a
sample of their states, and on hand cases, both must list the same
`(rule, cut display, target key)` steps in the same order. The states are
compared inside one `exploration` with the library's own exploration of
them, so the memos it left are reused, and the hand cases step one node
in two contexts of one exploration.

The library takes no step that frees a bound name; the reference, kept
as it was, still takes such steps on untyped input. So the reference's
list is filtered first to the steps whose targets have no name free that
the state has not. On the typed inputs of the sources, the filter
removes no step.
"""

import random

import pytest

from eagerpi.eager import _local_steps, exploration, step_all
from eagerpi.equivalence import explore
from eagerpi.gen import generate_corpus
from eagerpi.names import Name
from eagerpi.parser import parse_spi
from eagerpi.process import (Close, Inaction, Par, Restrict, Wait,
                             canonicalize, free_names, scope_rewrites,
                             term_key)
from tests import reference_steps as ref
from tests.conftest import CLOSED, spi_corpus, translations


SOURCES = {
    "spi-corpus": (lambda: spi_corpus().values(), 64),
    "corr-closed": (lambda: translations(CLOSED).values(), 30),
    "generated": (lambda: generate_corpus(5, 40), 12),
}


def _listed(steps):
    return [(rule, cut.display, term_key(t)) for rule, cut, t in steps]


def _library(p):
    return _listed((st.redex.rule, st.redex.cut, st.target)
                   for st in step_all(p))


def _scoped(p, steps):
    """The steps whose target has no name free that p has not."""
    return [st for st in steps if free_names(st[2]) <= free_names(p)]


def _reference(p):
    return _listed(_scoped(p, ref.step_all(p)))


def _inputs(source):
    """Every explored state, then the one-step scope rewrites of each root
    and two seeded ones of every fourth state."""
    build, bound = SOURCES[source]
    rng = random.Random(0)
    roots, states = build(), []
    for root in roots:
        states += [n.state for n in explore(root, bound)[0].values()]
    yield from states
    for root in roots:
        yield from scope_rewrites(root)
    for s in states[::4]:
        ones = list(scope_rewrites(s))
        yield from rng.sample(ones, min(2, len(ones)))


@pytest.mark.parametrize("source", sorted(SOURCES))
def test_steps_match_reference(source):
    checked = steps = 0
    with exploration():
        for p in _inputs(source):
            got = _library(p)
            want = ref.step_all(p)
            assert _scoped(p, want) == want
            assert got == _listed(want)
            checked += 1
            steps += len(got)
    assert checked > 1 and steps > 1


def _spi(text, name="P"):
    return parse_spi(text).defs[name][0]


def _raw_targets(p):
    return len(_local_steps(canonicalize(p)))


def _reference_raw_targets(p):
    return len(ref._local_steps(canonicalize(p)))


def test_alpha_equivalent_clients_are_searched_once():
    """Three alpha-equivalent clients of one server: the steps are the
    reference's, and only one client is searched."""
    p = _spi("def P = new s (!s?(y). close y | (?s!(a). wait a. 0"
             " | ?s!(b). wait b. 0 | ?s!(c). wait c. 0))")
    assert _library(p) == _reference(p)
    assert _raw_targets(p) == 1 and _reference_raw_targets(p) == 3


def _two_contexts(a, b, x):
    """(a | b) stepped under a cut on a fresh name, where all its names
    are free, then the same node under a cut on x, in one exploration."""
    inner = canonicalize(Par(a, b))
    y = Name(999, "y")
    first = Restrict(y, inner, Wait(y, Inaction()))
    outer = Restrict(x, inner, Wait(x, Inaction()))
    with exploration():
        assert _library(first) == _reference(first)
        assert canonicalize(first).left is canonicalize(outer).left is inner
        assert inner._steps is not None   # the memo is reused
        return _library(outer), _reference(outer)


def _cut(z, then):
    return Restrict(z, Close(z), Wait(z, then))


def test_key_equal_siblings_with_other_free_names_stay_apart():
    """Two siblings with equal keys whose free names differ only by id,
    with one display: alike only where both names are free, so a memo
    made there must not prune under a cut that binds one of them."""
    x1, x2 = Name(901, "x"), Name(902, "x")
    a = _cut(Name(903, "z"), Close(x1))
    b = _cut(Name(904, "z"), Close(x2))
    got, want = _two_contexts(a, b, x1)
    assert got == want and len(got) == 2


def test_siblings_with_one_display_for_two_free_names_stay_apart():
    """Two siblings with equal keys and the same free names, two of which
    share a display: swapping the names keeps the key where both are free,
    so these are not alike either."""
    x1, x2 = Name(911, "x"), Name(912, "x")
    a = _cut(Name(913, "z"), Par(Close(x1), Wait(x2, Inaction())))
    b = _cut(Name(914, "z"), Par(Close(x2), Wait(x1, Inaction())))
    got, want = _two_contexts(a, b, x1)
    assert got == want and len(got) == 2


@pytest.mark.parametrize("text", [
    # a cut inside one branch of a sum, and one beside it
    "def P = new x (close x | wait x. 0) ++ new u (close u | wait u. close a)",
    # a sum on one side of a cut: the step commits, dropping the other branch
    "def P = new x ((x#a. close x ++ close x) | x&{a: wait x. 0})",
    # a sum of alike branches under a cut, and two alike waiting partners:
    # closing with one would free x in the other, so there is no step
    "def P = new x ((close x ++ close x) | (wait x. 0 | wait x. 0))",
    # the same with selections, which keep the cut
    "def P = new x ((x#a. close x ++ x#a. close x) | "
    "(x&{a: wait x. 0} | x&{a: wait x. 0}))",
    # forwarders on both sides of a cut; a forwarder beside another that
    # holds x would free it, only the lone one on its side steps
    "def P = new x ([x<->a] | [x<->b])",
    "def P = new x ([a<->x] | ([x<->b] | [x<->c]))",
])
def test_hand_cases_match_reference(text):
    p = _spi(text)
    got = _library(p)
    assert got == _reference(p) and ref.step_all(p)
