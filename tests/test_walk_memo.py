"""Oracle for the memo of the canonical walk (`process._walk`).

A walk leaves on every node that it returned unchanged that node's key
under the context it was walked in (depth, levels of its free names,
scope mode). A warm call, whose shared subtrees answer from such entries, must
agree with a walk of a structural copy made of new nodes, which carries no
entry. Covered: every state explored from the corpus, the `corr.lc`
translations and ex32's `M`, and each state's raw step targets.

A memo entry must also never make a process node part of a reference
cycle: run one pass of each process workload of the benchmark and check
that the cycle collector finds no process node.
"""

import gc

import pytest

from eagerpi.eager import _local_steps
from eagerpi.equivalence import explore
from eagerpi.names import NameSupply
from eagerpi.printer import process_text
from eagerpi.process import (Close, Input, Process, Restrict, _children,
                             _walk, canonicalize, free_names,
                             scope_normalize, term_key)
from tests.conftest import (CLOSED, OPEN, _fresh, perfbench_workloads,
                            spi_corpus, translations)


SOURCES = {
    "spi-corpus": (lambda: spi_corpus().values(), 64),
    "corr-closed": (lambda: translations(CLOSED).values(), 30),
    "corr-open": (lambda: translations(OPEN).values(), 8),
    "ex32-M": (lambda: translations(("M",), "ex32.lc").values(), 30),
}


def _states(source):
    """Every explored state; the states carry the entries their
    exploration left."""
    build, bound = SOURCES[source]
    for root in build():
        nodes, _, _ = explore(root, bound)
        yield from (n.state for n in nodes.values())


def _targets(state):
    """The raw (not normalized) targets of the state's steps."""
    return [t for _, t in _local_steps(state)]


def _subtrees(roots):
    """Every node below the roots, each node object once."""
    seen, todo = {}, list(roots)
    while todo:
        q = todo.pop()
        if id(q) not in seen:
            seen[id(q)] = q
            todo.extend(_children(q))
    return list(seen.values())


def _contexts(p):
    """(env, depth) pairs that bind p's free names at different levels:
    one order, the reversed order at the same depth, and the same levels
    one depth deeper."""
    names = sorted(free_names(p), key=lambda n: n.id)
    k = len(names)
    return [({n: i for i, n in enumerate(names)}, k),
            ({n: k - 1 - i for i, n in enumerate(names)}, k),
            ({n: i for i, n in enumerate(names)}, k + 1)]


@pytest.mark.parametrize("source", sorted(SOURCES))
def test_warm_calls_match_fresh_copies(source):
    """scope_normalize and canonicalize of every state and raw target give
    the key and the text that they give on a fresh copy."""
    checked = 0
    for state in _states(source):
        for t in [state] + _targets(state):
            cold = _fresh(t)
            for f in (scope_normalize, canonicalize):
                warm, fresh = f(t), f(cold)
                assert term_key(warm) == term_key(fresh)
                assert process_text(warm) == process_text(fresh)
            checked += 1
    assert checked > 1


@pytest.mark.parametrize("source", sorted(SOURCES))
def test_shared_subtrees_rekeyed_per_context(source):
    """Each subtree of an explored state, walked warm under binder levels
    that differ in order and in depth, and each raw step target, walked
    warm at the root, get the key of a walk of a fresh copy every time,
    without the scope axioms and then with them. A scope-mode walk takes
    any process, so raw subtrees and targets are walked in it as they
    are."""
    states = list(_states(source))
    cases = [(q, ctx) for q in _subtrees(states) for ctx in _contexts(q)]
    cases += [(t, ({}, 0)) for s in states for t in _targets(s)]
    rescoped = 0
    for q, (env, depth) in cases:
        keys = [_walk(q, env, depth, scope)[1] for scope in (False, True)]
        for scope, key in zip((False, True), keys):
            assert key == _walk(_fresh(q), env, depth, scope)[1]
        rescoped += keys[0] != keys[1]
    if source != "spi-corpus":
        assert rescoped, "no case where the scope axioms change the key"


def test_shared_subtree_under_two_binder_levels():
    """One subtree object bound at level 0 in one process and at level 1
    in another keys as a fresh copy does in both."""
    q = scope_normalize(translations(("T01",))["T01"])
    y = min(free_names(q), key=lambda n: n.id)
    s = NameSupply(10 ** 9)
    a, z = s.fresh("a"), s.fresh("z")
    p = Restrict(y, q, Close(y))
    for outer in (p, Input(a, z, p)):
        for f in (scope_normalize, canonicalize):
            assert term_key(f(outer)) == term_key(f(_fresh(outer)))


@pytest.mark.parametrize("workload", ("correspond", "spi-corpus", "bisim"))
def test_no_process_node_in_a_reference_cycle(workload):
    W = perfbench_workloads()
    checks = W.build(workload, 1).checks
    gc.collect()
    enabled, flags = gc.isenabled(), gc.get_debug()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for c in checks:
            c.run()
        gc.collect()
        cyclic = [o for o in gc.garbage if isinstance(o, Process)]
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        if enabled:
            gc.enable()
    assert not cyclic, f"{len(cyclic)} process nodes in reference cycles"
