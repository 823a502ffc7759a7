"""Differential test of the graph builder (`eagerpi.graph`) against the
five loops it replaced (`reference_explore.py`).

On every corpus process and every `corr.lc` translation, at bounds 0 to
30, `explore` and the full labelled explorer (`conftest.full_trace`,
which takes every step of every state, as the old exhaustive `trace`
did) must discover the same states in the same order, at the same
depths, with the same edges, and `succeeds_pi` must give the same
verdict; on the `corr.lc` and `ex32.lc` terms and the
benchmark's lambda family, `lam.reachable` and `lam.succeeds` must return
the same results. The one difference allowed is the truncation rule: a
node at the depth bound whose steps all reach states already in the graph
is expanded, and does not cut the graph, where the old loops left it
unexpanded and reported truncation. The pairs where that changes the
verdict are listed, so a new difference fails the test.
"""

import sys
from pathlib import Path

import pytest

from eagerpi import eager, equivalence
from eagerpi import lam as L
from eagerpi.equivalence import explore, succeeds_pi
from eagerpi.parser import parse_lc
from eagerpi.process import term_key
from tests import reference_explore as ref
from tests.conftest import full_trace, load_lc, spi_corpus, translations

PI_BOUNDS = (0, 1, 2, 3, 4, 6, 10, 30)
LAMBDA_BOUNDS = (0, 1, 2, 3, 5, 16, 64)
CAPS = (1, 5, 20)   # state caps small enough to cut most graphs

# the (process, bound) pairs where the old loops reported truncation on a
# graph that was already complete
COMPLETED = {("G025", 3), ("G028", 1), ("G055", 1), ("G063", 2),
             ("G065", 4), ("G072", 2), ("G073", 3), ("G089", 6),
             ("G095", 1), ("G100", 2)}
# the same for (lambda term, bound) pairs
COMPLETED_LAMBDA = {("family/A3_3", 16), ("family/A4_4", 16),
                    ("family/B4_4", 16), ("family/B5_5", 16)}


def _lambda_family():
    perfbench = str(Path(__file__).resolve().parent.parent / "perfbench")
    if perfbench not in sys.path:
        sys.path.insert(0, perfbench)
    import workloads
    return parse_lc(workloads.lambda_script()).defs


def _terms():
    defs = {**{f"corr/{n}": d for n, d in load_lc("corr.lc").defs.items()},
            **{f"ex32/{n}": d for n, d in load_lc("ex32.lc").defs.items()},
            **{f"family/{n}": d for n, d in _lambda_family().items()}}
    return [(n, d[0]) for n, d in defs.items()]


@pytest.fixture
def shared_steps(monkeypatch):
    """Compute each process state's steps once. Every loop compared here
    takes its steps from the same `eager.step_all`, whose result depends
    only on the state's canonical form, so sharing it by state key leaves
    both sides' inputs equal and saves five of every six calls. (Not so
    `lam.step_all`: key-equal terms can list their reducts in another
    order, with other fetch indices.)"""
    real, cache = eager.step_all, {}

    def step_all(p):
        key = term_key(p)
        if key not in cache:
            cache[key] = real(p)
        return cache[key]

    for module in (eager, equivalence, ref):
        monkeypatch.setattr(module, "step_all", step_all)


def _compare_explore(p, bound, cap=6000):
    """Compare old and new `explore`; return the new nodes and whether
    only the old one reported truncation."""
    old_nodes, old_root, old_trunc = ref.explore(p, bound, cap)
    nodes, root, truncated = explore(p, bound, cap)
    assert root == old_root and list(nodes) == list(old_nodes)
    completed = 0
    for key, new in nodes.items():
        old = old_nodes[key]
        if (old.expanded, old.succ) == (new.expanded, new.succ):
            assert old.has_steps == new.has_steps
            continue
        assert new.depth == bound and new.expanded and not old.expanded
        assert not old.succ and all(k in nodes for _, k in new.succ)
        completed += old.has_steps
    pending = any(not n.expanded for n in nodes.values())
    assert truncated == pending
    assert old_trunc == (pending or completed > 0)
    return nodes, old_trunc and not truncated


def _compare_trace(p, bound, nodes, cap=20000):
    """Compare the old exhaustive `trace` with `full_trace` (node ids,
    processes, depths, edges, flags), and that with the new `explore`
    graph `nodes`; True iff only the old one was truncated."""
    old = ref.trace(p, bound, max_states=cap)
    new = full_trace(p, bound, max_states=cap)
    # the reference numbers its nodes in discovery order
    ids = {k: i for i, k in enumerate(new.nodes)}
    assert list(old.nodes) == list(ids.values())
    assert [(term_key(n.process), n.depth) for n in new.nodes.values()] \
        == [(k, n.depth) for k, n in nodes.items()]
    for k, n in new.nodes.items():
        o = old.nodes[ids[k]]
        assert term_key(o.process) == term_key(n.process)
        assert o.depth == n.depth
        succ = [(rule, ids[child]) for rule, child in n.successors]
        exhausted = n.has_steps and not n.expanded
        if (o.expanded, o.successors, o.bound_exhausted) != \
                (n.expanded, succ, exhausted):
            assert n.depth == bound and n.expanded and not o.expanded
            assert not o.successors and not exhausted
    assert new.truncated == any(not n.expanded for n in nodes.values())
    assert old.truncated >= new.truncated
    return old.truncated and not new.truncated


def _check_processes(procs):
    completed = set()
    for name, p in procs:
        for bound in PI_BOUNDS:
            nodes, done = _compare_explore(p, bound)
            assert _compare_trace(p, bound, nodes) == done, (name, bound)
            assert succeeds_pi(p, bound) == ref.succeeds_pi(p, bound), \
                (name, bound)
            if done:
                completed.add((name, bound))
    return completed


def test_corpus_graphs_match_reference(shared_steps):
    assert _check_processes(spi_corpus().items()) == COMPLETED


def test_translation_graphs_match_reference(shared_steps):
    assert _check_processes(translations().items()) == set()


def test_state_cap_matches_reference(shared_steps):
    # both sides stop after the first expansion that leaves more than
    # `cap` states
    for p in spi_corpus().values():
        for cap in CAPS:
            nodes, done = _compare_explore(p, 30, cap)
            assert not done and not _compare_trace(p, 30, nodes, cap)
    for name, m in _terms():
        for cap in CAPS:
            terms, truncated = L.reachable(m, 64, cap)
            old_terms, old_truncated = ref.reachable(m, 64, cap)
            assert [L.lam_key(t) for t in terms] == \
                [L.lam_key(t) for t in old_terms], (name, cap)
            assert truncated == old_truncated, (name, cap)


def test_lambda_graphs_match_reference():
    completed = set()
    for name, m in _terms():
        for bound in LAMBDA_BOUNDS:
            terms, truncated = L.reachable(m, bound)
            old_terms, old_truncated = ref.reachable(m, bound)
            assert [L.lam_key(t) for t in terms] == \
                [L.lam_key(t) for t in old_terms], (name, bound)
            assert L.succeeds(m, bound) == ref.succeeds(m, bound), \
                (name, bound)
            if truncated == old_truncated:
                continue
            # only the old loop cut the graph: a term at the bound had
            # steps, and all of them reach terms already in the graph
            nodes, _, cause, _ = L.reduction_graph(m, bound)
            assert old_truncated and cause == "none"
            assert any(n.depth == bound and n.successors
                       for n in nodes.values())
            completed.add((name, bound))
    assert completed == COMPLETED_LAMBDA
