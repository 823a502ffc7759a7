"""The one-order search of exhaustive `trace` against the full graph.

`trace` expands a state by its first D-step alone where it has one
(`eager._dstep`). These tests check the argument for that on every state
of the full graphs (`conftest.full_trace`) of the `.spi` corpus and the
closed `corr.lc` translations: a D-step and any other step from the same
state close a one-step diamond up to `term_key`, and the other step leaves
a D-step. They then check its consequences: the reduced graph has the
full graph's normal forms at their full depths and the same cause (or,
in `run_sweep.py`, is complete where the full graph is cut and has all
its normal forms), and its size does not depend on how a process is
written.
"""

import random

from eagerpi.eager import _dstep, normal_forms, step_all, trace
from eagerpi.parser import parse_spi
from eagerpi.process import exploration, scope_normalize, term_key
from tests.conftest import (CLOSED, full_trace, perfbench_workloads,
                            spi_corpus, translations)

# (process, bound) -> the (reduced, full) depths of the states of the
# reduced graph that sit deeper than in the full graph. Two branches of a
# `++` can meet at one state after different numbers of steps (in G056 one
# of them first dissolves a forwarder with an `id` step); where the D-step
# taken earlier cut the shorter branch, the reduced graph reaches the state
# along the longer one. Normal forms always keep their depth.
DEEPER = {("G041", 16): [(11, 8)], ("G041", 64): [(11, 8)],
          ("G056", 4): [(4, 3)], ("G056", 8): [(4, 3), (5, 4)],
          ("G056", 16): [(4, 3), (5, 4)], ("G056", 64): [(4, 3), (5, 4)],
          ("G088", 16): [(11, 10)], ("G088", 64): [(11, 10)]}


def differences(name, p, bound):
    """How the reduced graph of p at `bound` differs from the full one:
    a list of faults, the (reduced, full) depths of its states that sit
    deeper, and whether the reduced graph is complete where the full one
    is cut. That is no fault when the full graph at bound 64 has the same
    normal forms: a complete reduced graph holds every state the reduced
    search can reach, so every normal form of the full graph at any
    depth. Faults: other normal forms, a normal form deeper, or a
    reduced graph that is cut where the full one is complete."""
    full, reduced = full_trace(p, bound), trace(p, bound)
    faults = []
    nfs = {n.key for n in reduced.leaves()}
    if nfs != {n.key for n in full.leaves()}:
        faults.append(f"{name} at {bound}: other normal forms")
    completed = reduced.cause == "none" and full.cause == "depth"
    if completed:
        if nfs != {n.key for n in full_trace(p, 64).leaves()}:
            faults.append(f"{name} at {bound}: complete, but not every "
                          f"normal form of the full graph at 64")
    elif reduced.cause != full.cause:
        faults.append(f"{name} at {bound}: cause {reduced.cause}, "
                      f"full {full.cause}")
    deeper = []
    for key, node in reduced.nodes.items():
        if key not in full.nodes or node.depth < full.nodes[key].depth:
            faults.append(f"{name} at {bound}: a state the full graph "
                          f"does not have at that depth")
        elif node.depth > full.nodes[key].depth:
            deeper.append((node.depth, full.nodes[key].depth))
            if node.expanded and not node.successors:
                faults.append(f"{name} at {bound}: a normal form deeper")
    return faults, deeper, completed


def diamond_faults(name, p, bound):
    """The pairs of a D-step and another step from one state of p's full
    graph that close no one-step diamond up to `term_key`, or after which
    the other step's target has no D-step; and the number of pairs."""
    faults, pairs = [], 0
    with exploration():
        for node in full_trace(p, bound).nodes.values():
            found = _dstep(node.state, node.key)
            if found is None:
                continue
            rdx, tgt = found
            done = scope_normalize(tgt)
            after = {term_key(st.target) for st in step_all(done)}
            for st in step_all(node.state):
                if term_key(st.target) == term_key(done):
                    continue
                pairs += 1
                u = st.target
                if not after & {term_key(s.target) for s in step_all(u)}:
                    faults.append(f"{name}: {rdx.rule} and "
                                  f"{st.redex.rule} close no diamond")
                if _dstep(u, u._key) is None:
                    faults.append(f"{name}: no D-step left after "
                                  f"{st.redex.rule}")
    return faults, pairs


def test_dstep_closes_a_diamond_with_every_other_step():
    pairs = 0
    for name, p in spi_corpus().items():
        faults, n = diamond_faults(name, p, 64)
        assert not faults, faults[:3]
        pairs += n
    for name, p in translations(CLOSED).items():
        faults, n = diamond_faults(name, p, 30)
        assert not faults, faults[:3]
        pairs += n
    assert pairs > 1000


def test_reduced_graph_keeps_normal_forms_cause_and_depth():
    deeper = {}
    sizes = [0, 0]
    for name, p in spi_corpus().items():
        for bound in (4, 8, 16, 64):
            faults, n, completed = differences(name, p, bound)
            assert not faults and not completed, faults
            if n:
                deeper[name, bound] = sorted(n)
        sizes[0] += len(full_trace(p, 64).nodes)
        sizes[1] += len(trace(p, 64).nodes)
    for name, p in translations(CLOSED).items():
        for bound in (8, 30):
            faults, n, completed = differences(name, p, bound)
            assert not faults and not completed, faults
            if n:
                deeper[name, bound] = sorted(n)
    assert deeper == DEEPER
    assert sizes == [1464, 928]


def test_reduced_size_independent_of_the_writing():
    shuffle = perfbench_workloads().shuffle_process
    rng = random.Random(5)
    for name, p in spi_corpus().items():
        want = len(trace(p, 64).nodes)
        for _ in range(5):
            assert len(trace(shuffle(p, rng), 64).nodes) == want, name


def test_second_holder_of_the_cut_name_is_no_dstep():
    # untyped: two waits compete for the one close on x, so whichever
    # step is taken first decides the normal form; the guard refuses it,
    # and both normal forms are found
    p = parse_spi("def P = new x (close x | (wait x. close a | "
                  "wait x. close b))").defs["P"][0]
    q = scope_normalize(p)
    assert _dstep(q, q._key) is None
    nfs = {term_key(n) for n in normal_forms(p)}
    assert len(nfs) == 2
    assert nfs == {n.key for n in full_trace(p, 64).leaves()}
    # without a second holder the close is a D-step
    p = parse_spi("def P = new x (close x | wait x. close a)").defs["P"][0]
    q = scope_normalize(p)
    assert _dstep(q, q._key)[0].rule == "close"
