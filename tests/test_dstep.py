"""The one-order search of exhaustive `trace` against the full graph.

`trace` expands a state by its first D-step alone where it has one
(`eager._first_dstep`). These tests check the argument for that on every
state of the full graphs (`conftest.full_trace`) of the `.spi` corpus and
the closed `corr.lc` translations: a D-step and any other step from the
same state close a one-step diamond up to `term_key`, and the other step
leaves a D-step. They then check its consequences: the reduced graph has the
full graph's normal forms at their full depths and the same cause (or,
in `run_sweep.py`, is complete where the full graph is cut and has all
its normal forms), and its size does not depend on how a process is
written. Hand-made processes check the guards of `id` and `repl` D-steps.
"""

import random
from collections import Counter

from eagerpi.eager import (_first_dstep, _local_steps, normal_forms, step_all,
                           trace)
from eagerpi.parser import parse_spi
from eagerpi.process import exploration, scope_normalize, term_key
from tests.conftest import (CLOSED, full_trace, perfbench_workloads,
                            spi_corpus, translations)

# (process, bound) -> the (reduced, full) depths of the states of the
# reduced graph that sit deeper than in the full graph. Two branches of a
# `++` can meet at one state after different numbers of steps; where the
# D-step taken earlier cut the shorter branch, the reduced graph reaches
# the state along the longer one. Normal forms always keep their depth.
DEEPER = {("G103", bound): [(3, 2)] for bound in (4, 8, 16, 64)}


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
            found = _first_dstep(node.state)
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
                if _first_dstep(u) is None:
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
    assert sizes == [1464, 735]


def dstep_rules(p, bound):
    """How many D-steps of each rule the reduced graph of p at `bound`
    takes (`sel:<label>` counts as `sel`)."""
    counts = Counter()
    for node in trace(p, bound).nodes.values():
        found = node.expanded and _first_dstep(node.state)
        if found:
            counts[found[0].rule.split(":")[0]] += 1
    return counts


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
    assert _first_dstep(q) is None
    nfs = {term_key(n) for n in normal_forms(p)}
    assert len(nfs) == 2
    assert nfs == {n.key for n in full_trace(p, 64).leaves()}
    # without a second holder the close is a D-step
    p = parse_spi("def P = new x (close x | wait x. close a)").defs["P"][0]
    q = scope_normalize(p)
    assert _first_dstep(q)[0].rule == "close"


def test_id_and_repl_dsteps_are_taken_on_the_corpus():
    counts = Counter()
    for p in spi_corpus().values():
        counts += dstep_rules(p, 64)
    assert counts["id"] and counts["repl"], counts


def _only(src):
    p = parse_spi(src).defs["P"][0]
    return p, scope_normalize(p)


def test_forwarder_whose_other_name_is_cut_outside():
    # the forwarder [x<->y] is the D-step of the cut on x; the cut on y
    # around it can take it too, and both `id` steps reach one state
    p, q = _only("def P = new y (new x ([x<->y] | wait x. close a) | "
                 "close y)")
    rdx, tgt = _first_dstep(q)
    assert (rdx.rule, rdx.cut.display) == ("id", "x")
    ids = [(r.cut.display, term_key(scope_normalize(t)))
           for r, t in _local_steps(q) if r.rule == "id"]
    assert sorted(c for c, _ in ids) == ["x", "y"]
    assert {k for _, k in ids} == {term_key(scope_normalize(tgt))}
    assert {term_key(n) for n in normal_forms(p)} == \
        {n.key for n in full_trace(p, 64).leaves()}


def test_request_that_leaves_the_server_in_use_is_no_dstep():
    # a client that requests x again, and a server whose body holds x:
    # after the step the server still has a user, so it is not collected
    # and the step need not shrink the process
    for src in ("def P = new x (?x!(r). ?x!(t). (close r | close t) | "
                "!x?(s). wait s. 0)",
                "def P = new x (?x!(r). r#a. close r | "
                "!x?(s). s&{a: wait s. 0, b: ?x!(t). t#a. close t})"):
        p, q = _only(src)
        assert _first_dstep(q) is None, src
        nfs = {term_key(n) for n in normal_forms(p)}
        assert nfs and nfs == {n.key for n in full_trace(p, 64).leaves()}
    # the last request to a server is a D-step
    p, q = _only("def P = new x (?x!(r). close r | !x?(s). wait s. 0)")
    assert _first_dstep(q)[0].rule == "repl"


def test_untyped_second_holder_next_to_a_forwarder_is_refused():
    # untyped: a thread beside the forwarder also holds x, or holds its
    # other name y; an `id` step that dissolves the cut on that name
    # leaves it free in the thread, so the order of the steps decides the
    # normal form
    for src in ("def P = new x (([x<->y] | close x) | wait x. 0)",
                "def P = new y (new x ([x<->y] | wait x. close y) | "
                "wait y. 0)"):
        p, q = _only(src)
        assert _first_dstep(q) is None, src
        nfs = {term_key(n) for n in normal_forms(p)}
        assert len(nfs) == 2, src
        assert nfs == {n.key for n in full_trace(p, 64).leaves()}
    # without the second holder the forwarder's step is a D-step
    p, q = _only("def P = new y (new x ([x<->y] | wait x. 0) | close y)")
    assert _first_dstep(q)[0].rule == "id"
