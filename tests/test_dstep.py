"""The one-order search of exhaustive `trace` against the full graph.

`trace` expands a state by its first D-step alone where it has one
(`eager._dstep`). These tests check the argument for that on every
state of the full graphs (`conftest.full_trace`) of the `.spi` corpus and
the closed `corr.lc` translations: a D-step and any other step from the
same state close a one-step diamond up to `term_key`, and the other step
leaves a D-step. They then check its consequences: the reduced graph has the
full graph's normal forms at their full depths and the same cause (or,
in `run_sweep.py`, is complete where the full graph is cut and has all
its normal forms), and its size does not depend on how a process is
written. Hand-made processes check when a redex stands alone and the
guards of `id` and `repl` D-steps.
"""

import random
from collections import Counter

import pytest

from eagerpi.contexts import decompositions
from eagerpi.eager import (_alone, _dstep, _local_steps, normal_forms,
                           step_all, trace)
from eagerpi.parser import parse_spi
from eagerpi.printer import process_text
from eagerpi.process import (Inaction, exploration, scope_normalize,
                             term_key)
from eagerpi.typecheck import typecheck
from tests.conftest import (CLOSED, full_trace, perfbench_workloads,
                            spi_corpus, translations)

# (process, bound) -> the (reduced, full) depths of the states of the
# reduced graph that sit deeper than in the full graph. Two branches of a
# `++` can meet at one state after different numbers of steps; where the
# D-step taken earlier cut the shorter branch, the reduced graph reaches
# the state along the longer one (G103). The inner states of a chain of
# D-steps are no nodes: a state that a chain passes at its full depth is
# keyed only where a state expanded by all its steps reaches it later
# (G000: depth 5, where the chain passed it at 3), and a chain cut at the
# bound ends at a state that other steps reach sooner (Full at 8). Normal
# forms always keep their depth.
DEEPER = {("G103", bound): [(3, 2)] for bound in (4, 8, 16, 64)} | {
    ("G000", bound): [(5, 3)] for bound in (8, 16, 64)} | {
    ("G005", bound): [(11, 10)] for bound in (16, 64)} | {
    ("Composition", 4): [(4, 3)], ("Full", 8): [(8, 5)],
    ("G002", 4): [(4, 3)], ("G018", 8): [(8, 7)], ("G030", 4): [(4, 3)],
    ("G056", 4): [(4, 3), (4, 3)], ("G089", 8): [(8, 4)]}


def first_dstep(q):
    """The D-step that `trace` takes from the scope-normal state q, with
    its raw target, or None."""
    return _dstep(q)


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
            found = first_dstep(node.state)
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
                if first_dstep(u) is None:
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
    assert sizes == [1464, 405]


def dstep_rules(p, bound):
    """How many D-steps of each rule the reduced graph of p at `bound`
    takes (`sel:<label>` counts as `sel`): each step of the chain on the
    one edge of each state expanded by its D-step."""
    counts = Counter()
    for node in trace(p, bound).nodes.values():
        if node.expanded and first_dstep(node.state):
            (labels, _), = node.successors
            counts.update(label.split("@")[0].split(":")[0]
                          for label in labels.split())
    return counts


def test_reduced_size_independent_of_the_writing():
    shuffle = perfbench_workloads().shuffle_process
    rng = random.Random(5)
    for name, p in spi_corpus().items():
        want = len(trace(p, 64).nodes)
        for _ in range(5):
            assert len(trace(shuffle(p, rng), 64).nodes) == want, name


def test_second_holder_of_the_cut_name_is_no_dstep():
    # untyped: two branchings compete for the one selection on x, and
    # each selection keeps the cut, so whichever is taken first decides
    # the normal form; the guard refuses it, and both normal forms are
    # found (after either, the close is no step: it would free x in the
    # other branching)
    p, q = _only("def P = new x (x#a. close x | (x&{a: wait x. close a} | "
                 "x&{a: wait x. close b}))")
    assert step_all(q) and first_dstep(q) is None
    nfs = {term_key(n) for n in normal_forms(p)}
    assert len(nfs) == 2
    assert nfs == {n.key for n in full_trace(p, 64).leaves()}
    # without a second holder the selection is a D-step
    p, q = _only("def P = new x (x#a. close x | x&{a: wait x. close a})")
    assert first_dstep(q)[0].rule == "sel:a"


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
    rdx, tgt = first_dstep(q)
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
        assert first_dstep(q) is None, src
        nfs = {term_key(n) for n in normal_forms(p)}
        assert nfs and nfs == {n.key for n in full_trace(p, 64).leaves()}
    # the last request to a server is a D-step
    p, q = _only("def P = new x (?x!(r). close r | !x?(s). wait s. 0)")
    assert first_dstep(q)[0].rule == "repl"


# A redex whose context has a sibling that holds the cut name, or a sum
# on its path, does not stand alone (`_alone`): its cut has steps, but
# none of them is a D-step.
NOT_ALONE = (
    # two alike holders on one side (untyped)
    "new x (x#a. close x | (x&{a: wait x. close a} | "
    "x&{a: wait x. close a}))",
    # a holder of x under another thread's prefix (untyped)
    "new x (x#a. close x | (x&{a: wait x. close a} | "
    "wait y. x&{a: wait x. close b}))",
    # the redex under a `++`
    "new x (x#a. close x | (x&{a: wait x. close a} ++ close b))",
)


@pytest.mark.parametrize("text", NOT_ALONE)
def test_a_redex_that_does_not_stand_alone_is_no_dstep(text):
    p, q = _only(f"def P = {text}")
    firsts = [decompositions(side, q.x)[0][0] for side in (q.left, q.right)]
    assert not all(_alone(ctx, q.x) for ctx in firsts)
    assert step_all(q) and first_dstep(q) is None
    assert {term_key(n) for n in normal_forms(p)} == \
        {n.key for n in full_trace(p, 64).leaves()}


@pytest.mark.parametrize("text, target", [
    ("new x ([x<->x] | [x<->y])", "[y<->y]"),
    ("new x ([x<->x] | (close y | [x<->y]))", "(close y | [y<->y])"),
])
def test_id_dstep_whose_partner_is_a_self_forwarder(text, target):
    # untyped: the self-forwarder [x<->x] has no `id` step of its own (it
    # would leave x free); the cut's one step is the other forwarder's,
    # and that step is the D-step
    p, q = _only(f"def P = {text}")
    assert [st.redex.rule for st in step_all(q)] == ["id"]
    rdx, tgt = first_dstep(q)
    assert rdx.rule == "id"
    assert process_text(scope_normalize(tgt)) == target
    assert [process_text(n) for n in normal_forms(p)] == [target]


def test_untyped_second_holder_next_to_a_forwarder_is_refused():
    # untyped: a thread beside the forwarder also holds x, or holds its
    # other name y; an `id` step that dissolves the cut on that name
    # would leave it free in the thread, so it is no step
    p, q = _only("def P = new x (([x<->y] | close x) | wait x. 0)")
    assert step_all(q) == [] and first_dstep(q) is None
    assert [n.key for n in trace(p, 64).leaves()] == [term_key(q)]
    # the cut on y cannot take the forwarder, so the cut on x's `id` step
    # is the one step, a D-step, and there is one normal form
    p, q = _only("def P = new y (new x ([x<->y] | wait x. close y) | "
                 "wait y. 0)")
    assert [(st.redex.rule, st.redex.cut.display)
            for st in step_all(q)] == [("id", "x")]
    assert first_dstep(q)[0].rule == "id"
    nfs = {term_key(n) for n in normal_forms(p)}
    assert len(nfs) == 1
    assert nfs == {n.key for n in full_trace(p, 64).leaves()}
    # without the second holder the forwarder's step is a D-step
    p, q = _only("def P = new y (new x ([x<->y] | wait x. 0) | close y)")
    assert first_dstep(q)[0].rule == "id"


# Typed processes whose full graph at bound 4 is complete (17 states),
# while the reduced graph (5 and 6 states) is cut there: a state that is
# not normal sits at depth 4 of the reduced graph, and it has steps.
# `trace` then explores the full graph and reports the search complete
# (ROADMAP, known defect 5). Every normal form is found, at its depth.
SPURIOUS_CUTS = (
    "(new x ((new w ([x<->w] | some w. close w) ++ none x) | "
    "(expect x []. wait x. 0 ++ expect x []. wait x. 0)) | "
    "new x_1 (some x_1. close x_1 | "
    "new w_2 ([x_1<->w_2] | expect w_2 []. wait w_2. 0)))",
    "(new x ((some x. none x ++ some x. new w ([x<->w] | some w. close w)) "
    "| expect x []. expect x []. wait x. 0) | "
    "new x_1 (x_1#b. wait x_1. 0 | x_1&{a: close x_1, b: close x_1}))",
)
SPURIOUS_SIZES = dict(zip(SPURIOUS_CUTS, (5, 6)))


def _graphs(text):
    p = parse_spi(f"def P = {text}").defs["P"][0]
    typecheck(p, {})
    return full_trace(p, 4), trace(p, 4)


@pytest.mark.parametrize("text", SPURIOUS_CUTS)
def test_reduced_graph_cut_where_the_full_one_is_complete_keeps_normal_forms(
        text):
    full, reduced = _graphs(text)
    assert (len(full.nodes), full.cause) == (17, "none")
    assert len(reduced.nodes) == SPURIOUS_SIZES[text]
    assert any(n.depth == 4 and n.has_steps and not n.expanded
               for n in reduced.nodes.values())
    assert {(n.key, n.depth) for n in reduced.leaves()} == \
        {(n.key, n.depth) for n in full.leaves()}


@pytest.mark.parametrize("text", SPURIOUS_CUTS)
def test_reduced_graph_cut_where_the_full_one_is_complete_has_its_cause(text):
    full, reduced = _graphs(text)
    assert reduced.cause == full.cause == "none"


def test_chain_that_crosses_the_bound_stops_at_it():
    # three closes, each a D-step once the one before is taken: at bound
    # 2 the chain from the root stops after two steps, at a state whose
    # D-step leaves the bound, and the search is cut there, as is the
    # full graph's; at bound 3 it runs to the normal form
    p, q = _only("def P = new a (close a | wait a. new b (close b | "
                 "wait b. new c (close c | wait c. 0)))")
    g = trace(p, 2)
    assert g.cause == full_trace(p, 2).cause == "depth"
    assert [(n.depth, n.expanded, n.has_steps) for n in g.nodes.values()] \
        == [(0, True, True), (2, False, True)]
    assert g.nodes[g.root].successors[0][0] == "close@a close@b"
    g = trace(p, 3)
    assert g.cause == "none"
    assert [(n.depth, n.successors) for n in g.nodes.values()] == \
        [(0, [("close@a close@b close@c", term_key(Inaction()))]),
         (3, [])]


# Chains whose raw spine holds what scope normalization drops: an unused
# restriction that the chain passes through, and a server whose last
# client was served. The uncollected server holds `a`, so the raw spine
# shows no D-step on the cut on a; the chain ends there, and its end's
# normal form, without the server, takes that D-step.
RAW_SPINES = {
    "new c (close c | wait c. new a (new u (close a | 0) | wait a. 0))":
        ["close@c close@a"],
    "new a (new x (?x!(r). close r | !x?(s). wait s. close a) | "
    "wait a. 0)": ["repl@x close@r", "close@a"],
}


@pytest.mark.parametrize("text", RAW_SPINES)
def test_chain_on_a_raw_spine_keeps_normal_forms_and_depths(text):
    p, _ = _only(f"def P = {text}")
    g = trace(p, 64)
    assert [label for n in g.nodes.values() for label, _ in n.successors] \
        == RAW_SPINES[text]
    assert {(n.key, n.depth) for n in g.leaves()} == \
        {(n.key, n.depth) for n in full_trace(p, 64).leaves()}
