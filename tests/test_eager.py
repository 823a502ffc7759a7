"""ND-contexts, commitment, redex search, and the eager engine."""

from eagerpi.contexts import (Hole, NPar, NRes, NSum, commit, decompositions,
                              is_dcontext, plug)
from eagerpi.eager import normal_forms, step_all, trace
from eagerpi.names import NameSupply
from eagerpi.process import (Close, Inaction, NDChoice, Par, Restrict, Select,
                             SomeAvail, Success, Wait, alpha_equal,
                             canonicalize, struct_congruent, sum_parts,
                             term_key)

s = NameSupply(1)
x, y = s.fresh("x"), s.fresh("y")


def test_commit_hole():
    assert isinstance(commit(Hole()), Hole)


def test_commit_drops_sum():
    n = NSum(Hole(), Close(x))
    assert isinstance(commit(n), Hole)


def test_commit_composed_clauses():
    n = NPar(NSum(Hole(), Close(y)), Close(x))
    c = commit(n)
    assert isinstance(c, NPar) and isinstance(c.ctx, Hole)
    assert is_dcontext(c) and not is_dcontext(n)


def test_plug_round_trip():
    n = NRes(x, NPar(Hole(), Close(y)), Wait(x, Inaction()))
    p = plug(n, Close(x))
    assert alpha_equal(p, Restrict(x, Par(Close(x), Close(y)),
                                   Wait(x, Inaction())))


def test_decompositions_prefixed():
    p = SomeAvail(x, Inaction())
    ds = decompositions(p)
    assert len(ds) == 1
    ctx, q = ds[0]
    assert isinstance(ctx, Hole) and q is p


def test_decompositions_sum_explores_both_sides():
    a, b = Close(x), Close(y)
    ds = decompositions(NDChoice(a, b))
    found = {id(q) for _, q in ds}
    assert found == {id(a), id(b)}


def test_decompositions_eve_has_three_branches(movie):
    eve = movie.defs["Eve"][0]
    assert len(decompositions(eve)) == 3


def test_movie_composition_three_steps(movie):
    comp = movie.defs["Composition"][0]
    steps = step_all(comp)
    assert len(steps) == 3
    targets = [movie.defs[f"Target{i}"][0] for i in (1, 2, 3)]
    for t in targets:
        assert any(struct_congruent(st.target, t) for st in steps)


def test_inaction_no_steps():
    assert step_all(Inaction()) == []


def test_close_wait_success():
    p = Restrict(x, Close(x), Wait(x, Success()))
    steps = step_all(p)
    assert len(steps) == 1
    assert steps[0].redex.rule == "close"
    assert struct_congruent(steps[0].target, Success())


def test_replication_keeps_server():
    # after serving one request the server stays available for the next
    from eagerpi.parser import parse_spi
    src = parse_spi(
        "def P = new x (!x?(y). close y"
        " | ?x!(z). wait z. ?x!(w). wait w. 0)")
    p = src.defs["P"][0]
    steps = step_all(p)
    assert [st.redex.rule for st in steps] == ["repl"]
    tgt = steps[0].target
    assert "Server" in repr(tgt)
    # and the remaining client can still be served to completion
    tr = trace(tgt, 10)
    assert any(isinstance(n.process, Inaction) for n in tr.leaves())


def test_step_all_closed_under_congruence(generated):
    from eagerpi.process import scope_rewrites
    import itertools
    names = generated.order[:6]
    for name in names:
        p = generated.defs[name][0]
        for q in itertools.islice(scope_rewrites(canonicalize(p)), 2):
            sp = {term_key(st.target) for st in step_all(p)}
            sq = {term_key(st.target) for st in step_all(q)}
            assert sp == sq or all(
                any(struct_congruent(a.target, b.target)
                    for b in step_all(q))
                for a in step_all(p))


def test_sum_congruence_keeps_other_branches():
    # a reduction inside one branch of a sum does not commit the sum
    inner = Restrict(x, Close(x), Wait(x, Inaction()))
    other = Select(y, "a", Close(y))
    p = NDChoice(inner, other)
    steps = step_all(p)
    assert len(steps) == 1
    assert len(sum_parts(steps[0].target)) == 2


def test_commitment_width_never_grows(generated):
    def max_width(p):
        return max([len(sum_parts(q)) for q in _all_nodes(p)] or [1])

    def _all_nodes(p):
        yield p
        for attr in ("left", "right", "payload", "cont"):
            q = getattr(p, attr, None)
            if q is not None and hasattr(q, "__class__") and not isinstance(q, (str, tuple)):
                from eagerpi.process import Process
                if isinstance(q, Process):
                    yield from _all_nodes(q)
        for lab, q in getattr(p, "branches", ()):
            yield from _all_nodes(q)

    for name in generated.order[:20]:
        p = canonicalize(generated.defs[name][0])
        w = max_width(p)
        for st in step_all(p):
            assert max_width(st.target) <= w


def test_redex_decompositions_reassemble(movie, vm):
    # plugging each redex context with its subprocess rebuilds the cut
    from eagerpi.process import Restrict as R
    for src in (movie.defs["Composition"][0], vm.defs["VM1"][0]):
        p = canonicalize(src)
        assert isinstance(p, R)
        for st in step_all(p):
            rdx = st.redex
            rebuilt = R(rdx.cut, plug(*rdx.left), plug(*rdx.right))
            assert struct_congruent(rebuilt, p)


def test_trace_movie_full_run_terminates(movie):
    full = movie.defs["Full"][0]
    tr = trace(full, 40)
    assert not tr.truncated
    leaves = tr.leaves()
    assert leaves and all(isinstance(n.process, Inaction) for n in leaves)


def test_trace_deadlocked_open_term_is_leaf():
    from eagerpi.process import Input
    p = Input(x, y, Close(x))  # open input, no partner
    tr = trace(p, 5)
    assert len(tr.nodes) == 1 and not tr.nodes[0].successors


def test_trace_random_strategy_deterministic(movie):
    comp = movie.defs["Composition"][0]
    t1 = trace(comp, 10, "random", seed=3)
    t2 = trace(comp, 10, "random", seed=3)
    assert [n.process for n in t1.nodes.values()] is not None
    assert ([term_key(n.process) for n in t1.nodes.values()]
            == [term_key(n.process) for n in t2.nodes.values()])


def test_normal_forms_movie(movie):
    comp = movie.defs["Composition"][0]
    nfs = normal_forms(comp, 40)
    assert len(nfs) == 1 and isinstance(nfs[0], Inaction)


def test_trace_bound_exhausted_flag(movie):
    tr = trace(movie.defs["Full"][0], 2)
    assert tr.truncated
    assert any(n.bound_exhausted for n in tr.nodes.values())


def _bfs_depths(nodes, root):
    depths = {root: 0}
    queue = [root]
    for key in queue:
        for _, k2 in nodes[key].succ:
            if k2 not in depths:
                depths[k2] = depths[key] + 1
                queue.append(k2)
    return depths


def test_exhaustive_trace_depths_are_minimal(generated):
    # G098 reaches some states by paths of different lengths; a depth-first
    # trace once found 20 of its 21 states at bound 6 and reported three
    # depths one too high
    from eagerpi.equivalence import explore
    p = generated.defs["G098"][0]
    tr = trace(p, 6)
    nodes, root, truncated = explore(p, 6)
    assert len(tr.nodes) == len(nodes) == 21
    assert not tr.truncated and not truncated
    depths = _bfs_depths(nodes, root)
    assert {term_key(n.process): n.depth for n in tr.nodes.values()} == depths
