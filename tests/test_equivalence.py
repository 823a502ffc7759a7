"""Ready prefixes, prefix compatibility, the branch-count precongruence,
bisimilarity, and success predicates."""

import random
from itertools import islice

from eagerpi.equivalence import (Prefix, bisim_eager, nd_precongruence,
                                 prefix_compatible, ready_prefixes,
                                 succeeds_pi)
from eagerpi.gen import generate_process
from eagerpi.names import NameSupply
from eagerpi.parser import parse_spi
from eagerpi.process import (Close, Inaction, NDChoice, Par, Restrict,
                             SomeAvail, Success, Wait, canonicalize,
                             scope_rewrites)

s = NameSupply(1)
x, y, z = s.fresh("x"), s.fresh("y"), s.fresh("z")


def test_ready_prefix_some():
    ps = ready_prefixes(SomeAvail(x, Inaction()))
    assert {p.kind for p in ps} == {"some"}


def test_ready_prefixes_interfaces(vm):
    for name in ("IF1", "IF2"):
        ps = ready_prefixes(vm.defs[name][0])
        assert {(p.kind, p.subject.display) for p in ps} == {("out", "x")}


def test_ready_prefixes_guarded_not_included(movie):
    eve = movie.defs["Eve"][0]
    ps = ready_prefixes(eve)
    # all three branches expose selections on s; continuations are guarded
    assert all(p.kind == "sel" for p in ps)
    assert {p.extra[0] for p in ps} == {"buy", "peek"}


def test_compatible_outputs_ignore_payload():
    a = Prefix("out", x)
    b = Prefix("out", x)
    c = Prefix("out", y)
    assert prefix_compatible(a, b)
    assert not prefix_compatible(a, c)


def test_compatible_inputs_ignore_payload():
    assert prefix_compatible(Prefix("in", x), Prefix("in", x))


def test_compatible_selects_need_identity():
    assert not prefix_compatible(Prefix("sel", x, ("buy",)),
                                 Prefix("sel", x, ("peek",)))
    assert prefix_compatible(Prefix("sel", x, ("buy",)),
                             Prefix("sel", x, ("buy",)))


def test_compatible_randomized_properties():
    rng = random.Random(3)
    kinds = ("out", "in", "sel", "close", "some", "none")
    names = [x, y, z]
    for _ in range(1000):
        a = Prefix(rng.choice(kinds), rng.choice(names),
                   ("l",) if rng.random() < 0.3 else ())
        b = Prefix(rng.choice(kinds), rng.choice(names),
                   ("l",) if rng.random() < 0.3 else ())
        # reflexive, symmetric
        assert prefix_compatible(a, a)
        assert prefix_compatible(a, b) == prefix_compatible(b, a)
        if prefix_compatible(a, b):
            assert a.kind == b.kind and a.subject == b.subject


def test_precongruence_projection():
    p, q = Close(x), Wait(x, Inaction())
    assert nd_precongruence(NDChoice(p, q), p)
    assert nd_precongruence(NDChoice(p, q), q)


def test_precongruence_reflexive_randomized():
    rng = random.Random(17)
    supply = NameSupply(1)
    for _ in range(60):
        p = generate_process(rng, supply)
        assert nd_precongruence(p, p)


def test_precongruence_rules_randomized():
    rng = random.Random(23)
    supply = NameSupply(1)
    for _ in range(1000):
        p = generate_process(rng, supply)
        q = generate_process(rng, supply)
        # sum projection
        assert nd_precongruence(NDChoice(p, q), p)
        # parallel congruence
        assert nd_precongruence(Par(NDChoice(p, q), q), Par(p, q))
        # restriction congruence
        w = supply.fresh("w")
        assert nd_precongruence(Restrict(w, NDChoice(p, q), q),
                                Restrict(w, p, q))


def test_precongruence_strict_direction():
    p = Close(x)
    q = Wait(x, Inaction())
    assert not nd_precongruence(p, NDChoice(p, q))


def test_precongruence_not_under_prefixes():
    p = SomeAvail(x, NDChoice(Close(x), Wait(x, Inaction())))
    q = SomeAvail(x, Close(x))
    assert not nd_precongruence(p, q)


def test_bisim_self(vm):
    assert bisim_eager(vm.defs["VM1"][0], vm.defs["VM1"][0]).verdict == "bisimilar"


def test_bisim_distinguishes_vending_machines(vm):
    res = bisim_eager(vm.defs["VM1"][0], vm.defs["VM2"][0])
    assert res.verdict == "distinguished"
    assert res.witness
    assert res.witness[-1]["kind"] in ("ready-mismatch", "no-response")


def test_bisim_symmetric(vm):
    res = bisim_eager(vm.defs["VM2"][0], vm.defs["VM1"][0])
    assert res.verdict == "distinguished"


def test_bisim_transitively_consistent(movie):
    # bisimilar results compose: composition ~ itself after renaming binders
    from eagerpi.process import freshen_binders
    p = movie.defs["Composition"][0]
    q = freshen_binders(p)
    assert bisim_eager(p, q).verdict == "bisimilar"


def test_moment_of_choice_instances():
    # committed-choice machines against a late-choice machine over one cut:
    # prefix-compatible heads, inequivalent continuations
    src = parse_spi("""
def P = x#a. close x
def Q = x#b. close x
def Late = x!(m)(close m | (P ++ Q))
def Early = x!(m)(close m | P) ++ x!(m)(close m | Q)
def Partner = x?(m). wait m. x&{a: wait x. 0, b: wait x. 0}
def R = new x (Late | Partner)
def S = new x (Early | Partner)
""")
    r, sP = src.defs["R"][0], src.defs["S"][0]
    res = bisim_eager(r, sP)
    assert res.verdict == "distinguished"


def test_bisim_inconclusive_on_unbounded_server():
    # an untyped self-feeding server grows its state space forever
    src = parse_spi("""
def Loop = new x (!x?(y). ?x!(z). ?z!(v). close v | ?x!(w). ?w!(v). close v)
""")
    # its graph is cut, so it cannot be found bisimilar; the result names
    # the bound that cut it
    p = src.defs["Loop"][0]
    res = bisim_eager(p, p, depth=3, max_states=40)
    assert (res.verdict, res.cause) == ("inconclusive", "depth")
    res = bisim_eager(p, p, depth=64, max_states=40)
    assert (res.verdict, res.cause) == ("inconclusive", "states")


def test_bisim_cut_at_the_default_depth_stays_inconclusive(generated):
    # G005 against its second scope rewrite: at the default depth 12 each
    # graph is cut one step short of complete, so the pair fixpoint (over
    # the pairs reachable from the roots' pair) decides nothing, and the
    # result names the depth; at depth 64 both graphs are complete
    p = generated.defs["G005"][0]
    r = list(islice(scope_rewrites(canonicalize(p)), 2))[1]
    res = bisim_eager(p, r)
    assert (res.verdict, res.cause, res.witness) == \
        ("inconclusive", "depth", None)
    res = bisim_eager(p, r, depth=64)
    assert (res.verdict, res.cause) == ("bisimilar", "none")


def test_success_predicates():
    assert succeeds_pi(Success())[0]
    from eagerpi.process import NoneAvail
    assert not succeeds_pi(NoneAvail(x))[0]
    p = Restrict(x, Close(x), Wait(x, Success()))
    assert succeeds_pi(p)[0]


def test_success_lambda_and_translation_agree(corr):
    from eagerpi.equivalence import check_success_sensitivity
    rep = check_success_sensitivity(corr.defs["T03"][0], 30)
    assert rep["agrees"] and rep["lambda"] and rep["pi"]


def test_success_sensitivity_cut_search_is_undecided(corr):
    # T01 never succeeds, but bound 2 cuts both its graphs before they
    # are complete: no success seen is not agreement
    from eagerpi.equivalence import check_success_sensitivity
    rep = check_success_sensitivity(corr.defs["T01"][0], 2)
    assert not rep["lambda"] and not rep["pi"]
    assert not rep["agrees"] and rep["exhausted"]


def test_loose_completeness_value_vacuous(corr):
    from eagerpi.equivalence import check_loose_completeness
    rep = check_loose_completeness(corr.defs["T15"][0], 10)
    assert rep["ok"] and rep["reducts"] == []


def test_ready_prefixes_congruence_invariant(generated):
    from eagerpi.process import scope_rewrites, canonicalize
    import itertools
    for name in generated.order[:10]:
        p = generated.defs[name][0]
        base = {(q.kind,) + tuple(q.extra) for q in ready_prefixes(p)}
        for q in itertools.islice(scope_rewrites(canonicalize(p)), 2):
            got = {(r.kind,) + tuple(r.extra) for r in ready_prefixes(q)}
            assert got == base


def test_moment_of_choice_input_headed():
    src = parse_spi("""
def LateIn = x?(m). (wait m. x#a. close x ++ wait m. x#b. close x)
def EarlyIn = x?(m). wait m. x#a. close x ++ x?(m). wait m. x#b. close x
def Partner = x!(m)(close m | x&{a: wait x. 0, b: wait x. 0})
def R = new x (LateIn | Partner)
def S = new x (EarlyIn | Partner)
""")
    res = bisim_eager(src.defs["R"][0], src.defs["S"][0])
    assert res.verdict == "distinguished"


def test_soundness_states_cut_by_the_cap_are_pending(corr):
    # the 10-state cap stops exploring T03's translation (26 states at
    # bound 30) with queued states whose steps were never computed: they
    # are unknown, not failures
    # an uncapped record of the same term and bound, read before and
    # after, must neither answer the capped call nor be answered by it
    from eagerpi.equivalence import (check_loose_completeness,
                                     check_loose_soundness)
    m = corr.defs["T03"][0]
    assert check_loose_completeness(m, 30)["ok"]
    rep = check_loose_soundness(m, 30, max_states=10)
    assert rep["failures"] == 0
    assert not rep["ok"] and rep["exhausted"]
    assert check_loose_soundness(m, 30)["ok"]


def test_correspondence_lambda_side_respects_the_cap(corr):
    # T14 reaches OK within 8 lambda terms; a cap of 4 cuts that search
    from eagerpi import lam as L
    from eagerpi.equivalence import check_success_sensitivity
    m = corr.defs["T14"][0]
    assert L.succeeds(m, 30) == (True, False)
    assert L.succeeds(m, 30, max_states=4) == (False, True)
    assert not L.reachable(m, 30)[1] and L.reachable(m, 30, 4)[1]
    rep = check_success_sensitivity(m, 30, max_states=4)
    assert not rep["lambda"] and rep["exhausted"]
