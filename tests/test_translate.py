"""The term and type translations and the preservation harness."""

from eagerpi import lam as L
from eagerpi.lamtypes import Mult, OMEGA, UnitT
from eagerpi.names import NameSupply
from eagerpi.parser import parse_lc, strict_type_of
from eagerpi.process import (Forward, NoneAvail, SomeAvail, par_parts,
                             sum_parts)
from eagerpi.sessiontypes import (Bang, ExpectT, Maybe, One, Parr, Tensor,
                                  With, dual)
from eagerpi.translate import (Translator, check_translation_preservation,
                               translate_contexts, translate_list,
                               translate_multiset, translate_strict,
                               translate_term, translate_tuple)
from tests import reference_canon as ref

U = UnitT()
SIGMA = strict_type_of("(unit^1, unit) -> unit")


def fresh_translator():
    return Translator(NameSupply(1))


def test_linear_variable_clause():
    tr = fresh_translator()
    u = tr.supply.fresh("u")
    v = tr.supply.fresh("x")
    p = tr.term(L.LinVar(v), u)
    assert isinstance(p, SomeAvail) and p.x == v
    assert isinstance(p.cont, Forward)


def test_failure_clause_is_parallel_nones():
    tr = fresh_translator()
    u = tr.supply.fresh("u")
    a, b = tr.supply.fresh("a"), tr.supply.fresh("b")
    p = tr.term(L.Fail(frozenset({a, b})), u)
    parts = par_parts(p)
    assert len(parts) == 3
    assert all(isinstance(q, NoneAvail) for q in parts)
    assert {q.x for q in parts} == {u, a, b}


def test_linear_substitution_permutation_width():
    src = parse_lc("def T = x1 <> {| <y, z> / x1, x2 |}")
    # note: x2 unused makes this ill-formed, but translation is total on
    # well-scoped input; we only count the committed alternatives
    tr = fresh_translator()
    u = tr.supply.fresh("u")
    p = tr.term(src.defs["T"][0], u)
    inner = p
    while not isinstance(inner, (list, tuple)):
        from eagerpi.process import Restrict, NDChoice
        if isinstance(inner, NDChoice):
            break
        assert isinstance(inner, Restrict)
        inner = inner.right
    assert len(sum_parts(inner)) == 2


def test_success_clause():
    from eagerpi.process import Success
    tr = fresh_translator()
    p = tr.term(L.SuccessT(), tr.supply.fresh("u"))
    assert isinstance(p, Success)


def test_translation_deterministic():
    src = parse_lc("def I = \\x. x1 [x1 <- x]\ndef T = I <I>")
    t = src.defs["T"][0]
    p1 = translate_term(t, Translator(NameSupply(1)).supply.fresh("u"),
                        translator=Translator(NameSupply(2)))
    # same seed twice gives alpha-identical output, as translated
    tr1, tr2 = Translator(NameSupply(5)), Translator(NameSupply(5))
    q1 = tr1.term(t, tr1.supply.fresh("u"))
    q2 = tr2.term(t, tr2.supply.fresh("u"))
    assert ref.term_key(q1) == ref.term_key(q2)


def test_strict_unit_translation():
    assert translate_strict(U) == Maybe(One())


def test_omega_translation_at_zero():
    got = translate_multiset(OMEGA, 0)
    assert got == ExpectT(Parr(Maybe(One()), ExpectT(Maybe(One()))))


def test_single_multiset_translation_unfolds_once():
    got = translate_multiset(Mult(U, 1), 0)
    omega = ExpectT(Parr(Maybe(One()), ExpectT(Maybe(One()))))
    want = ExpectT(Parr(Maybe(One()),
                        ExpectT(Maybe(Tensor(ExpectT(Maybe(One())), omega)))))
    assert got == want


def test_list_translation_is_indexed_server():
    got = translate_list((U, U))
    assert got == Bang(With((("1", Maybe(One())), ("2", Maybe(One())))))


def test_arrow_translation_shape():
    got = translate_strict(SIGMA)
    assert isinstance(got, Maybe) and isinstance(got.body, Parr)
    assert got.body.first == dual(translate_tuple(Mult(U, 1), (U,), 0))
    assert got.body.rest == Maybe(One())


def test_context_translation_empty():
    tr = fresh_translator()
    assert translate_contexts({}, {}, tr) == {}


def test_context_translation_strict_entry():
    tr = fresh_translator()
    v = tr.supply.fresh("x")
    ctx = translate_contexts({v: SIGMA}, {}, tr)
    assert ctx[tr.lin(v)] == Maybe(dual(translate_strict(SIGMA)))


def test_context_translation_unrestricted_entry():
    tr = fresh_translator()
    v = tr.supply.fresh("x")
    ctx = translate_contexts({}, {v: (U,)}, tr)
    assert ctx[tr.bang(v)] == dual(translate_list((U,)))


def test_preservation_identity(ex32):
    for kind, name, theta, gamma, tau in ex32.judgments:
        assert check_translation_preservation(theta, gamma,
                                              ex32.defs[name][0], tau)


def test_preservation_fail_at_unit():
    assert check_translation_preservation({}, {}, L.Fail(frozenset()), U)


def test_preservation_whole_corpus(corr):
    for kind, name, theta, gamma, tau in corr.judgments:
        if kind != "wf":
            continue
        assert check_translation_preservation(theta, gamma,
                                              corr.defs[name][0], tau)


def test_preservation_free_multiset_variable():
    src = parse_lc("def T = x1 [x1 <- v]")
    t = src.defs["T"][0]
    freemap = src.defs["T"][1]
    v = freemap["v"]
    assert check_translation_preservation({}, {v: Mult(U, 1)}, t, U)


def test_free_name_correspondence(corr):
    # translated free channels come from the term's variables plus u
    from eagerpi.process import free_names
    tr = fresh_translator()
    u = tr.supply.fresh("u")
    t = corr.defs["T02"][0]
    p = tr.term(t, u)
    assert free_names(p) <= {u} | {tr.lin(v) for v in L.free_vars(t)} \
        | {tr.bang(v) for v in L.free_vars(t)}


def test_commitment_tree_shape_is_seed_independent(ex32):
    from eagerpi.eager import trace
    from eagerpi.names import NameSupply
    from eagerpi.process import scope_normalize
    core = ex32.defs["M"][0].body
    shapes = set()
    for seed in (1, 42, 999):
        tr = Translator(NameSupply(seed))
        base = scope_normalize(tr.term(core, tr.supply.fresh("u")))
        tree = trace(base, 2)
        shapes.add((len(tree.nodes[tree.root].successors),
                    len(tree.at_depth(2))))
    assert shapes == {(6, 6)}
