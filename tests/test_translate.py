"""The term and type translations and the preservation harness."""

import json
import time

import pytest

from eagerpi import lam as L
from eagerpi.cli import main
from eagerpi.equivalence import _translate_fresh
from eagerpi.lamtypes import Mult, OMEGA, UnitT
from eagerpi.names import NameSupply
from eagerpi.parser import parse_lc, strict_type_of
from eagerpi.process import (BINDING, Forward, NoneAvail, SomeAvail,
                             _children, par_parts, sum_parts)
from eagerpi.sessiontypes import (Bang, ExpectT, Maybe, One, Parr, Tensor,
                                  With, dual)
from eagerpi.translate import (TranslationTooLarge, Translator,
                               check_translation_preservation,
                               translate, translate_contexts,
                               translate_list, translate_multiset,
                               translate_strict, translate_tuple)
from tests import reference_canon as ref
from tests.conftest import load_lc, perfbench_workloads

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
    p1, _ = translate(t)
    # same seed twice gives alpha-identical output, as translated
    tr1, tr2 = Translator(NameSupply(5)), Translator(NameSupply(5))
    q1 = tr1.term(t, tr1.supply.fresh("u"))
    q2 = tr2.term(t, tr2.supply.fresh("u"))
    assert ref.term_key(q1) == ref.term_key(q2)


def test_strict_unit_translation():
    assert translate_strict(U) == Maybe(One())


def test_omega_translation_at_zero():
    got = translate_multiset(OMEGA)
    assert got == ExpectT(Parr(Maybe(One()), ExpectT(Maybe(One()))))


def test_single_multiset_translation_unfolds_once():
    got = translate_multiset(Mult(U, 1))
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
    assert got.body.first == dual(translate_tuple(Mult(U, 1), (U,)))
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


# A term whose free variable has a name the translation also draws: the
# translation of `u` once forwarded u to itself, and the cut of `a <v>`
# once bound the bag's free v.
CAPTURES = {
    "T": "def T = u\nwf T [u: unit] : unit\n",
    "A": "def A = a <v>\n"
         "wf A [a: (unit ^ 1, unit) -> unit, v: unit] : unit\n",
}


def _binders(p):
    _, binder, _ = BINDING[type(p)]
    out = {getattr(p, binder)} if binder else set()
    for q in _children(p):
        out |= _binders(q)
    return out


@pytest.mark.parametrize("name", sorted(CAPTURES))
def test_translation_names_no_variable_of_the_term(name):
    src = parse_lc(CAPTURES[name])
    [(_, _, theta, gamma, tau)] = src.judgments
    m = src.defs[name][0]
    assert check_translation_preservation(theta, gamma, m, tau)
    p, ctx = translate(m, (theta, gamma, tau))
    assert _binders(p).isdisjoint(L.free_vars(m))
    # u, and one entry per variable of the judgment
    assert len(ctx) == len(theta) + len(gamma) + 1


@pytest.mark.parametrize("name, process, context", [
    ("T", "some u. [u<->u_2]", "u: maybe expect bot, u_2: maybe 1"),
    ("A", "new v_1 (some a. [a<->v_1] | expect v_1 [u,v]. ",
     "a: maybe expect (expect (expect (maybe 1 @ expect maybe (expect maybe"
     " 1 * expect (maybe 1 @ expect maybe 1))) * !&{1: maybe 1} * 1) * "
     "expect bot), v: maybe expect bot, u: maybe 1"),
])
def test_translate_prints_the_term_and_translation_names_apart(
        capsys, tmp_path, name, process, context):
    path = tmp_path / "capture.lc"
    path.write_text(CAPTURES[name])
    assert main(["translate", str(path), name, "--json"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["process"].startswith(process)
    assert record["context"] == context


@pytest.mark.parametrize("file", ["corr.lc", "ex32.lc"])
def test_no_binder_of_a_translation_is_free_in_its_term(file):
    for name, (m, *_) in load_lc(file).defs.items():
        p, _ = translate(m)
        assert not _binders(p) & L.free_vars(m), name


def test_oversized_translation_raises_before_building():
    """The benchmark family's 7-alias fetch would build 35,287 sum
    branches."""
    m = parse_lc(perfbench_workloads().lambda_script()).defs["A7_7"][0]
    for build in (translate, _translate_fresh):
        start = time.perf_counter()
        with pytest.raises(TranslationTooLarge):
            build(m)
        assert time.perf_counter() - start < 1
