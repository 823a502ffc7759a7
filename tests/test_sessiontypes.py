"""Duality and the session typechecker."""

import random

import pytest

from eagerpi.gen import random_type
from eagerpi.names import NameSupply
from eagerpi.parser import parse_spi, session_type_of
from eagerpi.printer import ctx_text
from eagerpi.process import (Close, Forward, Inaction, NDChoice, Par,
                             Restrict, Success, Wait)
from eagerpi.sessiontypes import (Bang, Bot, ExpectT, Maybe, One, Parr,
                                  Query, Tensor, dual, plus, with_)
from eagerpi.typecheck import (SessionTypeError, infer_context,
                               probe_deadlock_freedom, typecheck, typechecks)

s = NameSupply(1)
x, y = s.fresh("x"), s.fresh("y")


def test_dual_units():
    assert dual(One()) == Bot() and dual(Bot()) == One()


def test_dual_labeled_rows():
    t = plus([("c", One()), ("t", One())])
    assert dual(t) == with_([("c", Bot()), ("t", Bot())])


def test_dual_involution_randomized():
    rng = random.Random(99)
    for _ in range(1000):
        t = random_type(rng, 3)
        assert dual(dual(t)) == t


def test_dual_swaps_modalities():
    assert dual(Query(One())) == Bang(Bot())
    assert dual(Maybe(One())) == ExpectT(Bot())
    assert dual(Tensor(One(), Bot())) == Parr(Bot(), One())


def test_close_checks_at_unit():
    typecheck(Close(x), {x: One()})


def test_forwarder_checks_at_dual_pair():
    t = session_type_of("+{a: 1} * bot")
    typecheck(Forward(x, y), {x: t, y: dual(t)})
    with pytest.raises(SessionTypeError):
        typecheck(Forward(x, y), {x: t, y: t})


def test_vending_machines_typecheck(vm):
    assert typecheck(vm.defs["VM1"][0], {}) == {}
    assert typecheck(vm.defs["VM2"][0], {}) == {}


def test_choice_branches_need_equal_contexts():
    p = NDChoice(Close(x), Inaction())
    with pytest.raises(SessionTypeError) as e:
        typecheck(p, {x: One()})
    assert e.value.code == "BranchContextMismatch"


def test_choice_is_symmetric():
    a = NDChoice(Close(x), Wait(x, Inaction()))
    b = NDChoice(Wait(x, Inaction()), Close(x))
    ra = typechecks(a, {x: One()})
    rb = typechecks(b, {x: One()})
    assert ra == rb is False  # branches at different types both ways
    a2 = NDChoice(Close(x), Close(x))
    assert typechecks(a2, {x: One()})
    assert typechecks(NDChoice(Close(x), Close(x)), {x: One()})


def test_success_checks_empty_only():
    typecheck(Success(), {})
    with pytest.raises(SessionTypeError):
        typecheck(Success(), {x: One()})


def test_error_unbound_name():
    with pytest.raises(SessionTypeError) as e:
        typecheck(Close(x), {})
    assert e.value.code == "UnboundName"


def test_error_linear_unused():
    with pytest.raises(SessionTypeError) as e:
        typecheck(Inaction(), {x: One()})
    assert e.value.code == "LinearNameUnused"


def test_error_linear_reused():
    with pytest.raises(SessionTypeError) as e:
        typecheck(Par(Close(x), Close(x)), {x: One()})
    assert e.value.code == "LinearNameReused"


def test_error_mismatch():
    with pytest.raises(SessionTypeError) as e:
        typecheck(Close(x), {x: Bot()})
    assert e.value.code == "TypeMismatch"


def test_error_expect_dependencies():
    from eagerpi.process import Expect
    p = Expect(x, (), Par(Close(x), Wait(y, Inaction())))
    with pytest.raises(SessionTypeError) as e:
        typecheck(p, {x: ExpectT(One()), y: Bot()})
    assert e.value.code == "NonMonadicContextForExpect"


def test_error_server_captures_linear():
    from eagerpi.process import Server
    z = s.fresh("z")
    p = Server(x, z, Par(Close(z), Close(y)))
    with pytest.raises(SessionTypeError) as e:
        typecheck(p, {x: Bang(One()), y: One()})
    assert e.value.code == "NonServerContextForBang"


def _judge(text):
    """The context of a one-definition script `def D...`: checked against
    its ascription if it has one, else inferred."""
    p, _, ctx = parse_spi(f"def D{text}\n").defs["D"]
    return ctx_text(infer_context(p) if ctx is None else typecheck(p, ctx))


@pytest.mark.parametrize("text, code", [
    (" = wait x. close x", "LinearNameReused"),
    (" = x!(y)(close x | close y)", "LinearNameReused"),
    (" = x!(y)(close y | close y)", "LinearNameReused"),
    (" = !x?(y). ?x!(z). wait y. close z", "LinearNameReused"),
    (" = ?x!(y). (close x | close y)", "LinearNameReused"),
    (" = new x (close y | close z)", "UnboundName"),
    (" = new x (?x!(y). close y | ?x!(z). close z)", "TypeMismatch"),
    (" = new x (?x!(y). close y | close w)", "TypeMismatch"),
    (" = [x<->x]", "TypeMismatch"),
    (" [x: &{a: 1}] = x&{b: close x}", "TypeMismatch"),
    # a second client request on x, whose payload is the dual of the first
    (" = ?x!(y). ?x!(z). [y<->z]", "TypeMismatch"),
    (" = expect x [y]. close y", "NonMonadicContextForExpect"),
])
def test_each_rule_rejects_its_misuse(text, code):
    with pytest.raises(SessionTypeError) as e:
        _judge(text)
    assert e.value.code == code


@pytest.mark.parametrize("text, out", [
    (" = ?x!(y). close y", "x: ?1"),
    (" = ?x!(y). ?x!(z). (close y | close z)", "x: ?1"),
    (" [x: ?1] = ?x!(y). close y | ?x!(z). close z", "x: ?1"),
])
def test_client_requests_type_at_a_query(text, out):
    assert _judge(text) == out


def test_client_requests_against_a_server_type():
    with pytest.raises(SessionTypeError) as e:
        _judge(" [x: !1] = ?x!(y). close y")
    assert str(e.value) == \
        "TypeMismatch: expected ?1, found !1 at context entry x"


def test_unused_query_entry_is_weakened():
    typecheck(Inaction(), {x: Query(One())})


def test_corpus_typechecks_closed(generated):
    for name in generated.order:
        typecheck(generated.defs[name][0], {})


def test_probe_deadlock_freedom_examples(movie):
    p = Restrict(x, Close(x), Wait(x, Inaction()))
    assert probe_deadlock_freedom(p)
    assert probe_deadlock_freedom(movie.defs["Composition"][0])
    with pytest.raises(SessionTypeError):
        probe_deadlock_freedom(Close(x))  # not closed: precondition
