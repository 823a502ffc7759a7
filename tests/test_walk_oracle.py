"""Differential test of the table-driven binder walks in `eagerpi.process`
and `eagerpi.lam` against the hand-written walks they replaced
(`reference_walks.py`).

Processes: every `.spi` corpus definition, a generated corpus, every state
of `explore(translate(M), 4)` for the `corr.lc` terms, a few processes
whose binders shadow a free name, and random processes over all seventeen
constructors. Terms: every `.lc` definition and every
term `lam.reachable` finds from it at bound 16. Each check runs at every
subprocess or subterm, not only at the root.

Free-name sets and splits must be equal; substitution and renaming must
give equal results for every ordered pair of distinct free names (of any
two distinct names, free or bound, in a lambda term); and
freshening with two `NameSupply(1)` instances must hand out the same ids
to the same binders, which pins the order: a node's binders first, then
its body, then its other subterms.
"""

import dataclasses

import pytest
from hypothesis import given, settings

from eagerpi import gen
from eagerpi import lam as L
from eagerpi.equivalence import explore
from eagerpi.lam import Bag, LinSub, Term
from eagerpi.names import Name, NameSupply
from eagerpi.process import (BINDING, Client, Close, Input, Output, Par,
                             Process, Restrict, Server, Wait, _children,
                             _with_children, free_name_split, free_names,
                             freshen_binders, rename_free, substitute)
from tests import reference_walks as ref
from tests.conftest import load_lc, spi_corpus, translations
from tests.reference_canon import term_key  # the key of a raw process
from tests.test_invariants import processes


def _nodes(x):
    """x and every process, term or bag below it, found through the
    dataclass fields (independently of the binding tables)."""
    out, todo = [], [x]
    while todo:
        v = todo.pop()
        if isinstance(v, (Process, Term, Bag)):
            out.append(v)
            todo.extend(getattr(v, f.name) for f in dataclasses.fields(v))
        elif isinstance(v, tuple):
            todo.extend(v)
    return out


def _exact(x):
    """x as nested tuples that keep every name with its id; a frozenset
    stays a set, since its repr depends on how it was built."""
    if isinstance(x, (Process, Term, Bag)):
        return (type(x).__name__,) + tuple(
            _exact(getattr(x, f.name)) for f in dataclasses.fields(x))
    if isinstance(x, tuple):
        return tuple(map(_exact, x))
    if isinstance(x, frozenset):
        return frozenset(map(_exact, x))
    return x


def _names_in(x):
    """Every name in x, free or bound."""
    out = set()
    for node in _nodes(x):
        for f in dataclasses.fields(node):
            v = getattr(node, f.name)
            vs = v if isinstance(v, (tuple, frozenset)) else (v,)
            out.update(n for n in vs if isinstance(n, Name))
    return out


def _renaming(names):
    """Each name to a new name that occurs nowhere else."""
    return {n: Name(n.id + 10 ** 9, n.display) for n in names}


def _pairs(names):
    ordered = sorted(names, key=lambda n: n.id)
    return [(new, old) for old in ordered for new in ordered if new != old]


def check_process(p):
    for q in _nodes(p):
        if not isinstance(q, Process):
            continue
        fn = free_names(q)
        assert fn == ref.free_names(q)
        assert free_name_split(q) == ref.free_name_split(q)
        kids = _children(q)
        assert kids == ref._children(q)
        assert _exact(_with_children(q, kids[::-1])) == \
            _exact(ref._with_children(q, kids[::-1]))
        for new, old in _pairs(fn):
            a, b = substitute(q, new, old), ref.substitute(q, new, old)
            assert term_key(a) == term_key(b)
            assert free_names(a) == ref.free_names(b)
            assert _exact(a) == _exact(b)
        mapping = _renaming(fn)
        assert _exact(rename_free(q, mapping)) == \
            _exact(ref.rename_free(q, mapping))
    assert _exact(freshen_binders(p, NameSupply(1))) == \
        _exact(ref.freshen_binders(p, NameSupply(1)))


def check_term(m):
    for t in _nodes(m):
        fv = L.free_vars(t)
        assert fv == ref.free_vars(t)
        if isinstance(t, Bag):
            assert L.llfv_bag(t) == ref.llfv_bag(t)
            continue
        assert L.llfv(t) == ref.llfv(t)
        if isinstance(t, LinSub):
            assert L.llfv_items(t.items) == ref.llfv_items(t.items)
        # the parser makes binders unique, so renaming a bound name is the
        # only way to see that binders shadow
        for new, old in _pairs(_names_in(t)):
            assert _exact(L.rename_var(t, new, old)) == \
                _exact(ref.rename_var(t, new, old))
        mapping = _renaming(fv)
        sequential = t
        for old, new in mapping.items():
            sequential = ref.rename_var(sequential, new, old)
        assert _exact(L.rename_vars(t, mapping)) == _exact(sequential)
    assert _exact(L.freshen_term(m, NameSupply(1))) == \
        _exact(ref.freshen_term(m, NameSupply(1)))


def _translated_states():
    return [n.state for p in translations().values()
            for n in explore(p, 4)[0].values()]


def _shadowing():
    """A free name bound again below, once under each binding constructor;
    the parser makes binders unique, so only these show shadowing."""
    a, b = Name(1, "a"), Name(2, "b")
    uses = Par(Close(a), Close(b))
    return [Par(Close(a), q) for q in (
        Restrict(a, Close(a), Wait(b, Close(a))),
        Output(b, a, Close(a), uses),
        Input(b, a, uses),
        Client(b, a, uses),
        Server(b, a, uses))]


PROCESS_SOURCES = {
    "shadowing": _shadowing,
    "spi-corpus": lambda: list(spi_corpus().values()),
    "generated": lambda: gen.generate_corpus(11, 40),
    "corr-states": _translated_states,
}


@pytest.mark.parametrize("source", sorted(PROCESS_SOURCES))
def test_process_walks_match_reference(source):
    procs = PROCESS_SOURCES[source]()
    assert procs
    for p in procs:
        check_process(p)


def test_every_constructor_is_covered():
    """The sources above reach every row of the binding table."""
    seen = {type(q) for src in PROCESS_SOURCES.values() for p in src()
            for q in _nodes(p)}
    assert set(BINDING) <= seen


@given(processes)
@settings(max_examples=300)
def test_random_process_walks_match_reference(p):
    check_process(p)


@pytest.mark.parametrize("file", ["corr.lc", "ex32.lc"])
def test_lambda_walks_match_reference(file):
    for term, _ in load_lc(file).defs.values():
        terms, _ = L.reachable(term, 16)
        for t in terms:
            check_term(t)


def test_substitute_shares_what_it_does_not_change():
    """Substituting for a name that is not free returns the process itself;
    otherwise every subprocess without the name is kept, not copied."""
    ghost = Name(0, "ghost")
    procs = [*spi_corpus().values(), *gen.generate_corpus(11, 40)]
    for p in procs + _translated_states():
        assert substitute(p, ghost, Name(-1, "absent")) is p
        for _, old in _pairs(free_names(p)):
            q = substitute(p, ghost, old)
            for a, b in zip(_children(p), _children(q)):
                assert b is a or old in free_names(a)

