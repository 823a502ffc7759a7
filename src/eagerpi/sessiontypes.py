"""Session types and duality.

Branch rows are stored as sorted (label, type) tuples so that structural
equality is syntactic equality. Duality is the usual involution; it swaps
units, tensor/par, the labeled rows, the availability modalities, and the
client/server modalities. Walks over session types go through the tables
`DUAL` and `TOKEN` and the helpers `parts` and `rebuild` below, so none
needs a case per constructor.
"""

from __future__ import annotations

from dataclasses import dataclass


class SessionType:
    __slots__ = ()
    __match_args__ = ()  # the component fields; constructors list theirs


@dataclass(frozen=True)
class One(SessionType):
    pass


@dataclass(frozen=True)
class Bot(SessionType):
    pass


@dataclass(frozen=True)
class Tensor(SessionType):
    first: SessionType
    rest: SessionType


@dataclass(frozen=True)
class Parr(SessionType):
    first: SessionType
    rest: SessionType


@dataclass(frozen=True)
class Plus(SessionType):
    branches: tuple  # sorted ((label, SessionType), ...), non-empty


@dataclass(frozen=True)
class With(SessionType):
    branches: tuple


@dataclass(frozen=True)
class Query(SessionType):
    body: SessionType


@dataclass(frozen=True)
class Bang(SessionType):
    body: SessionType


@dataclass(frozen=True)
class Maybe(SessionType):
    """May produce a behavior, or fail."""
    body: SessionType


@dataclass(frozen=True)
class ExpectT(SessionType):
    """May consume a behavior that can fail."""
    body: SessionType


def row(items) -> tuple:
    items = tuple(sorted(items, key=lambda kv: kv[0]))
    labels = [k for k, _ in items]
    if not labels or len(set(labels)) != len(labels):
        raise ValueError("labeled rows must be non-empty with distinct labels")
    return items


def plus(items) -> Plus:
    return Plus(row(items))


def with_(items) -> With:
    return With(row(items))


# One constructor table serves every walk over session types: `DUAL` maps
# each constructor to its dual, and `parts`/`rebuild` list and rebuild a
# node's components (a labelled row's entry types, under its labels), so
# `dual` here and `zonk`, `_occurs`, `_default` and `unify` in `typecheck`
# need no case per constructor. `TOKEN` is each constructor's token in the
# concrete syntax, which the parser reads and the printer writes;
# `gen.random_type` draws constructors in its order, so reordering it
# changes every generated process.
DUAL = {}
for _a, _b in ((One, Bot), (Tensor, Parr), (Plus, With), (Query, Bang),
               (Maybe, ExpectT)):
    DUAL[_a], DUAL[_b] = _b, _a
TOKEN = {One: "1", Bot: "bot", Tensor: "*", Parr: "@", Plus: "+", With: "&",
         Query: "?", Bang: "!", Maybe: "maybe", ExpectT: "expect"}
ROWS = (Plus, With)  # the constructors that hold a labelled row


def parts(t) -> list:
    """The component types of t, in order: the entry types of a labelled
    row, else the constructor's fields (none for a metavariable)."""
    if type(t) in ROWS:
        return [v for _, v in t.branches]
    return [getattr(t, f) for f in t.__match_args__]


def rebuild(t, new_parts, cls=None) -> SessionType:
    """A node of constructor cls (t's own by default) holding new_parts,
    under t's labels if t is a labelled row."""
    if type(t) in ROWS:
        new_parts = (tuple(zip([k for k, _ in t.branches], new_parts)),)
    return (cls or type(t))(*new_parts)


def dual(t: SessionType) -> SessionType:
    """t's dual, kept on a constructor node in `_dual`: types hash by
    value, so only the node keys its dual without walking it again."""
    d = getattr(t, "_dual", None)
    if d is not None:
        return d
    cls = DUAL.get(type(t))
    if cls is not None:
        d = rebuild(t, [dual(c) for c in parts(t)], cls)
        object.__setattr__(t, "_dual", d)
        return d
    # metavariables carry their own dual partner
    partner = getattr(t, "partner", None)
    if partner is not None:
        return partner
    raise TypeError(f"not a session type: {t!r}")
