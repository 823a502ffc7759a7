"""Seeded generator of closed well-typed processes for the property
suites.

A process is produced by drawing a session type and synthesizing a pair of
implementations for the two endpoints of a cut, so typability at the empty
context holds by construction (and is re-checked by the suites). Choice
points inject sums of alternative implementations of the same protocol,
forwarder indirections, and parallel compositions of independent cuts.
"""

from __future__ import annotations

import random

from .names import NameSupply
from .process import (Client, Close, Expect, Forward, Inaction, Input,
                      NDChoice, NoneAvail, Output, Par, Process, Restrict,
                      Select, Server, SomeAvail, Wait, make_branch, par_all)
from .sessiontypes import (ROWS, TOKEN, Bang, Bot, ExpectT, Maybe, One, Parr,
                           Plus, Query, SessionType, Tensor, With, dual, row)

_LABELS = ("a", "b", "c")


def random_type(rng: random.Random, depth: int = 2) -> SessionType:
    """A random session type: constructors drawn from the table `TOKEN`
    down to `depth` levels, then `1` or `bot`; a labelled row has one or
    two entries."""
    if depth <= 0:
        return rng.choice((One, Bot))()
    cls = rng.choice(tuple(TOKEN))
    sub = lambda: random_type(rng, depth - 1)
    if cls in ROWS:
        return cls(row((l, sub()) for l in _LABELS[:rng.randint(1, 2)]))
    return cls(*(sub() for _ in cls.__match_args__))


def provider(rng: random.Random, x, t: SessionType, supply: NameSupply,
             fancy: bool = True) -> Process:
    """A process using exactly the name x at type t."""
    if fancy and rng.random() < 0.15:
        # forwarder indirection: new y ([x<->y] | provider(y, t))
        y = supply.fresh("w")
        return Restrict(y, Forward(x, y), provider(rng, y, t, supply, False))
    match t:
        case One():
            return Close(x)
        case Bot():
            return Wait(x, Inaction())
        case Tensor(a, b):
            y = supply.fresh("p")
            return Output(x, y, provider(rng, y, a, supply, fancy),
                          provider(rng, x, b, supply, fancy))
        case Parr(a, b):
            y = supply.fresh("q")
            return Input(x, y, Par(provider(rng, y, a, supply, fancy),
                                   provider(rng, x, b, supply, fancy)))
        case Plus(branches):
            lab, bt = rng.choice(branches)
            return Select(x, lab, provider(rng, x, bt, supply, fancy))
        case With(branches):
            return make_branch(x, [(lab, provider(rng, x, bt, supply, fancy))
                                   for lab, bt in branches])
        case Query(a):
            requests = []
            for _ in range(rng.randint(1, 2)):
                y = supply.fresh("r")
                requests.append(Client(x, y, provider(rng, y, a, supply, False)))
            return par_all(requests)
        case Bang(a):
            y = supply.fresh("s")
            return Server(x, y, provider(rng, y, a, supply, False))
        case Maybe(a):
            if rng.random() < 0.25:
                return NoneAvail(x)
            return SomeAvail(x, provider(rng, x, a, supply, fancy))
        case ExpectT(a):
            return Expect(x, (), provider(rng, x, a, supply, fancy))
    raise TypeError(f"not a session type: {t!r}")


def generate_process(rng: random.Random, supply: NameSupply) -> Process:
    x = supply.fresh("x")
    t = random_type(rng, rng.randint(1, 3))
    left = provider(rng, x, t, supply)
    if rng.random() < 0.4:
        alt = provider(rng, x, t, supply)
        left = NDChoice(left, alt)
    right = provider(rng, x, dual(t), supply)
    if rng.random() < 0.2:
        alt = provider(rng, x, dual(t), supply)
        right = NDChoice(right, alt)
    p = Restrict(x, left, right)
    if rng.random() < 0.2:
        y = supply.fresh("x")
        t2 = random_type(rng, 1)
        q = Restrict(y, provider(rng, y, t2, supply),
                     provider(rng, y, dual(t2), supply))
        p = Par(p, q)
    return p


def generate_corpus(seed: int, count: int) -> list:
    rng = random.Random(seed)
    supply = NameSupply(1)
    return [generate_process(rng, supply) for _ in range(count)]


def corpus_script(seed: int, count: int) -> str:
    from .printer import process_text
    lines = [f"-- generated well-typed processes (seed {seed})"]
    for i, p in enumerate(generate_corpus(seed, count)):
        lines.append(f"def G{i:03d} = {process_text(p)}")
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    import argparse

    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--count", type=int, default=104)
    args = ap.parse_args()
    print(corpus_script(args.seed, args.count), end="")
