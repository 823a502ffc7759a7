"""Reference linearity pre-pass for the differential test.

These are `lamtypes.check_linearity` and its hand-written occurrence walk
as they were before the walk was read off `lam.BINDING`, kept verbatim:
nine cases of `_occ`, one per constructor, with the helpers `_occ_bag`,
`_closed_linear` and `_merge_counts`. `test_linearity_oracle.py` checks
that the library raises the same error, or none, on every input.
"""

from eagerpi import lam as L
from eagerpi.lamtypes import LamTypeError


def _occ(m, counts):
    match m:
        case L.LinVar(v):
            counts[v] = counts.get(v, 0) + 1
        case L.UnrVar(_, _) | L.SuccessT():
            pass
        case L.Fail(vs):
            for v in vs:
                counts[v] = counts.get(v, 0) + 1
        case L.Abs(v, b):
            inner = {}
            _occ(b, inner)
            if inner.pop(v, 0) != 1:
                raise LamTypeError(
                    "LinearityViolation",
                    f"abstraction parameter {v.display} must be shared exactly once")
            _merge_counts(counts, inner)
        case L.App(f, bg):
            _occ(f, counts)
            _occ_bag(bg, counts)
        case L.Sharing(b, als, v):
            inner = {}
            _occ(b, inner)
            for a in als:
                if inner.pop(a, 0) != 1:
                    raise LamTypeError(
                        "LinearityViolation",
                        f"shared alias {a.display} must occur exactly once")
            _merge_counts(counts, inner)
            counts[v] = counts.get(v, 0) + 1
        case L.InterSub(b, bg, v):
            inner = {}
            _occ(b, inner)
            if inner.pop(v, 0) != 1:
                raise LamTypeError(
                    "LinearityViolation",
                    f"substituted variable {v.display} must occur exactly once")
            _merge_counts(counts, inner)
            _occ_bag(bg, counts)
        case L.LinSub(b, items, vs):
            inner = {}
            _occ(b, inner)
            for x in vs:
                if inner.pop(x, 0) != 1:
                    raise LamTypeError(
                        "LinearityViolation",
                        f"substitution variable {x.display} must occur exactly once")
            _merge_counts(counts, inner)
            for it in items:
                _occ(it, counts)
        case L.UnrSub(b, slots, v):
            inner = {}
            _occ(b, inner)
            inner.pop(v, None)
            _merge_counts(counts, inner)
            for s in slots:
                if s is not None:
                    _closed_linear(s)
        case _:
            raise TypeError(f"not a term: {m!r}")


def _occ_bag(bg, counts):
    for it in bg.linear:
        _occ(it, counts)
    for s in bg.unr:
        if s is not None:
            _closed_linear(s)


def _closed_linear(t):
    if L.llfv(t):
        raise LamTypeError(
            "LinearityViolation",
            "unrestricted bag elements may not use linear variables")


def _merge_counts(counts, inner):
    for v, k in inner.items():
        counts[v] = counts.get(v, 0) + k


def check_linearity(m, domain):
    counts = {}
    _occ(m, counts)
    for v, k in counts.items():
        if k != 1:
            raise LamTypeError("LinearityViolation",
                               f"{v.display} occurs {k} times")
        if v not in domain:
            raise LamTypeError("UnboundVariable",
                               f"{v.display} not in the linear context")
    for v in domain:
        if v not in counts:
            raise LamTypeError("LinearityViolation",
                               f"context entry {v.display} is unused")
