"""Differential test of `typecheck` against `reference_typecheck`.

The library keeps each selection's row open on its metavariable, merges
rows when metavariables unify and closes the rows still open at the end;
the reference left one `contains` constraint per selection and closed the
rows one nesting level per round. On every case below the two must give
the same verdict, the same context text and the same error code.

One kind of difference is expected and pinned: a clash between the rows
that the alternatives of `++` select on (a label whose continuation types
differ) is now found while the alternatives' contexts merge, so it is
reported as `BranchContextMismatch` where the reference, which found it
while closing rows, reported `TypeMismatch`.
"""

import importlib

import pytest

from eagerpi.eager import step_all
from eagerpi.gen import generate_corpus
from eagerpi.parser import parse_spi
from eagerpi.printer import ctx_text
from eagerpi.process import (Select, _children, _with_children,
                             scope_rewrites)
from tests import reference_typecheck as ref
from tests.conftest import load_spi

# the package exports the function `typecheck` under the module's name
new = importlib.import_module("eagerpi.typecheck")

ROW_SCRIPT = """
def SameLabel = x#a. x#a. 0 ++ x#a. x#b. 0
def TwoLabels = x#a. 0 ++ x#b. 0
def Offered = new x (x#a. 0 | x&{a: 0, b: 0})
def Closed = x#a. x#b. 0 ++ x#a. x#b. close x
def Forwarded = [x <-> y] | x#a. 0
def Clash = x#a. close x ++ x#a. wait x. 0
def Unoffered = new x (x#a. close x ++ x#b. close x | x&{a: wait x. 0})
def Nested = new x (x#a. x#a. close x | x&{a: x#a. wait x. 0})
def ThroughCut = new y (new x (x#a. [x<->y] | x&{a: [x<->w]}) | y#b. close y)
def ForwardedSums = new x ([x<->y] | x#a. x#a. 0) ++ new x ([x<->y] | x#b. 0)
def ThreeWays = x#a. x#a. close x ++ x#a. x#b. close x ++ x#b. close x
def Received = x?(y). y#a. close y ++ x?(y). y#b. close y
def Sent = x!(y)(y#a. close y | close x) ++ x!(y)(y#b. close y | close x)
"""

# (reference code, library code) for a row clash inside `++`
CLASH = ("TypeMismatch", "BranchContextMismatch")
PINNED = {"rows/Closed/infer": CLASH, "rows/Clash/infer": CLASH}


def outcome(module, p, ctx):
    """What the checker `module` says of p: its context text when p
    checks (against ctx, or inferred when ctx is None), else the error
    code."""
    try:
        if ctx is None:
            return "ok", ctx_text(module.infer_context(p))
        return "ok", ctx_text(module.typecheck(p, ctx))
    except module.SessionTypeError as e:
        return "error", e.code


def judgments(label, p, ctx):
    yield f"{label}/infer", p, None
    if ctx is not None:
        yield f"{label}/check", p, ctx


def relabelled(p):
    """Copies of p with the label of one selection replaced by a label
    no branch offers: ill-typed wherever the selection meets a branch."""
    if isinstance(p, Select):
        yield _with_children(p, (p.cont,), {"label": "zz"})
    kids = _children(p)
    for i, q in enumerate(kids):
        for q2 in relabelled(q):
            yield _with_children(p, kids[:i] + (q2,) + kids[i + 1:])


def with_targets(label, p, ctx, rewrites=False):
    """p, its one-step targets, its relabelled copies and, with rewrites,
    its scope rewrites, each inferred and checked against ctx."""
    yield from judgments(label, p, ctx)
    for i, st in enumerate(step_all(p)):
        yield from judgments(f"{label}/step{i}", st.target, ctx)
    for i, q in enumerate(relabelled(p)):
        yield from judgments(f"{label}/relabel{i}", q, ctx)
    if rewrites:
        for i, q in enumerate(scope_rewrites(p)):
            yield from judgments(f"{label}/rewrite{i}", q, ctx)


def corpus_cases():
    for file in ("movie.spi", "vm.spi", "generated.spi"):
        src = load_spi(file)
        for name in src.order:
            proc, _, ctx = src.defs[name]
            yield from with_targets(f"{file}/{name}", proc, ctx,
                                    rewrites=True)


def generated_cases():
    for i, p in enumerate(generate_corpus(7, 300)):
        yield from with_targets(f"gen{i}", p, None)


def row_cases():
    src = parse_spi(ROW_SCRIPT)
    for name in src.order:
        yield from judgments(f"rows/{name}", src.defs[name][0], None)


def differences(cases):
    seen, out = 0, {}
    for label, p, ctx in cases:
        seen += 1
        want, got = outcome(ref, p, ctx), outcome(new, p, ctx)
        if want != got:
            out[label] = (want, got)
    assert seen, "no cases"
    return out


@pytest.mark.parametrize("cases", [corpus_cases, generated_cases])
def test_checker_matches_reference(cases):
    assert differences(cases()) == {}


def test_row_cases_match_reference_but_the_pinned_clash():
    diff = differences(row_cases())
    assert {label: (want[1], got[1]) for label, (want, got) in diff.items()
            if want[0] == got[0] == "error"} == PINNED
    assert set(diff) == set(PINNED)
