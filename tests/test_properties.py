"""Executable theorem suites over the shipped corpus: type preservation
and progress for the process calculus, subject reduction and expansion for
the resource calculus."""

import itertools

from eagerpi import lam as L
from eagerpi.eager import step_all
from eagerpi.equivalence import explore
from eagerpi.lamtypes import check_wf, check_wt
from eagerpi.process import canonicalize, free_names, is_inert, scope_rewrites
from eagerpi.typecheck import typecheck
from tests.conftest import full_trace


def closed_corpus(generated, movie, vm):
    procs = [(name, generated.defs[name][0]) for name in generated.order]
    for src, names in ((movie, ("Composition", "Full", "Target1", "Target2",
                                "Target3")),
                       (vm, ("VM1", "VM2"))):
        procs.extend((n, src.defs[n][0]) for n in names)
    return procs


def test_corpus_size(generated, movie, vm):
    assert len(closed_corpus(generated, movie, vm)) >= 100


def test_free_names_have_distinct_displays(generated, movie, vm):
    """`term_key` keys a free name by its display alone, so two distinct
    free names of one state must never share a display."""
    for prog in (movie, vm, generated):
        for name, (p, *_) in prog.defs.items():
            nodes, _, _ = explore(p, 4)
            for q in [p] + [n.state for n in nodes.values()]:
                fn = free_names(q)
                assert len({n.display for n in fn}) == len(fn), (name, fn)


def test_type_preservation_under_congruence(generated, movie, vm):
    failures = []
    for name, p in closed_corpus(generated, movie, vm):
        for q in scope_rewrites(canonicalize(p)):
            try:
                typecheck(q, {})
            except Exception as e:
                failures.append((name, str(e)))
    assert not failures, failures[:3]


def test_type_preservation_under_reduction(generated, movie, vm):
    failures = []
    for name, p in closed_corpus(generated, movie, vm):
        for st in step_all(p):
            try:
                typecheck(st.target, {})
            except Exception as e:
                failures.append((name, st.redex.rule, str(e)))
    assert not failures, failures[:3]


def test_type_preservation_along_traces(generated):
    failures = []
    for name in generated.order[:25]:
        p = generated.defs[name][0]
        tr = full_trace(p, 12)
        for node in tr.nodes.values():
            try:
                typecheck(node.process, {})
            except Exception as e:
                failures.append((name, str(e)))
    assert not failures, failures[:3]


def test_progress_on_corpus(generated, movie, vm):
    stuck = []
    for name, p in closed_corpus(generated, movie, vm):
        if not is_inert(p) and not step_all(p):
            stuck.append(name)
    assert not stuck, stuck


def test_progress_along_traces(generated):
    stuck = []
    for name in generated.order[:25]:
        tr = full_trace(generated.defs[name][0], 12)
        for node in tr.nodes.values():
            if node.expanded and not node.successors \
                    and not is_inert(node.process):
                stuck.append(name)
    assert not stuck, stuck


def test_type_preservation_with_open_contexts(movie):
    # congruent rewrites of open processes retype against the same
    # (inferred) context
    from eagerpi.typecheck import infer_context
    for name in movie.order:
        p = movie.defs[name][0]
        ctx = infer_context(p)
        for q in scope_rewrites(canonicalize(p)):
            typecheck(q, ctx)


def _wf_judgments(*sources):
    for src in sources:
        for kind, name, theta, gamma, tau in src.judgments:
            if kind == "wf":
                yield src.defs[name][0], theta, gamma, tau


def _wt_judgments(*sources):
    for src in sources:
        for kind, name, theta, gamma, tau in src.judgments:
            if kind == "wt":
                yield src.defs[name][0], theta, gamma, tau


def test_subject_reduction(ex32, corr):
    failures = []
    for m, theta, gamma, tau in _wf_judgments(ex32, corr):
        reached, _ = L.reachable(m, 16)
        for m2 in reached:
            try:
                check_wf(theta, gamma, m2, tau)
            except Exception as e:
                from eagerpi.printer import lam_text
                failures.append((lam_text(m2), str(e)))
    assert not failures, failures[:3]


def test_subject_expansion(ex32, corr):
    failures = []
    for m, theta, gamma, tau in _wt_judgments(ex32, corr):
        reached, _ = L.reachable(m, 16)
        for m2 in reached:
            for pred in L.expansions(m2):
                # the oracle's output must actually step to its source
                assert any(L.lam_alpha_equal(t, m2)
                           for _, t in L.step_all(pred))
                try:
                    check_wt(theta, gamma, pred, tau)
                except Exception as e:
                    from eagerpi.printer import lam_text
                    failures.append((lam_text(pred), str(e)))
    assert not failures, failures[:3]
