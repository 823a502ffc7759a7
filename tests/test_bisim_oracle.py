"""Differential test of `bisim_eager` against `reference_bisim`.

The library explores both sides through one step table and decides
complete graphs by partition refinement; the reference explores each side
on its own and decides everything by the pair fixpoint. On every case,
at every depth and state cap below, the two must give the same verdict
and the same witness, and the truncation cause must be the one the
explorer reported. Since `bisim_eager` falls back on the fixpoint when
the roots' blocks differ, a refinement that splits too much would only
cost time there, so the refinement alone must also give the reference's
verdict on every pair of complete graphs.
"""

import itertools

import pytest

from eagerpi.equivalence import _graph, _refine, bisim_eager, ready_signature
from eagerpi.parser import parse_spi
from eagerpi.process import Par, canonicalize, scope_rewrites
from tests import reference_bisim as ref
from tests.conftest import load_spi

DEPTHS = (0, 1, 2, 3, 12, 64)
CAPS = (5, 6000)

# the `P | Q ~ Q | P` products of the benchmark's bisim workload
PRODUCTS = (("G025", "G031"), ("G054", "G037"), ("G061", "G092"))

MOMENT_OF_CHOICE = """
def P = x#a. close x
def Q = x#b. close x
def Late = x!(m)(close m | (P ++ Q))
def Early = x!(m)(close m | P) ++ x!(m)(close m | Q)
def Partner = x?(m). wait m. x&{a: wait x. 0, b: wait x. 0}
def R = new x (Late | Partner)
def S = new x (Early | Partner)
def LateIn = x?(m). (wait m. x#a. close x ++ wait m. x#b. close x)
def EarlyIn = x?(m). wait m. x#a. close x ++ x?(m). wait m. x#b. close x
def PartnerIn = x!(m)(close m | x&{a: wait x. 0, b: wait x. 0})
def RIn = new x (LateIn | PartnerIn)
def SIn = new x (EarlyIn | PartnerIn)
def Loop = new x (!x?(y). ?x!(z). ?z!(v). close v | ?x!(w). ?w!(v). close v)
"""

# bisimilar, though the one step of each is a different rule: a close
# against a communication, each next to the other's prefixes, stuck
RULES = """
def Close = new x (close x | wait x. 0)
def Comm = new y (y!(w)(0 | 0) | y?(w). 0)
def StuckClose = new a (close a | 0) | new b (wait b. 0 | 0)
def StuckComm = new c (c!(w)(0 | 0) | 0) | new d (d?(w). 0 | 0)
def ByClose = Close | StuckComm | StuckClose
def ByComm = Comm | StuckClose | StuckComm
"""


def corpus_cases(name):
    """Each definition against its first two scope rewrites and against
    the next definition."""
    src = load_spi(name)
    procs = [(n, src.defs[n][0]) for n in src.order]
    for i, (n, p) in enumerate(procs):
        rewrites = scope_rewrites(canonicalize(p))
        for j, r in enumerate(itertools.islice(rewrites, 2)):
            yield f"{n}~rewrite{j}", p, r
        if i + 1 < len(procs):
            yield f"{n}~{procs[i + 1][0]}", p, procs[i + 1][1]


def named_cases():
    vm = load_spi("vm.spi").defs
    gen = load_spi("generated.spi").defs
    moc = parse_spi(MOMENT_OF_CHOICE).defs
    yield "VM1~VM2", vm["VM1"][0], vm["VM2"][0]
    yield "VM2~VM1", vm["VM2"][0], vm["VM1"][0]
    for a, b in PRODUCTS:
        yield (f"{a}|{b}~{b}|{a}", Par(gen[a][0], gen[b][0]),
               Par(gen[b][0], gen[a][0]))
    yield "R~S", moc["R"][0], moc["S"][0]
    yield "RIn~SIn", moc["RIn"][0], moc["SIn"][0]
    yield "Loop~Loop", moc["Loop"][0], moc["Loop"][0]
    rules = parse_spi(RULES).defs
    yield "ByClose~ByComm", rules["ByClose"][0], rules["ByComm"][0]


CASES = {"generated": lambda: corpus_cases("generated.spi"),
         "vm": lambda: corpus_cases("vm.spi"),
         "movie": lambda: corpus_cases("movie.spi"),
         "named": named_cases}


def outcome(res):
    return res.verdict, res.witness


def refined(gp, rp, gq, rq):
    """The verdict of the partition refinement alone."""
    union = {**gq, **gp}
    block = _refine(union, {k: ready_signature(n.state)
                            for k, n in union.items()})
    return "bisimilar" if block[rp] == block[rq] else "distinguished"


@pytest.mark.parametrize("group", sorted(CASES))
def test_bisim_matches_reference(group):
    checked = 0
    for cid, p, q in CASES[group]():
        for depth, cap in itertools.product(DEPTHS, CAPS):
            res = bisim_eager(p, q, depth, cap)
            want = outcome(ref.bisim_eager(p, q, depth, cap))
            assert outcome(res) == want, (cid, depth, cap)
            # the cause is the explorer's own, p's graph first
            gp, rp, cause_p, _ = _graph(p, depth, cap)
            gq, rq, cause_q, _ = _graph(q, depth, cap)
            cause = cause_p if cause_p != "none" else cause_q
            assert res.cause == cause, (cid, depth, cap)
            if cause == "none":
                assert refined(gp, rp, gq, rq) == want[0], (cid, depth, cap)
            checked += 1
    assert checked
