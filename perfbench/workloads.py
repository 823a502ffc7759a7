"""Seeded inputs and checks for the benchmark workloads.

A workload is a fixed list of checks. One check is one CLI-equivalent
verdict (`correspond` on a term; `check`, `step --all`, `run` or the
preservation sweep on a process; `bisim` on a pair; one SR/SE judgment on
a lambda term). Each check calls the same library entry points as the CLI
command it stands for and returns `(verdict, counts)`: the verdict is
compared with `known_answers.json`, the counts are the exact work counts
that must not depend on traversal order.

Four workloads: `correspond`, `spi-corpus` and `bisim` put their work in
the process layers, `lambda` runs the lambda-calculus checks, which
bypass every process layer.

The seed never changes which checks run or how much work they do. It sets
the order of the checks in a pass, and for processes it also picks a
structurally congruent variant of every input (the sides of `|`, `++` and
cuts swapped at random), so the state spaces, and the cost of a pass, are
the same for every seed and the exact counts double as an invariance
test. Lambda terms are not permuted: `lam_key` keys a linear bag as a
sequence, so permuting equal items changes the number of reachable keys
(and the work) even though the multiset is the same.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
from pathlib import Path

from eagerpi import lam as L
from eagerpi.eager import step_all, trace
from eagerpi.equivalence import (bisim_eager, check_loose_completeness,
                                 check_loose_soundness,
                                 check_success_sensitivity)
from eagerpi.lamtypes import check_wf, check_wt
from eagerpi.parser import parse_lc, parse_spi
from eagerpi.printer import lam_text, process_text
from eagerpi.process import (Branch, NDChoice, Par, Process, Restrict,
                             canonicalize, is_inert, scope_rewrites,
                             struct_congruent)
from eagerpi.typecheck import typecheck

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"
KNOWN_ANSWERS = Path(__file__).resolve().parent / "known_answers.json"


CORRESPOND_BOUND = 30   # `eagerpi correspond` default
RUN_BOUND = 64          # `eagerpi run` default
BISIM_DEPTH = 64        # deep enough that every pair's graph is complete

# criterion 9 of the acceptance gate, minus ex32 `M` (one check of M takes
# about 35 s, longer than a benchmark run)
CORRESPOND_TERMS = ("T01", "T02", "T03", "T04", "T06", "T08", "T10", "T11",
                    "T12", "T15", "T16", "T17", "T18")

# P | Q against Q | P; each side's own graph has the state count in the
# comment, so the product graphs have 81 to 324 states
BISIM_PRODUCTS = (("G025", "G031"),   # 9 x 9
                  ("G054", "G037"),   # 12 x 11
                  ("G061", "G092"))   # 18 x 18
# a process against one of its scope-axiom rewrites
BISIM_REWRITES = ("G009", "G087", "G098", "G000", "G096", "G075", "G018",
                  "G016", "G032")

LAMBDA_ARITIES = range(3, 11)   # aliases k of the fetch family
LAMBDA_TOWERS = range(1, 9)     # nesting depth of the identity towers


@dataclasses.dataclass
class Check:
    id: str
    run: object          # () -> (verdict, counts)


@dataclasses.dataclass
class Workload:
    checks: list         # one pass, in the seed's order
    inputs_digest: str   # printed inputs, so equal seeds show equal inputs


# ---------------------------------------------------------------------------
# Congruent variants

def shuffle_process(p: Process, rng: random.Random) -> Process:
    """A structurally congruent variant of p: the two sides of every
    parallel, sum and cut are swapped at random."""
    if isinstance(p, Branch):
        return Branch(p.x, tuple((k, shuffle_process(b, rng))
                                 for k, b in p.branches))
    changes = {f.name: shuffle_process(v, rng)
               for f in dataclasses.fields(p)
               if isinstance(v := getattr(p, f.name), Process)}
    if isinstance(p, (Par, NDChoice, Restrict)) and rng.random() < 0.5:
        changes["left"], changes["right"] = changes["right"], changes["left"]
    return dataclasses.replace(p, **changes) if changes else p


def _read(name):
    return (CORPUS / name).read_text(encoding="utf-8")


def _finish(checks, rng, printed):
    rng.shuffle(checks)
    text = "\n".join(printed + [c.id for c in checks])
    return Workload(checks, hashlib.sha256(text.encode()).hexdigest()[:16])


# ---------------------------------------------------------------------------
# correspond

def _correspond_check(term):
    def run():
        comp = check_loose_completeness(term, CORRESPOND_BOUND)
        snd = check_loose_soundness(term, CORRESPOND_BOUND)
        sens = check_success_sensitivity(term, CORRESPOND_BOUND)
        verdict = {"completeness": comp["ok"], "soundness": snd["ok"],
                   "success_sensitivity": sens["agrees"],
                   "exhausted": (comp["exhausted"] or snd["exhausted"]
                                 or sens["exhausted"])}
        return verdict, [len(comp["reducts"]), snd["states"]]
    return run


def correspond(seed: int) -> Workload:
    rng = random.Random(seed)
    corr = parse_lc(_read("corr.lc"))
    checks, printed = [], []
    for name in CORRESPOND_TERMS:
        term = corr.defs[name][0]
        printed.append(lam_text(term))
        checks.append(Check(f"correspond/{name}", _correspond_check(term)))
    return _finish(checks, rng, printed)


# ---------------------------------------------------------------------------
# spi-corpus

def _typecheck_check(p):
    def run():
        typecheck(p, {})
        return "ok", []
    return run


def _step_check(p):
    def run():
        steps = step_all(p)
        return {"progress": bool(steps) or is_inert(p)}, [len(steps)]
    return run


def _run_check(p):
    def run():
        tr = trace(p, RUN_BOUND)
        leaves = tr.leaves()
        verdict = {"exhausted": tr.truncated,
                   "normal_forms_inert": all(is_inert(n.process)
                                             for n in leaves)}
        return verdict, [len(tr.nodes), len(leaves)]
    return run


def _preserve_check(p):
    def run():
        failures = rewrites = 0
        for q in scope_rewrites(canonicalize(p)):
            rewrites += 1
            failures += not _retypes(q)
        steps = step_all(p)
        failures += sum(not _retypes(st.target) for st in steps)
        return {"retype_failures": failures}, [rewrites, len(steps)]
    return run


def _retypes(p):
    try:
        typecheck(p, {})
    except Exception:   # any error is a failed retyping, as in criterion 5
        return False
    return True


def _movie_check(comp, targets):
    def run():
        steps = step_all(comp)
        matched = [any(struct_congruent(st.target, t) for st in steps)
                   for t in targets]
        return {"reducts": len(steps), "targets_matched": matched}, []
    return run


def spi_corpus(seed: int) -> Workload:
    rng = random.Random(seed)
    generated = parse_spi(_read("generated.spi"))
    movie = parse_spi(_read("movie.spi"))
    vm = parse_spi(_read("vm.spi"))
    procs = [(n, generated.defs[n][0]) for n in generated.order]
    procs += [(n, movie.defs[n][0]) for n in ("Composition", "Full",
                                             "Target1", "Target2", "Target3")]
    procs += [(n, vm.defs[n][0]) for n in ("VM1", "VM2")]
    checks, printed, variant = [], [], {}
    for name, p in procs:
        p = variant[name] = shuffle_process(p, rng)
        printed.append(process_text(p))
        checks += [Check(f"check/{name}", _typecheck_check(p)),
                   Check(f"step/{name}", _step_check(p)),
                   Check(f"run/{name}", _run_check(p)),
                   Check(f"preserve/{name}", _preserve_check(p))]
    checks.append(Check("match/Composition", _movie_check(
        variant["Composition"],
        [variant[f"Target{i}"] for i in (1, 2, 3)])))
    return _finish(checks, rng, printed)


# ---------------------------------------------------------------------------
# bisim

def _bisim_check(p, q):
    def run():
        res = bisim_eager(p, q, depth=BISIM_DEPTH)
        return {"verdict": res.verdict,
                "witness": bool(res.witness)}, []
    return run


def bisim(seed: int) -> Workload:
    rng = random.Random(seed)
    generated = parse_spi(_read("generated.spi"))
    vm = parse_spi(_read("vm.spi"))
    gen = {n: d[0] for n, d in generated.defs.items()}
    pairs = [("VM1~VM2", vm.defs["VM1"][0], vm.defs["VM2"][0])]
    for a, b in BISIM_PRODUCTS:
        pairs.append((f"{a}|{b}~{b}|{a}", Par(gen[a], gen[b]),
                      Par(gen[b], gen[a])))
    for a in BISIM_REWRITES:
        rewrites = list(scope_rewrites(canonicalize(gen[a])))
        pairs.append((f"{a}~rewrite", gen[a],
                      rewrites[rng.randrange(len(rewrites))]))
    checks, printed = [], []
    for cid, p, q in pairs:
        p, q = shuffle_process(p, rng), shuffle_process(q, rng)
        if rng.random() < 0.5:
            p, q = q, p
        printed += [process_text(p), process_text(q)]
        checks.append(Check(f"bisim/{cid}", _bisim_check(p, q)))
    return _finish(checks, rng, printed)


# ---------------------------------------------------------------------------
# lambda

def _fetch_body(k):
    body = f"x{k} <>"
    for i in range(k - 1, 0, -1):
        body = f"x{i} <{body}>"
    return body


def lambda_script() -> str:
    """The term family as an `.lc` script.

    `A<k>_<n>` and `B<k>_<n>` are ex32-shaped k-alias fetches
    `(\\x. x1 <x2 <... xk <>>> [x1..xk <- x]) <n items>` with n = k-1, k,
    k+1 (arity mismatches in both directions). The items of `A` alternate
    `I` and `fail{}` (well formed at `unit`, the shape of corr.lc T09);
    `B` puts one `OK` first and so carries no judgment (the success
    constant is untyped). `W<d>` nests d applications of the identity
    around `I` (corr.lc T01 is W1), well formed and well typed at the type
    of `I`.
    """
    lines = ["def I = \\x. x1 [x1 <- x]"]
    for k in LAMBDA_ARITIES:
        aliases = ",".join(f"x{i}" for i in range(1, k + 1))
        for n in (k - 1, k, k + 1):
            mixed = ["I" if i % 2 == 0 else "fail{}" for i in range(n)]
            for tag, items in (("A", mixed), ("B", ["OK"] + mixed[:-1])):
                lines.append(f"def {tag}{k}_{n} = (\\x. {_fetch_body(k)} "
                             f"[{aliases} <- x]) <{', '.join(items)}>")
            lines.append(f"wf A{k}_{n} [] : unit")
    for d in LAMBDA_TOWERS:
        tower = "I"
        for _ in range(d):
            tower = f"(\\x. x1 [x1 <- x]) <{tower}>"
        lines.append(f"def W{d} = {tower}")
        lines.append(f"wf W{d} [] : (unit^1, unit) -> unit")
        lines.append(f"wt W{d} [] : (unit^1, unit) -> unit")
    return "\n".join(lines) + "\n"


def _head_kind(t):
    h = L.head(t)
    if isinstance(h, L.Fail):
        return "fail"
    if isinstance(h, L.SuccessT):
        return "ok"
    if isinstance(h, L.Abs):
        return "value"
    return "stuck"


def _lam_run_check(m):
    def run():
        terms, truncated = L.reachable(m, RUN_BOUND)
        normal = [t for t in terms if not L.step_all(t)]
        verdict = {"exhausted": truncated,
                   "normal_form_heads": sorted({_head_kind(t)
                                                for t in normal})}
        return verdict, [len(terms), len(normal)]
    return run


def _lam_succeeds_check(m):
    def run():
        ok, exhausted = L.succeeds(m, RUN_BOUND)
        return {"succeeds": ok, "exhausted": exhausted}, []
    return run


def _sr_check(m, theta, gamma, tau):
    def run():
        terms, truncated = L.reachable(m, RUN_BOUND)
        failures = 0
        for t in terms:
            try:
                check_wf(theta, gamma, t, tau)
            except Exception:   # any error is a failed judgment
                failures += 1
        return {"failures": failures, "exhausted": truncated}, [len(terms)]
    return run


def _se_check(m, theta, gamma, tau):
    def run():
        terms, truncated = L.reachable(m, RUN_BOUND)
        failures = preds = 0
        for t in terms:
            for pred in L.expansions(t):
                preds += 1
                if not any(L.lam_alpha_equal(u, t)
                           for _, u in L.step_all(pred)):
                    failures += 1
                try:
                    check_wt(theta, gamma, pred, tau)
                except Exception:   # any error is a failed judgment
                    failures += 1
        return {"failures": failures, "exhausted": truncated}, \
            [len(terms), preds]
    return run


def lambda_(seed: int) -> Workload:
    rng = random.Random(seed)
    family = parse_lc(lambda_script())
    checks, printed = [], []
    for name in family.order:
        if name == "I":
            continue
        m = family.defs[name][0]
        printed.append(lam_text(m))
        checks += [Check(f"lambda/run/{name}", _lam_run_check(m)),
                   Check(f"lambda/succeeds/{name}", _lam_succeeds_check(m))]
        checks += [_judgment_check(name, kind, m, theta, gamma, tau)
                   for kind, jname, theta, gamma, tau in family.judgments
                   if jname == name]
    for fname in ("ex32.lc", "corr.lc"):
        src = parse_lc(_read(fname))
        for kind, name, theta, gamma, tau in src.judgments:
            m = src.defs[name][0]
            printed.append(lam_text(m))
            checks.append(_judgment_check(f"{fname[:-3]}/{name}", kind, m,
                                          theta, gamma, tau))
    return _finish(checks, rng, printed)


def _judgment_check(cid, kind, m, theta, gamma, tau):
    """Subject reduction for a `wf` judgment, expansion for a `wt` one."""
    if kind == "wf":
        return Check(f"lambda/sr/{cid}", _sr_check(m, theta, gamma, tau))
    return Check(f"lambda/se/{cid}", _se_check(m, theta, gamma, tau))


# ---------------------------------------------------------------------------
# the workloads

BUILDERS = {"correspond": correspond, "spi-corpus": spi_corpus,
            "bisim": bisim, "lambda": lambda_}
WORKLOADS = tuple(BUILDERS)


def build(name: str, seed: int) -> Workload:
    return BUILDERS[name](seed)


def load_known_answers() -> dict:
    return json.loads(KNOWN_ANSWERS.read_text(encoding="utf-8"))["answers"]
