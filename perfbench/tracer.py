"""Layer tracing by wrapping the library's public functions.

A function is wrapped where a calling module binds it: `eagerpi.eager`'s
name `scope_normalize`, `eagerpi.equivalence`'s name `term_key`, the
benchmark's own imported names, and so on. A call that a module makes to
its own function through its own global is therefore not a span, so
recursion inside a layer costs nothing. The few functions listed with
`own=True` are also wrapped in their defining module, because other
layer functions of that module call them (`equivalence.bisim_eager` calls
`explore`, `lam.reachable` calls `lam.step_all`); a wrapped function that
re-enters itself records only the outermost call.

A span has a name, start, end, parent span and check id. Spans are kept in
compact arrays and written out by `dump`; `summary` reduces them to calls,
self time (a span minus its child spans) and the exact work counts.
"""

from __future__ import annotations

import json
import math
import sys
from array import array
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Optional


def _explore_counts(result):
    nodes, _, truncated = result
    return len(nodes), sum(len(n.succ) for n in nodes.values()), truncated


@dataclass(frozen=True)
class Target:
    module: str
    function: str
    span: str
    measure: Optional[Callable] = None   # result -> int or tuple of ints
    own: bool = False


TARGETS = (
    Target("eagerpi.process", "scope_normalize", "process.scope_normalize"),
    Target("eagerpi.process", "canonicalize", "process.canonicalize"),
    Target("eagerpi.process", "term_key", "process.term_key"),
    Target("eagerpi.process", "struct_congruent", "process.struct_congruent"),
    Target("eagerpi.process", "scope_rewrites", "process.scope_rewrites"),
    Target("eagerpi.contexts", "decompositions", "contexts.decompositions"),
    Target("eagerpi.eager", "step_all", "eager.step_all", len, own=True),
    Target("eagerpi.eager", "trace", "eager.trace",
           lambda tr: len(tr.nodes)),
    Target("eagerpi.equivalence", "explore", "equivalence.explore",
           _explore_counts, own=True),
    Target("eagerpi.equivalence", "nd_precongruence",
           "equivalence.nd_precongruence", bool, own=True),
    Target("eagerpi.equivalence", "succeeds_pi", "equivalence.succeeds_pi",
           own=True),
    Target("eagerpi.equivalence", "bisim_eager", "equivalence.bisim_eager",
           own=True),
    Target("eagerpi.equivalence", "ready_signature",
           "equivalence.ready_signature", own=True),
    # the translation as the correspondence harness runs it; its
    # scope_normalize call is a child span, so self time is translation
    Target("eagerpi.equivalence", "_translate_fresh", "translate.translate",
           own=True),
    Target("eagerpi.typecheck", "typecheck", "typecheck.typecheck"),
    Target("eagerpi.typecheck", "infer_context", "typecheck.typecheck"),
    Target("eagerpi.lam", "reachable", "lam.reachable",
           lambda r: len(r[0]), own=True),
    Target("eagerpi.lam", "succeeds", "lam.succeeds", own=True),
    Target("eagerpi.lam", "step_all", "lam.step_all", own=True),
    Target("eagerpi.lam", "expansions", "lam.expansions", own=True),
    Target("eagerpi.lamtypes", "check_wf", "lamtypes.check_wf"),
    Target("eagerpi.lamtypes", "check_wt", "lamtypes.check_wt"),
    Target("eagerpi.parser", "parse_spi", "parser.parse_spi"),
    Target("eagerpi.parser", "parse_lc", "parser.parse_lc"),
)

SPAN_NAMES = tuple(dict.fromkeys(t.span for t in TARGETS))


def _add(acc, counts):
    return [a + b for a, b in zip(acc or [0] * len(counts), counts)]


class Tracer:
    def __init__(self):
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.name = array("l")
        self.check = array("l")
        self.values = {}          # span index -> measured counts
        self.stack = []
        self.active = [0] * len(SPAN_NAMES)
        self.check_id = -1
        self.patches = []         # (module, attribute, original)

    # -- installing -----------------------------------------------------

    def install(self, calling_modules=()):
        """Wrap every binding of each target in the eagerpi modules and in
        `calling_modules`."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "eagerpi" or n.startswith("eagerpi.")]
        modules += list(calling_modules)
        for t in TARGETS:
            home = sys.modules[t.module]
            fn = getattr(home, t.function)
            wrapper = self._wrap(SPAN_NAMES.index(t.span), fn, t.measure)
            for mod in modules:
                if mod is home and not t.own:
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self.patches.append((mod, attr, fn))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> bool:
        """Restore every binding; True iff each is the original again and
        no wrapper is left in any module."""
        for mod, attr, fn in reversed(self.patches):
            setattr(mod, attr, fn)
        restored = all(getattr(mod, attr) is fn
                       for mod, attr, fn in self.patches)
        leftover = any(getattr(v, "__perfbench_span__", None) is not None
                       for m in list(sys.modules.values()) if m is not None
                       for v in list(vars(m).values()))
        self.patches = []
        return restored and not leftover

    def _wrap(self, nid, fn, measure):
        start, end, parent = self.start, self.end, self.parent
        name, check, stack, active = self.name, self.check, self.stack, \
            self.active
        values = self.values

        def wrapper(*args, **kwargs):
            if active[nid]:
                return fn(*args, **kwargs)
            i = len(start)
            start.append(0.0)
            end.append(0.0)
            parent.append(stack[-1] if stack else -1)
            name.append(nid)
            check.append(self.check_id)
            stack.append(i)
            active[nid] = 1
            start[i] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = perf_counter()
                active[nid] = 0
                stack.pop()
            if measure is not None:
                v = measure(result)
                values[i] = tuple(map(int, v)) if isinstance(v, tuple) \
                    else (int(v),)
            return result

        wrapper.__perfbench_span__ = SPAN_NAMES[nid]
        wrapper.__wrapped__ = fn
        return wrapper

    # -- reading --------------------------------------------------------

    def self_times(self):
        own = array("d", (e - s for s, e in zip(self.start, self.end)))
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= self.end[i] - self.start[i]
        return own

    def summary(self, setup: bool):
        """Per span name: calls, self seconds and summed counts, over the
        set-up spans (check id -1) or over the check spans."""
        own = self.self_times()
        out = {n: {"calls": 0, "self_s": 0.0, "values": None}
               for n in SPAN_NAMES}
        for i, nid in enumerate(self.name):
            if (self.check[i] < 0) != setup:
                continue
            rec = out[SPAN_NAMES[nid]]
            rec["calls"] += 1
            rec["self_s"] += own[i]
            if i in self.values:
                rec["values"] = _add(rec["values"], self.values[i])
        return out

    def bisim_pairs(self):
        """|P|·|Q| for each `bisim_eager` span, from its two child
        `explore` spans."""
        explore = SPAN_NAMES.index("equivalence.explore")
        bisim = SPAN_NAMES.index("equivalence.bisim_eager")
        sizes = {}
        for i, nid in enumerate(self.name):
            p = self.parent[i]
            if nid == explore and p >= 0 and self.name[p] == bisim:
                sizes.setdefault(p, []).append(self.values[i][0])
        return sum(math.prod(states) for states in sizes.values())

    def per_check_counts(self):
        """check id -> sorted [(span, calls, counts)] for the spans that
        measure exact counts: the input of the determinism digest."""
        acc = {}
        for i, nid in enumerate(self.name):
            c = self.check[i]
            if c < 0:
                continue
            key = (c, SPAN_NAMES[nid])
            rec = acc.setdefault(key, [0, None])
            rec[0] += 1
            if i in self.values:
                rec[1] = _add(rec[1], self.values[i])
        return acc

    def dump(self, path):
        """Write every span as one JSON line: name, start, end, parent,
        check, counts."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, nid in enumerate(self.name):
                fh.write(json.dumps([SPAN_NAMES[nid], self.start[i],
                                     self.end[i], self.parent[i],
                                     self.check[i], self.values.get(i)]))
                fh.write("\n")
