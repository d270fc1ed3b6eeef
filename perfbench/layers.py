"""The layer-traced pass: spans and counts at the stationflow module boundaries.

Each traced function is wrapped once and the wrapper is installed at every
binding its callers use.  `from .state import is_terminal` copies the name
into `engine`, so patching `state.is_terminal` alone would miss the engine's
calls; the table below lists those bindings explicitly.  Methods are patched
on their class.  `Tracer.restore` puts every original object back.

A span's self time is its duration minus the durations of the spans it
directly encloses; the harness checks report their whole duration.  Count-only wrappers (`is_value`, `free_vars`, ...) push
no span, so their small cost lands in the enclosing span's self time; the
pass reports its overall cost as `bench.layer_trace_overhead`.

Recursive functions (`substitute`, `free_vars`) recurse through their own
module's global name.  While an outer call runs, the wrapper puts the
original back at that name, so only calls from other functions count and
the recursion runs at full speed.
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from time import perf_counter

from stationflow import engine, harness, parser, state, terms, tlo, types

from workloads import Patches

# every rule name `apply_redex` can report, frontend rules first
STEP_RULES = ("Beta", "Fix", "Node", "KSA", "KSS", "Arith", "If0", "Len",
              "Claim", "Emit", "Add", "Empty", "First", "Map", "Fold", "Prop",
              "Complete", "Last", "Load", "Opt")
VERDICTS = ("proved", "refuted", "unknown")
HARNESS_CHECKS = ("check_determinism", "check_preservation_progress",
                  "check_rewrite_soundness")

# span name -> (defining module, function name, bindings, recursive)
SPANS = {
    "parser.parse": (parser, "parse_source", (parser, harness), False),
    "types.type_of_expr": (types, "type_of_expr", (types,), False),
    "types.type_of_config": (types, "type_of_config", (types, harness), False),
    "engine.enumerate": (engine, "enumerate_redexes", (engine, harness), False),
    "engine.eager_enumerate": (engine, "eager_enumerate", (engine,), False),
    "engine.frontend_redex": (engine, "frontend_redex", (engine, harness), False),
    "engine.apply": (engine, "apply_redex", (engine, harness), False),
    "state.is_terminal": (state, "is_terminal", (state, engine), False),
    "state.merge_results": (state, "merge_results", (state, engine, tlo), False),
    "state.config_digest": (state, "config_digest", (state, engine), False),
    "state.terminal_digest": (state, "terminal_digest", (state, harness), False),
    "tlo.candidates": (tlo, "candidates", (tlo,), False),
    "tlo.apply_rewrite": (tlo, "apply_rewrite", (tlo,), False),
    "tlo.prove_identity": (tlo, "prove_identity", (tlo,), False),
    "tlo.prove_commutative": (tlo, "prove_commutative", (tlo,), False),
    "terms.normalize": (terms, "normalize", (terms, tlo), False),
    "terms.substitute": (terms, "substitute", (terms, engine), True),
    **{f"harness.{c}": (harness, c, (harness,), False) for c in HARNESS_CHECKS},
}
COUNTS = {
    "state.is_value_calls": (terms, "is_value", (engine, state), False),
    "tlo.dcomp_calls": (tlo, "dcomp", (tlo,), False),
    "terms.free_vars_calls": (terms, "free_vars", (terms, tlo, parser), True),
    "terms.alpha_equiv_calls": (terms, "alpha_equiv", (terms, tlo), False),
}

_EXPR_TYPES = tuple(getattr(terms, n) for n in (
    "Var", "Int", "Key", "Label", "Lam", "App", "Fix", "KL", "Node", "Proj",
    "Concat", "Subtract", "Arith", "If0", "Len", "Emit", "Claim",
    "AddOp", "MapOp", "FoldOp"))
_TERM_FIELDS = {t: tuple(f.name for f in dataclasses.fields(t)
                         if f.name not in ("loc", "ptype"))
                for t in _EXPR_TYPES}


def term_nodes(e) -> int:
    """Expression nodes in a term, operations included, types excluded."""
    n = 0
    todo = [e]
    while todo:
        x = todo.pop()
        if isinstance(x, tuple):
            todo.extend(x)
            continue
        names = _TERM_FIELDS.get(type(x))
        if names is None:
            continue
        n += 1
        todo.extend(getattr(x, f) for f in names)
    return n


class Tracer(Patches):
    """Installs the wrappers, accumulates spans and counts, restores."""

    def __init__(self) -> None:
        super().__init__()
        self.self_s: Counter[str] = Counter()
        self.total_s: Counter[str] = Counter()
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self._open: list[float] = []  # child time of each open span
        self._depth: Counter[str] = Counter()
        self._op_nodes: dict[int, tuple[object, int]] = {}

    # -- installation

    def _install(self, bindings, attr: str, wrapper) -> None:
        for mod in bindings:
            self.patch(mod, attr, wrapper)

    def _guarded(self, name: str, home, attr: str, fn, recursive: bool, body):
        """Run `body` for an outermost call; calls nested inside one, which
        arrive only through another binding, go straight to `fn`."""
        depth = self._depth

        def wrapper(*args, **kwargs):
            if depth[name]:
                return fn(*args, **kwargs)
            depth[name] += 1
            if recursive:
                setattr(home, attr, fn)
            try:
                return body(*args, **kwargs)
            finally:
                depth[name] -= 1
                if recursive:
                    setattr(home, attr, wrapper)
        return wrapper

    def span(self, name: str, fn, after=None):
        """Time `fn` as span `name`; `after(args, result)` records counts."""
        self_s, total_s, calls = self.self_s, self.total_s, self.calls
        stack = self._open

        def body(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = stack.pop()
                self_s[name] += dt - child
                total_s[name] += dt
                calls[name] += 1
                if stack:
                    stack[-1] += dt
            if after is not None:
                after(args, out)
            return out
        return body

    def install(self) -> None:
        for name, (home, attr, bindings, recursive) in SPANS.items():
            fn = getattr(home, attr)
            # an `_after_<function>` method, where there is one, takes
            # counts from the call's arguments and result
            body = self.span(name, fn, getattr(self, "_after_" + attr, None))
            self._install(bindings, attr,
                          self._guarded(name, home, attr, fn, recursive, body))
        for name, (home, attr, bindings, recursive) in COUNTS.items():
            fn = getattr(home, attr)
            counts = self.counts

            def body(*args, _fn=fn, _name=name, **kwargs):
                counts[_name] += 1
                return _fn(*args, **kwargs)
            self._install(bindings, attr,
                          self._guarded(name, home, attr, fn, recursive, body))
        cls = state.Configuration
        self.patch(cls, "store_get", self.span("state.store_get", cls.store_get))

    # -- counts taken from results

    def _after_parse_source(self, args, out) -> None:
        self.counts["parser.source_bytes"] += len(args[0].encode())

    def _after_enumerate_redexes(self, args, out) -> None:
        self.counts["engine.redexes_offered"] += len(out)

    _after_eager_enumerate = _after_enumerate_redexes

    def _after_candidates(self, args, out) -> None:
        self.counts["tlo.candidates_made"] += len(out)
        for c in out:
            self.counts[f"tlo.cand.{c.rule}"] += 1

    def _after_apply_rewrite(self, args, out) -> None:
        self.counts[f"tlo.applied.{args[1].rule}"] += 1

    def _after_prove_identity(self, args, out) -> None:
        self.counts[f"tlo.identity.{out}"] += 1

    def _after_prove_commutative(self, args, out) -> None:
        self.counts[f"tlo.commutative.{out}"] += 1

    def _after_apply_redex(self, args, out) -> None:
        redex = args[1]
        config, rule, _ = out
        self.counts[f"engine.steps.{rule}"] += 1
        # node counts of the units this step created or changed
        if rule == "First":
            units = config.backend[0].streamlet[-1:]
        elif rule in ("Map", "Fold"):
            units = config.backend[redex.station].streamlet[:1]
        elif rule == "Load" and redex.unit is not None:
            units = config.backend[redex.station].streamlet[redex.unit:redex.unit + 1]
        elif rule == "Opt":
            cand = redex.rewrite
            units = cand.replacement
        else:
            return
        for unit in units:
            for _, op in unit.entries:
                size = sum(self._nodes(a) for a in terms.op_args(op)) + 1
                if size > self.counts["tlo.peak_op_nodes"]:
                    self.counts["tlo.peak_op_nodes"] = size

    def _nodes(self, e) -> int:
        # operations keep their function and key list across steps; the
        # entry holds the term so its id stays unique
        hit = self._op_nodes.get(id(e))
        if hit is None or hit[0] is not e:
            hit = (e, term_nodes(e))
            self._op_nodes[id(e)] = hit
        return hit[1]

    # -- report

    def metrics(self) -> dict[str, float]:
        c, s, n = self.counts, self.self_s, self.calls
        steps = sum(c[f"engine.steps.{r}"] for r in STEP_RULES)
        offered = c["engine.redexes_offered"]
        made = c["tlo.candidates_made"]
        out: dict[str, float] = {
            "parser.parse_s": s["parser.parse"],
            "parser.source_bytes": c["parser.source_bytes"],
            "types.type_of_expr_s": s["types.type_of_expr"],
            "types.type_of_config_s": s["types.type_of_config"],
            "types.type_of_config_calls": n["types.type_of_config"],
            "engine.enumerate_s": s["engine.enumerate"] + s["engine.eager_enumerate"],
            "engine.enumerate_calls": n["engine.enumerate"] + n["engine.eager_enumerate"],
            "engine.redexes_offered": offered,
            "engine.redex_use": steps / offered if offered else 0.0,
            "engine.apply_s": s["engine.apply"],
            "engine.frontend_redex_s": s["engine.frontend_redex"],
        }
        for r in STEP_RULES:
            out[f"engine.steps.{r}"] = c[f"engine.steps.{r}"]
        out["engine.load_share"] = c["engine.steps.Load"] / steps if steps else 0.0
        out.update({
            "state.is_value_calls": c["state.is_value_calls"],
            "state.is_terminal_s": s["state.is_terminal"],
            "state.store_get_s": s["state.store_get"],
            "state.store_get_calls": n["state.store_get"],
            "state.merge_results_s": s["state.merge_results"],
            "state.config_digest_s": s["state.config_digest"],
            "state.config_digest_calls": n["state.config_digest"],
            "state.terminal_digest_s": s["state.terminal_digest"],
            "tlo.candidates_s": s["tlo.candidates"],
            "tlo.candidates_calls": n["tlo.candidates"],
            "tlo.candidates_made": made,
            "tlo.candidate_use": c["engine.steps.Opt"] / made if made else 0.0,
        })
        for r in tlo.RULE_NAMES:
            out[f"tlo.cand.{r}"] = c[f"tlo.cand.{r}"]
        for r in tlo.RULE_NAMES:
            out[f"tlo.applied.{r}"] = c[f"tlo.applied.{r}"]
        out.update({
            "tlo.apply_rewrite_s": s["tlo.apply_rewrite"],
            "tlo.dcomp_calls": c["tlo.dcomp_calls"],
            "tlo.prove_identity_s": s["tlo.prove_identity"],
            "tlo.prove_identity_calls": n["tlo.prove_identity"],
        })
        for v in VERDICTS:
            out[f"tlo.identity.{v}"] = c[f"tlo.identity.{v}"]
        out["tlo.prove_commutative_s"] = s["tlo.prove_commutative"]
        out["tlo.prove_commutative_calls"] = n["tlo.prove_commutative"]
        for v in VERDICTS:
            out[f"tlo.commutative.{v}"] = c[f"tlo.commutative.{v}"]
        out.update({
            "tlo.peak_op_nodes": c["tlo.peak_op_nodes"],
            "terms.normalize_s": s["terms.normalize"],
            "terms.normalize_calls": n["terms.normalize"],
            "terms.substitute_s": s["terms.substitute"],
            "terms.substitute_calls": n["terms.substitute"],
            "terms.free_vars_calls": c["terms.free_vars_calls"],
            "terms.alpha_equiv_calls": c["terms.alpha_equiv_calls"],
        })
        for chk in HARNESS_CHECKS:  # whole checks: their time, children included
            out[f"harness.{chk}_s"] = self.total_s[f"harness.{chk}"]
        return out
