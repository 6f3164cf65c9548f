"""Usable rules: the classical closure, the filtered variant (the recursive
definition, which checks models), and the propositional encoding that lets
the SAT search pick the usable set itself, with one implication per defined
symbol."""

from __future__ import annotations

from collections import deque

from . import atoms as A
from .encoder import EMPTY_CTX, Ctx, EncodingContext
from .formula import Formula
from .orders import ArgumentFiltering
from .terms import Rule, Symbol, Term, Trs, Var, defined_symbols, functions


def usable_rules(pairs: Trs, rules: Trs) -> tuple[Rule, ...]:
    """Rules reachable from the right-hand sides of ``pairs``: all rules of
    every symbol occurring there, closed under right-hand sides of rules
    already usable.  Returned in rule order."""
    chosen: set[Rule] = set()
    seen: set[Symbol] = set()
    queue: deque[Symbol] = deque()
    for p in pairs.rules:
        queue.extend(functions(p.rhs))
    while queue:
        f = queue.popleft()
        if f in seen:
            continue
        seen.add(f)
        for rule in rules.rules_for(f):
            if rule not in chosen:
                chosen.add(rule)
                queue.extend(functions(rule.rhs))
    return tuple(r for r in rules.rules if r in chosen)


def defined_usable_symbols(pairs: Trs, rules: Trs) -> tuple[Symbol, ...]:
    """Root symbols of the usable rules, in rule order."""
    out: list[Symbol] = []
    for rule in usable_rules(pairs, rules):
        if rule.root not in out:
            out.append(rule.root)
    return tuple(out)


def usable_rules_mod_pi(pairs: Trs, rules: Trs, pi: ArgumentFiltering) -> tuple[Rule, ...]:
    """Usable rules restricted by a filtering: reachability only descends
    into argument positions the filtering keeps (or collapses onto), and the
    rules of a symbol are removed from the system before recursing."""
    all_rules = rules.rules
    memo: dict[tuple[Term, frozenset[Rule]], frozenset[Rule]] = {}

    def go(t: Term, remaining: frozenset[Rule]) -> frozenset[Rule]:
        if isinstance(t, Var):
            return frozenset()
        key = (t, remaining)
        hit = memo.get(key)
        if hit is not None:
            return hit
        own = frozenset(r for r in remaining if r.root == t.fun)
        rest = remaining - own
        out = set(own)
        for rule in own:
            out |= go(rule.rhs, rest)
        for i in pi.kept(t.fun):
            out |= go(t.args[i - 1], rest)
        result = frozenset(out)
        memo[key] = result
        return result

    found: set[Rule] = set()
    for p in pairs.rules:
        found |= go(p.rhs, frozenset(all_rules))
    return tuple(r for r in all_rules if r in found)


def omega(pairs: Trs, rules: Trs, ctx: EncodingContext) -> Formula:
    """Propositional usable-rules tracking, one implication per defined symbol.

    Every pair's right-hand side asserts the flag ``u_f`` of each defined
    symbol ``f`` reached through kept argument positions.  Each flag of a
    classically usable symbol implies the weak orientation of that symbol's
    rules, and the flags their right-hand sides reach in the same way.  A
    flag reached again inside its own implication folds to true.
    """
    b = ctx.builder
    defined = defined_symbols(rules)
    parts = [_omega_term(p.rhs, defined, ctx, EMPTY_CTX) for p in pairs.rules]
    for f in defined_usable_symbols(pairs, rules):
        own = rules.rules_for(f)
        parts.append(ctx._guarded(EMPTY_CTX, A.Usable(f), lambda c, own=own: b.and_(
            [ctx.tau_ge(r.lhs, r.rhs) for r in own]
            + [_omega_term(r.rhs, defined, ctx, c) for r in own])))
    return b.and_(parts)


def _omega_term(t: Term, defined: frozenset[Symbol], ctx: EncodingContext,
                ectx: Ctx) -> Formula:
    """Flags of the defined symbols of ``t``, descending only into kept
    argument positions."""
    if isinstance(t, Var):
        return ctx.builder.TRUE
    f = t.fun
    flag = [(A.Usable(f), True)] if f in defined else []
    return ctx._with_literals(ectx, flag, lambda c: [
        ctx._guarded(c, A.ArgIn(f, i),
                     lambda c2, i=i: _omega_term(t.args[i - 1], defined, ctx, c2))
        for i in range(1, f.arity + 1)])
