"""Usable rules: one worklist walk that finds the classical closure or, under
an argument filtering, the filtered variant (which checks models), and the
propositional encoding that lets the SAT search pick the usable set itself,
with one implication per defined symbol.  The encoding's flag walk lives on
``EncodingContext``, which owns the branch context it prunes with; ``omega``
composes it."""

from __future__ import annotations

from typing import TYPE_CHECKING

from .formula import Formula
from .orders import ArgumentFiltering
from .terms import Rule, Symbol, Term, Trs, Var, defined_symbols

if TYPE_CHECKING:
    from .encoder import EncodingContext


def _reachable(pairs: Trs, rules: Trs, pi: ArgumentFiltering | None) -> tuple[Rule, ...]:
    """Rules of every symbol reached from the right-hand sides of ``pairs``,
    descending into the positions ``pi`` keeps (or collapses onto), or into
    every position when ``pi`` is None.  Each symbol's rules are expanded
    once.  Returned in rule order."""
    expanded: set[Symbol] = set()
    stack: list[Term] = [p.rhs for p in pairs.rules]
    while stack:
        t = stack.pop()
        if isinstance(t, Var):
            continue
        f = t.fun
        if f not in expanded:
            expanded.add(f)
            stack.extend(r.rhs for r in rules.rules_for(f))
        positions = range(1, f.arity + 1) if pi is None else pi.kept(f)
        stack.extend(t.args[i - 1] for i in positions)
    return tuple(r for r in rules.rules if r.root in expanded)


def usable_rules(pairs: Trs, rules: Trs) -> tuple[Rule, ...]:
    """Rules reachable from the right-hand sides of ``pairs``: all rules of
    every symbol occurring there, closed under right-hand sides of rules
    already usable.  Returned in rule order."""
    return _reachable(pairs, rules, None)


def roots(rules: tuple[Rule, ...]) -> tuple[Symbol, ...]:
    """Root symbols of ``rules``, in rule order."""
    return tuple(dict.fromkeys(rule.root for rule in rules))


def usable_rules_mod_pi(pairs: Trs, rules: Trs, pi: ArgumentFiltering) -> tuple[Rule, ...]:
    """Usable rules restricted by a filtering: the same walk, descending only
    into argument positions the filtering keeps (or collapses onto)."""
    return _reachable(pairs, rules, pi)


def omega(pairs: Trs, rules: Trs, ctx: EncodingContext,
          usable_symbols: tuple[Symbol, ...]) -> Formula:
    """Propositional usable-rules tracking, one implication per defined symbol.

    Every pair's right-hand side asserts the flag ``u_f`` of each defined
    symbol ``f`` reached through kept argument positions
    (``ctx.usable_flags``).  Each flag of a classically usable symbol implies
    the weak orientation of that symbol's rules, and the flags their
    right-hand sides reach in the same way (``ctx.if_usable``).  A flag
    reached again inside its own implication folds to true.
    ``usable_symbols`` are the classically usable symbols, the ``roots`` of
    ``usable_rules(pairs, rules)``, which the caller has already walked.
    """
    defined = defined_symbols(rules)
    return ctx.builder.and_([ctx.usable_flags(p.rhs, defined) for p in pairs.rules]
                            + [ctx.if_usable(f, rules.rules_for(f), defined)
                               for f in usable_symbols])
