"""Dependency pairs, dependency-pair problems, and the graph processor."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .terms import App, Rule, Symbol, Term, Trs, Var, defined_symbols, subterms, substitute, unify, variables


@dataclass(frozen=True)
class DpProblem:
    """A pair of systems (pairs, rules): is there an infinite chain of pairs?"""

    pairs: Trs
    rules: Trs

    def __post_init__(self) -> None:
        for p in self.pairs.rules:
            rhs_ok = isinstance(p.rhs, App) and p.rhs.fun.is_tuple
            if not (p.root.is_tuple and rhs_ok):
                raise ValueError(f"pair roots must be tuple symbols: {p}")
        for f in self.rules.signature:
            if f.is_tuple:
                raise ValueError(f"tuple symbol {f.display} occurs in the rules")


def dependency_pairs(trs: Trs) -> Trs:
    """One pair ``F#(s..) -> G#(t..)`` per call from a defined symbol to a
    defined symbol, in rule order and outermost-first within a right-hand side."""
    defined = defined_symbols(trs)
    pairs: list[Rule] = []
    seen: set[Rule] = set()
    for rule in trs.rules:
        lhs = rule.lhs
        assert isinstance(lhs, App)
        marked_lhs = App(lhs.fun.marked(), lhs.args)
        for sub in subterms(rule.rhs):
            if isinstance(sub, App) and sub.fun in defined:
                pair = Rule(marked_lhs, App(sub.fun.marked(), sub.args))
                if pair not in seen:
                    seen.add(pair)
                    pairs.append(pair)
    return Trs.of(pairs)


def _cap_ren(t: Term, defined: frozenset[Symbol], fresh: list[int]) -> Term:
    """Abstract defined-rooted subterms and rename every variable occurrence,
    numbering the fresh variables left to right.  An explicit post-order
    walk: ``built`` holds the results of the finished subterms, and an
    application is rebuilt from the last ``arity`` of them."""
    built: list[Term] = []
    stack: list[tuple[Term, bool]] = [(t, False)]
    while stack:
        u, ready = stack.pop()
        if ready:
            n = u.fun.arity
            args = tuple(built[len(built) - n:])
            del built[len(built) - n:]
            built.append(App(u.fun, args))
        elif isinstance(u, Var) or u.fun in defined:
            fresh[0] += 1
            built.append(Var(f"_c{fresh[0]}"))
        else:
            stack.append((u, True))
            stack.extend((a, False) for a in reversed(u.args))
    return built[0]


def _rename(t: Term, prefix: str) -> Term:
    mapping = {v: Var(f"{prefix}{i}") for i, v in enumerate(variables(t))}
    return substitute(t, mapping)


def estimate_dependency_graph(problem: DpProblem) -> dict[int, tuple[int, ...]]:
    """Overapproximated dependency graph on pair indices.

    There is an arc from pair ``s -> t`` to pair ``u -> v`` whenever ``t``,
    with defined-rooted subterms abstracted away and all variables renamed
    fresh, unifies with ``u``.
    """
    defined = frozenset(defined_symbols(problem.rules))
    pairs = problem.pairs.rules
    sources = [_cap_ren(p.rhs, defined, [0]) for p in pairs]
    targets = [_rename(p.lhs, "_u") for p in pairs]
    graph: dict[int, tuple[int, ...]] = {}
    for i, src in enumerate(sources):
        graph[i] = tuple(j for j, tgt in enumerate(targets)
                         if unify(src, tgt) is not None)
    return graph


def _sccs(graph: Mapping[int, Sequence[int]]) -> list[list[int]]:
    """Tarjan's algorithm, iteratively, over nodes 0..n-1."""
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    on_stack: set[int] = set()
    stack: list[int] = []
    counter = [0]
    out: list[list[int]] = []

    for root in sorted(graph):
        if root in index:
            continue
        work = [(root, iter(graph[root]))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = counter[0]
                    counter[0] += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(graph[w])))
                    advanced = True
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == v:
                        break
                out.append(comp)
    return out


def scc_decompose(problem: DpProblem) -> list[DpProblem]:
    """One sub-problem per non-trivial strongly connected component.

    A single pair counts only if it has a self-arc.  Pairs on no cycle are
    dropped; every sub-problem keeps the full rule component.  Sub-problems
    are ordered by their smallest pair index.
    """
    graph = estimate_dependency_graph(problem)
    pairs = problem.pairs.rules
    components = []
    for comp in _sccs(graph):
        if len(comp) == 1:
            v = comp[0]
            if v not in graph[v]:
                continue
        components.append(sorted(comp))
    components.sort(key=min)
    return [DpProblem(Trs.of(pairs[i] for i in comp), problem.rules)
            for comp in components]
