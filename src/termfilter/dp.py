"""Dependency pairs, dependency-pair problems, and the graph processor:
the components of the estimated graph, found by reachability."""

from __future__ import annotations

from dataclasses import dataclass

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


def scc_decompose(problem: DpProblem) -> list[DpProblem]:
    """One sub-problem per strongly connected component on a cycle of the
    estimated graph, found by reachability.

    ``reach[i]`` has bit ``j`` set when a path of one or more arcs leads
    from pair ``i`` to pair ``j`` (Warshall's closure).  Pair ``i`` is kept
    when it reaches itself; its component is every pair it reaches that
    reaches it back.  Pairs on no cycle are dropped; every sub-problem
    keeps the full rule component.  Sub-problems come out ordered by their
    smallest pair index, each in pair order.
    """
    graph = estimate_dependency_graph(problem)
    pairs = problem.pairs.rules
    n = len(pairs)
    reach = [sum(1 << j for j in graph[i]) for i in range(n)]
    for k in range(n):
        for i in range(n):
            if reach[i] >> k & 1:
                reach[i] |= reach[k]
    placed: set[int] = set()
    subs = []
    for i in range(n):
        if i in placed or not reach[i] >> i & 1:
            continue
        comp = [j for j in range(i, n) if reach[i] >> j & 1 and reach[j] >> i & 1]
        placed.update(comp)
        subs.append(DpProblem(Trs.of(pairs[j] for j in comp), problem.rules))
    return subs
