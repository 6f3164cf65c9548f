"""Dependency pairs, dependency-pair problems, and the graph processor:
the components of the estimated graph, found by reachability.

The estimate (Arts and Giesl 2000) tries only the pairs whose left root is
the root the cap keeps, names the cap's fresh variables apart from every
left side (with a space, which the parser never makes) and builds no
unifier.  ``prove`` keeps one table of decided arcs per proof, since a
sub-problem's graph is its parent's, restricted (Hirokawa and Middeldorp 2005).
"""

from __future__ import annotations

from dataclasses import dataclass

from .terms import App, Rule, Symbol, Term, Trs, Var, defined_symbols, subterms, unifiable


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
    pairs: dict[Rule, None] = {}
    for rule in trs.rules:
        marked_lhs = App(rule.root.marked(), rule.lhs.args)  # type: ignore[union-attr]
        for sub in subterms(rule.rhs):
            if isinstance(sub, App) and sub.fun in defined:
                pairs.setdefault(Rule(marked_lhs, App(sub.fun.marked(), sub.args)))
    return Trs.of(pairs)


def _cap_ren(t: Term, defined: frozenset[Symbol], prefix: str) -> Term:
    """Abstract defined-rooted subterms and rename every variable occurrence,
    naming the fresh variables ``prefix`` plus their number, left to right.
    An explicit post-order walk: ``built`` holds the results of the finished
    subterms, and a symbol on the stack marks an application whose arguments
    are the last ``arity`` of them."""
    built: list[Term] = []
    stack: list[Term | Symbol] = [t]
    fresh = 0
    while stack:
        u = stack.pop()
        if isinstance(u, Symbol):
            args = tuple(built[len(built) - u.arity:])
            del built[len(built) - u.arity:]
            built.append(App(u, args))
        elif isinstance(u, Var) or u.fun in defined:
            fresh += 1
            built.append(Var(f"{prefix}{fresh}"))
        else:
            stack.append(u.fun)
            stack += reversed(u.args)
    return built[0]


def estimate_dependency_graph(problem: DpProblem,
                              arcs: dict | None = None) -> dict[int, tuple[int, ...]]:
    """Overapproximated dependency graph on pair indices.

    There is an arc from pair ``s -> t`` to pair ``u -> v`` whenever ``t``,
    with defined-rooted subterms abstracted away and all variables renamed
    fresh, unifies with ``u``.  ``arcs`` caches that answer by ``(t, u)``;
    share it only between problems with the same rules.
    """
    arcs = {} if arcs is None else arcs
    pairs = problem.pairs.rules
    by_root: dict[Symbol, list[int]] = {}
    for j, p in enumerate(pairs):
        by_root.setdefault(p.root, []).append(j)
    defined = defined_symbols(problem.rules)
    prefix = " " * max((len(v.name) for p in pairs for v in p.lhs.variables), default=0) + " "
    graph: dict[int, tuple[int, ...]] = {}
    for i, p in enumerate(pairs):
        targets = by_root.get(p.rhs.fun, ())
        cap = None
        for j in targets:
            if (p.rhs, pairs[j].lhs) not in arcs:
                cap = cap or _cap_ren(p.rhs, defined, prefix)
                arcs[p.rhs, pairs[j].lhs] = unifiable(cap, pairs[j].lhs)
        graph[i] = tuple(j for j in targets if arcs[p.rhs, pairs[j].lhs])
    return graph


def scc_decompose(problem: DpProblem, arcs: dict | None = None) -> list[DpProblem]:
    """One sub-problem per strongly connected component on a cycle of the
    estimated graph, found by reachability.

    ``reach[i]`` has bit ``j`` set when a path of one or more arcs leads
    from pair ``i`` to pair ``j`` (Warshall's closure).  Pair ``i`` is kept
    when it reaches itself; its component is every pair it reaches that
    reaches it back.  Pairs on no cycle are dropped; every sub-problem
    keeps the full rule component.  Sub-problems come out ordered by their
    smallest pair index, each in pair order.  ``arcs`` is passed on to
    ``estimate_dependency_graph``.
    """
    graph = estimate_dependency_graph(problem, arcs)
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
