import itertools
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from termfilter import dp
from termfilter.dp import (DpProblem, dependency_pairs, estimate_dependency_graph,
                           scc_decompose)
from termfilter.terms import App, Rule, Symbol, Trs, Var, unifiable, variables
from termfilter.tpdb import parse_trs

from util import ex13, ex2, random_trs, reference_dependency_graph, substitute


def pair_strs(trs):
    return {str(p) for p in trs.rules}


def test_division_pairs():
    pairs = dependency_pairs(ex2())
    assert pair_strs(pairs) == {
        "minus#(s(x),s(y)) -> minus#(x,y)",
        "quot#(s(x),s(y)) -> minus#(x,y)",
        "quot#(s(x),s(y)) -> quot#(minus(x,y),s(y))",
    }


def test_no_pairs_without_defined_rhs():
    trs = parse_trs("(VAR x)(RULES f(x) -> x g(x) -> c)")
    assert dependency_pairs(trs).rules == ()


def test_div_if_pairs_include_expected():
    pairs = dependency_pairs(ex13())
    strs = pair_strs(pairs)
    assert "if#(true,s(x),s(y)) -> div#(minus(x,y),s(y))" in strs
    assert "div#(x,y) -> if#(ge(x,y),x,y)" in strs
    assert len(pairs.rules) == 6


def test_pairs_use_tuple_roots_only():
    pairs = dependency_pairs(ex13())
    for p in pairs.rules:
        assert p.root.is_tuple
        assert isinstance(p.rhs, App) and p.rhs.fun.is_tuple
        for t in (p.lhs, p.rhs):
            for a in t.args:
                assert all(not f.is_tuple for f in a.symbols)


def test_division_graph_arcs():
    trs = ex2()
    problem = DpProblem(dependency_pairs(trs), trs)
    # pair order: 0 = minus#>minus#, 1 = quot#>quot#, 2 = quot#>minus#
    graph = estimate_dependency_graph(problem)
    assert graph == {0: (0,), 1: (1, 2), 2: (0,)}


def test_constructor_clash_blocks_arc():
    a = Symbol("a", 0)
    b = Symbol("b", 0)
    f = Symbol("f", 1, True)
    pair = Rule(App(f, (App(a, ()),)), App(f, (App(b, ()),)))
    problem = DpProblem(Trs.of([pair]), parse_trs("(VAR)(RULES )"))
    assert estimate_dependency_graph(problem) == {0: ()}
    assert scc_decompose(problem) == []


def test_defined_argument_abstracted_gives_self_arc():
    trs = parse_trs("(VAR x)(RULES g(x) -> x)")
    g = next(f for f in trs.signature if f.display == "g")
    ft = Symbol("f", 1, True)
    pair = Rule(App(ft, (Var("x"),)), App(ft, (App(g, (Var("x"),)),)))
    problem = DpProblem(Trs.of([pair]), trs)
    assert estimate_dependency_graph(problem) == {0: (0,)}
    subs = scc_decompose(problem)
    assert len(subs) == 1 and subs[0].pairs.rules == (pair,)


def test_division_sccs():
    trs = ex2()
    problem = DpProblem(dependency_pairs(trs), trs)
    subs = scc_decompose(problem)
    assert [pair_strs(s.pairs) for s in subs] == [
        {"minus#(s(x),s(y)) -> minus#(x,y)"},
        {"quot#(s(x),s(y)) -> quot#(minus(x,y),s(y))"},
    ]
    for s in subs:
        assert s.rules == trs


def test_scc_output_subset_and_on_cycle():
    trs = ex13()
    problem = DpProblem(dependency_pairs(trs), trs)
    graph = estimate_dependency_graph(problem)
    subs = scc_decompose(problem)
    all_pairs = set(problem.pairs.rules)
    for sub in subs:
        for p in sub.pairs.rules:
            assert p in all_pairs
            i = problem.pairs.rules.index(p)
            # every returned pair lies on some cycle through its component
            comp = {problem.pairs.rules.index(q) for q in sub.pairs.rules}
            assert any(j in comp for j in graph[i])


def test_dp_problem_invariants():
    trs = ex2()
    with pytest.raises(ValueError):
        DpProblem(trs, trs)  # base-rooted "pairs"
    pairs = dependency_pairs(trs)
    with pytest.raises(ValueError):
        DpProblem(pairs, pairs)  # tuple symbols inside the rules


def test_graph_covers_known_chains():
    # the four arcs above are exactly the reachable calls; the estimation
    # must include each one (it is an overapproximation of the real graph)
    trs = ex2()
    problem = DpProblem(dependency_pairs(trs), trs)
    graph = estimate_dependency_graph(problem)
    assert 0 in graph[0]
    assert 1 in graph[1]
    assert 2 in graph[1]
    assert 0 in graph[2]


def _components_by_search(problem):
    """Reference components: a DFS reachable set per pair, then the classes
    of mutual reachability among the pairs that reach themselves, ordered by
    smallest index and each in pair order."""
    graph = estimate_dependency_graph(problem)
    reach = []
    for i in graph:
        seen, todo = set(), list(graph[i])
        while todo:
            j = todo.pop()
            if j not in seen:
                seen.add(j)
                todo.extend(graph[j])
        reach.append(seen)
    comps = []
    for i in sorted(graph):
        if i in reach[i] and not any(i in c for c in comps):
            comps.append([j for j in sorted(graph) if j in reach[i] and i in reach[j]])
    return [[problem.pairs.rules[j] for j in c] for c in comps]


def _chain(n):
    """n functions calling each other in a ring; the last link swaps the
    arguments back and keeps the s, so the ring has a refuting link."""
    rules = []
    for i in range(n):
        nxt = (i + 1) % n
        rhs = f"f{nxt}(s(y),x)" if i == n - 1 else f"f{nxt}(x,s(y))"
        rules += [f"f{i}(s(x),y) -> {rhs}", f"f{i}(zero,y) -> y"]
    return parse_trs(f"(VAR x y)(RULES {' '.join(rules)})")


def test_scc_decompose_matches_search_reference():
    rng = random.Random(2024)
    systems = [random_trs(rng, 5, 8, 3, 2) for _ in range(300)] + [_chain(14)]
    split = 0
    for trs in systems:
        problem = DpProblem(dependency_pairs(trs), trs)
        subs = scc_decompose(problem)
        assert [list(s.pairs.rules) for s in subs] == _components_by_search(problem)
        assert all(s.rules == trs for s in subs)
        split += len(subs) > 1
    assert split > 10  # the sample has problems with several components
    chain = DpProblem(dependency_pairs(systems[-1]), systems[-1])
    assert [s.pairs for s in scc_decompose(chain)] == [chain.pairs]
    assert len(chain.pairs.rules) == 14


def _problem(trs):
    return DpProblem(dependency_pairs(trs), trs)


def _reference_systems():
    """The 300 random systems and the chain of the search-reference test
    above, then 1,000 more."""
    rng = random.Random(2024)
    systems = [random_trs(rng, 5, 8, 3, 2) for _ in range(300)] + [_chain(14)]
    rng = random.Random(2025)
    return systems + [random_trs(rng, 5, 8, 3, 2) for _ in range(1000)]


def test_graph_matches_renaming_reference():
    arcs = 0
    for trs in _reference_systems():
        problem = _problem(trs)
        graph = estimate_dependency_graph(problem)
        assert graph == reference_dependency_graph(problem)
        arcs += sum(map(len, graph.values()))
    assert arcs > 1000


def test_shared_arc_table_gives_the_same_components():
    # every problem a proof meets: the first one, its components, and each
    # component less one pair, as a reduction-pair round leaves it
    for trs in _reference_systems():
        problem = _problem(trs)
        arcs = {}
        todo = [problem]
        while todo:
            sub = todo.pop()
            subs = scc_decompose(sub, arcs)
            assert subs == scc_decompose(sub)
            todo += [DpProblem(Trs.of(c.pairs.rules[1:]), trs) for c in subs]


def test_cap_variables_never_clash_with_left_side_variables():
    # with a cap variable named like a variable of the left side, the cap
    # F#(z) of F#(n) would not unify with F#(s(z)): the occurs check fails
    s, g = Symbol("s", 1), Symbol("g", 1)
    f, h = Symbol("f", 1, True), Symbol("h", 2, True)
    rules = Trs.of([Rule(App(g, (Var("x"),)), Var("x"))])
    cap = dp._cap_ren(App(f, (Var("n"),)), frozenset(), " ")
    assert not unifiable(cap, App(f, (App(s, variables(cap)),)))
    for name in (" 1", "  1", "   1", "    1", "_c1", "_u0", "x"):
        n = Var(name)
        pairs = Trs.of([Rule(App(f, (App(s, (n,)),)), App(f, (n,))),
                        Rule(App(f, (n,)), App(h, (n, App(g, (n,))))),
                        Rule(App(h, (n, App(s, (n,)))), App(f, (App(s, (n,)),)))])
        problem = DpProblem(pairs, rules)
        graph = estimate_dependency_graph(problem)
        assert graph == reference_dependency_graph(problem)
        assert graph == {0: (0, 1), 1: (2,), 2: (0, 1)}


def test_chain_graph_takes_one_check_per_pair(monkeypatch):
    checks = []

    def counting(s, t):
        checks.append((s, t))
        return unifiable(s, t)

    monkeypatch.setattr(dp, "unifiable", counting)
    problem = _problem(_chain(14))
    arcs = {}
    graph = estimate_dependency_graph(problem, arcs)
    assert len(checks) <= 14
    assert graph == reference_dependency_graph(problem)
    # a sub-problem of the same proof reads every arc from the table
    sub = DpProblem(Trs.of(problem.pairs.rules[1:]), problem.rules)
    assert scc_decompose(sub, arcs) == []
    assert len(checks) <= 14


def _match(pattern, t):
    """The substitution taking ``pattern`` to ``t``, or ``None``."""
    sigma = {}
    stack = [(pattern, t)]
    while stack:
        p, u = stack.pop()
        if isinstance(p, Var):
            if sigma.setdefault(p, u) is not u:
                return None
        elif isinstance(u, Var) or p.fun is not u.fun:
            return None
        else:
            stack += zip(p.args, u.args)
    return sigma


def _reducts(t, rules):
    """Every term one rewrite step from ``t``."""
    out = []
    for rule in rules:
        sigma = _match(rule.lhs, t)
        if sigma is not None:
            out.append(substitute(rule.rhs, sigma))
    if isinstance(t, App):
        for k, a in enumerate(t.args):
            out += [App(t.fun, t.args[:k] + (b,) + t.args[k + 1:]) for b in _reducts(a, rules)]
    return out


def _chains_found(problem, steps=2):
    """The arcs (i, j) for which some instance of pair i's right side, its
    variables replaced by ground terms of depth at most one, rewrites in at
    most ``steps`` steps to an instance of pair j's left side."""
    pairs, rules = problem.pairs.rules, problem.rules.rules
    symbols = sorted(problem.rules.signature
                     | {f for p in pairs for a in p.rhs.args for f in a.symbols},
                     key=lambda f: (f.name, f.arity))
    constants = [App(f) for f in symbols if f.arity == 0] or [App(Symbol("c", 0))]
    ground = constants + [App(f, args) for f in symbols if f.arity > 0
                          for args in itertools.product(constants, repeat=f.arity)]
    found = set()
    for i, p in enumerate(pairs):
        xs = variables(p.rhs)
        for values in itertools.product(ground[:8], repeat=len(xs)):
            reached = {substitute(p.rhs, dict(zip(xs, values)))}
            frontier = list(reached)
            for _ in range(steps):
                frontier = [u for t in frontier for u in _reducts(t, rules) if u not in reached]
                reached.update(frontier)
            found |= {(i, j) for j, q in enumerate(pairs)
                      if any(_match(q.lhs, t) is not None for t in reached)}
    return found


def _missed(graph, found):
    return {(i, j) for i, j in found if j not in graph[i]}


def test_chain_search_finds_the_division_arcs():
    # quot#(minus(x,y),s(y)) reaches quot#(s(x'),s(y')) only by rewriting
    graph = estimate_dependency_graph(_problem(ex2()))
    found = _chains_found(_problem(ex2()))
    assert found == {(0, 0), (1, 1), (1, 2), (2, 0)}
    assert _missed(graph, found) == set()


@settings(database=None, derandomize=True, max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
@example(seed=0)
def test_graph_covers_every_chain_a_bounded_search_finds(seed):
    problem = _problem(random_trs(random.Random(seed), 4, 4, 2, 2))
    graph = estimate_dependency_graph(problem)
    found = _chains_found(problem)
    assert _missed(graph, found) == set()
    # the check has teeth: it catches an estimate with one true arc dropped
    for i, j in sorted(found)[:1]:
        dropped = dict(graph)
        dropped[i] = tuple(k for k in graph[i] if k != j)
        assert _missed(dropped, found) == {(i, j)}
