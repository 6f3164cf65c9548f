import random

import pytest

from termfilter.dp import (DpProblem, dependency_pairs, estimate_dependency_graph,
                           scc_decompose)
from termfilter.terms import App, Rule, Symbol, Trs, Var
from termfilter.tpdb import parse_trs

from util import ex13, ex2, random_trs


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
                from termfilter.terms import functions
                assert all(not f.is_tuple for f in functions(a))


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
