import itertools
import random

import pytest

from termfilter import atoms as A
from termfilter.dp import DpProblem, dependency_pairs
from termfilter.encoder import EncodingContext, encode_rp_formula
from termfilter.orders import (ArgumentFiltering, Collapse, Keep, lpo_af_ge,
                               lpo_af_gt)
from termfilter.terms import Trs
from termfilter.tpdb import parse_trs
from termfilter.usable import omega, roots, usable_rules, usable_rules_mod_pi

from util import (all_filterings, all_precedences, atoms_of, concrete_atom_value,
                  evaluate, ex13, ex2, filter_options, lowered_cnf, random_trs,
                  symbol_map, usable_rules_mod_pi_reference)


def rule_strs(rules):
    return [str(r) for r in rules]


def test_classical_usable_division():
    trs = ex2()
    pairs = dependency_pairs(trs)
    assert rule_strs(usable_rules(pairs, trs)) == [
        "minus(x,0) -> x", "minus(s(x),s(y)) -> minus(x,y)"]


def test_classical_usable_constructor_rhs():
    trs = parse_trs("(VAR x)(RULES f(x) -> c g(x) -> f(x))")
    pairs = dependency_pairs(trs)  # only g# -> f#
    # tuple-rooted rhs arguments contain no defined symbol
    only_tuple_args = Trs.of([p for p in pairs.rules])
    assert rule_strs(usable_rules(only_tuple_args, trs)) == []


def test_classical_usable_div_if():
    trs = ex13()
    pairs = dependency_pairs(trs)
    got = rule_strs(usable_rules(pairs, trs))
    assert got == [
        "minus(x,0) -> x",
        "minus(s(x),s(y)) -> minus(x,y)",
        "ge(x,0) -> true",
        "ge(0,s(y)) -> false",
        "ge(s(x),s(y)) -> ge(x,y)",
    ]


def test_usable_closure_invariant():
    trs = ex13()
    pairs = dependency_pairs(trs)
    chosen = set(usable_rules(pairs, trs))
    for rule in chosen:
        for f in rule.rhs.symbols:
            for r2 in trs.rules_for(f):
                assert r2 in chosen


def full_filtering(trs, pairs):
    symbols = set(trs.signature) | set(pairs.signature)
    return ArgumentFiltering.identity(symbols)


def test_filtered_usable_empty_when_collapsed_away():
    trs = ex2()
    pairs = dependency_pairs(trs)
    quot_pair = Trs.of([p for p in pairs.rules
                        if str(p).startswith("quot#") and "quot#(minus" in str(p)])
    names = symbol_map(trs, pairs)
    # identity everywhere except: keep only argument 2 of quot#
    symbols = set(trs.signature) | set(pairs.signature)
    mapping = {f: Keep(tuple(range(1, f.arity + 1))) for f in symbols}
    mapping[names["quot#"]] = Keep((2,))
    pi = ArgumentFiltering(mapping)
    assert usable_rules_mod_pi(quot_pair, trs, pi) == ()


def test_filtered_usable_identity_equals_classical():
    trs = ex13()
    pairs = dependency_pairs(trs)
    pi = full_filtering(trs, pairs)
    assert usable_rules_mod_pi(pairs, trs, pi) == usable_rules(pairs, trs)


def test_filtered_usable_div_if_known_choice():
    trs = ex13()
    pairs = dependency_pairs(trs)
    names = symbol_map(trs, pairs)
    div_if = Trs.of([p for p in pairs.rules
                     if p.root.display in ("div#", "if#")])
    mapping = {
        names["minus"]: Collapse(1), names["s"]: Keep((1,)),
        names["0"]: Keep(()), names["true"]: Keep(()), names["false"]: Keep(()),
        names["ge"]: Keep((1,)), names["div"]: Keep((1,)), names["if"]: Keep((2,)),
        names["minus#"]: Keep((1,)), names["ge#"]: Keep((1,)),
        names["div#"]: Keep((1,)), names["if#"]: Keep((2,)),
    }
    pi = ArgumentFiltering(mapping)
    assert rule_strs(usable_rules_mod_pi(div_if, trs, pi)) == [
        "minus(x,0) -> x", "minus(s(x),s(y)) -> minus(x,y)"]


def test_filtered_usable_subset_chain():
    rng = random.Random(5)
    for _ in range(60):
        trs = random_trs(rng)
        pairs = dependency_pairs(trs)
        if not pairs.rules:
            continue
        symbols = sorted(set(trs.signature) | set(pairs.signature),
                         key=lambda f: f.display)
        classical = set(usable_rules(pairs, trs))
        assert classical <= set(trs.rules)
        pis = list(all_filterings(symbols))
        for pi in rng.sample(pis, min(6, len(pis))):
            filtered = set(usable_rules_mod_pi(pairs, trs, pi))
            assert filtered <= classical


def test_filtered_usable_monotone_in_kept_positions():
    rng = random.Random(6)
    for _ in range(40):
        trs = random_trs(rng)
        pairs = dependency_pairs(trs)
        if not pairs.rules:
            continue
        symbols = sorted(set(trs.signature) | set(pairs.signature),
                         key=lambda f: f.display)
        small = {}
        large = {}
        for f in symbols:
            positions = list(range(1, f.arity + 1))
            kept_small = tuple(i for i in positions if rng.random() < 0.5)
            extra = tuple(i for i in positions if i in kept_small or rng.random() < 0.5)
            small[f] = Keep(kept_small)
            large[f] = Keep(extra)
        u_small = set(usable_rules_mod_pi(pairs, trs, ArgumentFiltering(small)))
        u_large = set(usable_rules_mod_pi(pairs, trs, ArgumentFiltering(large)))
        assert u_small <= u_large


def test_omega_golden_div_if():
    """Exactly two position guards and two usability implications."""
    trs = ex13()
    pairs = dependency_pairs(trs)
    names = symbol_map(trs, pairs)
    ctx = EncodingContext("strict")
    b = ctx.builder
    w = omega(pairs, trs, ctx, roots(usable_rules(pairs, trs)))
    assert w.kind == "and" and len(w.children) == 4
    children = set(w.children)
    assert b.implies(b.atom(A.ArgIn(names["div#"], 1)),
                     b.atom(A.Usable(names["minus"]))) in children
    assert b.implies(b.atom(A.ArgIn(names["if#"], 1)),
                     b.atom(A.Usable(names["ge"]))) in children
    minus_rules = trs.rules_for(names["minus"])
    ge_rules = trs.rules_for(names["ge"])
    assert b.implies(b.atom(A.Usable(names["minus"])),
                     b.and_([ctx.tau_ge(r.lhs, r.rhs) for r in minus_rules])) in children
    assert b.implies(b.atom(A.Usable(names["ge"])),
                     b.and_([ctx.tau_ge(r.lhs, r.rhs) for r in ge_rules])) in children


def test_omega_variable_rhs_only():
    trs = parse_trs("(VAR x y)(RULES f(x,y) -> g(x) g(x) -> x)")
    pairs = dependency_pairs(trs)
    g_pairs = Trs.of([p for p in pairs.rules])
    ctx = EncodingContext("strict")
    g_only = Trs.of([p for p in g_pairs.rules if "g#" in str(p.rhs)])
    w = omega(g_only, trs, ctx, roots(usable_rules(g_only, trs)))
    # satisfiable with every usability flag off
    env = {a: False for a in atoms_of(w) if isinstance(a, A.Usable)}

    def val(atom):
        if isinstance(atom, A.Usable):
            return False
        if isinstance(atom, A.ArgIn):
            return False
        raise KeyError(atom)

    assert evaluate(w, val)


def test_defined_usable_symbols_order():
    trs = ex13()
    pairs = dependency_pairs(trs)
    assert [f.display for f in roots(usable_rules(pairs, trs))] == ["minus", "ge"]


@pytest.mark.parametrize("mode", ["strict", "quasi"])
def test_omega_completeness_on_division(mode):
    """Whenever a concrete (prec, pi) satisfies the filtered-usable processor
    obligations, the induced assignment also satisfies the encoded formula."""
    trs = ex2()
    pairs = dependency_pairs(trs)
    # use the quot component, where the filtering matters
    problem = DpProblem(Trs.of([p for p in pairs.rules
                                if "quot#(minus" in str(p)]), trs)
    enc = encode_rp_formula(problem, "thm12", mode)
    symbols = sorted(set(trs.signature) | set(problem.pairs.signature),
                     key=lambda f: f.display)
    winners = 0
    for prec in itertools.islice(all_precedences(symbols), 0, None, 13):
        for pi in itertools.islice(all_filterings(symbols), 0, None, 17):
            pairs_list = problem.pairs.rules
            if not all(lpo_af_ge(prec, pi, mode, p.lhs, p.rhs) for p in pairs_list):
                continue
            stricts = [i for i, p in enumerate(pairs_list)
                       if lpo_af_gt(prec, pi, mode, p.lhs, p.rhs)]
            if not stricts:
                continue
            filtered = usable_rules_mod_pi(problem.pairs, trs, pi)
            if not all(lpo_af_ge(prec, pi, mode, r.lhs, r.rhs) for r in filtered):
                continue
            winners += 1
            flags = {}
            for f in enc.usable_symbols:
                rules_of = set(trs.rules_for(f))
                flags[A.Usable(f)] = bool(rules_of & set(filtered))
            for i, p in enumerate(pairs_list):
                flags[A.StrictPair(i)] = lpo_af_gt(prec, pi, mode, p.lhs, p.rhs)
            env = concrete_atom_value(prec, pi, flags)
            assert evaluate(enc.formula, env)
    assert winners > 0


def _enumeration_problem(cyclic):
    from termfilter.terms import App, Rule, Symbol, Var

    g = Symbol("g", 1)
    h = Symbol("h", 1)
    ft = Symbol("f", 1, True)
    x = Var("x")
    if cyclic:
        # the rules of g and h reach each other
        rules = Trs.of([Rule(App(g, (App(h, (x,)),)), App(h, (x,))),
                        Rule(App(h, (App(g, (x,)),)), App(g, (x,)))])
        pair = Rule(App(ft, (App(g, (App(h, (x,)),)),)), App(ft, (App(g, (x,)),)))
        return DpProblem(Trs.of([pair]), rules), {g, h, ft}
    rules = Trs.of([Rule(App(g, (x,)), x)])
    pair = Rule(App(ft, (App(g, (App(g, (x,)),)),)), App(ft, (App(g, (x,)),)))
    return DpProblem(Trs.of([pair]), rules), {g, ft}


@pytest.mark.parametrize("cyclic", [False, True], ids=["acyclic", "cyclic"])
def test_omega_model_enumeration_soundness(cyclic):
    """Every model of the filtered-usable encoding flags at least the rules
    that are usable under its own decoded filtering."""
    from termfilter.lowering import VarMap, decode_model
    from termfilter.solver import solve

    problem, signature = _enumeration_problem(cyclic)
    rules = problem.rules
    enc = encode_rp_formula(problem, "thm12", "strict")
    symbols = sorted(signature, key=lambda f: (f.name, f.is_tuple))
    vm = VarMap(symbols, 1, enc.usable_symbols)
    base = lowered_cnf(enc.formula, enc.context.builder, vm, "strict")

    from termfilter.cnf import Cnf
    clauses = list(base.cnf.clauses)
    models = 0
    while models < 300:
        res = solve(Cnf(base.cnf.num_vars, tuple(clauses)))
        if res.status != "sat":
            break
        models += 1
        decoded = decode_model(res.model, vm)
        filtered = set(usable_rules_mod_pi(problem.pairs, rules, decoded.filtering))
        flagged_symbols = [f for f in enc.usable_symbols if res.model[vm.usable_var(f)]]
        flagged = set()
        for f in flagged_symbols:
            flagged |= set(rules.rules_for(f))
        assert filtered <= flagged, (decoded.filtering, flagged_symbols)
        # block this projection onto the reserved variables
        clauses.append(tuple(-v if res.model[v] else v
                             for v in range(1, vm.num_reserved + 1)))
    assert 0 < models < 300  # enumeration exhausted the model space


def _dense_family(n):
    """``h_i(s(x)) -> c(h_1(x), ..., h_n(x))`` for i = 1..n, where every
    ``h_i`` calls every other, plus ``f(s(x)) -> f(h_1(x))``."""
    calls = ",".join(f"h{j}(x)" for j in range(1, n + 1))
    rules = " ".join(f"h{i}(s(x)) -> c({calls})" for i in range(1, n + 1))
    return parse_trs(f"(VAR x)(RULES {rules} f(s(x)) -> f(h1(x)))")


def test_omega_calls_grow_polynomially(monkeypatch):
    """Building the usable-rule formula walks each right-hand side once per
    symbol, not once per call path (233,031 walks on the path-wise form)."""
    from termfilter.prover import ProverConfig, Terminating, prove

    calls = 0
    inner = EncodingContext.usable_flags

    def counted(self, *args):
        nonlocal calls
        calls += 1
        return inner(self, *args)

    monkeypatch.setattr(EncodingContext, "usable_flags", counted)
    verdict = prove(_dense_family(8), ProverConfig(processor="thm12"))
    assert isinstance(verdict, Terminating)
    assert 0 < calls <= 1000


def test_filtered_usable_walk_matches_recursive_definition():
    """The worklist walk finds the same rules as the paper's recursive
    definition, under every filtering of small random systems (systems with
    more than 5000 filterings are left out to keep the test short)."""
    import math

    cases = 0
    sizes = set()
    for seed in range(100):
        rng = random.Random(seed)
        trs = random_trs(rng, 4, 4, 3, 3)
        pairs = dependency_pairs(trs)
        symbols = sorted(set(trs.signature) | set(pairs.signature),
                         key=lambda f: (f.name, f.is_tuple))
        if not pairs.rules or math.prod(len(filter_options(f)) for f in symbols) > 5000:
            continue
        for pi in all_filterings(symbols):
            got = usable_rules_mod_pi(pairs, trs, pi)
            assert got == usable_rules_mod_pi_reference(pairs, trs, pi), (trs, pi)
            sizes.add(len(got))
            cases += 1
    assert cases > 30000 and len(sizes) > 3


def test_filtered_usable_walk_expands_each_symbol_once(monkeypatch):
    """Under the identity filtering of the dense family the walk visits each
    right-hand side once: 122,896 ``kept`` lookups at n = 14 on the
    path-wise recursive form."""
    trs = _dense_family(14)
    pairs = dependency_pairs(trs)
    pi = full_filtering(trs, pairs)
    calls = 0
    inner = ArgumentFiltering.kept

    def counted(self, f):
        nonlocal calls
        calls += 1
        return inner(self, f)

    monkeypatch.setattr(ArgumentFiltering, "kept", counted)
    got = usable_rules_mod_pi(pairs, trs, pi)
    assert 0 < calls <= 1000
    assert got == usable_rules(pairs, trs)
