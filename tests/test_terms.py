import os
import random
import subprocess
import sys
import textwrap

import pytest

from termfilter.terms import (App, Rule, Symbol, Trs, Var, defined_symbols,
                              format_trs, functions, substitute, unify, variables)
from termfilter.tpdb import ParseError, UnsupportedBlockError, parse_trs

from util import EX13_TEXT, EX2_TEXT, ex2, random_signature, random_term


def test_parse_division_system():
    trs = ex2()
    assert len(trs.rules) == 4
    by_name = {f.display: f for f in trs.signature}
    assert by_name["minus"].arity == 2
    assert by_name["quot"].arity == 2
    assert by_name["s"].arity == 1
    assert by_name["0"].arity == 0


def test_parse_single_rule():
    trs = parse_trs("(VAR x)(RULES minus(x,0) -> x)")
    assert len(trs.rules) == 1
    names = {f.display: f.arity for f in trs.signature}
    assert names == {"minus": 2, "0": 0}


def test_parse_empty_system():
    trs = parse_trs("(VAR)(RULES )")
    assert trs.rules == ()
    assert trs.signature == frozenset()


def test_parse_variable_lhs_rejected():
    with pytest.raises(ParseError, match="left-hand side is a variable"):
        parse_trs("(VAR x)(RULES x -> x)")


def test_parse_free_rhs_variable_rejected():
    with pytest.raises(ParseError, match="not bound"):
        parse_trs("(VAR x y)(RULES f(x) -> y)")


def test_parse_arity_mismatch_rejected():
    with pytest.raises(ParseError, match="used with 1 arguments but earlier with 2"):
        parse_trs("(VAR x y)(RULES f(x,y) -> f(x))")


def test_parse_unsupported_block_rejected():
    with pytest.raises(UnsupportedBlockError):
        parse_trs("(VAR x)(STRATEGY INNERMOST)(RULES f(x) -> x)")
    with pytest.raises(UnsupportedBlockError):
        parse_trs("(THEORY (AC f))(VAR x)(RULES f(x) -> x)")


def test_parse_comment_skipped():
    trs = parse_trs("(VAR x)(RULES f(x) -> x)(COMMENT nested (parens) and -> arrows ok)")
    assert len(trs.rules) == 1


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse_trs("(VAR x)\n(RULES f(x) -> )")
    assert err.value.line == 2
    assert "expected a term" in str(err.value)


def test_variable_used_with_arguments():
    with pytest.raises(ParseError, match="variable 'x' used with arguments"):
        parse_trs("(VAR x)(RULES x(x) -> x)")


@pytest.mark.parametrize("text", [EX2_TEXT, EX13_TEXT])
def test_roundtrip(text):
    trs = parse_trs(text)
    assert parse_trs(format_trs(trs)) == trs


def test_defined_symbols_division():
    assert {f.display for f in defined_symbols(ex2())} == {"minus", "quot"}


def test_defined_symbols_empty():
    assert defined_symbols(parse_trs("(VAR)(RULES )")) == frozenset()


def test_defined_symbols_div_if():
    trs = parse_trs(EX13_TEXT)
    assert {f.display for f in defined_symbols(trs)} == {"minus", "ge", "div", "if"}


def test_defined_subset_of_lhs_roots():
    trs = parse_trs(EX13_TEXT)
    roots = {r.root for r in trs.rules}
    assert defined_symbols(trs) == frozenset(roots)


def test_rule_invariants_enforced():
    f = Symbol("f", 1)
    with pytest.raises(ValueError):
        Rule(Var("x"), Var("x"))
    with pytest.raises(ValueError):
        Rule(App(f, (Var("x"),)), Var("y"))


def test_app_arity_checked():
    with pytest.raises(ValueError):
        App(Symbol("f", 2), (Var("x"),))


def test_unify_basic():
    f = Symbol("f", 1)
    a = Symbol("a", 0)
    subst = unify(App(f, (Var("x"),)), App(f, (App(a, ()),)))
    assert subst == {Var("x"): App(a, ())}


def test_unify_occurs_check():
    f = Symbol("f", 1)
    assert unify(Var("x"), App(f, (Var("x"),))) is None


def test_unify_clash():
    # quot#(minus(x,y), s(y)) does not unify with quot#(s(x'), s(y'))
    quot = Symbol("quot", 2, True)
    minus = Symbol("minus", 2)
    s = Symbol("s", 1)
    left = App(quot, (App(minus, (Var("x"), Var("y"))), App(s, (Var("y"),))))
    right = App(quot, (App(s, (Var("x1"),)), App(s, (Var("y1"),))))
    assert unify(left, right) is None


def test_unify_random_properties():
    rng = random.Random(7)
    hits = 0
    for _ in range(300):
        symbols = random_signature(rng, 3, 2)
        s = random_term(rng, symbols, ["x", "y"], 3)
        t = random_term(rng, symbols, ["u", "v"], 3)
        subst = unify(s, t)
        if subst is None:
            continue
        hits += 1
        left = substitute(s, subst)
        right = substitute(t, subst)
        assert left == right
        # idempotence: applying the substitution twice changes nothing
        assert substitute(left, subst) == left
        for image in subst.values():
            assert substitute(image, subst) == image
    assert hits > 20


def test_tuple_symbol_display_and_identity():
    f = Symbol("minus", 2)
    assert f.marked().display == "minus#"
    assert f.marked() != Symbol("minus#", 2)
    assert f.marked() == Symbol("minus", 2, True)


def test_trs_of_rejects_inconsistent_arity():
    f1 = Symbol("f", 1)
    f2 = Symbol("f", 2)
    a = Symbol("a", 0)
    r1 = Rule(App(f1, (Var("x"),)), Var("x"))
    r2 = Rule(App(f2, (Var("x"), Var("y"))), App(a, ()))
    with pytest.raises(ValueError):
        Trs.of([r1, r2])


def test_variables_first_occurrence_order():
    f = Symbol("f", 3)
    t = App(f, (Var("y"), Var("x"), Var("y")))
    assert [v.name for v in variables(t)] == ["y", "x"]


def test_app_hash_of_deep_tower():
    s = Symbol("s", 1)
    t = Var("x")
    for _ in range(10_000):
        t = App(s, (t,))
    assert hash(t) == hash((t.fun, t.args))


def test_functions_and_variables_of_deep_tower():
    # built directly, not parsed, so nothing but the two walks sees the depth
    s = Symbol("s", 1)
    t = Var("x")
    for _ in range(5000):
        t = App(s, (t,))
    assert functions(t) == (s,)
    assert variables(t) == (Var("x"),)


def test_functions_first_occurrence_order():
    f, g, c = Symbol("f", 3), Symbol("g", 1), Symbol("c", 0)
    t = App(f, (App(g, (App(c),)), Var("x"), App(f, (App(c), Var("y"), App(g, (Var("x"),))))))
    assert functions(t) == (f, g, c)
    assert variables(t) == (Var("x"), Var("y"))


def test_equal_terms_hash_equal():
    f, c = Symbol("f", 2), Symbol("c", 0)
    u = App(f, (App(c), Var("x")))
    v = App(f, (App(c), Var("x")))
    assert u is not v and u == v
    assert hash(u) == hash(v)


def test_unpickled_app_rehashes_in_new_process(tmp_path):
    # a symbol's cached hash is the value the generated one would have, so
    # set orders cannot move
    assert hash(Symbol("f", 2, True)) == hash(("f", 2, True))
    # the cached hashes depend on the process's string hashing, so a pickle
    # made under one PYTHONHASHSEED must not carry them into another
    path = tmp_path / "term.pickle"
    dump = textwrap.dedent(f"""
        import pickle
        from termfilter.terms import App, Symbol, Var
        f, c = Symbol("f", 2), Symbol("c", 0)
        t = App(f, (App(c), App(f, (Var("x"), App(c)))))
        open({str(path)!r}, "wb").write(pickle.dumps((t, Symbol("g", 1, True))))
    """)
    load = textwrap.dedent(f"""
        import pickle
        from termfilter.terms import Symbol
        t, g = pickle.loads(open({str(path)!r}, "rb").read())
        assert hash(t) == hash((t.fun, t.args))
        assert hash(t.args[1]) == hash((t.args[1].fun, t.args[1].args))
        assert hash(t.fun) == hash(("f", 2, False))
        assert hash(g) == hash(("g", 1, True)) and g == Symbol("g", 1, True)
    """)
    for seed, script in (("1", dump), ("2", load)):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        subprocess.run([sys.executable, "-c", script], env=env, check=True)
