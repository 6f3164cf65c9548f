import contextlib
import gc
import io
import os
import pickle
import random
import subprocess
import sys
import tempfile
import textwrap
import threading

import pytest
from hypothesis import given, settings, strategies as st

from termfilter.terms import (App, Rule, Symbol, Trs, Var, defined_symbols,
                              format_trs, subterms, unify, variables)
from termfilter.tpdb import ParseError, UnsupportedBlockError, parse_trs

from util import (EX13_TEXT, EX2_TEXT, ex2, random_signature, random_term, random_trs,
                  stack_depth, substitute)


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


@pytest.mark.parametrize("text,error,line,column,message", [
    ("(VAR x)\r\n(RULES\r\n  f(x) x)", ParseError, 3, 8, "expected '->', found 'x'"),
    ("(VAR x)\n(RULES\n  f(x) ->", ParseError, 3, 10, "expected a term, found end of input"),
    ("(VAR x)\n\n  (STRATEGY INNERMOST)", UnsupportedBlockError, 3, 4,
     "unsupported block 'STRATEGY'"),
    ("(COMMENT a\n(b)\n c", ParseError, 3, 3, "unterminated block"),
    ("(VAR x)\n(RULES\n  f(x) -> x\n  x -> x)", ParseError, 4, 3,
     "left-hand side is a variable"),
    ("(VAR x y)\n(RULES\n    f(x) ->\n y)", ParseError, 3, 5,
     "right-hand side variables not bound on the left: y"),
    ("(VAR x)\n(RULES f(x) -> x\n\tg(x(x)) -> x)", ParseError, 3, 4,
     "variable 'x' used with arguments"),
    ("(VAR x y)\n(RULES f(x, y) -> x\n  f(x) -> x)", ParseError, 3, 3,
     "symbol 'f' used with 1 arguments but earlier with 2"),
], ids=["unexpected-token", "end-of-input", "unsupported-block", "unterminated-comment",
        "variable-lhs", "unbound-rhs-variable", "variable-with-arguments", "arity-mismatch"])
def test_parse_error_positions(text, error, line, column, message):
    # a column counts characters from 1, a CR and a tab one each; a rule's
    # own errors point at its first token, a symbol's at its name
    with pytest.raises(ParseError) as err:
        parse_trs(text)
    assert type(err.value) is error
    assert (err.value.line, err.value.column) == (line, column)
    assert str(err.value) == f"line {line}, column {column}: {message}"


_PIECES = ["(", ")", ",", "->", "-", ">", " ", "\n", "\r", "\t", "\x0c", "VAR", "RULES",
           "COMMENT", "THEORY", "x", "y", "f", "s", "0"]
_SCRAPS = st.lists(st.sampled_from(_PIECES) | st.text(max_size=3), max_size=12).map("".join)


def _tower(head: str, depth: int, inner: str, tail: str) -> str:
    return f"{head}(VAR x)(RULES f({'s(' * depth}{inner}{')' * depth}) -> f(x)){tail}"


# a rule whose left-hand side nests up to 3,000 applications deep, alone or
# with scraps of the format and arbitrary characters around and inside it,
# or scraps alone
_DEPTHS = st.integers(0, 3000)
_TRS_TEXTS = st.one_of(
    _DEPTHS.map(lambda depth: _tower("", depth, "x", "")),
    st.builds(_tower, _SCRAPS, _DEPTHS, st.just("x") | _SCRAPS, _SCRAPS),
    _SCRAPS)


@settings(database=None, derandomize=True, max_examples=200, deadline=None)
@given(text=_TRS_TEXTS)
def test_parse_returns_a_system_or_raises_parse_error(text):
    try:
        trs = parse_trs(text)
    except ParseError:
        return
    assert isinstance(trs, Trs)
    assert parse_trs(format_trs(trs)) == trs


@settings(database=None, derandomize=True, max_examples=60, deadline=None)
@given(text=_TRS_TEXTS, raw=st.binary(max_size=3))
def test_cli_exits_0_to_3_on_any_file(text, raw):
    from termfilter.cli import main
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.trs")
        with open(path, "wb") as f:
            f.write(text.encode("utf-8", "surrogatepass") + raw)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([path, "--timeout", "0.2"])
    assert code in (0, 1, 2, 3)
    if code == 3:
        assert err.getvalue().startswith("error:") and err.getvalue().count("\n") == 1
    else:
        assert not err.getvalue() and out.getvalue()


@pytest.mark.parametrize("text", [EX2_TEXT, EX13_TEXT])
def test_roundtrip(text):
    trs = parse_trs(text)
    assert parse_trs(format_trs(trs)) == trs


def test_printed_systems_parse_back():
    rng = random.Random(77)
    for trs in [Trs.of([])] + [random_trs(rng) for _ in range(200)]:
        assert parse_trs(str(trs)).rules == trs.rules, str(trs)
    assert str(Trs.of([])).startswith("(VAR )")


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
    # the arities in ascending order, whichever the system meets first
    for rules in ([r1, r2], [r2, r1]):
        with pytest.raises(ValueError, match="^symbol f used with arities 1 and 2$"):
            Trs.of(rules)

    # Several clashes: the message names the first clashing name in name
    # order with its two smallest arities, not the clash that set order,
    # and with it memory addresses, meets first.  Each run allocates a
    # different number of objects before it builds the terms.
    script = textwrap.dedent("""
        import sys
        pad = [object() for _ in range(int(sys.argv[1]))]
        from termfilter.terms import App, Rule, Symbol, Trs, Var
        x = Var("x")
        def app(name, *args):
            return App(Symbol(name, len(args)), args)
        ring = Rule(app("h", *[app(f"a{i}", x) for i in range(8)]),
                    app("k", *[app(f"a{i}", x, x) for i in range(8)]))
        fixed = Rule(app("b", x), x)
        later = Rule(app("g", app("b", x, x), app("b", x, x, x)), x)
        for rules in ([ring], [fixed, later]):
            try:
                Trs.of(rules)
            except ValueError as e:
                print(e)
    """)
    src = os.path.dirname(os.path.dirname(sys.modules[App.__module__].__file__))
    outputs = {subprocess.run([sys.executable, "-c", script, str(pad)], capture_output=True,
                              text=True, env=dict(os.environ, PYTHONPATH=src),
                              check=True).stdout
               for pad in (0, 101, 1000, 5003, 20000, 33333)}
    assert outputs == {"symbol a0 used with arities 1 and 2\n"
                       "symbol b used with arities 1 and 2\n"}


def test_rule_names_unbound_variables_in_order_of_first_occurrence():
    f, g = Symbol("f", 1), Symbol("g", 4)
    x, y, z = Var("x"), Var("y"), Var("z")
    with pytest.raises(ValueError, match="^right-hand side variables not bound "
                                         "on the left: z, y$"):
        Rule(App(f, (x,)), App(g, (z, x, y, z)))


def _walked(t):
    """The function symbols and variables of ``t``, by an explicit walk."""
    found = list(subterms(t))
    return ({u.fun for u in found if isinstance(u, App)},
            {u for u in found if isinstance(u, Var)})


def _reference_repr(t):
    if isinstance(t, Var):
        return f"Var(name={t.name!r})"
    args = ", ".join(map(_reference_repr, t.args)) + ("," if len(t.args) == 1 else "")
    f = t.fun
    return (f"App(fun=Symbol(name={f.name!r}, arity={f.arity!r}, is_tuple={f.is_tuple!r}), "
            f"args=({args}))")


@settings(database=None, derandomize=True, max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_terms_carry_their_symbols_and_variables(seed):
    rng = random.Random(seed)
    trs = random_trs(rng, max_symbols=5, max_arity=3, depth=3)
    symbols = random_signature(rng, max_symbols=4, max_arity=3)
    terms = [side for rule in trs.rules for side in (rule.lhs, rule.rhs)]
    terms += [random_term(rng, symbols, ["x", "y", "z"], 4) for _ in range(4)]
    for t in terms:
        for u in subterms(t):
            assert (u.symbols, u.variables) == _walked(u)
            assert type(u.symbols) is type(u.variables) is frozenset
            if isinstance(u, App) and len(u.args) == 1:
                # a one-argument application holds its argument's sets where
                # the root adds nothing (a variable makes its set per call)
                (a,) = u.args
                assert isinstance(a, Var) or u.variables is a.variables
                assert (u.symbols is a.symbols) == (u.fun in a.symbols)
            assert repr(u) == _reference_repr(u)
            assert pickle.loads(pickle.dumps(u)) is u


def test_variables_first_occurrence_order():
    f = Symbol("f", 3)
    t = App(f, (Var("y"), Var("x"), Var("y")))
    assert [v.name for v in variables(t)] == ["y", "x"]


def test_deep_towers_built_apart_are_one_object():
    def tower(leaf):
        t = Var(leaf)
        for _ in range(10_000):
            t = App(Symbol("s", 1), (t,))
        return t

    t, u, other = tower("x"), tower("x"), tower("y")
    # no comparison or hash may walk a term: all of these run within a few
    # frames of the current depth
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(stack_depth() + 20)
    try:
        assert t is u and t == u and hash(t) == hash(u)
        assert t != other and {t: 1}.get(other) is None and {t: 1}[u] == 1
    finally:
        sys.setrecursionlimit(limit)


def test_functions_and_variables_of_deep_tower():
    # built directly, not parsed, so nothing but the sets and the walk sees
    # the depth
    s = Symbol("s", 1)
    t = Var("x")
    for _ in range(5000):
        t = App(s, (t,))
    assert t.symbols == {s}
    assert t.variables == {Var("x")}
    assert variables(t) == (Var("x"),)


def test_functions_first_occurrence_order():
    f, g, c = Symbol("f", 3), Symbol("g", 1), Symbol("c", 0)
    t = App(f, (App(g, (App(c),)), Var("x"), App(f, (App(c), Var("y"), App(g, (Var("x"),))))))
    assert t.symbols == {f, g, c}
    assert t.variables == {Var("x"), Var("y")}
    assert variables(t) == (Var("x"), Var("y"))


def test_equal_constructions_are_one_object():
    u = App(Symbol("f", 2), (App(Symbol("c", 0)), Var("x")))
    v = App(Symbol("f", 2), (App(Symbol("c", 0)), Var("x")))
    assert u is v
    assert Symbol("f", 2) is Symbol(name="f", arity=2, is_tuple=False)
    assert Var("x") is Var(name="x")
    assert App(Symbol("c", 0)) is App(fun=Symbol("c", 0), args=())
    # the marker and the arity tell symbols apart
    assert Symbol("f", 2) is not Symbol("f", 2, True)
    assert Symbol("f", 2) is not Symbol("f", 1)
    assert App(Symbol("f", 2), (Var("x"), Var("y"))) is not u


def test_unpickled_terms_are_canonical_in_new_process(tmp_path):
    # a pickle made under one PYTHONHASHSEED, loaded under another, yields
    # the loading process's own objects: those built before the load, and
    # the ones later builds find
    path = tmp_path / "term.pickle"
    dump = textwrap.dedent(f"""
        import pickle
        from termfilter.terms import App, Symbol, Var
        f, c = Symbol("f", 2), Symbol("c", 0)
        t = App(f, (App(c), App(f, (Var("x"), App(c)))))
        open({str(path)!r}, "wb").write(pickle.dumps((t, Symbol("g", 1, True), Var("y"))))
    """)
    load = textwrap.dedent(f"""
        import pickle
        from termfilter.terms import App, Symbol, Var
        f, c = Symbol("f", 2), Symbol("c", 0)
        inner = App(f, (Var("x"), App(c)))
        t, g, y = pickle.loads(open({str(path)!r}, "rb").read())
        assert t.fun is f and t.args[0] is App(c) and t.args[1] is inner
        assert t is App(f, (App(c), inner))
        assert g is Symbol("g", 1, True) and y is Var("y")
    """)
    # the children import the package this process imports, however pytest ran
    src = os.path.dirname(os.path.dirname(sys.modules[App.__module__].__file__))
    for seed, script in (("1", dump), ("2", load)):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        subprocess.run([sys.executable, "-c", script], env=env, check=True)


def test_term_classes_keep_identity_equality_and_hash():
    # a decorator such as @dataclass would bring back Python-level __eq__
    # and __hash__, which every memo lookup keyed on terms would then call
    for obj in (Symbol("f", 0), Var("x"), App(Symbol("f", 0))):
        cls = type(obj)
        assert cls.__eq__ is object.__eq__ and cls.__hash__ is object.__hash__
        assert not hasattr(obj, "__dict__")
    t = App(Symbol("f", 1), (Var("x"),))
    for obj, field in ((t, "args"), (t.fun, "arity"), (Var("x"), "name")):
        with pytest.raises(AttributeError):
            setattr(obj, field, None)
        with pytest.raises(AttributeError):
            delattr(obj, field)


def test_intern_tables_release_dropped_terms():
    tables = (Symbol._table, Var._table, App._table)
    gc.collect()
    gc.disable()  # so that no collection of earlier garbage shrinks a table
    try:
        before = [len(table) for table in tables]
        terms = [App(Symbol(f"leak_f{i}", 2), (Var(f"leak_x{i}"), App(Symbol(f"leak_c{i}", 0))))
                 for i in range(1000)]
        # two symbols, one variable and two applications per term
        assert [len(table) for table in tables] == [before[0] + 2000, before[1] + 1000,
                                                    before[2] + 2000]
        del terms
        assert [len(table) for table in tables] == before
    finally:
        gc.enable()


def test_a_late_callback_keeps_the_entry_of_a_rebuilt_key():
    # a dead instance's callback may run after its key has been built
    # again; it must leave the new instance's entry in place
    x = Var("late_callback_x")
    old = Var._table["late_callback_x"]
    del x
    assert "late_callback_x" not in Var._table
    y = Var("late_callback_x")
    Var._forget(old)  # the dead entry's callback, once more and late
    assert Var._table["late_callback_x"]() is y
    assert Var("late_callback_x") is y


def test_threads_building_the_same_terms_get_one_object_each():
    def build(out):
        barrier.wait(timeout=10)
        out.extend(App(Symbol(f"race_f{i % 50}", 2),
                       (Var(f"race_x{i}"), App(Symbol(f"race_c{i}", 0))))
                   for i in range(2000))

    barrier = threading.Barrier(4)
    results = [[] for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build, args=(out,)) for out in results]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert all(len(out) == 2000 for out in results)
    for built in zip(*results):
        assert all(t is built[0] for t in built)
        assert built[0].args[1] is App(Symbol(built[0].args[1].fun.name, 0))


def test_walks_of_deep_terms_need_no_recursion():
    s, f = Symbol("s", 1), Symbol("f", 2)
    x, y = Var("x"), Var("y")
    left, right = x, App(f, (y, y))
    for _ in range(5000):
        left, right = App(s, (left,)), App(s, (right,))
    subst = unify(left, right)
    assert subst == {x: App(f, (y, y))}
    assert substitute(left, subst) is right
    assert substitute(right, {y: x}) is substitute(left, {x: App(f, (x, x))})
    assert unify(App(s, (left,)), App(s, (App(s, (x,)),))) is None  # occurs check
    assert sum(1 for _ in subterms(left)) == 5001
    assert str(left) == "s(" * 5000 + "x" + ")" * 5000


def test_unify_walks_shared_bindings_once():
    # x_k = g(x_{k-1}, x_{k-1}): the binding of x_20 has 2**20 paths to x_0,
    # which a walk that follows every path would take one by one
    g = Symbol("g", 2)
    n = 20
    xs = [Var(f"x{k}") for k in range(n + 1)]
    h = Symbol("h", n + 1)
    left = App(h, tuple(reversed(xs[1:])) + (xs[0],))
    right = App(h, tuple(App(g, (xs[k - 1], xs[k - 1])) for k in range(n, 0, -1)) + (Var("z"),))
    subst = unify(left, right)
    assert subst is not None
    t = subst[xs[n]]
    for _ in range(n):
        assert t.fun is g and t.args[0] is t.args[1]
        t = t.args[0]
    assert t is xs[0] or t is Var("z")
    assert unify(left, App(h, right.args[:-1] + (App(g, (xs[n], xs[n])),))) is None
