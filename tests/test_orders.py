import gc
import random

import pytest

from termfilter.orders import (QUASI, STRICT, ArgumentFiltering, Collapse, Keep,
                               Precedence, apply_filtering, lpo_af_ge, lpo_af_gt,
                               lpo_ge, lpo_gt, terms_equivalent)
from termfilter.terms import App, Symbol, Var
from util import (all_filterings, all_precedences, ex2, random_ground_term,
                  random_signature, random_term, symbol_map)

MINUS = Symbol("minus", 2)
QUOT = Symbol("quot", 2)
S = Symbol("s", 1)
ZERO = Symbol("0", 0)
MINUS_T = MINUS.marked()
QUOT_T = QUOT.marked()
X, Y = Var("x"), Var("y")


def mk(f, *args):
    return App(f, tuple(args))


def division_filtering():
    # collapse minus to its first argument, keep one argument everywhere else
    return ArgumentFiltering({
        MINUS: Collapse(1),
        S: Keep((1,)),
        ZERO: Keep(()),
        QUOT: Keep((1,)),
        MINUS_T: Keep((1,)),
        QUOT_T: Keep((1,)),
    })


def division_precedence():
    return Precedence({MINUS: 1, S: 1, ZERO: 1, QUOT: 1, MINUS_T: 1, QUOT_T: 2})


def test_apply_filtering_collapse():
    pi = division_filtering()
    assert apply_filtering(pi, mk(MINUS, X, Y)) == X


def test_apply_filtering_identity():
    pi = ArgumentFiltering.identity([MINUS, S, ZERO])
    t = mk(MINUS, mk(S, X), mk(ZERO))
    assert apply_filtering(pi, t) == t


def test_apply_filtering_kept_positions_shrink():
    pi = ArgumentFiltering({QUOT_T: Keep((2,)), S: Keep((1,)), MINUS: Collapse(1)})
    t = mk(QUOT_T, mk(MINUS, X, Y), mk(S, Y))
    out = apply_filtering(pi, t)
    assert str(out) == "quot#(s(y))"
    assert isinstance(out, App) and out.fun.arity == 1 and out.fun.is_tuple


def test_apply_filtering_missing_symbol():
    pi = ArgumentFiltering({S: Keep((1,))})
    with pytest.raises(ValueError, match="no filtering"):
        apply_filtering(pi, mk(MINUS, X, Y))


def test_filtering_validation():
    with pytest.raises(ValueError):
        ArgumentFiltering({ZERO: Collapse(1)})
    with pytest.raises(ValueError):
        ArgumentFiltering({MINUS: Keep((2, 1))})
    with pytest.raises(ValueError):
        ArgumentFiltering({MINUS: Keep((3,))})


def test_lpo_same_root_decrease():
    prec = Precedence({MINUS: 1, QUOT: 2, S: 1, ZERO: 1})
    s = mk(MINUS, mk(S, X), mk(S, Y))
    t = mk(MINUS, X, Y)
    assert lpo_gt(prec, STRICT, s, t)


def test_lpo_irreflexive():
    prec = Precedence({MINUS: 1, QUOT: 2, S: 1, ZERO: 1})
    for t in (X, mk(ZERO), mk(S, X), mk(MINUS, mk(S, X), Y)):
        assert not lpo_gt(prec, STRICT, t, t)
        assert lpo_ge(prec, STRICT, t, t)


def test_lpo_subterm_property():
    prec = Precedence({MINUS: 1, QUOT: 1, S: 1, ZERO: 1})
    assert lpo_gt(prec, STRICT, mk(S, X), X)
    assert lpo_gt(prec, STRICT, mk(MINUS, mk(S, X), Y), mk(S, X))


def test_no_strict_precedence_orients_division():
    """Exhaustive: no rank assignment lets plain LPO orient all four rules."""
    trs = ex2()
    symbols = sorted(trs.signature, key=lambda f: f.name)
    found = False
    for prec in all_precedences(symbols):
        if all(lpo_gt(prec, STRICT, r.lhs, r.rhs) for r in trs.rules):
            found = True
            break
    assert not found


def test_known_witness_orients_division_pairs():
    """A known solution: collapse minus, keep [1] elsewhere, quot# above
    minus#; the three pairs are strict and the two rules weak."""
    pi = division_filtering()
    prec = division_precedence()
    trs = ex2()
    names = symbol_map(trs)
    minus_rules = [r for r in trs.rules if r.root == names["minus"]]

    pair10 = (mk(MINUS_T, mk(S, X), mk(S, Y)), mk(MINUS_T, X, Y))
    pair11 = (mk(QUOT_T, mk(S, X), mk(S, Y)), mk(MINUS_T, X, Y))
    pair12 = (mk(QUOT_T, mk(S, X), mk(S, Y)), mk(QUOT_T, mk(MINUS, X, Y), mk(S, Y)))
    for s, t in (pair10, pair11, pair12):
        assert lpo_af_gt(prec, pi, STRICT, s, t)
    for r in minus_rules:
        assert lpo_af_ge(prec, pi, STRICT, r.lhs, r.rhs)


def test_af_ge_variable_reflexive():
    pi = division_filtering()
    prec = division_precedence()
    assert lpo_af_ge(prec, pi, STRICT, X, X)
    assert not lpo_af_ge(prec, pi, STRICT, X, Y)


def test_af_gt_variable_lhs_false():
    pi = division_filtering()
    prec = division_precedence()
    assert not lpo_af_gt(prec, pi, STRICT, X, X)
    assert not lpo_af_gt(prec, pi, STRICT, X, mk(ZERO))


def test_af_ge_variable_against_collapsed():
    # x >= minus(x,y) when minus collapses onto its first argument
    pi = division_filtering()
    prec = division_precedence()
    assert lpo_af_ge(prec, pi, STRICT, X, mk(MINUS, X, Y))
    assert not lpo_af_ge(prec, pi, STRICT, X, mk(MINUS, Y, X))


@pytest.mark.parametrize("mode", [STRICT, QUASI])
def test_bridge_property(mode):
    """The filtered order agrees with plain LPO on filtered terms."""
    rng = random.Random(42)
    checked = 0
    for _ in range(120):
        symbols = random_signature(rng, 4, 2)
        filterings = list(all_filterings(symbols))
        precedences = list(all_precedences(symbols))
        s = random_term(rng, symbols, ["x", "y"], 3)
        t = random_term(rng, symbols, ["x", "y"], 3)
        for _ in range(12):
            pi = rng.choice(filterings)
            prec = rng.choice(precedences)
            fs, ft = apply_filtering(pi, s), apply_filtering(pi, t)
            assert lpo_af_gt(prec, pi, mode, s, t) == lpo_gt(prec, mode, fs, ft)
            assert lpo_af_ge(prec, pi, mode, s, t) == lpo_ge(prec, mode, fs, ft)
            checked += 1
    assert checked == 120 * 12


@pytest.mark.parametrize("mode", [STRICT, QUASI])
def test_af_order_irreflexive_and_transitive(mode):
    rng = random.Random(9)
    for _ in range(150):
        symbols = random_signature(rng, 3, 2)
        if not any(f.arity == 0 for f in symbols):
            symbols.append(Symbol("c", 0))
        pi = rng.choice(list(all_filterings(symbols)))
        prec = rng.choice(list(all_precedences(symbols)))
        terms = [random_ground_term(rng, symbols, rng.randint(0, 3)) for _ in range(3)]
        for t in terms:
            assert not lpo_af_gt(prec, pi, mode, t, t)
        a, b, c = terms
        if lpo_af_gt(prec, pi, mode, a, b) and lpo_af_gt(prec, pi, mode, b, c):
            assert lpo_af_gt(prec, pi, mode, a, c)
        # compatibility: weak then strict stays strict
        if lpo_af_ge(prec, pi, mode, a, b) and lpo_af_gt(prec, pi, mode, b, c):
            assert lpo_af_gt(prec, pi, mode, a, c)


def test_quasi_equivalent_symbols():
    f = Symbol("f", 1)
    g = Symbol("g", 1)
    prec = Precedence({f: 1, g: 1})
    pi = ArgumentFiltering.identity([f, g])
    assert lpo_af_ge(prec, pi, QUASI, mk(f, X), mk(g, X))
    assert not lpo_af_gt(prec, pi, QUASI, mk(f, X), mk(g, X))
    # strict mode treats equal ranks as incomparable
    assert not lpo_af_ge(prec, pi, STRICT, mk(f, X), mk(g, X))


def test_mode_validated():
    prec = Precedence({S: 1})
    with pytest.raises(ValueError):
        lpo_gt(prec, "loose", mk(S, X), X)


@pytest.mark.parametrize("mode", [STRICT, QUASI])
def test_comparisons_leave_no_reference_cycle(mode):
    # each comparison's memo is freed when it returns, not left for the
    # cycle collector to find during whatever runs next
    f, g = Symbol("f", 1), Symbol("g", 1)
    t = X
    for _ in range(30):
        t = mk(S, t)
    prec = Precedence({f: 2, g: 2, S: 1})
    pi = ArgumentFiltering.identity([f, g, S])
    calls = [lambda: lpo_af_gt(prec, pi, mode, mk(f, t), t),
             lambda: lpo_af_ge(prec, pi, mode, mk(f, t), t),
             lambda: terms_equivalent(prec, mode, mk(f, t), mk(g, t)) == (mode == QUASI)]
    gc.collect()
    gc.disable()
    try:
        for call in calls:
            assert call()
            assert gc.collect() == 0
    finally:
        gc.enable()
