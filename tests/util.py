"""Shared fixtures and brute-force helpers for the test suite."""

from __future__ import annotations

import itertools
import random

from termfilter import atoms as A
from termfilter.orders import ArgumentFiltering, Collapse, Keep, Precedence
from termfilter.terms import App, Rule, Symbol, Term, Trs, Var
from termfilter.tpdb import parse_trs

EX2_TEXT = """
(VAR x y)
(RULES
  minus(x,0) -> x
  minus(s(x),s(y)) -> minus(x,y)
  quot(0,s(y)) -> 0
  quot(s(x),s(y)) -> s(quot(minus(x,y),s(y)))
)
"""

EX13_TEXT = """
(VAR x y)
(RULES
  minus(x,0) -> x
  minus(s(x),s(y)) -> minus(x,y)
  ge(x,0) -> true
  ge(0,s(y)) -> false
  ge(s(x),s(y)) -> ge(x,y)
  div(x,y) -> if(ge(x,y),x,y)
  if(true,s(x),s(y)) -> s(div(minus(x,y),s(y)))
  if(false,x,s(y)) -> 0
)
"""


def ex2() -> Trs:
    return parse_trs(EX2_TEXT)


def ex13() -> Trs:
    return parse_trs(EX13_TEXT)


def symbol_map(*systems: Trs) -> dict[str, Symbol]:
    """Display name -> symbol, over the given systems' signatures."""
    out: dict[str, Symbol] = {}
    for trs in systems:
        for f in trs.signature:
            out[f.display] = f
    return out


# ----------------------------------------------------------------------
# random generators

def random_signature(rng: random.Random, max_symbols: int = 3,
                     max_arity: int = 2) -> list[Symbol]:
    n = rng.randint(1, max_symbols)
    return [Symbol(f"f{i}", rng.randint(0, max_arity)) for i in range(n)]


def random_term(rng: random.Random, symbols: list[Symbol], var_names: list[str],
                depth: int) -> Term:
    leaves = [f for f in symbols if f.arity == 0]
    if depth == 0 or (rng.random() < 0.3 and (var_names or leaves)):
        if var_names and (not leaves or rng.random() < 0.5):
            return Var(rng.choice(var_names))
        if leaves:
            return App(rng.choice(leaves), ())
        return Var(var_names[0] if var_names else "x")
    f = rng.choice(symbols)
    return App(f, tuple(random_term(rng, symbols, var_names, depth - 1)
                        for _ in range(f.arity)))


def random_ground_term(rng: random.Random, symbols: list[Symbol], depth: int) -> Term:
    leaves = [f for f in symbols if f.arity == 0]
    assert leaves, "need a constant for ground terms"
    if depth == 0:
        return App(rng.choice(leaves), ())
    f = rng.choice(symbols)
    if f.arity == 0:
        return App(f, ())
    return App(f, tuple(random_ground_term(rng, symbols, depth - 1)
                        for _ in range(f.arity)))


def random_trs(rng: random.Random, max_symbols: int = 4, max_rules: int = 3,
               max_arity: int = 2, depth: int = 2) -> Trs:
    symbols = random_signature(rng, max_symbols, max_arity)
    rules = []
    for _ in range(rng.randint(1, max_rules)):
        heads = [f for f in symbols if f.arity > 0]
        f = rng.choice(heads) if heads and rng.random() < 0.9 else rng.choice(symbols)
        var_names = ["x", "y"][:max(1, f.arity)]
        lhs = App(f, tuple(random_term(rng, symbols, var_names, depth - 1)
                           for _ in range(f.arity)))
        from termfilter.terms import variables
        lhs_vars = [v.name for v in variables(lhs)]
        rhs = random_term(rng, symbols, lhs_vars, depth)
        try:
            rules.append(Rule(lhs, rhs))
        except ValueError:
            continue
    if not rules:
        c = Symbol("c0", 0)
        g = Symbol("g0", 1)
        rules = [Rule(App(g, (App(c, ()),)), App(c, ()))]
    return Trs.of(rules)


# ----------------------------------------------------------------------
# exhaustive enumeration of precedences and filterings

def all_precedences(symbols: list[Symbol]):
    n = len(symbols)
    for ranks in itertools.product(range(1, n + 1), repeat=n):
        yield Precedence(dict(zip(symbols, ranks)))


def filter_options(f: Symbol) -> list[Keep | Collapse]:
    opts: list[Keep | Collapse] = []
    for r in range(f.arity + 1):
        for combo in itertools.combinations(range(1, f.arity + 1), r):
            opts.append(Keep(combo))
    for i in range(1, f.arity + 1):
        opts.append(Collapse(i))
    return opts


def all_filterings(symbols: list[Symbol]):
    options = [filter_options(f) for f in symbols]
    for combo in itertools.product(*options):
        yield ArgumentFiltering(dict(zip(symbols, combo)))


def concrete_atom_value(prec: Precedence, pi: ArgumentFiltering,
                        extra: dict | None = None):
    """Assignment function on atom payloads describing (prec, pi)."""
    extra = extra or {}

    def value(atom) -> bool:
        if isinstance(atom, A.PoGt):
            return prec.gt(atom.left, atom.right)
        if isinstance(atom, A.PoEq):
            return prec.rank(atom.left) == prec.rank(atom.right)
        if isinstance(atom, A.ListP):
            return isinstance(pi.get(atom.fun), Keep)
        if isinstance(atom, A.ArgIn):
            return atom.pos in pi.kept(atom.fun)
        if isinstance(atom, A.CollapsesTo):
            spec = pi.get(atom.fun)
            return isinstance(spec, Collapse) and spec.position == atom.pos
        if atom in extra:
            return extra[atom]
        raise KeyError(f"no value for atom {atom!r}")

    return value


def model_assignment(prec: Precedence, pi: ArgumentFiltering, vm) -> dict[int, bool]:
    """Propositional assignment (on reserved variables) describing (prec, pi)."""
    out: dict[int, bool] = {}
    for f in vm.symbols:
        value = prec.rank(f) - 1
        for i, v in enumerate(vm.bits(f)):
            out[v] = bool((value >> i) & 1)
        spec = pi.get(f)
        out[vm.list_var(f)] = isinstance(spec, Keep)
        for i in range(1, f.arity + 1):
            out[vm.arg_var(f, i)] = i in pi.kept(f)
    return out


# ----------------------------------------------------------------------
# reference definition of the filtered usable rules

def usable_rules_mod_pi_reference(pairs: Trs, rules: Trs,
                                  pi: ArgumentFiltering) -> tuple[Rule, ...]:
    """Usable rules restricted by a filtering, by the paper's recursive
    definition: reachability only descends into argument positions the
    filtering keeps (or collapses onto), and the rules of a symbol are
    removed from the system before recursing."""
    all_rules = rules.rules
    memo: dict[tuple[Term, frozenset[Rule]], frozenset[Rule]] = {}

    def go(t: Term, remaining: frozenset[Rule]) -> frozenset[Rule]:
        if isinstance(t, Var):
            return frozenset()
        key = (t, remaining)
        hit = memo.get(key)
        if hit is not None:
            return hit
        own = frozenset(r for r in remaining if r.root == t.fun)
        rest = remaining - own
        out = set(own)
        for rule in own:
            out |= go(rule.rhs, rest)
        for i in pi.kept(t.fun):
            out |= go(t.args[i - 1], rest)
        result = frozenset(out)
        memo[key] = result
        return result

    found: set[Rule] = set()
    for p in pairs.rules:
        found |= go(p.rhs, frozenset(all_rules))
    return tuple(r for r in all_rules if r in found)
