"""Shared fixtures and brute-force helpers for the test suite."""

from __future__ import annotations

import heapq
import itertools
import random
import sys
import time
from typing import Any, Callable, Mapping

from termfilter import atoms as A
from termfilter.cnf import Cnf, TseitinResult, tseitin_cnf
from termfilter.formula import AND, ATOM, FALSE, NOT, OR, TRUE, Formula, iter_nodes
from termfilter.lowering import lower_atoms, structural_constraints
from termfilter.orders import ArgumentFiltering, Collapse, Keep, Precedence
from termfilter.solver import SAT, UNKNOWN, UNSAT, SolveResult, _luby
from termfilter.terms import (App, Rule, Symbol, Term, Trs, Var, defined_symbols, symbol_key,
                              unify, variables)
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

ACKERMANN_TEXT = """
(VAR x y)
(RULES
  ack(0,y) -> s(y)
  ack(s(x),0) -> ack(x,s(0))
  ack(s(x),s(y)) -> ack(x,ack(s(x),y))
)
"""

REVERSE_TEXT = """
(VAR x l k)
(RULES
  app(nil,k) -> k
  app(cons(x,l),k) -> cons(x,app(l,k))
  rev(nil) -> nil
  rev(cons(x,l)) -> app(rev(l),cons(x,nil))
)
"""

SHUFFLE_TEXT = REVERSE_TEXT + """
(VAR x l)
(RULES
  shuffle(nil) -> nil
  shuffle(cons(x,l)) -> cons(x,shuffle(rev(l)))
)
"""


def rot_text(k: int) -> str:
    """``f(s(x1),x2,…,xk) -> g(x2,…,xk,x1)`` and ``g(x1,…,xk) -> f(x1,…,xk)``:
    its quasi encoding grows fast with k."""
    xs = [f"x{i}" for i in range(1, k + 1)]
    return (f"(VAR {' '.join(xs)})(RULES "
            f"f(s(x1),{','.join(xs[1:])}) -> g({','.join(xs[1:] + xs[:1])}) "
            f"g({','.join(xs)}) -> f({','.join(xs)}))")


def ring_text(n: int) -> str:
    """The refuting ring of ``bench/corpus.chain_rules`` with fixed names:
    ``f0 .. f(n-1)`` pass an ``s`` from their first argument to their second
    around a ring, and the last link swaps the arguments back and keeps the
    ``s``, so the ring does not terminate and its MAYBE rests on UNSAT
    answers."""
    rules = []
    for i in range(n):
        rhs = "s(y),x" if i == n - 1 else "x,s(y)"
        rules += [f"f{i}(s(x),y) -> f{(i + 1) % n}({rhs})", f"f{i}(0,y) -> y"]
    return "(VAR x y)(RULES " + " ".join(rules) + ")"


def stack_depth() -> int:
    """Number of frames on the caller's stack, the caller's included."""
    frame, depth = sys._getframe(1), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


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
# the prover's lowering step

def problem_signature(problem) -> tuple[Symbol, ...]:
    """Every symbol of a pair problem's pairs and rules, in name order."""
    sig = set(problem.pairs.signature) | set(problem.rules.signature)
    return tuple(sorted(sig, key=symbol_key))


def lowered_cnf(formula, builder, vm, mode: str) -> TseitinResult:
    """``formula`` and the structural constraints of ``vm``, built with
    ``builder``, through Tseitin with each atom lowered when first reached,
    as ``reduction_pair_processor`` does it."""
    return tseitin_cnf(builder.and_([formula] + structural_constraints(vm, builder)),
                       vm.num_reserved, lower_atoms(vm, mode, builder))


def identity_filtering(b, symbols):
    """The conjunction, built with ``b``, that makes the filtering keep every
    argument of every symbol of ``symbols``."""
    parts = []
    for f in symbols:
        parts.append(b.atom(A.ListP(f)))
        for i in range(1, f.arity + 1):
            parts.append(b.atom(A.ArgIn(f, i)))
    return b.and_(parts)


def check_cnf(cnf: Cnf) -> None:
    """Every literal of ``cnf`` names a variable in range, and no clause
    holds a literal and its complement."""
    for clause in cnf.clauses:
        lits = set(clause)
        for lit in clause:
            if lit == 0 or abs(lit) > cnf.num_vars:
                raise ValueError(f"literal {lit} out of range")
            if -lit in lits:
                raise ValueError(f"clause {clause} contains {lit} and {-lit}")


def no_atoms(payload):
    """The ``lower`` of a formula over integer variables only."""
    raise AssertionError(f"atom {payload!r} in a formula over variables")


# ----------------------------------------------------------------------
# formula walks and DIMACS reading

def evaluate(f: Formula, atom_value: Callable[[Any], bool]) -> bool:
    """Evaluate a formula under a total assignment given as a function on
    atom payloads."""
    memo: dict[Formula, bool] = {}

    def ev(n: Formula) -> bool:
        v = memo.get(n)
        if v is not None:
            return v
        k = n.kind
        if k == ATOM:
            v = bool(atom_value(n.payload))
        elif k == NOT:
            v = not ev(n.children[0])
        elif k == AND:
            v = all(ev(c) for c in n.children)
        elif k == OR:
            v = any(ev(c) for c in n.children)
        else:
            v = k == TRUE
        memo[n] = v
        return v

    try:
        return ev(f)
    finally:
        # ``ev`` reaches itself through its closure cell; emptying the cell
        # frees the memo on return rather than leaving it to the collector
        del ev


def tree_size(f: Formula) -> int:
    """Node count of the fully expanded tree (shared nodes counted once per
    occurrence)."""
    sizes: dict[Formula, int] = {}
    for node in iter_nodes(f):
        sizes[node] = 1 + sum(sizes[c] for c in node.children)
    return sizes[f]


def atoms_of(f: Formula) -> list:
    """Atom payloads reachable from ``f``, in node-id order."""
    found = [n for n in iter_nodes(f) if n.kind == ATOM]
    found.sort(key=lambda n: n.id)
    return [n.payload for n in found]


def parse_dimacs(text: str) -> Cnf:
    """The clause set of a DIMACS text, as ``write_dimacs`` writes it."""
    num_vars = 0
    clauses: list[tuple[int, ...]] = []
    current: list[int] = []
    declared = False
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise ValueError(f"bad problem line: {line!r}")
            num_vars = int(parts[2])
            declared = True
            continue
        for tok in line.split():
            lit = int(tok)
            if lit == 0:
                clauses.append(tuple(current))
                current = []
            else:
                current.append(lit)
                num_vars = max(num_vars, abs(lit))
    if current:
        clauses.append(tuple(current))
    if not declared and not clauses:
        raise ValueError("no problem line and no clauses")
    return Cnf(num_vars, tuple(clauses))


# ----------------------------------------------------------------------
# substitution and the reference dependency graph

def substitute(t: Term, mapping: Mapping[Var, Term]) -> Term:
    """``t`` with every variable ``v`` in ``mapping`` replaced by
    ``mapping[v]``, all at once, by an explicit post-order walk that
    rebuilds each distinct subterm once."""
    done: dict[Term, Term] = {}
    stack = [t]
    while stack:
        u = stack[-1]
        if u in done:
            stack.pop()
        elif isinstance(u, Var):
            done[u] = mapping.get(u, u)
            stack.pop()
        else:
            missing = [a for a in u.args if a not in done]
            if missing:
                stack += missing
            else:
                done[u] = App(u.fun, tuple([done[a] for a in u.args]))
                stack.pop()
    return done[t]


def reference_dependency_graph(problem) -> dict[int, tuple[int, ...]]:
    """The estimated dependency graph the plain way: for every ordered pair
    of pairs, cap the right side with fresh variables ``_c<k>``, rename the
    left side apart to ``_u<k>``, and ask ``unify`` for a unifier."""
    defined = defined_symbols(problem.rules)
    pairs = problem.pairs.rules

    def cap(t: Term, fresh: itertools.count) -> Term:
        if isinstance(t, Var) or t.fun in defined:
            return Var(f"_c{next(fresh)}")
        return App(t.fun, tuple(cap(a, fresh) for a in t.args))

    targets = [substitute(p.lhs, {v: Var(f"_u{k}") for k, v in enumerate(variables(p.lhs))})
               for p in pairs]
    graph = {}
    for i, p in enumerate(pairs):
        source = cap(p.rhs, itertools.count())
        graph[i] = tuple(j for j, target in enumerate(targets)
                         if unify(source, target) is not None)
    return graph


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


def collapse_text(rng: random.Random) -> tuple[str, str]:
    """A system built on ``f(s(x)) -> f(m(x))``, ``m(0) -> 0`` and
    ``m(s(x)) -> s(m(x))``, and the name drawn for ``f``.  The names are
    drawn; ``f`` gets up to two arguments that it carries through unchanged
    and ``m`` up to one more argument, and each symbol's recursion argument
    a drawn position.  Where ``m`` is kept, ``f``'s pair needs ``s > m`` and
    ``m``'s second rule ``m > s``, so only the filtering that collapses ``m``
    onto its recursion argument orients ``f``'s component."""
    f, m, s, zero = rng.sample(["f", "g", "half", "m", "p", "q", "s", "succ", "0", "z"], 4)

    def app(name, main, extra, at):
        return f"{name}({','.join(extra[:at] + [main] + extra[at:])})"

    ys = [f"y{i}" for i in range(rng.randint(0, 2))]
    ws = [rng.choice(ys + ["x"]) for _ in range(rng.randint(0, 1))]
    zs = [f"z{i}" for i in range(len(ws))]
    at_f, at_m = rng.randint(0, len(ys)), rng.randint(0, len(ws))
    rules = [f"{app(f, f'{s}(x)', ys, at_f)} -> {app(f, app(m, 'x', ws, at_m), ys, at_f)}",
             f"{app(m, zero, zs, at_m)} -> {zero}",
             f"{app(m, f'{s}(x)', zs, at_m)} -> {s}({app(m, 'x', zs, at_m)})"]
    names = ["x"] + ys + zs
    return f"(VAR {' '.join(names)})(RULES {' '.join(rules)})", f


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


# ----------------------------------------------------------------------
# reference n-ary builder step

def reference_nary(b, kind: str, children):
    """``FormulaBuilder._nary`` in its plain, copying form: a tuple, a
    flattened list and a de-duplicating dict on every call.
    tests/test_formula.py checks that the builder returns the same node for
    the same children."""
    children = tuple(children)
    if not b.simplify:
        return b._node(kind, None, children)
    absorbing = b.FALSE if kind == AND else b.TRUE
    neutral = b.TRUE if kind == AND else b.FALSE
    flat = []
    for c in children:
        if c is absorbing:
            return absorbing
        if c is neutral:
            continue
        if c.kind == kind:
            flat.extend(c.children)
        else:
            flat.append(c)
    uniq = dict.fromkeys(flat)
    for c in uniq:
        if c.kind == NOT and c.children[0] in uniq:
            return absorbing
    if len(uniq) > 1:
        return b._node(kind, None, tuple(sorted(uniq, key=lambda n: n.id)))
    return next(iter(uniq), neutral)  # the one child, or none


# ----------------------------------------------------------------------
# reference two-sided Tseitin

def reference_tseitin_cnf(phi, num_reserved: int, lower) -> TseitinResult:
    """``cnf.tseitin_cnf`` without polarity: every definition in both
    directions, so each definition variable equals its node's value in
    every model.  Same variable numbering, the same root assertion (a
    conjunction child by child, a disjunction as one clause, any other node
    as a unit clause) and the same once-per-node call of ``lower``.
    tests/test_sat.py checks that the one-sided form is satisfiable exactly
    when this is."""
    clauses = []
    defs = {}
    counter = [num_reserved]
    lits = {}
    const_lit = []

    def fresh(desc):
        counter[0] += 1
        defs[counter[0]] = desc
        return counter[0]

    def true_lit():
        if not const_lit:
            const_lit.append(fresh("constant-true"))
            clauses.append((const_lit[0],))
        return const_lit[0]

    def lit(n):
        hit = lits.get(n)
        if hit is not None:
            return hit
        k = n.kind
        if k == TRUE:
            out = true_lit()
        elif k == FALSE:
            out = -true_lit()
        elif k == ATOM:
            out = n.payload if isinstance(n.payload, int) else lit(lower(n.payload))
        elif k == NOT:
            out = -lit(n.children[0])
        else:
            cs = [lit(c) for c in n.children]
            v = fresh(f"def({k})")
            if k == AND:
                clauses.extend((-v, c) for c in cs)
                clauses.append(tuple([v] + [-c for c in cs]))
            else:
                clauses.extend((v, -c) for c in cs)
                clauses.append(tuple([-v] + cs))
            out = v
        lits[n] = out
        return out

    def assert_node(n):
        if n.kind == TRUE:
            return
        if n.kind == FALSE:
            clauses.append(())
        elif n.kind == AND:
            for c in n.children:
                assert_node(c)
        elif n.kind == OR:
            clauses.append(tuple(lit(c) for c in n.children))
        else:
            clauses.append((lit(n),))

    assert_node(phi)
    return TseitinResult(Cnf(counter[0], tuple(clauses)), defs)


# ----------------------------------------------------------------------
# reference CDCL solver

# The solver as it was before its literal-indexed rewrite: variable-indexed
# assignment, a dict of watch lists holding clause indices, and a heap that
# takes a duplicate entry on every bump and every unassignment.  The rewrite
# must make the same decisions, conflicts and learnt clauses and return the
# same model; tests/test_sat.py compares the two.
class ReferenceCdcl:
    def __init__(self, cnf: Cnf, deadline: float | None):
        self.n = cnf.num_vars
        self.deadline = deadline
        n1 = self.n + 1
        self.assign = [0] * n1          # 0 unset, 1 true, -1 false
        self.level = [0] * n1
        self.reason = [-1] * n1         # clause index, -1 for decisions
        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        self.qhead = 0
        self.clauses: list[list[int]] = []
        self.watches: dict[int, list[int]] = {}
        self.activity = [0.0] * n1
        self.var_inc = 1.0
        self.phase = [False] * n1
        self.heap: list[tuple[float, int]] = [(0.0, v) for v in range(1, n1)]
        heapq.heapify(self.heap)
        self.ok = True
        for clause in cnf.clauses:
            self._add_clause(list(clause))
            if not self.ok:
                return

    def value(self, lit: int) -> int:
        v = self.assign[abs(lit)]
        return v if lit > 0 else -v

    def _watch(self, lit: int, ci: int) -> None:
        self.watches.setdefault(lit, []).append(ci)

    def _add_clause(self, lits: list[int]) -> None:
        seen: set[int] = set()
        out: list[int] = []
        for lit in lits:
            if -lit in seen:
                return  # tautology
            if lit not in seen:
                seen.add(lit)
                out.append(lit)
        if not out:
            self.ok = False
            return
        if len(out) == 1:
            if not self._enqueue(out[0], -1):
                self.ok = False
            return
        ci = len(self.clauses)
        self.clauses.append(out)
        self._watch(out[0], ci)
        self._watch(out[1], ci)

    def _enqueue(self, lit: int, reason: int) -> bool:
        val = self.value(lit)
        if val == 1:
            return True
        if val == -1:
            return False
        v = abs(lit)
        self.assign[v] = 1 if lit > 0 else -1
        self.level[v] = len(self.trail_lim)
        self.reason[v] = reason
        self.trail.append(lit)
        return True

    def _propagate(self) -> int:
        """Exhaust unit propagation; return a conflicting clause index or -1."""
        while self.qhead < len(self.trail):
            lit = self.trail[self.qhead]
            self.qhead += 1
            false_lit = -lit
            ws = self.watches.get(false_lit)
            if not ws:
                continue
            kept: list[int] = []
            i = 0
            while i < len(ws):
                ci = ws[i]
                i += 1
                clause = self.clauses[ci]
                if clause[0] == false_lit:
                    clause[0], clause[1] = clause[1], clause[0]
                first = clause[0]
                if self.value(first) == 1:
                    kept.append(ci)
                    continue
                moved = False
                for j in range(2, len(clause)):
                    if self.value(clause[j]) != -1:
                        clause[1], clause[j] = clause[j], clause[1]
                        self._watch(clause[1], ci)
                        moved = True
                        break
                if moved:
                    continue
                kept.append(ci)
                if self.value(first) == -1:
                    kept.extend(ws[i:])
                    self.watches[false_lit] = kept
                    return ci
                self._enqueue(first, ci)
            self.watches[false_lit] = kept
        return -1

    def _bump(self, v: int) -> None:
        self.activity[v] += self.var_inc
        if self.activity[v] > 1e100:
            for u in range(1, self.n + 1):
                self.activity[u] *= 1e-100
            self.var_inc *= 1e-100
        heapq.heappush(self.heap, (-self.activity[v], v))

    def _analyze(self, confl: int) -> tuple[list[int], int]:
        learnt: list[int] = [0]
        seen = [False] * (self.n + 1)
        counter = 0
        p = 0
        idx = len(self.trail) - 1
        current = len(self.trail_lim)
        reason_lits = list(self.clauses[confl])
        while True:
            for q in reason_lits:
                if q == p:
                    continue
                v = abs(q)
                if not seen[v] and self.level[v] > 0:
                    seen[v] = True
                    self._bump(v)
                    if self.level[v] == current:
                        counter += 1
                    else:
                        learnt.append(q)
            while not seen[abs(self.trail[idx])]:
                idx -= 1
            p = self.trail[idx]
            v = abs(p)
            idx -= 1
            seen[v] = False
            counter -= 1
            if counter == 0:
                break
            reason_lits = [q for q in self.clauses[self.reason[v]] if q != p]
        learnt[0] = -p
        if len(learnt) == 1:
            return learnt, 0
        max_i = max(range(1, len(learnt)), key=lambda i: self.level[abs(learnt[i])])
        learnt[1], learnt[max_i] = learnt[max_i], learnt[1]
        return learnt, self.level[abs(learnt[1])]

    def _backtrack(self, level: int) -> None:
        if len(self.trail_lim) <= level:
            return
        bound = self.trail_lim[level]
        for lit in reversed(self.trail[bound:]):
            v = abs(lit)
            self.phase[v] = lit > 0
            self.assign[v] = 0
            self.reason[v] = -1
            heapq.heappush(self.heap, (-self.activity[v], v))
        del self.trail[bound:]
        del self.trail_lim[level:]
        self.qhead = min(self.qhead, len(self.trail))

    def _decide(self) -> int:
        # every unassigned variable is on the heap: all start there, and
        # _backtrack pushes back each one it unassigns
        while self.heap:
            _, v = heapq.heappop(self.heap)
            if self.assign[v] == 0:
                return v
        return 0

    def solve(self) -> SolveResult:
        if not self.ok:
            return SolveResult(UNSAT)
        if self._propagate() != -1:
            return SolveResult(UNSAT)
        conflicts_total = 0
        restart = 0
        while True:
            restart += 1
            budget = 64 * _luby(restart)
            conflicts = 0
            while True:
                confl = self._propagate()
                if confl != -1:
                    conflicts += 1
                    conflicts_total += 1
                    if conflicts_total % 64 == 0 and self.deadline is not None \
                            and time.monotonic() > self.deadline:
                        return SolveResult(UNKNOWN)
                    if not self.trail_lim:
                        return SolveResult(UNSAT)
                    learnt, back = self._analyze(confl)
                    self._backtrack(back)
                    if len(learnt) == 1:
                        if not self._enqueue(learnt[0], -1):
                            return SolveResult(UNSAT)
                    else:
                        ci = len(self.clauses)
                        self.clauses.append(learnt)
                        self._watch(learnt[0], ci)
                        self._watch(learnt[1], ci)
                        self._enqueue(learnt[0], ci)
                    self.var_inc /= 0.95
                    if conflicts >= budget:
                        self._backtrack(0)
                        break
                    continue
                v = self._decide()
                if v == 0:
                    model = {u: self.assign[u] > 0 for u in range(1, self.n + 1)}
                    return SolveResult(SAT, model)
                self.trail_lim.append(len(self.trail))
                self._enqueue(v if self.phase[v] else -v, -1)
