import gc
import itertools
import json
import math
import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from termfilter import cnf as cnf_module
from termfilter import prover, solver
from termfilter.cnf import Cnf, tseitin_cnf, write_dimacs
from termfilter.dp import DpProblem, dependency_pairs, scc_decompose
from termfilter.encoder import encode_rp_formula
from termfilter.formula import ATOM, FormulaBuilder, iter_nodes
from termfilter.lowering import (EncodingError, VarMap, _bit_eq, _bit_gt,
                                 decode_model, lower_atoms, structural_constraints)
from termfilter.orders import Collapse, Keep, lpo_af_ge, lpo_af_gt
from termfilter.solver import DEADLINE_PROPAGATIONS, SAT, UNKNOWN, UNSAT, _Cdcl, solve
from termfilter.terms import Symbol
from termfilter.tpdb import parse_trs
from termfilter.usable import usable_rules
from termfilter.prover import ProverConfig, prove

from util import (ACKERMANN_TEXT, EX13_TEXT, EX2_TEXT, REVERSE_TEXT, SHUFFLE_TEXT,
                  ReferenceCdcl, check_cnf, evaluate, ex13, ex2, lowered_cnf, no_atoms,
                  parse_dimacs, problem_signature, reference_tseitin_cnf)


# ----------------------------------------------------------------------
# bit-vector comparisons

@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_bit_comparisons_exhaustive(k):
    b = FormulaBuilder()
    fb = list(range(1, k + 1))
    gb = list(range(k + 1, 2 * k + 1))
    gt = _bit_gt(b, fb, gb)
    eq = _bit_eq(b, fb, gb)
    for fv in range(1 << k):
        for gv in range(1 << k):
            env = {}
            for i in range(k):
                env[fb[i]] = bool((fv >> i) & 1)
                env[gb[i]] = bool((gv >> i) & 1)
            assert evaluate(gt, env.__getitem__) == (fv > gv)
            assert evaluate(eq, env.__getitem__) == (fv == gv)


def test_varmap_k_and_numbering():
    f = Symbol("f", 2)
    g = Symbol("g", 0)
    vm = VarMap([f, g], pair_count=2, usable_symbols=[f])
    assert vm.k == 1
    assert vm.bits(f) == (1,)
    assert vm.bits(g) == (2,)
    assert vm.list_var(f) == 3
    assert vm.arg_var(f, 1) == 4 and vm.arg_var(f, 2) == 5
    assert vm.list_var(g) == 6
    assert vm.strict_var(0) == 7 and vm.strict_var(1) == 8
    assert vm.usable_var(f) == 9
    assert vm.num_reserved == 9
    vm3 = VarMap([Symbol("a", 0), Symbol("b", 0), Symbol("c", 0)])
    assert vm3.k == 2
    vm5 = VarMap([Symbol(f"s{i}", 0) for i in range(5)])
    assert vm5.k == 3


def test_nullary_symbol_forced_to_list():
    c = Symbol("c", 0)
    vm = VarMap([c])
    b = FormulaBuilder()
    cons = structural_constraints(vm, b)
    # at-least-one over zero argument flags degenerates to the list flag
    assert cons == [b.atom(vm.list_var(c))]


def test_poeq_rejected_in_strict_mode():
    f = Symbol("f", 1)
    g = Symbol("g", 1)
    vm = VarMap([f, g, Symbol("h", 0)])
    b = FormulaBuilder()
    phi = b.atom(("eq", f, g))
    with pytest.raises(EncodingError):
        tseitin_cnf(phi, vm.num_reserved, lower_atoms(vm, "strict", b))
    # in quasi mode the atom is bit equality of the two ranks
    eq = lower_atoms(vm, "quasi", b)(phi.payload)
    bits = vm.bits(f) + vm.bits(g)
    assert len(bits) == 4
    for values in itertools.product([False, True], repeat=len(bits)):
        env = dict(zip(bits, values))
        assert evaluate(eq, env.__getitem__) == (values[:2] == values[2:])


def test_lower_atoms_maps_each_flag_to_its_variables():
    f = Symbol("f", 2)
    vm = VarMap([f], 1, [f])
    b = FormulaBuilder()
    lower = lower_atoms(vm, "strict", b)
    assert lower(("list", f)) is b.atom(vm.list_var(f))
    assert lower(("in", f, 2)) is b.atom(vm.arg_var(f, 2))
    assert lower(("collapse", f, 2)) is b.and_([b.not_(b.atom(vm.list_var(f))),
                                                b.atom(vm.arg_var(f, 2))])
    assert lower(("usable", f)) is b.atom(vm.usable_var(f))
    assert lower(("strict", 0)) is b.atom(vm.strict_var(0))


def test_lower_atoms_refuses_an_unknown_tag():
    f = Symbol("f", 1)
    lower = lower_atoms(VarMap([f]), "quasi", FormulaBuilder())
    with pytest.raises(EncodingError, match="unknown atom"):
        lower(("bogus", f))


def test_lower_atoms_refuses_a_usable_flag_the_varmap_lacks():
    f, g = Symbol("f", 1), Symbol("g", 1)
    vm = VarMap([f, g], usable_symbols=[g])
    lower = lower_atoms(vm, "strict", FormulaBuilder())
    with pytest.raises(EncodingError, match="no usability variable for f"):
        lower(("usable", f))


def test_decode_model_roundtrip():
    f = Symbol("f", 2)
    g = Symbol("g", 1)
    vm = VarMap([f, g], pair_count=1, usable_symbols=[f])
    model = {v: False for v in range(1, vm.num_reserved + 1)}
    model[vm.bits(f)[0]] = True          # f rank above g
    model[vm.list_var(f)] = False
    model[vm.arg_var(f, 1)] = True       # f collapses to 1
    model[vm.list_var(g)] = True
    model[vm.arg_var(g, 1)] = True       # g keeps [1]
    model[vm.strict_var(0)] = True
    model[vm.usable_var(f)] = True
    decoded = decode_model(model, vm)
    assert decoded.precedence.gt(f, g)
    assert decoded.filtering.get(f) == Collapse(1)
    assert decoded.filtering.get(g) == Keep((1,))
    assert decoded.strict_pairs == (0,)


def test_decode_model_detects_bad_collapse():
    f = Symbol("f", 2)
    vm = VarMap([f])
    model = {v: False for v in range(1, vm.num_reserved + 1)}
    model[vm.arg_var(f, 1)] = True
    model[vm.arg_var(f, 2)] = True       # two collapse targets
    with pytest.raises(EncodingError):
        decode_model(model, vm)


def test_identity_filtering_decodes_identity():
    f = Symbol("f", 2)
    g = Symbol("g", 1)
    vm = VarMap([f, g])
    model = {v: True for v in range(1, vm.num_reserved + 1)}
    decoded = decode_model(model, vm)
    assert decoded.filtering.get(f) == Keep((1, 2))
    assert decoded.filtering.get(g) == Keep((1,))


# ----------------------------------------------------------------------
# Tseitin

def test_tseitin_single_atom():
    b = FormulaBuilder()
    res = tseitin_cnf(b.atom(5), 5, no_atoms)
    assert res.cnf.clauses == ((5,),)
    assert res.cnf.num_vars == 5


def test_tseitin_contradiction_unsat():
    b = FormulaBuilder(simplify=False)
    x = b.atom(1)
    phi = b.and_([x, b.not_(x)])
    res = tseitin_cnf(phi, 1, no_atoms)
    assert solve(res.cnf).status == UNSAT


def test_tseitin_false_root():
    b = FormulaBuilder()
    res = tseitin_cnf(b.FALSE, 0, no_atoms)
    assert res.cnf.clauses == ((),)
    assert solve(res.cnf).status == UNSAT
    res_t = tseitin_cnf(b.TRUE, 0, no_atoms)
    assert res_t.cnf.clauses == ()


def _random_formula(rng, b, n_vars, size, payloads=()):
    pool = [b.atom(v) for v in range(1, n_vars + 1)] + [b.atom(p) for p in payloads]
    for _ in range(size):
        op = rng.randrange(5)
        if op == 0:
            pool.append(b.not_(rng.choice(pool)))
        elif op == 1:
            pool.append(b.and_([rng.choice(pool) for _ in range(rng.randint(2, 3))]))
        elif op == 2:
            pool.append(b.or_([rng.choice(pool) for _ in range(rng.randint(2, 3))]))
        elif op == 3:
            pool.append(b.implies(rng.choice(pool), rng.choice(pool)))
        else:
            pool.append(b.iff(rng.choice(pool), rng.choice(pool)))
    return pool[-1]


def _brute_force_sat(value, n_vars):
    """Whether some assignment to the variables ``1..n_vars`` makes
    ``value`` true."""
    return any(value(dict(zip(range(1, n_vars + 1), bits)))
               for bits in itertools.product([False, True], repeat=n_vars))


def _lowered_value(phi, translation):
    """``phi`` under an assignment to the variables, with each symbolic atom
    standing for its translation."""
    def atom_value(env, payload):
        if isinstance(payload, int):
            return env[payload]
        return evaluate(translation[payload], env.__getitem__)

    return lambda env: evaluate(phi, lambda a: atom_value(env, a))


def test_tseitin_equisatisfiable_and_projecting():
    rng = random.Random(77)
    for round_no in range(120):
        n_vars = rng.randint(2, 8)
        b = FormulaBuilder()
        phi = _random_formula(rng, b, n_vars, rng.randint(3, 14))
        res = tseitin_cnf(phi, n_vars, no_atoms)
        _check_projecting(res, _lowered_value(phi, {}), n_vars, f"round {round_no}")

    # symbolic atoms, each lowered to a formula over the variables that a
    # builder with clashing node ids makes: the memo must not alias them
    for round_no in range(120):
        n_vars = rng.randint(2, 6)
        share = round_no % 2 == 0
        b = FormulaBuilder(simplify=rng.random() < 0.5, share=share)
        lb = FormulaBuilder()
        payloads = [("a", i) for i in range(rng.randint(1, 4))]
        translation = {p: _random_formula(rng, lb, n_vars, rng.randint(0, 4))
                       for p in payloads}
        phi = _random_formula(rng, b, n_vars, rng.randint(3, 14), payloads)
        calls = []

        def lower(payload):
            calls.append(payload)
            return translation[payload]

        res = tseitin_cnf(phi, n_vars, lower)
        _check_projecting(res, _lowered_value(phi, translation), n_vars,
                          f"atom round {round_no}")
        if phi.kind not in ("true", "false"):
            nodes = [n for n in iter_nodes(phi)
                     if n.kind == ATOM and not isinstance(n.payload, int)]
            assert len(calls) == len(nodes)
            if share:
                assert sorted(calls) == sorted({n.payload for n in nodes})


def _check_projecting(res, value, n_vars, where):
    """``res`` is satisfiable exactly when ``value`` is, and its models,
    cut down to the variables ``1..n_vars``, satisfy ``value``."""
    check_cnf(res.cnf)
    got = solve(res.cnf)
    assert (got.status == SAT) == _brute_force_sat(value, n_vars), where
    if got.status == SAT:
        assert value({v: got.model.get(v, False) for v in range(1, n_vars + 1)}), where


def test_tseitin_shares_definitions():
    b = FormulaBuilder()
    x, y, p, q = b.atom(1), b.atom(2), b.atom(3), b.atom(4)
    shared = b.and_([x, y])
    phi = b.iff(b.implies(p, shared), b.implies(q, shared))
    res = tseitin_cnf(phi, 4, no_atoms)
    # the iff is the conjunction of (not (p -> shared) or not q or shared)
    # and (not p or shared or not (q -> shared)).  Each negated implication
    # has one parent and is distributed, p and not shared each taking its
    # place.  The shared conjunction, used positively in both clauses, gets
    # one definition, v5 -> (x1 and x2); used negatively it is spliced as
    # -1, -2
    assert res.definitions == {5: "def(and)"}
    assert [c for c in res.cnf.clauses if -5 in c] == [(-5, 1), (-5, 2)]
    assert res.cnf.clauses == ((-5, 1), (-5, 2), (5, -4, -1, -2), (5, -4, 3),
                               (5, -3, -1, -2), (5, -3, 4))


def _distinct(clauses):
    return {frozenset(c) for c in clauses}


def test_tseitin_one_sided_agrees_with_two_sided(monkeypatch):
    # the same random formulas, with and without symbolic atoms, through
    # both forms: satisfiable together, and the one-sided form is no larger.
    # It has fewer variables where it splices or distributes a node, none
    # of them with a one-clause definition, and the assignments of the
    # variables that satisfy the formula are exactly the projections of its
    # models.  Unsimplified formulas can make it repeat a clause (see
    # test_tseitin_spliced_and_defined_node_repeats_a_clause), so the
    # clauses are counted without repeats
    rng = random.Random(2024)
    for round_no in range(300):
        phi, n_vars, translation = _random_lowered_formula(rng)
        one, raw = _raw_tseitin(monkeypatch, phi, n_vars, translation.__getitem__)
        _check_no_one_clause_definition(one, raw, round_no)
        two = reference_tseitin_cnf(phi, n_vars, translation.__getitem__)
        assert one.cnf.num_vars <= two.cnf.num_vars, round_no
        assert len(_distinct(one.cnf.clauses)) <= len(_distinct(two.cnf.clauses)), round_no
        value = _lowered_value(phi, translation)
        _check_projecting(one, value, n_vars, f"round {round_no}")
        _check_extending(one, value, n_vars, f"round {round_no}")
        assert solve(one.cnf).status == solve(two.cnf).status, round_no


def test_tseitin_spliced_and_defined_node_repeats_a_clause():
    # a's translation is spliced under one sign and defined under the
    # other, so the unsimplified tautology (not a or a) is not dropped, and
    # it and its mirror (a or not a) give the same clause twice: four
    # clauses where the two-sided reference gives three
    b = FormulaBuilder(simplify=False)
    a = b.atom(("a", 0))
    translation = {a.payload: b.and_([b.atom(1), b.atom(4)])}
    phi = b.and_([b.or_([b.not_(a), a]), b.or_([a, b.not_(a)])])
    res = tseitin_cnf(phi, 4, translation.__getitem__)
    assert res.definitions == {5: "def(and)"}
    assert res.cnf.clauses == ((-5, 1), (-5, 4), (-1, -4, 5), (5, -1, -4))
    ref = reference_tseitin_cnf(phi, 4, translation.__getitem__)
    assert ref.cnf.clauses == ((-5, 1), (-5, 4), (5, -1, -4))


def _random_lowered_formula(rng):
    """``(phi, n_vars, translation)``: a random formula over the variables
    ``1..n_vars`` and up to three symbolic atoms, whose translations come
    from the same builder."""
    n_vars = rng.randint(2, 8)
    b = FormulaBuilder(simplify=rng.random() < 0.7)
    payloads = [("a", i) for i in range(rng.randint(0, 3))]
    translation = {p: _random_formula(rng, b, n_vars, rng.randint(0, 4))
                   for p in payloads}
    return _random_formula(rng, b, n_vars, rng.randint(3, 20), payloads), n_vars, translation


def _check_extending(res, value, n_vars, where):
    """Every assignment of the variables ``1..n_vars`` that satisfies
    ``value`` is the projection of a model of ``res``: the clauses with
    those values as unit clauses are satisfiable."""
    for bits in itertools.product([False, True], repeat=n_vars):
        env = dict(zip(range(1, n_vars + 1), bits))
        if value(env):
            units = tuple((v if on else -v,) for v, on in env.items())
            extended = Cnf(res.cnf.num_vars, res.cnf.clauses + units)
            assert solve(extended).status == SAT, (where, env)


def _paper_rounds(monkeypatch, mode, processor):
    """``(phi, num_reserved, lower, tseitin result)`` of every round of the
    five paper systems."""
    rounds = []
    real = prover.tseitin_cnf

    def record(phi, num_reserved, lower):
        ts = real(phi, num_reserved, lower)
        rounds.append((phi, num_reserved, lower, ts))
        return ts

    monkeypatch.setattr(prover, "tseitin_cnf", record)
    for text in (EX2_TEXT, EX13_TEXT, ACKERMANN_TEXT, REVERSE_TEXT, SHUFFLE_TEXT):
        prove(parse_trs(text), ProverConfig(mode=mode, processor=processor))
    assert len(rounds) >= 10
    return rounds


@pytest.mark.parametrize("processor", ["thm5", "thm12"])
@pytest.mark.parametrize("mode", ["strict", "quasi"])
def test_tseitin_one_sided_on_every_round(monkeypatch, mode, processor):
    # every round of the five paper systems: the one-sided CNF is
    # satisfiable exactly when the two-sided one is, and its model, cut
    # down to the reserved variables, satisfies the round's formula
    for phi, num_reserved, lower, ts in _paper_rounds(monkeypatch, mode, processor):
        got = solve(ts.cnf)
        two = reference_tseitin_cnf(phi, num_reserved, lower)
        assert got.status == solve(two.cnf).status
        assert len(_distinct(ts.cnf.clauses)) == len(ts.cnf.clauses)
        assert len(ts.cnf.clauses) < len(two.cnf.clauses)
        if got.status == SAT:
            env = {v: got.model.get(v, False) for v in range(1, num_reserved + 1)}

            def atom_value(payload):
                if isinstance(payload, int):
                    return env[payload]
                return evaluate(lower(payload), env.__getitem__)

            assert evaluate(phi, atom_value)


@pytest.mark.parametrize("processor", ["thm5", "thm12"])
@pytest.mark.parametrize("mode", ["strict", "quasi"])
def test_rounds_have_no_implication_and_no_defined_unit(monkeypatch, mode, processor):
    # an implication is a disjunction, an equivalence a conjunction of two,
    # and an asserted disjunction is one clause: no round formula and no
    # translation of its atoms holds a node of another kind than the six
    # below, and no unit clause of a round sits on a definition variable
    kinds = {"true", "false", "atom", "not", "and", "or"}
    for phi, num_reserved, lower, ts in _paper_rounds(monkeypatch, mode, processor):
        for n in iter_nodes(phi):
            assert n.kind in kinds
            if n.kind == ATOM and not isinstance(n.payload, int):
                assert {m.kind for m in iter_nodes(lower(n.payload))} <= kinds
        assert [c for c in ts.cnf.clauses if len(c) == 1 and abs(c[0]) > num_reserved] == []


def _raw_tseitin(monkeypatch, phi, num_reserved, lower):
    """``tseitin_cnf``'s result and its clauses as built, before ``Cnf``
    drops repeated literals and tautological clauses."""
    raw = []

    def record(num_vars, clauses):
        raw.extend(clauses)
        return Cnf(num_vars, clauses)

    with monkeypatch.context() as m:
        m.setattr(cnf_module, "Cnf", record)
        res = tseitin_cnf(phi, num_reserved, lower)
    return res, raw


def _check_no_one_clause_definition(res, raw, where):
    # an ``and`` variable v is defined only as v -> and, by a clause with -v
    # per child, and an ``or`` variable only as or -> v, by a clause with +v
    # per child; their uses carry the other sign.  So that literal is in two
    # clauses or more, where a one-clause definition (v -> or, and -> v)
    # would leave it to the uses, often one
    for v, desc in res.definitions.items():
        defining = {"def(and)": -v, "def(or)": v}.get(desc)
        if defining is not None:
            assert sum(defining in c for c in raw) >= 2, (where, v, desc)


@pytest.mark.parametrize("processor", ["thm5", "thm12"])
@pytest.mark.parametrize("mode", ["strict", "quasi"])
def test_rounds_have_no_one_clause_definition(monkeypatch, mode, processor):
    rounds = _paper_rounds(monkeypatch, mode, processor)
    for i, (phi, num_reserved, lower, _) in enumerate(rounds):
        res, raw = _raw_tseitin(monkeypatch, phi, num_reserved, lower)
        _check_no_one_clause_definition(res, raw, f"round {i}")


_OPS = st.lists(st.tuples(st.sampled_from(["not", "and", "or", "iff", "implies"]),
                          st.lists(st.integers(0, 99), min_size=1, max_size=3)),
                min_size=1, max_size=10)


def _grow(b, pool, ops):
    """The last node after each op of ``ops`` joins the nodes of ``pool``
    that its indices pick, the nodes it built included, so nodes are
    shared."""
    pool = list(pool)
    for kind, picks in ops:
        cs = [pool[i % len(pool)] for i in picks]
        if kind == "not":
            node = b.not_(cs[0])
        elif kind == "and":
            node = b.and_(cs)
        elif kind == "or":
            node = b.or_(cs)
        elif kind == "iff":
            node = b.iff(cs[0], cs[-1])
        else:
            node = b.implies(cs[0], cs[-1])
        pool.append(node)
    return pool[-1]


@settings(database=None, derandomize=True, max_examples=300, deadline=None)
@given(n_vars=st.integers(1, 4), ops=_OPS, lowered=st.lists(_OPS, max_size=3),
       simplify=st.booleans(), share=st.booleans())
def test_tseitin_matches_reference_on_random_dags(n_vars, ops, lowered, simplify, share):
    # random DAGs with shared nodes, constants, not, iff, nested and (an
    # unsimplified root is asserted child by child) and symbolic atoms
    # whose translations come from the same builder, so that they can
    # share nodes with the formula, as the prover's do
    b = FormulaBuilder(simplify=simplify, share=share)
    variables = [b.atom(v) for v in range(1, n_vars + 1)] + [b.TRUE, b.FALSE]
    translation = {("a", i): _grow(b, variables, t) for i, t in enumerate(lowered)}
    phi = _grow(b, variables + [b.atom(p) for p in translation], ops)
    res = tseitin_cnf(phi, n_vars, translation.__getitem__)
    ref = reference_tseitin_cnf(phi, n_vars, translation.__getitem__)
    value = _lowered_value(phi, translation)
    assert solve(res.cnf).status == solve(ref.cnf).status
    _check_projecting(res, value, n_vars, "dag")
    _check_extending(res, value, n_vars, "dag")


def test_tseitin_leaves_no_reference_cycle():
    # the walk's memo tables are freed when it returns, not left for the
    # cycle collector to find during whatever runs next
    b = FormulaBuilder()
    x = [b.atom(v) for v in range(1, 5)]
    phi = b.and_([b.or_([b.and_(x[:2]), x[2]]), b.iff(x[0], b.not_(x[3])),
                  b.or_([b.not_(b.or_(x[1:3])), x[3]])])
    gc.collect()
    gc.disable()
    try:
        tseitin_cnf(phi, 4, no_atoms)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_tseitin_single_parent_and_is_distributed():
    # the conjunction's only parent is the asserted disjunction, so it is
    # distributed into it: (x1 or x3) and (x2 or x3), with no definition
    b = FormulaBuilder()
    x = [None] + [b.atom(v) for v in range(1, 4)]
    phi = b.or_([b.and_([x[1], x[2]]), x[3]])
    res = tseitin_cnf(phi, 3, no_atoms)
    assert res.definitions == {}
    assert res.cnf.clauses == ((3, 1), (3, 2))


def test_tseitin_antecedent_takes_the_other_direction():
    # (x1 and x2) -> x3 is the disjunction not(x1 and x2) or x3: the not
    # swaps the sign, and a conjunction used negatively is spliced, so the
    # whole implication is one clause without a definition
    b = FormulaBuilder()
    phi = b.implies(b.and_([b.atom(1), b.atom(2)]), b.atom(3))
    res = tseitin_cnf(phi, 3, no_atoms)
    assert res.definitions == {}
    assert res.cnf.clauses == ((3, -1, -2),)


def test_tseitin_each_direction_emitted_once():
    # the conjunction is reached positively, negatively, and positively
    # again: its one direction, v6 -> (x1 and x2), comes out exactly once,
    # and the negative use is spliced
    b = FormulaBuilder()
    x = [None] + [b.atom(v) for v in range(1, 6)]
    shared = b.and_([x[1], x[2]])
    phi = b.and_([b.or_([shared, x[3]]), b.or_([b.not_(shared), x[4]]),
                  b.or_([shared, x[5]])])
    res = tseitin_cnf(phi, 5, no_atoms)
    assert res.definitions == {6: "def(and)"}
    mentions = [c for c in res.cnf.clauses if 6 in c or -6 in c]
    assert sorted(c for c in mentions if -6 in c) == [(-6, 1), (-6, 2)]
    assert len(mentions) == 2 + 2   # its own two and one per positive use
    assert (4, -1, -2) in res.cnf.clauses
    assert len(set(res.cnf.clauses)) == len(res.cnf.clauses)


def test_tseitin_iff_children_get_both_directions():
    # an asserted iff is the conjunction of two clauses, (not a or x3) and
    # (a or not x3).  Its conjunction child a is thus used with both signs:
    # negatively it is spliced as -1, -2, and positively, with two parents,
    # it gets its definition v4 -> a
    b = FormulaBuilder()
    phi = b.iff(b.and_([b.atom(1), b.atom(2)]), b.atom(3))
    res = tseitin_cnf(phi, 3, no_atoms)
    assert res.definitions == {4: "def(and)"}
    assert res.cnf.clauses == ((3, -1, -2), (-4, 1), (-4, 2), (4, -3))


def test_tseitin_converts_a_deep_chain_of_shared_conjunctions():
    # each level is a = and(prev, x) with two parents, under
    # prev' = or(a, and(a, y)): every a gets a definition, and writing it
    # takes the walk one level further down.  400 levels fit under the
    # default recursion limit only at two frames per level
    depth = 400
    b = FormulaBuilder(simplify=False)
    prev = b.atom(2 * depth + 1)
    for i in range(1, depth + 1):
        a = b.and_([prev, b.atom(i)])
        prev = b.or_([a, b.and_([a, b.atom(depth + i)])])
    res = tseitin_cnf(prev, 2 * depth + 1, no_atoms)
    assert list(res.definitions.values()) == ["def(and)"] * depth
    assert solve(res.cnf).status == SAT


def test_cnf_normal_form():
    # a repeated literal goes, the first occurrence stays in place; a
    # tautology goes; a unit and the empty clause stay
    cnf = Cnf(3, ((1, 1, -2), (2, -2, 3), (-3,), ()))
    assert cnf.clauses == ((1, -2), (-3,), ())
    assert write_dimacs(cnf).splitlines()[0] == "p cnf 3 3"
    distinct = (3, -1, 2)
    assert Cnf(3, (distinct,)).clauses[0] is distinct
    # binary clauses: a repeat leaves a unit, a complementary pair goes
    pair = (2, -3)
    assert Cnf(3, ((-2, -2), (3, -3), pair, (1, 1))).clauses == ((-2,), (2, -3), (1,))
    assert Cnf(3, (pair,)).clauses[0] is pair


# ----------------------------------------------------------------------
# internal solver

def test_solver_trivial_cases():
    assert solve(Cnf(1, ((1,), (-1,)))).status == UNSAT
    res = solve(Cnf(2, ((1, 2), (-1,))))
    assert res.status == SAT
    assert res.model[2] is True and res.model[1] is False
    assert solve(Cnf(0, ())).status == SAT
    assert solve(Cnf(2, ((),))).status == UNSAT


def test_solver_assigns_every_variable():
    res = solve(Cnf(5, ((1, 2),)))
    assert res.status == SAT
    assert set(res.model) == {1, 2, 3, 4, 5}


def _random_cnf(rng, n_vars, n_clauses):
    clauses = []
    for _ in range(n_clauses):
        width = rng.randint(1, 4)
        clause = tuple(rng.choice([-1, 1]) * rng.randint(1, n_vars)
                       for _ in range(width))
        clauses.append(clause)
    return Cnf(n_vars, tuple(clauses))


def _brute_cnf_sat(cnf):
    for bits in itertools.product([False, True], repeat=cnf.num_vars):
        assign = dict(zip(range(1, cnf.num_vars + 1), bits))
        if all(any(assign[abs(l)] == (l > 0) for l in cl) for cl in cnf.clauses):
            return True
    return False


def test_solver_against_brute_force():
    rng = random.Random(123)
    for _ in range(250):
        cnf = _random_cnf(rng, rng.randint(2, 8), rng.randint(1, 22))
        res = solve(cnf)
        expected = _brute_cnf_sat(cnf)
        assert (res.status == SAT) == expected, cnf
        if res.status == SAT:
            for cl in cnf.clauses:
                assert any(res.model[abs(l)] == (l > 0) for l in cl)


def test_solver_deterministic():
    rng = random.Random(5)
    cnf = _random_cnf(rng, 12, 40)
    first = solve(cnf)
    second = solve(cnf)
    assert first.status == second.status
    assert first.model == second.model


def test_solver_deadline_unknown():
    import time
    # the deadline is read every 64 conflicts: pigeonhole 5 needs 166 of
    # them, pigeonhole 4 only 28, and 272 propagations, fewer than the
    # decision path's budget
    past = time.monotonic() - 1
    assert solve(_pigeonhole_cnf(5), deadline=past).status == UNKNOWN
    assert solve(_pigeonhole_cnf(4), deadline=past).status == UNSAT


CHAIN = 16


def _chains_cnf(chains):
    """``chains`` implication chains of ``CHAIN`` variables each, in index
    order: every decision sets the first variable of the next chain false,
    which propagates along that chain, and no clause ever conflicts."""
    clauses = []
    for first in range(1, chains * CHAIN, CHAIN):
        clauses += [(v, -v - 1) for v in range(first, first + CHAIN - 1)]
    return Cnf(chains * CHAIN, tuple(clauses))


def test_solver_gives_up_on_the_decision_path_past_the_deadline(monkeypatch):
    # a clock that runs out at its second read, in a search with no
    # conflict, so only the decision path reads it
    reads = []

    class Clock:
        @staticmethod
        def monotonic():
            reads.append(None)
            return math.inf if len(reads) >= 2 else -math.inf

    monkeypatch.setattr(solver, "time", Clock)
    s = _Cdcl(_chains_cnf(4 * DEADLINE_PROPAGATIONS // CHAIN), deadline=0.0)
    assert s.solve().status == UNKNOWN
    assert len(reads) == 2 and s.conflicts == 0
    assert 2 * DEADLINE_PROPAGATIONS <= s.propagations < 2 * (DEADLINE_PROPAGATIONS + CHAIN)


def test_solver_without_deadline_never_reads_the_clock(monkeypatch):
    class Clock:
        @staticmethod
        def monotonic():
            raise AssertionError("clock read")

    monkeypatch.setattr(solver, "time", Clock)
    s = _Cdcl(_chains_cnf(4 * DEADLINE_PROPAGATIONS // CHAIN), None)
    assert s.solve().status == SAT
    assert s.propagations > 2 * DEADLINE_PROPAGATIONS
    s = _Cdcl(_pigeonhole_cnf(5), None)
    assert s.solve().status == UNSAT
    assert s.conflicts > 64


class _CountingReference(ReferenceCdcl):
    """The reference solver, counted from outside the way the solver counts
    itself: a conflict per conflicting propagation, a decision per variable
    _decide returns, a propagation per literal the trail gains in
    _propagate."""

    def __init__(self, cnf, deadline):
        self.conflicts = self.decisions = self.propagations = 0
        super().__init__(cnf, deadline)

    def _propagate(self):
        before = len(self.trail)
        confl = super()._propagate()
        self.propagations += len(self.trail) - before
        if confl != -1:
            self.conflicts += 1
        return confl

    def _decide(self):
        v = super()._decide()
        if v:
            self.decisions += 1
        return v


def _replay(cnf):
    """Solve with both solvers, require the same search; return the
    reference's status and conflict count."""
    ref = _CountingReference(cnf, None)
    want = ref.solve()
    new = _Cdcl(cnf, None)
    got = new.solve()
    assert (got.status, got.model) == (want.status, want.model)
    assert (new.conflicts, new.decisions, new.propagations) == \
        (ref.conflicts, ref.decisions, ref.propagations)
    return want.status, ref.conflicts


def _random_3sat(rng, n_vars, ratio):
    clauses = []
    for _ in range(round(n_vars * ratio)):
        chosen = rng.sample(range(1, n_vars + 1), 3)
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in chosen))
    return Cnf(n_vars, tuple(clauses))


def test_solver_replays_reference_on_random_cnfs():
    rng = random.Random(2024)
    # small mixed-width CNFs with units, repeats and tautologies, then 3-SAT
    # around the threshold, where searches restart and half are UNSAT
    cnfs = [_random_cnf(rng, rng.randint(2, 8), rng.randint(1, 22))
            for _ in range(150)]
    cnfs += [_random_3sat(rng, rng.randint(10, 60), rng.uniform(3.8, 4.6))
             for _ in range(150)]
    outcomes = [_replay(cnf) for cnf in cnfs]
    assert sum(status == UNSAT for status, _ in outcomes) >= 50
    assert sum(status == SAT for status, _ in outcomes) >= 50
    assert sum(conflicts > 64 for _, conflicts in outcomes) >= 5


def test_solver_replays_reference_on_pigeonhole():
    outcomes = [_replay(_pigeonhole_cnf(holes)) for holes in (3, 4, 5)]
    assert [status for status, _ in outcomes] == [UNSAT] * 3
    assert outcomes[-1][1] > 64         # pigeonhole 5 restarts


def test_solver_replays_reference_on_acceptance_cnfs(monkeypatch):
    cnfs = []
    real = prover.solve

    def record(cnf, *args, **kwargs):
        cnfs.append(cnf)
        return real(cnf, *args, **kwargs)

    monkeypatch.setattr(prover, "solve", record)
    for trs in (ex2(), ex13()):
        for mode in ("strict", "quasi"):
            for processor in ("thm5", "thm12"):
                prove(trs, ProverConfig(mode=mode, processor=processor))
    statuses = {_replay(cnf)[0] for cnf in cnfs}
    assert len(cnfs) >= 8 and SAT in statuses


# per round of ``prove``: (reserved variables, clauses).  A round numbers
# only the symbols its constraint mentions; numbering the whole problem
# signature again would raise the first figure of most rounds
ROUND_SIZES = {
    ("EX2", "strict"): [(8, 51), (19, 128)],
    ("EX2", "quasi"): [(8, 57), (19, 177)],
    ("EX13", "strict"): [(8, 51), (8, 51), (46, 540)],
    ("EX13", "quasi"): [(8, 57), (8, 57), (46, 977)],
    ("ACKERMANN", "strict"): [(21, 327), (8, 44)],
    ("ACKERMANN", "quasi"): [(21, 417), (8, 49)],
    ("REVERSE", "strict"): [(9, 34), (8, 30)],
    ("REVERSE", "quasi"): [(9, 39), (8, 34)],
    ("SHUFFLE", "strict"): [(9, 34), (8, 30), (29, 257)],
    ("SHUFFLE", "quasi"): [(9, 39), (8, 34), (29, 380)],
}


@pytest.mark.parametrize("name,mode", list(ROUND_SIZES),
                         ids=[f"{name}-{mode}" for name, mode in ROUND_SIZES])
def test_round_sizes_pinned(monkeypatch, name, mode):
    sizes = []
    real_varmap, real_tseitin = prover.VarMap, prover.tseitin_cnf

    def varmap(*args, **kwargs):
        vm = real_varmap(*args, **kwargs)
        sizes.append(vm.num_reserved)
        return vm

    def tseitin(*args, **kwargs):
        ts = real_tseitin(*args, **kwargs)
        sizes[-1] = (sizes[-1], len(ts.cnf.clauses))
        return ts

    monkeypatch.setattr(prover, "VarMap", varmap)
    monkeypatch.setattr(prover, "tseitin_cnf", tseitin)
    text = dict(zip(["EX2", "EX13", "ACKERMANN", "REVERSE", "SHUFFLE"],
                    [EX2_TEXT, EX13_TEXT, ACKERMANN_TEXT, REVERSE_TEXT, SHUFFLE_TEXT]))[name]
    prove(parse_trs(text), ProverConfig(mode=mode))
    assert sizes == ROUND_SIZES[name, mode]


def test_solver_rescale_refreshes_heap():
    s = _Cdcl(Cnf(3, ()), None)
    # variable 1 goes back on the heap with activity 5e99: the conflict [1]
    # under the decision -1 bumps it once
    s.trail_lim.append(len(s.trail))
    s._enqueue(-1, None)
    s.var_inc = 5e99
    assert s._analyze([1]) == ([1], 0)
    s._backtrack(0)
    # bumping variable 2 past 1e100 scales every activity by 1e-100
    s.trail_lim.append(len(s.trail))
    s._enqueue(-2, None)
    s.var_inc = 2e100
    assert s._analyze([2]) == ([2], 0)
    s._backtrack(0)
    assert s.activity[1] < s.activity[2] < 1e100
    by_activity = sorted(range(1, 4), key=lambda v: (-s.activity[v], v))
    assert [s._decide() for _ in range(4)] == by_activity + [0] == [2, 1, 3, 0]


def test_solver_rescale_mid_analysis_uses_rescaled_increment():
    # level 1: decide -1, then -2 by the reason -2 | 1; the conflict 2 | 1
    # bumps 2, whose activity passes 1e100, and then 1
    s = _Cdcl(Cnf(2, ()), None)
    s.trail_lim.append(len(s.trail))
    s._enqueue(-1, None)
    s._enqueue(-2, [-2, 1])
    s.activity[2] = 0.9e100
    s.var_inc = 0.2e100
    assert s._analyze([2, 1]) == ([1], 0)
    assert s.var_inc == 0.2e100 * 1e-100
    assert s.activity[2] == (0.9e100 + 0.2e100) * 1e-100
    assert s.activity[1] == s.var_inc


def test_solver_backjump_literal_is_the_first_of_the_highest_level():
    # -1 at level 1, -2 and -3 at level 2, the decision -4 at level 3; the
    # conflict 4 | 1 | 3 | 2 learns it as is, then moves 3, the first
    # literal of the backjump level 2, to second place
    s = _Cdcl(Cnf(4, ()), None)
    for lit in (-1, -2):
        s.trail_lim.append(len(s.trail))
        s._enqueue(lit, None)
    s._enqueue(-3, None)
    s.trail_lim.append(len(s.trail))
    s._enqueue(-4, None)
    assert s._analyze([4, 1, 3, 2]) == ([4, 3, 1, 2], 2)


def _refuting_ring(n):
    """n functions passing an s from x to y in a ring whose last link swaps
    the arguments back and keeps the s, so it does not terminate."""
    rules = []
    for i in range(n):
        rhs = "f0(s(y),x)" if i == n - 1 else f"f{i + 1}(x,s(y))"
        rules.append(f"f{i}(s(x),y) -> {rhs}")
    return parse_trs(f"(VAR x y)(RULES {' '.join(rules)})")


def test_solver_replays_reference_on_refutation_cnfs(monkeypatch):
    cnfs = []
    real = prover.solve

    def record(cnf, *args, **kwargs):
        cnfs.append(cnf)
        return real(cnf, *args, **kwargs)

    monkeypatch.setattr(prover, "solve", record)
    for n, mode in ((8, "strict"), (6, "quasi")):
        assert isinstance(prove(_refuting_ring(n), ProverConfig(mode=mode)), prover.Maybe)
    outcomes = [_replay(cnf) for cnf in cnfs]
    assert UNSAT in {status for status, _ in outcomes}
    assert max(conflicts for _, conflicts in outcomes) > 64   # restarts


# ----------------------------------------------------------------------
# DIMACS

def test_dimacs_roundtrip():
    cnf = Cnf(3, ((1, -2), (2, 3), (-3,)))
    text = write_dimacs(cnf)
    assert text.startswith("p cnf 3 3\n")
    assert parse_dimacs(text) == cnf


def test_dimacs_deterministic_across_hash_seeds(tmp_path):
    """``termfilter --emit-dimacs`` writes the same files, and the proofs
    read the same, whatever order string hashing or memory addresses give
    the prover's sets."""
    import termfilter
    src = str(Path(termfilter.__file__).resolve().parent.parent)
    path = tmp_path / "division.trs"
    path.write_text(EX2_TEXT)
    emitted = []
    for seed in ("0", "31337"):
        outdir = tmp_path / f"seed{seed}"
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        subprocess.run([sys.executable, "-m", "termfilter.cli", "--order", "qlpo",
                        "--emit-dimacs", str(outdir), str(path)],
                       capture_output=True, text=True, env=env, check=True)
        emitted.append({p.name: p.read_bytes() for p in sorted(outdir.iterdir())})
    assert emitted[0] == emitted[1]
    names = sorted(emitted[0])
    assert names == ["problem001.cnf", "problem001.vars.json",
                     "problem002.cnf", "problem002.vars.json"]
    assert all(emitted[0][n].startswith(b"p cnf ") for n in names if n.endswith(".cnf"))

    # Terms hash by identity, so sets of terms iterate in address order.
    # Proofs and emitted files must not follow it: the second run builds
    # and drops unrelated terms first, which moves every later address.
    script = textwrap.dedent("""
        import sys
        from pathlib import Path
        from termfilter import App, ProverConfig, Symbol, Var, parse_trs, prove, render_proof
        if sys.argv[3] == "shift":
            kept = [App(Symbol(f"u{i % 97}", 2), (Var(f"v{i}"), App(Symbol(f"w{i}", 0))))
                    for i in range(20000)][::3]
        for path in sorted(Path(sys.argv[1]).glob("*.trs")):
            for mode in ("strict", "quasi"):
                out = Path(sys.argv[2]) / f"{path.stem}-{mode}"
                verdict = prove(parse_trs(path.read_text()),
                                ProverConfig(mode=mode, emit_dimacs=str(out)))
                print(f"== {path.stem} {mode}")
                print(render_proof(verdict))
    """)
    systems = tmp_path / "systems"
    systems.mkdir()
    for i, text in enumerate([EX2_TEXT, EX13_TEXT, ACKERMANN_TEXT, REVERSE_TEXT, SHUFFLE_TEXT]):
        (systems / f"paper{i}.trs").write_text(text)
    runs = []
    for seed, shift in (("0", "none"), ("31337", "shift")):
        outdir = tmp_path / f"proofs{seed}"
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", script, str(systems), str(outdir), shift],
                              capture_output=True, text=True, env=env, check=True)
        files = {str(p.relative_to(outdir)): p.read_bytes()
                 for p in sorted(outdir.rglob("*")) if p.is_file()}
        runs.append((proc.stdout, files))
    assert runs[0] == runs[1]
    assert runs[0][0].count("TERMINATING") >= 5
    assert len(runs[0][1]) >= 20


def test_fingerprint_is_the_same_under_any_hash_seed():
    # a smoke test of the byte-identity recipe: two runs of
    # tests/fingerprint.py on one checkout print the same hashes.  The
    # prover's output does not depend on the hash seed (see the DIMACS test
    # above), so this holds with or without the script's re-execution under
    # PYTHONHASHSEED=0, which is there for checkouts whose output does
    script = Path(__file__).resolve().parent / "fingerprint.py"
    outputs = {subprocess.run([sys.executable, str(script), "--workloads", "paper", "shape",
                               "--passes", "1", "--random", "20"],
                              capture_output=True, text=True, check=True,
                              env=dict(os.environ, PYTHONHASHSEED=seed)).stdout
               for seed in ("1", "31337")}
    assert len(outputs) == 1
    streams = json.loads(outputs.pop())
    assert list(streams) == ["paper/0", "shape/0", "random"]
    assert all(len(digest) == 16 for stream in streams.values() for digest in stream.values())


# ----------------------------------------------------------------------
# end-to-end: every SAT model decodes to an oracle-approved ordering

def test_division_component_model_verifies():
    trs = ex2()
    problem = scc_decompose(DpProblem(dependency_pairs(trs), trs))[1]
    enc = encode_rp_formula(problem, "thm5", "strict")
    vm = VarMap(problem_signature(problem), len(problem.pairs.rules),
                enc.usable_symbols)
    res = solve(lowered_cnf(enc.formula, enc.context.builder, vm, "strict").cnf)
    assert res.status == SAT
    decoded = decode_model(res.model, vm)
    assert decoded.strict_pairs
    for i, p in enumerate(problem.pairs.rules):
        assert lpo_af_ge(decoded.precedence, decoded.filtering, "strict", p.lhs, p.rhs)
        if i in decoded.strict_pairs:
            assert lpo_af_gt(decoded.precedence, decoded.filtering, "strict",
                             p.lhs, p.rhs)
    for rule in usable_rules(problem.pairs, problem.rules):
        assert lpo_af_ge(decoded.precedence, decoded.filtering, "strict",
                         rule.lhs, rule.rhs)


def _pigeonhole_cnf(holes):
    """holes+1 pigeons into `holes` holes: unsatisfiable."""
    pigeons = holes + 1
    var = lambda p, h: p * holes + h + 1
    clauses = [tuple(var(p, h) for h in range(holes)) for p in range(pigeons)]
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                clauses.append((-var(p1, h), -var(p2, h)))
    return Cnf(pigeons * holes, tuple(clauses))


def test_solver_pigeonhole_unsat():
    assert solve(_pigeonhole_cnf(3)).status == UNSAT
    assert solve(_pigeonhole_cnf(4)).status == UNSAT


def test_solver_planted_solution_large():
    rng = random.Random(404)
    n_vars = 300
    planted = {v: rng.random() < 0.5 for v in range(1, n_vars + 1)}
    clauses = []
    for _ in range(1200):
        width = rng.randint(2, 4)
        lits = []
        for _ in range(width):
            v = rng.randint(1, n_vars)
            lits.append(v if rng.random() < 0.5 else -v)
        if not any(planted[abs(l)] == (l > 0) for l in lits):
            fix = rng.choice(lits)
            lits[lits.index(fix)] = abs(fix) if planted[abs(fix)] else -abs(fix)
        clauses.append(tuple(lits))
    res = solve(Cnf(n_vars, tuple(clauses)))
    assert res.status == SAT
    for cl in clauses:
        assert any(res.model[abs(l)] == (l > 0) for l in cl)
