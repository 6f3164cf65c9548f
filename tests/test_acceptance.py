"""Acceptance suite.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all).
Tolerances and bounds are fixed here, not tuned elsewhere.
"""

import itertools
import random
import time

from termfilter import atoms as A
from termfilter.cnf import tseitin_cnf
from termfilter.dp import DpProblem, dependency_pairs, scc_decompose
from termfilter.encoder import EncodingContext, encode_rp_formula
from termfilter.formula import FormulaBuilder, dag_size
from termfilter.lowering import VarMap, decode_model, lower_atoms
from termfilter.orders import (ArgumentFiltering, Collapse, Keep, Precedence,
                               lpo_af_ge, lpo_af_gt, lpo_gt)
from termfilter.prover import ProverConfig, Terminating, prove
from termfilter.solver import SAT, UNSAT, solve
from termfilter.terms import App, Symbol, Var
from termfilter.usable import omega, roots, usable_rules

from util import (all_filterings, all_precedences, check_cnf, evaluate, ex13, ex2,
                  identity_filtering, lowered_cnf, no_atoms, random_signature,
                  random_term, random_trs, symbol_map, tree_size)


def report(number: int, description: str, ok: bool) -> None:
    print(f"criterion {number} [{'PASS' if ok else 'FAIL'}] {description}")


def solve_formula(formula, builder, vm, mode):
    return solve(lowered_cnf(formula, builder, vm, mode).cnf)


def signature_of(*systems):
    out = set()
    for trs in systems:
        out |= set(trs.signature)
    return tuple(sorted(out, key=lambda f: (f.name, f.is_tuple)))


# ----------------------------------------------------------------------

def test_criterion_1_division_end_to_end():
    ok = False
    try:
        trs = ex2()
        for processor in ("thm5", "thm12"):
            for mode in ("strict", "quasi"):
                start = time.perf_counter()
                verdict = prove(trs, ProverConfig(mode=mode, processor=processor))
                elapsed = time.perf_counter() - start
                assert isinstance(verdict, Terminating), (processor, mode)
                assert elapsed < 1.0, (processor, mode, elapsed)
                quot_steps = [s for s in verdict.steps
                              if s.processor == "reduction_pair"
                              and {p.root.display for p in s.problem.pairs.rules}
                              == {"quot#"}]
                assert len(quot_steps) == 1
                w = quot_steps[0].witness
                for p in w.removed:
                    assert lpo_af_gt(w.precedence, w.filtering, mode, p.lhs, p.rhs)
                for r in w.usable:
                    assert lpo_af_ge(w.precedence, w.filtering, mode, r.lhs, r.rhs)

        # the known solution replays: the three pair inequalities strict,
        # the two rule inequalities weak
        names = symbol_map(trs, dependency_pairs(trs))
        minus, quot, s, zero = (names[k] for k in ("minus", "quot", "s", "0"))
        minus_t, quot_t = names["minus#"], names["quot#"]
        pi = ArgumentFiltering({minus: Collapse(1), s: Keep((1,)), zero: Keep(()),
                                quot: Keep((1,)), minus_t: Keep((1,)),
                                quot_t: Keep((1,))})
        prec = Precedence({minus: 1, s: 1, zero: 1, quot: 1, minus_t: 1, quot_t: 2})
        x, y = Var("x"), Var("y")
        sx, sy = App(s, (x,)), App(s, (y,))
        strict_pairs = [
            (App(minus_t, (sx, sy)), App(minus_t, (x, y))),
            (App(quot_t, (sx, sy)), App(minus_t, (x, y))),
            (App(quot_t, (sx, sy)), App(quot_t, (App(minus, (x, y)), sy))),
        ]
        weak_rules = [r for r in trs.rules if r.root == minus]
        assert len(weak_rules) == 2
        for lhs, rhs in strict_pairs:
            assert lpo_af_gt(prec, pi, "strict", lhs, rhs)
        for r in weak_rules:
            assert lpo_af_ge(prec, pi, "strict", r.lhs, r.rhs)
        ok = True
    finally:
        report(1, "division system proved in <1s under all four configurations; "
                  "witnesses replay strictly through the order semantics", ok)


def test_criterion_2_div_if_filtered_usable():
    ok = False
    try:
        trs = ex13()
        ge_free = []
        for mode in ("strict", "quasi"):
            verdict = prove(trs, ProverConfig(mode=mode, processor="thm12"))
            assert isinstance(verdict, Terminating), mode
            for step in verdict.steps:
                if step.processor != "reduction_pair":
                    continue
                roots = {p.root.display for p in step.problem.pairs.rules}
                if roots <= {"div#", "if#"}:
                    ge_free.append(
                        all(r.root.display != "ge" for r in step.witness.usable))
        assert ge_free and any(ge_free)
        ok = True
    finally:
        report(2, "div/if system proved with filtered usable rules; the div/if "
                  "component's recorded usable set omits the ge rules", ok)


def test_criterion_3_negative_control():
    ok = False
    try:
        trs = ex2()
        symbols = signature_of(trs)
        assert {f.display for f in symbols} == {"0", "minus", "quot", "s"}
        orientable = any(
            all(lpo_gt(prec, "strict", r.lhs, r.rhs) for r in trs.rules)
            for prec in all_precedences(list(symbols)))
        assert not orientable

        ctx = EncodingContext("strict")
        parts = [ctx.tau_gt(r.lhs, r.rhs) for r in trs.rules]
        parts.append(identity_filtering(ctx.builder, symbols))
        formula = ctx.builder.and_(parts)
        vm = VarMap(symbols)
        res = solve_formula(formula, ctx.builder, vm, "strict")
        assert res.status == UNSAT
        ok = True
    finally:
        report(3, "no strict precedence orients the division rules with the "
                  "identity filtering: exhaustive search and the restricted "
                  "encoding agree (both negative)", ok)


def test_criterion_4_encoder_oracle_equivalence():
    ok = False
    checked = 0
    try:
        rng = random.Random(2718)
        start = time.perf_counter()
        for index in range(1000):
            mode = "strict" if index % 2 == 0 else "quasi"
            relation = "gt" if rng.random() < 0.5 else "ge"
            symbols = random_signature(rng, 3, 2)
            s = random_term(rng, symbols, ["x", "y"], 2)
            t = random_term(rng, symbols, ["x", "y"], 2)
            oracle = lpo_af_gt if relation == "gt" else lpo_af_ge

            ctx = EncodingContext(mode)
            formula = ctx.tau_gt(s, t) if relation == "gt" else ctx.tau_ge(s, t)
            vm = VarMap(sorted(symbols, key=lambda f: f.name))
            res = solve_formula(formula, ctx.builder, vm, mode)

            exists = any(
                oracle(prec, pi, mode, s, t)
                for pi in all_filterings(symbols)
                for prec in all_precedences(symbols))
            assert (res.status == SAT) == exists, (mode, relation, str(s), str(t))
            if res.status == SAT:
                decoded = decode_model(res.model, vm)
                assert oracle(decoded.precedence, decoded.filtering, mode, s, t), \
                    (mode, relation, str(s), str(t))
            checked += 1
        elapsed = time.perf_counter() - start
        assert checked == 1000
        ok = True
    finally:
        report(4, f"{checked}/1000 random inequalities: exhaustive (rank, pi) "
                  "enumeration matches SAT/UNSAT and every model replays "
                  "through the order semantics", ok)


EX9_ATOMS = None


def _golden_setup():
    s1 = Symbol("s", 1)
    minus = Symbol("minus", 2)
    x, y = Var("x"), Var("y")
    return s1, minus, App(s1, (x,)), App(minus, (x, y))


def test_criterion_5_golden_formula():
    ok = False
    try:
        s1, minus, lhs, rhs = _golden_setup()
        ctx = EncodingContext("strict")
        b = ctx.builder
        mine = ctx.tau_gt(lhs, rhs)

        col_m1 = b.atom(A.CollapsesTo(minus, 1))
        list_s = b.atom(A.ListP(s1))
        in_s1 = b.atom(A.ArgIn(s1, 1))
        list_m = b.atom(A.ListP(minus))
        gt_sm = b.atom(A.PoGt(s1, minus))
        in_m1 = b.atom(A.ArgIn(minus, 1))
        in_m2 = b.atom(A.ArgIn(minus, 2))
        expected = b.or_([
            b.and_([col_m1, list_s, in_s1]),
            b.and_([list_s, list_m, gt_sm,
                    b.implies(in_m1, b.and_([list_s, in_s1])),
                    b.not_(in_m2)]),
        ])
        atoms7 = [A.CollapsesTo(minus, 1), A.ListP(s1), A.ArgIn(s1, 1),
                  A.ListP(minus), A.PoGt(s1, minus), A.ArgIn(minus, 1),
                  A.ArgIn(minus, 2)]
        for bits in itertools.product([False, True], repeat=7):
            env = dict(zip(atoms7, bits))
            assert evaluate(mine, env.__getitem__) == \
                evaluate(expected, env.__getitem__), bits

        # lowering with two symbols, hence a single rank bit each
        vm = VarMap([minus, s1])
        assert vm.k == 1
        lb = FormulaBuilder()
        lower = lower_atoms(vm, "strict", lb)
        v_list_m = lb.atom(vm.list_var(minus))
        v_arg_m1 = lb.atom(vm.arg_var(minus, 1))
        v_arg_m2 = lb.atom(vm.arg_var(minus, 2))
        v_list_s = lb.atom(vm.list_var(s1))
        v_arg_s1 = lb.atom(vm.arg_var(s1, 1))
        v_s1 = lb.atom(vm.bits(s1)[0])
        v_m1 = lb.atom(vm.bits(minus)[0])
        expected_low = lb.or_([
            lb.and_([lb.not_(v_list_m), v_arg_m1, v_list_s, v_arg_s1]),
            lb.and_([v_list_s, v_list_m, v_s1, lb.not_(v_m1),
                     lb.implies(v_arg_m1, lb.and_([v_list_s, v_arg_s1])),
                     lb.not_(v_arg_m2)]),
        ])
        variables = [vm.list_var(minus), vm.arg_var(minus, 1), vm.arg_var(minus, 2),
                     vm.list_var(s1), vm.arg_var(s1, 1),
                     vm.bits(s1)[0], vm.bits(minus)[0]]
        for bits in itertools.product([False, True], repeat=7):
            env = dict(zip(variables, bits))
            assert evaluate(mine, lambda a: evaluate(lower(a), env.__getitem__)) == \
                evaluate(expected_low, env.__getitem__), bits
        ok = True
    finally:
        report(5, "the golden inequality encoding is truth-table equivalent to "
                  "the hand-derived reference constraint, before and after lowering at one "
                  "rank bit", ok)


def test_criterion_6_omega_golden():
    ok = False
    try:
        trs = ex13()
        pairs = dependency_pairs(trs)
        names = symbol_map(trs, pairs)
        ctx = EncodingContext("strict")
        b = ctx.builder
        w = omega(pairs, trs, ctx, roots(usable_rules(pairs, trs)))
        assert w.kind == "and" and len(w.children) == 4
        children = set(w.children)
        expected = {
            b.implies(b.atom(A.ArgIn(names["div#"], 1)),
                      b.atom(A.Usable(names["minus"]))),
            b.implies(b.atom(A.ArgIn(names["if#"], 1)),
                      b.atom(A.Usable(names["ge"]))),
            b.implies(b.atom(A.Usable(names["minus"])),
                      b.and_([ctx.tau_ge(r.lhs, r.rhs)
                              for r in trs.rules_for(names["minus"])])),
            b.implies(b.atom(A.Usable(names["ge"])),
                      b.and_([ctx.tau_ge(r.lhs, r.rhs)
                              for r in trs.rules_for(names["ge"])])),
        }
        assert children == expected
        ok = True
    finally:
        report(6, "usable-rule formula for the div/if system is exactly the two "
                  "position guards plus the two usability implications", ok)


def test_criterion_7_bits_and_tseitin():
    ok = False
    try:
        from termfilter.lowering import _bit_eq, _bit_gt
        for k in range(1, 5):
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
                    assert evaluate(gt, env.__getitem__) == (fv > gv), (k, fv, gv)
                    assert evaluate(eq, env.__getitem__) == (fv == gv), (k, fv, gv)

        rng = random.Random(31415)
        failures = 0
        for round_no in range(500):
            n_vars = rng.randint(2, 12)
            b = FormulaBuilder()
            pool = [b.atom(v) for v in range(1, n_vars + 1)]
            for _ in range(rng.randint(3, 16)):
                op = rng.randrange(5)
                if op == 0:
                    pool.append(b.not_(rng.choice(pool)))
                elif op == 1:
                    pool.append(b.and_([rng.choice(pool)
                                        for _ in range(rng.randint(2, 3))]))
                elif op == 2:
                    pool.append(b.or_([rng.choice(pool)
                                       for _ in range(rng.randint(2, 3))]))
                elif op == 3:
                    pool.append(b.implies(rng.choice(pool), rng.choice(pool)))
                else:
                    pool.append(b.iff(rng.choice(pool), rng.choice(pool)))
            phi = pool[-1]
            res = tseitin_cnf(phi, n_vars, no_atoms)
            check_cnf(res.cnf)
            got = solve(res.cnf)
            expected = any(
                evaluate(phi, dict(zip(range(1, n_vars + 1), bits)).__getitem__)
                for bits in itertools.product([False, True], repeat=n_vars))
            if (got.status == SAT) != expected:
                failures += 1
                continue
            if got.status == SAT:
                env = {v: got.model.get(v, False) for v in range(1, n_vars + 1)}
                if not evaluate(phi, lambda a: env[a]):
                    failures += 1
        assert failures == 0
        ok = True
    finally:
        report(7, "rank-bit comparisons exhaustively correct for up to four "
                  "bits; clause conversion equisatisfiable and model-projecting "
                  "on 500 random formulas", ok)


def test_criterion_8_sharing_and_optimizations():
    ok = False
    factor = None
    try:
        s1, minus, lhs, rhs = _golden_setup()
        ctx = EncodingContext("strict")
        mine = ctx.tau_gt(lhs, rhs)
        assert dag_size(mine) < tree_size(mine)
        from util import atoms_of
        payloads = atoms_of(mine)
        assert len(payloads) == len(set(payloads))  # each atom one shared node

        trs = ex2()
        problem = DpProblem(dependency_pairs(trs), trs)

        enc_opt = encode_rp_formula(problem, "thm5", "strict")
        vm_opt = VarMap(signature_of(problem.pairs, problem.rules),
                        len(problem.pairs.rules), enc_opt.usable_symbols)
        ts_opt = lowered_cnf(enc_opt.formula, enc_opt.context.builder, vm_opt, "strict")

        enc_raw = encode_rp_formula(problem, "thm5", "strict",
                                    simplify=False, share=False, propagate=False)
        ts_raw = lowered_cnf(enc_raw.formula, enc_raw.context.builder, vm_opt, "strict")

        assert ts_opt.cnf.num_vars < ts_raw.cnf.num_vars
        factor = ts_raw.cnf.num_vars / ts_opt.cnf.num_vars
        ok = True
    finally:
        suffix = f" (variable reduction factor {factor:.1f}x)" if factor else ""
        report(8, "shared subformulas are single nodes on the golden encoding; "
                  "optimizations strictly reduce the CNF variable count on the "
                  "full division encoding" + suffix, ok)


def test_criterion_9_filtered_usable_dominates():
    ok = False
    compared = 0
    try:
        rng = random.Random(1618)
        for _ in range(250):
            trs = random_trs(rng, max_symbols=3, max_rules=3)
            pairs = dependency_pairs(trs)
            if not pairs.rules:
                continue
            problems = [DpProblem(pairs, trs)]
            problems.extend(scc_decompose(problems[0]))
            mode = "strict" if rng.random() < 0.5 else "quasi"
            for problem in problems:
                if not problem.pairs.rules:
                    continue
                results = {}
                for processor in ("thm5", "thm12"):
                    enc = encode_rp_formula(problem, processor, mode)
                    vm = VarMap(signature_of(problem.pairs, problem.rules),
                                len(problem.pairs.rules), enc.usable_symbols)
                    res = solve_formula(enc.formula, enc.context.builder, vm, mode)
                    results[processor] = res.status
                compared += 1
                if results["thm5"] == SAT:
                    assert results["thm12"] == SAT, str(problem.pairs.rules)
        assert compared >= 250
        ok = True
    finally:
        report(9, f"on {compared} randomized pair problems, whenever the "
                  "classical-usable encoding is satisfiable the filtered-usable "
                  "one is too (zero counterexamples)", ok)
