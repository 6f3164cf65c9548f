import contextlib
import io
import os
import random
import subprocess
import sys
import tempfile
import time

import pytest
from hypothesis import HealthCheck, Phase, example, given, settings, strategies as st

from termfilter import atoms, prover
from termfilter.cli import main as cli_main
from termfilter.dp import DpProblem, dependency_pairs, scc_decompose
from termfilter.encoder import OutOfTime
from termfilter.lowering import DecodedModel
from termfilter.orders import (ArgumentFiltering, Collapse, Keep, Precedence,
                               apply_filtering, lpo_af_ge, lpo_af_gt, lpo_ge, lpo_gt)
from termfilter.prover import (Maybe, ProverConfig, Terminating, Timeout,
                               reduction_pair_processor, prove, render_proof)
from termfilter.terms import Symbol, Trs, symbol_key
from termfilter.tpdb import ParseError, parse_trs
from termfilter.usable import usable_rules, usable_rules_mod_pi

from util import (ACKERMANN_TEXT, EX13_TEXT, EX2_TEXT, REVERSE_TEXT, SHUFFLE_TEXT,
                  all_filterings, all_precedences, collapse_text, ex13, ex2,
                  problem_signature, random_trs, ring_text, rot_text)


CONFIGS = [(proc, mode) for proc in ("thm5", "thm12") for mode in ("strict", "quasi")]


@pytest.mark.parametrize("processor,mode", CONFIGS)
def test_division_terminates_all_configs(processor, mode):
    verdict = prove(ex2(), ProverConfig(mode=mode, processor=processor))
    assert isinstance(verdict, Terminating)
    rp_steps = [s for s in verdict.steps if s.processor == "reduction_pair"]
    assert len(rp_steps) == 2
    for step in rp_steps:
        w = step.witness
        assert w is not None and w.removed
        for p in w.removed:
            assert lpo_af_gt(w.precedence, w.filtering, mode, p.lhs, p.rhs)
        for r in w.usable:
            assert lpo_af_ge(w.precedence, w.filtering, mode, r.lhs, r.rhs)


def test_self_loop_is_maybe():
    trs = parse_trs("(VAR x)(RULES f(x) -> f(x))")
    verdict = prove(trs, ProverConfig())
    assert isinstance(verdict, Maybe)
    assert "f#" in verdict.reason


@pytest.mark.parametrize("mode", ["strict", "quasi"])
def test_div_if_terminates_thm12(mode):
    verdict = prove(ex13(), ProverConfig(mode=mode, processor="thm12"))
    assert isinstance(verdict, Terminating)


def test_div_if_witness_excludes_ge_rules():
    trs = ex13()
    hits = []
    for mode in ("strict", "quasi"):
        verdict = prove(trs, ProverConfig(mode=mode, processor="thm12"))
        assert isinstance(verdict, Terminating)
        for step in verdict.steps:
            if step.processor != "reduction_pair":
                continue
            roots = {p.root.display for p in step.problem.pairs.rules}
            if roots <= {"div#", "if#"}:
                hits.append(all(r.root.display != "ge" for r in step.witness.usable))
    assert hits and any(hits)


def test_processor_empty_problem_no_progress():
    trs = ex2()
    problem = DpProblem(Trs.of([]), trs)
    assert reduction_pair_processor(problem, ProverConfig()) is None


def test_processor_unsat_no_progress():
    trs = parse_trs("(VAR x)(RULES f(x) -> f(x))")
    problem = scc_decompose(DpProblem(dependency_pairs(trs), trs))[0]
    assert reduction_pair_processor(problem, ProverConfig()) is None


def test_processor_progress_shrinks_pairs():
    trs = ex13()
    problem = DpProblem(dependency_pairs(trs), trs)
    subs = scc_decompose(problem)
    for sub in subs:
        step = reduction_pair_processor(sub, ProverConfig(processor="thm12"))
        assert step is not None
        assert len(step.results[0].pairs.rules) < len(sub.pairs.rules)
        assert set(step.results[0].pairs.rules) <= set(sub.pairs.rules)


def test_full_problem_processor_thm12():
    trs = ex13()
    problem = DpProblem(dependency_pairs(trs), trs)
    step = reduction_pair_processor(problem, ProverConfig(processor="thm12"))
    assert step is not None
    w = step.witness
    for rule in w.usable:
        assert lpo_af_ge(w.precedence, w.filtering, "strict", rule.lhs, rule.rhs)


def _hand_model(text, *marked):
    """The pair problem of ``text`` and a decoded model of it made by hand:
    every symbol at rank 1, every argument kept, and the pairs printed as
    ``marked`` marked strict."""
    trs = parse_trs(text)
    problem = DpProblem(dependency_pairs(trs), trs)
    symbols = problem_signature(problem)
    pi = ArgumentFiltering({f: Keep(tuple(range(1, f.arity + 1))) for f in symbols})
    printed = [str(p) for p in problem.pairs.rules]
    decoded = DecodedModel(Precedence({f: 1 for f in symbols}), pi,
                           tuple(printed.index(p) for p in marked))
    return problem, decoded


TWO_STRICT = "(VAR x)(RULES f(s(x)) -> f(x)  f(s(s(x))) -> f(x)  f(x) -> f(x))"


@pytest.mark.parametrize("mode", ["strict", "quasi"])
def test_verify_removes_every_strictly_oriented_pair(mode):
    # one marker, two strict pairs: both go, the weak self-loop stays
    problem, decoded = _hand_model(TWO_STRICT, "f#(s(x)) -> f#(x)")
    witness = prover._verify(problem, ProverConfig(mode=mode), decoded)
    assert sorted(map(str, witness.removed)) == ["f#(s(s(x))) -> f#(x)", "f#(s(x)) -> f#(x)"]


def test_verify_rejects_a_marker_on_a_weak_pair():
    problem, decoded = _hand_model(TWO_STRICT, "f#(x) -> f#(x)")
    with pytest.raises(prover.VerificationError, match="marked strict but not strictly"):
        prover._verify(problem, ProverConfig(), decoded)


def test_verify_rejects_a_model_without_markers():
    problem, decoded = _hand_model(TWO_STRICT)
    with pytest.raises(prover.VerificationError, match="model removes no pair"):
        prover._verify(problem, ProverConfig(), decoded)


def test_verify_rejects_a_pair_that_is_not_weakly_decreasing():
    problem, decoded = _hand_model("(VAR x)(RULES f(s(x)) -> f(x)  g(x) -> g(s(x)))",
                                   "f#(s(x)) -> f#(x)")
    with pytest.raises(prover.VerificationError, match="pair not weakly decreasing"):
        prover._verify(problem, ProverConfig(), decoded)


@pytest.mark.parametrize("processor,mode", CONFIGS)
def test_verify_rejects_a_usable_rule_that_is_not_weakly_decreasing(processor, mode):
    # with s above every other symbol both pairs decrease strictly, but the
    # usable rule h(x) -> s(s(x)) does not decrease at all
    problem, decoded = _hand_model("(VAR x)(RULES f(s(x)) -> f(h(x))  h(x) -> s(s(x)))",
                                   "f#(s(x)) -> f#(h(x))")
    ranks = {f: 2 if f.display == "s" else 1 for f in problem_signature(problem)}
    decoded = DecodedModel(Precedence(ranks), decoded.filtering, decoded.strict_pairs)
    with pytest.raises(prover.VerificationError, match="usable rule not weakly decreasing"):
        prover._verify(problem, ProverConfig(mode=mode, processor=processor), decoded)


@pytest.mark.parametrize("processor,mode", CONFIGS)
def test_processor_keeps_exactly_the_pairs_not_removed(processor, mode):
    # the witness removes every strictly oriented pair, marked or not, and
    # the processor keeps the rest
    for text in (EX2_TEXT, EX13_TEXT, ACKERMANN_TEXT, SHUFFLE_TEXT):
        trs = parse_trs(text)
        for sub in scc_decompose(DpProblem(dependency_pairs(trs), trs)):
            step = reduction_pair_processor(sub, ProverConfig(mode=mode, processor=processor))
            if step is None:
                continue
            w = step.witness
            kept = step.results[0].pairs.rules
            assert set(kept) | set(w.removed) == set(sub.pairs.rules)
            assert not set(kept) & set(w.removed)
            for p in kept:
                assert not lpo_af_gt(w.precedence, w.filtering, mode, p.lhs, p.rhs)


def test_timeout_verdict():
    verdict = prove(ex13(), ProverConfig(timeout=0.0))
    assert isinstance(verdict, Timeout)


def test_a_nan_timeout_is_refused():
    # a NaN deadline compares false with every clock reading, so no check
    # would ever trip
    with pytest.raises(ValueError, match="NaN"):
        prove(parse_trs("(VAR x)(RULES f(s(x)) -> f(x))"), ProverConfig(timeout=float("nan")))


@pytest.mark.parametrize("text", ["(VAR x)(RULES f(x) -> x)", "(VAR x)(RULES f(s(x)) -> f(x))"],
                         ids=["no-pairs", "one-pair"])
@pytest.mark.parametrize("field, value", [("mode", "bogus"), ("processor", "thm7")])
def test_an_unknown_mode_or_processor_is_refused(monkeypatch, text, field, value):
    # refused before the first step, whatever the input: a system with no
    # pairs runs no reduction-pair round, so no encoder would see the value
    started = []

    def pairs(trs):
        started.append(trs)
        return dependency_pairs(trs)

    monkeypatch.setattr(prover, "dependency_pairs", pairs)
    with pytest.raises(ValueError, match=f"{field} must be .* got {value!r}"):
        prove(parse_trs(text), ProverConfig(**{field: value}))
    assert started == []


def test_processor_past_the_deadline_raises_and_never_solves(monkeypatch):
    solved = []
    monkeypatch.setattr(prover, "solve", lambda cnf, **kwargs: solved.append(cnf))
    trs = ex2()
    for sub in scc_decompose(DpProblem(dependency_pairs(trs), trs)):
        with pytest.raises(OutOfTime):
            reduction_pair_processor(sub, ProverConfig(timeout=0.0))
    assert not solved


def test_refutation_after_the_deadline_is_timeout(monkeypatch):
    from termfilter import atoms, prover
    from termfilter.solver import UNSAT, SolveResult
    calls = []

    def late_unsat(cnf, *, deadline=None):
        calls.append(deadline)
        time.sleep(max(0.0, deadline - time.monotonic()) + 0.01)
        return SolveResult(UNSAT)

    monkeypatch.setattr(prover, "solve", late_unsat)
    verdict = prove(parse_trs("(VAR x)(RULES f(x) -> f(x))"), ProverConfig(timeout=0.2))
    assert calls and isinstance(verdict, Timeout)


def test_encoding_past_the_deadline_is_neither_lowered_nor_solved(monkeypatch):
    from termfilter import atoms, prover
    from termfilter.solver import UNKNOWN, SolveResult
    solved = []
    encode = prover.encode_rp_formula

    def late_encode(*args, **kwargs):
        out = encode(*args, **kwargs)
        time.sleep(0.1)
        return out

    def recorded_solve(cnf, *args, **kwargs):
        solved.append(cnf)
        return SolveResult(UNKNOWN)

    monkeypatch.setattr(prover, "encode_rp_formula", late_encode)
    monkeypatch.setattr(prover, "solve", recorded_solve)
    verdict = prove(ex2(), ProverConfig(timeout=0.05))
    assert isinstance(verdict, Timeout) and not solved


def test_cnf_past_the_deadline_is_not_solved(monkeypatch):
    from termfilter import atoms, prover
    from termfilter.solver import UNKNOWN, SolveResult
    solved = []
    lower = prover.tseitin_cnf

    def late_lower(*args, **kwargs):
        out = lower(*args, **kwargs)
        time.sleep(0.1)
        return out

    def recorded_solve(cnf, *args, **kwargs):
        solved.append(cnf)
        return SolveResult(UNKNOWN)

    monkeypatch.setattr(prover, "tseitin_cnf", late_lower)
    monkeypatch.setattr(prover, "solve", recorded_solve)
    verdict = prove(ex2(), ProverConfig(timeout=0.05))
    assert isinstance(verdict, Timeout) and not solved


def test_an_unknown_answer_is_a_timeout(monkeypatch):
    from termfilter.solver import UNKNOWN, SolveResult
    solved = []

    def unknown(cnf, *, deadline=None):
        solved.append(cnf)
        return SolveResult(UNKNOWN)

    monkeypatch.setattr(prover, "solve", unknown)
    verdict = prove(ex2())
    assert isinstance(verdict, Timeout) and len(solved) == 1
    assert [step.processor for step in verdict.steps] == ["dependency_graph"]


def test_deadline_checked_before_each_sub_problem(monkeypatch):
    # division has two components; the first round ends past the deadline,
    # so the second is never started
    rounds = []
    processor = prover.reduction_pair_processor

    def late_round(sub, config, session):
        outcome = processor(sub, config, session)
        rounds.append(sub)
        time.sleep(max(0.0, session.deadline - time.monotonic()) + 0.01)
        return outcome

    monkeypatch.setattr(prover, "reduction_pair_processor", late_round)
    verdict = prove(ex2(), ProverConfig(timeout=0.5))
    assert isinstance(verdict, Timeout) and len(rounds) == 1
    assert verdict.steps[0].processor == "dependency_graph"
    assert len(verdict.steps[0].results) == 2
    last = verdict.steps[-1]
    assert last.processor == "reduction_pair" and last.problem is rounds[0]


def test_a_late_model_in_the_last_round_is_timeout(monkeypatch):
    # f(s(x)) -> f(x) takes one round; its model arrives past the deadline,
    # so the proof times out, and the round that found it is its last step
    models = []
    solve = prover.solve

    def late_model(cnf, *, deadline=None):
        result = solve(cnf, deadline=deadline)
        models.append(result.model)
        time.sleep(max(0.0, deadline - time.monotonic()) + 0.01)
        return result

    monkeypatch.setattr(prover, "solve", late_model)
    verdict = prove(parse_trs("(VAR x)(RULES f(s(x)) -> f(x))"), ProverConfig(timeout=0.2))
    assert isinstance(verdict, Timeout) and len(models) == 1 and models[0] is not None
    last = verdict.steps[-1]
    assert last.processor == "reduction_pair" and last.witness is not None
    assert last.results[0].pairs.rules == ()


@pytest.mark.parametrize("mode", ["strict", "quasi"])
def test_classical_usable_closure_walked_once_per_round(monkeypatch, mode):
    from termfilter import prover, usable
    walks, rounds = [], []
    reachable, encode = usable._reachable, prover.encode_rp_formula

    def counted_reachable(pairs, rules, pi):
        walks.append(pi)
        return reachable(pairs, rules, pi)

    def counted_encode(*args, **kwargs):
        rounds.append(1)
        return encode(*args, **kwargs)

    monkeypatch.setattr(usable, "_reachable", counted_reachable)
    monkeypatch.setattr(prover, "encode_rp_formula", counted_encode)
    assert isinstance(prove(ex13(), ProverConfig(mode=mode, processor="thm12")), Terminating)
    assert len(rounds) == 3
    assert sum(pi is None for pi in walks) == len(rounds)


def test_prove_deterministic():
    first = prove(ex2(), ProverConfig(processor="thm12", mode="quasi"))
    second = prove(ex2(), ProverConfig(processor="thm12", mode="quasi"))
    assert render_proof(first) == render_proof(second)


def test_thm12_proves_whatever_thm5_proves():
    rng = random.Random(2024)
    proved5 = 0
    for _ in range(40):
        trs = random_trs(rng, max_symbols=3, max_rules=3)
        v5 = prove(trs, ProverConfig(processor="thm5", timeout=5))
        if isinstance(v5, Terminating):
            proved5 += 1
            v12 = prove(trs, ProverConfig(processor="thm12", timeout=5))
            assert isinstance(v12, Terminating), str(trs)
    assert proved5 > 0


def test_empty_and_trivial_systems_terminate():
    assert isinstance(prove(parse_trs("(VAR)(RULES )")), Terminating)
    assert isinstance(prove(parse_trs("(VAR x)(RULES f(x) -> x)")), Terminating)


def test_render_proof_mentions_witness():
    verdict = prove(ex2(), ProverConfig(processor="thm5"))
    text = render_proof(verdict)
    assert "TERMINATING" in text
    assert "precedence:" in text and "filtering:" in text
    assert "usable rule" in text


# ----------------------------------------------------------------------
# command line

def test_cli_terminating(tmp_path, capsys):
    path = tmp_path / "division.trs"
    path.write_text(EX2_TEXT)
    code = cli_main([str(path)])
    assert code == 0
    assert "TERMINATING" in capsys.readouterr().out


def test_cli_maybe(tmp_path, capsys):
    path = tmp_path / "loop.trs"
    path.write_text("(VAR x)(RULES f(x) -> f(x))")
    code = cli_main([str(path)])
    assert code == 1
    assert "MAYBE" in capsys.readouterr().out


def test_cli_timeout(tmp_path, capsys):
    path = tmp_path / "divif.trs"
    path.write_text(EX13_TEXT)
    assert cli_main([str(path), "--timeout", "0.0"]) == 2
    assert "TIMEOUT" in capsys.readouterr().out


# no shrink phase: a failing draw would be rerun for minutes, one slow
# proof per step, to find a smaller k that says nothing more
@settings(database=None, derandomize=True, max_examples=8, deadline=None,
          phases=[Phase.explicit, Phase.generate],
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(k=st.integers(64, 128), timeout=st.floats(0.05, 0.4))
@example(k=96, timeout=0.2)
def test_cli_keeps_a_timeout_that_falls_inside_encoding(tmp_path, k, timeout):
    # rot-k (see rot_text) in quasi mode: untimed, rot64 gives MAYBE after about 2 s and
    # rot96 after about 6 s, most of them encoding the first round, so every
    # draw times out, and an encoder that never reads the clock overruns
    # the timeout by seconds
    path = tmp_path / "rot.trs"
    path.write_text(rot_text(k))
    out = io.StringIO()
    start = time.monotonic()
    with contextlib.redirect_stdout(out):
        code = cli_main([str(path), "--order", "qlpo", "--timeout", repr(timeout)])
    assert code == 2 and time.monotonic() - start < timeout + 0.5
    assert "TIMEOUT" in out.getvalue()


@settings(database=None, derandomize=True, max_examples=8, deadline=None,
          phases=[Phase.explicit, Phase.generate],
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(n=st.integers(24, 32), timeout=st.floats(0.05, 0.3))
@example(n=32, timeout=0.1)
def test_cli_keeps_a_timeout_that_falls_inside_the_solver(tmp_path, n, timeout):
    # a refute ring (see ring_text) in quasi mode: untimed, refute24 gives
    # MAYBE after 0.8 to 1.2 s and refute32 after 2.6 to 3.1 s, at least
    # 95 % of it solving, so every draw times out inside the solver, and a
    # solver that never reads the clock runs past the timeout and the slack
    path = tmp_path / "ring.trs"
    path.write_text(ring_text(n))
    out = io.StringIO()
    start = time.monotonic()
    with contextlib.redirect_stdout(out):
        code = cli_main([str(path), "--order", "qlpo", "--timeout", repr(timeout)])
    assert code == 2 and time.monotonic() - start < timeout + 0.5
    assert "TIMEOUT" in out.getvalue()


def test_cli_parse_error(tmp_path, capsys):
    path = tmp_path / "bad.trs"
    path.write_text("(VAR x)(RULES x -> x)")
    assert cli_main([str(path)]) == 3
    assert "error" in capsys.readouterr().err


def test_cli_deep_nesting_is_an_error(tmp_path, capsys):
    path = tmp_path / "deep.trs"
    depth = 3000
    path.write_text("(VAR x)(RULES f(" + "s(" * depth + "x" + ")" * depth + ") -> f(x))")
    assert cli_main([str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def test_cli_file_not_utf8_is_an_error(tmp_path, capsys):
    path = tmp_path / "bad.trs"
    path.write_bytes(b"(VAR x)(RULES f(\xff) -> x)")
    assert cli_main([str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and err.count("\n") == 1
    assert "utf-8" in err


@pytest.mark.parametrize("text, position", [
    ("(VAR x)\r(RULES f(x) -> )", "line 1, column 24"),
    ("(VAR x)\r\n(RULES f(x) -> )", "line 2, column 16"),
], ids=["lone-cr", "crlf"])
def test_cli_reports_the_parser_position(tmp_path, capsys, text, position):
    # the CLI reads the file's newlines as they are, so a lone CR is no
    # line break there either
    with pytest.raises(ParseError, match=position):
        parse_trs(text)
    path = tmp_path / "bad.trs"
    path.write_bytes(text.encode())
    assert cli_main([str(path)]) == 3
    assert f"{path}: {position}: " in capsys.readouterr().err


def test_cli_missing_file(capsys):
    assert cli_main(["/no/such/file.trs"]) == 3
    assert "error" in capsys.readouterr().err


def test_cli_proof_and_options(tmp_path, capsys):
    path = tmp_path / "division.trs"
    path.write_text(EX2_TEXT)
    code = cli_main([str(path), "--order", "qlpo", "--processor", "thm5", "--proof"])
    assert code == 0
    out = capsys.readouterr().out
    assert "reduction pair (thm5, qlpo)" in out


def test_cli_emit_dimacs_and_dump(tmp_path, capsys):
    path = tmp_path / "division.trs"
    path.write_text(EX2_TEXT)
    outdir = tmp_path / "cnf"
    code = cli_main([str(path), "--emit-dimacs", str(outdir), "--dump-formula"])
    assert code == 0
    cnfs = sorted(p.name for p in outdir.glob("*.cnf"))
    manifests = sorted(p.name for p in outdir.glob("*.vars.json"))
    assert cnfs == ["problem001.cnf", "problem002.cnf"]
    assert manifests == ["problem001.vars.json", "problem002.vars.json"]
    import json
    manifest = json.loads((outdir / "problem001.vars.json").read_text())
    assert "variables" in manifest and manifest["pairs"]
    # the reserved variables 1..num_reserved, then the definitions after them
    num_vars = int((outdir / "problem001.cnf").read_text().split()[2])
    reserved = len(manifest["variables"])
    assert list(manifest["variables"]) == [str(v) for v in range(1, reserved + 1)]
    assert list(manifest["definitions"]) == [str(v) for v in range(reserved + 1, num_vars + 1)]
    out = capsys.readouterr().out
    assert "(atom" in out  # formula dump made it to stdout


def test_describe_renders_each_kind_of_atom():
    f, g = Symbol("f", 2), Symbol("g", 0)
    shown = [atoms.describe(atom) for atom in [
        ("gt", f, g), ("eq", f, g), ("list", f), ("in", f, 2), ("collapse", f, 2),
        ("usable", f), ("strict", 0)]]
    assert shown == ["(gt f g)", "(eq f g)", "(list f)", "(in f 2)", "(collapse f 2)",
                     "(usable f)", "(strict 0)"]
    assert atoms.describe(("gt", Symbol("f", 1, True), g)) == "(gt f# g)"


# ``termfilter --dump-formula`` on f(s(x)) -> f(x): one solver call
DUMP_FS = """\
; formula for solver call 1
n2 = (atom (in f# 1))
n3 = (not n2)
n4 = (atom (collapse f# 1))
n5 = (atom (collapse s 1))
n6 = (atom (list s))
n7 = (atom (in s 1))
n8 = (and n6 n7)
n9 = (or n5 n8)
n10 = (and n4 n9)
n11 = (atom (list f#))
n12 = (and n2 n6 n7)
n13 = (or n3 n5 n8)
n14 = (or n3 n5 n8 n12)
n15 = (and n11 n13 n14)
n16 = (atom (gt s f#))
n19 = (and n2 n6 n7 n11 n16)
n20 = (or n10 n15 n19)
n21 = (atom (strict 0))
n22 = (and n4 n6 n7)
n23 = (and n2 n6 n7 n11 n13)
n25 = (not n21)
n26 = (or n19 n22 n23 n25)
n27 = (and n20 n21 n26)
root = n27
TERMINATING
"""


def test_cli_dump_formula_pinned(tmp_path, capsys):
    path = tmp_path / "fs.trs"
    path.write_text("(VAR x)(RULES f(s(x)) -> f(x))")
    assert cli_main([str(path), "--dump-formula"]) == 0
    assert capsys.readouterr().out == DUMP_FS


def test_emit_dimacs_numbers_only_the_symbols_of_the_round(tmp_path, capsys):
    # three independent components; the f# round mentions only f# and s
    path = tmp_path / "three.trs"
    path.write_text("(VAR x)(RULES f(s(x)) -> f(x)  g(c(x)) -> g(x)  h(a) -> b)")
    outdir = tmp_path / "cnf"
    assert cli_main([str(path), "--emit-dimacs", str(outdir)]) == 0
    import json
    import re
    rounds = 0
    for manifest_path in sorted(outdir.glob("*.vars.json")):
        manifest = json.loads(manifest_path.read_text())
        if manifest["pairs"] != ["f#(s(x)) -> f#(x)"]:
            continue
        rounds += 1
        named = {m.group(2) for desc in manifest["variables"].values()
                 if (m := re.match(r"(rank|list|keeps)\(([^,)]+)", desc))}
        assert named == {"f#", "s"}, manifest["variables"]
        num_vars = int(manifest_path.with_name(manifest_path.name.replace(
            ".vars.json", ".cnf")).read_text().split()[2])
        numbered = set(manifest["variables"]) | set(manifest["definitions"])
        assert numbered == {str(v) for v in range(1, num_vars + 1)}
    assert rounds == 1
    assert "TERMINATING" in capsys.readouterr().out


def test_a_round_emits_as_its_own_configuration_says(tmp_path):
    # the round's configuration decides whether, where and under which
    # processor it writes, even when its session was made from another one
    trs = parse_trs("(VAR x)(RULES f(s(x)) -> f(x))")
    (sub,) = scc_decompose(DpProblem(dependency_pairs(trs), trs))
    config = ProverConfig(processor="thm5", emit_dimacs=str(tmp_path))
    assert reduction_pair_processor(sub, config, prover._Session(ProverConfig())) is not None
    import json
    manifest = json.loads((tmp_path / "problem001.vars.json").read_text())
    assert manifest["processor"] == "thm5" and manifest["pairs"] == ["f#(s(x)) -> f#(x)"]


@pytest.mark.parametrize("args", [["--timeout", "abc"], ["--timeout", "nan"],
                                  ["--timeout", "-1"], ["--timeout", "inf"], [],
                                  ["--solver", "internal"], ["--timeout", "-inf"],
                                  ["--timeout", "-Infinity"], ["--timeout", "-nan"]],
                         ids=["abc", "nan", "negative", "infinite", "no-file", "solver",
                              "negative-infinite", "negative-infinity", "negative-nan"])
def test_cli_usage_errors_exit_3(tmp_path, capsys, args):
    # argparse's own code 2 is the timeout code here; a number that
    # ``seconds`` refuses, negative ones too, gets its message
    path = tmp_path / "division.trs"
    path.write_text(EX2_TEXT)
    with pytest.raises(SystemExit) as exc:
        cli_main(([str(path)] if args else []) + args)
    assert exc.value.code == 3
    err = capsys.readouterr().err
    assert "error" in err
    if args[:1] == ["--timeout"] and args[1] != "abc":
        assert f"not a finite non-negative number: {args[1]!r}" in err


_TIMEOUTS = st.one_of(
    st.none(),
    st.floats(0, 2).map(repr),
    st.integers(0, 5).map(str),
    st.sampled_from(["abc", "", "nan", "inf", "-inf", "1e999", "-1", "-0.5", "0x10"]))


@settings(database=None, derandomize=True, max_examples=40, deadline=None)
@given(system=st.sampled_from([EX2_TEXT, EX13_TEXT, ACKERMANN_TEXT, REVERSE_TEXT,
                               SHUFFLE_TEXT]),
       order=st.sampled_from([None, "lpo", "qlpo"]),
       processor=st.sampled_from([None, "thm5", "thm12"]),
       timeout=_TIMEOUTS, flags=st.sets(st.sampled_from(
           ["--proof", "--dump-formula", "--emit-dimacs"])))
def test_cli_flags_exit_0_to_3_with_the_verdict(system, order, processor, timeout, flags):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "system.trs")
        with open(path, "w") as f:
            f.write(system)
        argv = [path]
        for flag, value in (("--order", order), ("--processor", processor),
                            ("--timeout", timeout)):
            if value is not None:
                argv += [flag, value]
        for flag in sorted(flags):
            argv += [flag, os.path.join(tmp, "cnf")] if flag == "--emit-dimacs" else [flag]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli_main(argv)
            except SystemExit as exc:
                code = exc.code
    assert code in (0, 1, 2, 3)
    if code == 3:
        assert sum("error:" in line for line in err.getvalue().splitlines()) == 1
    else:
        verdict = out.getvalue().splitlines()[-1].split()[0]
        assert verdict == ("TERMINATING", "MAYBE", "TIMEOUT")[code]


def test_cli_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        cli_main(["--help"])
    assert exc.value.code == 0
    assert "usage:" in capsys.readouterr().out


def test_strict_proof_precedence_has_no_equivalence():
    """Same-rank symbols of a strict precedence are incomparable, so the
    proof must not print them joined by the equivalence sign."""
    def precedences(mode):
        text = render_proof(prove(ex2(), ProverConfig(mode=mode)))
        return [l for l in text.splitlines() if "precedence:" in l]

    strict = precedences("strict")
    assert strict and not any("~" in l for l in strict)
    assert any(", " in l for l in strict)
    assert any("~" in l for l in precedences("quasi"))


def test_benchmark_tracer_installs_and_restores():
    """The per-layer benchmark wraps names the prover imports; renaming one
    of them must fail here, not only in the benchmark's own smoke test."""
    import importlib.util
    from pathlib import Path

    from termfilter import prover, usable

    path = Path(__file__).resolve().parent.parent / "bench" / "layers.py"
    spec = importlib.util.spec_from_file_location("bench_layers", path)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    names, omega = dict(vars(prover)), usable.omega
    restore = layers.Tracer().install()
    try:
        assert prover.usable_rules_mod_pi is not names["usable_rules_mod_pi"]
        assert isinstance(prove(ex2()), Terminating)
    finally:
        restore()
    assert dict(vars(prover)) == names and usable.omega is omega


def test_console_entry_point(tmp_path):
    path = tmp_path / "division.trs"
    path.write_text(EX2_TEXT)
    # the child imports the package this process imports, however pytest ran
    src = os.path.dirname(os.path.dirname(prover.__file__))
    proc = subprocess.run([sys.executable, "-m", "termfilter.cli", str(path)],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0
    assert "TERMINATING" in proc.stdout


@pytest.mark.parametrize("processor,mode", CONFIGS)
def test_ackermann_terminates(processor, mode):
    # one three-pair component; exercises nested defined calls and
    # multi-pair strictness bookkeeping
    trs = parse_trs(ACKERMANN_TEXT)
    verdict = prove(trs, ProverConfig(mode=mode, processor=processor, timeout=30))
    assert isinstance(verdict, Terminating)


def test_symbolic_identifiers():
    trs = parse_trs("(VAR x y)(RULES +(+(x,y),y) -> +(x,s(y)))")
    assert isinstance(prove(trs, ProverConfig()), Terminating)


def test_self_embedding_system_is_maybe():
    trs = parse_trs("(VAR x)(RULES f(x) -> f(f(x)))")
    verdict = prove(trs, ProverConfig())
    assert isinstance(verdict, Maybe)


def test_duplicate_rules_tolerated():
    trs = parse_trs("(VAR x y)(RULES minus(s(x),s(y)) -> minus(x,y) "
                    "minus(s(x),s(y)) -> minus(x,y))")
    assert isinstance(prove(trs, ProverConfig()), Terminating)


@pytest.mark.parametrize("processor,mode", CONFIGS)
def test_list_reverse_terminates(processor, mode):
    trs = parse_trs(REVERSE_TEXT)
    verdict = prove(trs, ProverConfig(mode=mode, processor=processor, timeout=30))
    assert isinstance(verdict, Terminating)


def test_size_preserving_recursion_is_maybe():
    # shuffle recurses through rev, which no path order with filterings can
    # measure as decreasing; the honest answer is "no proof found"
    trs = parse_trs(SHUFFLE_TEXT)
    verdict = prove(trs, ProverConfig(processor="thm12", mode="quasi", timeout=30))
    assert isinstance(verdict, Maybe)
    assert "shuffle#" in verdict.reason


def _orientable(problem, processor, mode, collapse=True):
    """Exhaustive search: does some precedence and filtering make every pair
    weakly decreasing, some pair strictly decreasing, and every usable rule
    weakly decreasing?  It ranges over the symbols of the pairs and their
    classically usable rules, as no other symbol takes part in a check, and
    over one rank map per order of the symbols.  With ``collapse=False`` it
    leaves out the filterings that collapse a symbol."""
    classical = usable_rules(problem.pairs, problem.rules)
    symbols = sorted(problem.pairs.signature | Trs.of(classical).signature, key=symbol_key)
    precedences = []
    for prec in all_precedences(symbols):
        # only the order of the ranks counts: one rank map per order, the one
        # with no gaps
        ranks = {prec.rank(f) for f in symbols}
        if ranks == set(range(1, len(ranks) + 1)):
            precedences.append(prec)
    for pi in all_filterings(symbols):
        if not collapse and any(isinstance(pi.get(f), Collapse) for f in symbols):
            continue
        usable = (classical if processor == "thm5"
                  else usable_rules_mod_pi(problem.pairs, problem.rules, pi))
        # filtered once per filtering: lpo_af_gt(prec, pi, ...) is lpo_gt of
        # the filtered terms
        pairs = [(apply_filtering(pi, p.lhs), apply_filtering(pi, p.rhs))
                 for p in problem.pairs.rules]
        rules = [(apply_filtering(pi, r.lhs), apply_filtering(pi, r.rhs)) for r in usable]
        for prec in precedences:
            if (all(lpo_ge(prec, mode, s, t) for s, t in pairs)
                    and any(lpo_gt(prec, mode, s, t) for s, t in pairs)
                    and all(lpo_ge(prec, mode, l, r) for l, r in rules)):
                return True
    return False


def test_processor_answers_match_exhaustive_search():
    """Both SAT answers (progress) and UNSAT answers (no progress, which a
    MAYBE rests on) agree with a search over every precedence and filtering."""
    rng = random.Random(5)
    answers = {True: 0, False: 0}
    runs = 0
    while runs < 40:
        trs = random_trs(rng, 3, 3, 2, 2)
        for sub in scc_decompose(DpProblem(dependency_pairs(trs), trs)):
            if len(problem_signature(sub)) > 4:
                continue
            for mode in ("strict", "quasi"):
                for processor in ("thm5", "thm12"):
                    if runs == 40:
                        break
                    runs += 1
                    step = reduction_pair_processor(
                        sub, ProverConfig(mode=mode, processor=processor))
                    sat = step is not None
                    assert sat == _orientable(sub, processor, mode), \
                        (str(sub.pairs), str(sub.rules), mode, processor)
                    answers[sat] += 1
    assert answers[True] >= 4 and answers[False] >= 4, answers


def test_components_that_need_a_collapse_match_exhaustive_search():
    """Random systems this small never need a collapsing filtering; these
    components do, and the processor finds one in every configuration."""
    rng = random.Random(12)
    for _ in range(20):
        text, f = collapse_text(rng)
        trs = parse_trs(text)
        (sub,) = [c for c in scc_decompose(DpProblem(dependency_pairs(trs), trs))
                  if c.pairs.rules[0].root.name == f]
        for mode in ("strict", "quasi"):
            for processor in ("thm5", "thm12"):
                step = reduction_pair_processor(
                    sub, ProverConfig(mode=mode, processor=processor))
                assert step is not None, (text, mode, processor)
                w = step.witness
                assert any(isinstance(spec, Collapse) for _, spec in w.filtering.items())
                assert _orientable(sub, processor, mode)
                assert not _orientable(sub, processor, mode, collapse=False), \
                    (text, mode, processor)


def test_each_round_numbers_every_symbol_its_checks_read(monkeypatch):
    """A round numbers only the symbols the encoder met.  The model replay
    and the proof read the symbols of the round's pairs and classically
    usable rules, so each of them must be met, and the witness must cover
    exactly the met symbols."""
    encodings = []
    real = prover.encode_rp_formula

    def record(problem, *args, **kwargs):
        enc = real(problem, *args, **kwargs)
        encodings.append((problem, enc))
        return enc

    monkeypatch.setattr(prover, "encode_rp_formula", record)
    rng = random.Random(14)
    texts = [EX2_TEXT, EX13_TEXT, ACKERMANN_TEXT, REVERSE_TEXT, SHUFFLE_TEXT]
    systems = [parse_trs(text) for text in texts] + [random_trs(rng) for _ in range(500)]
    rounds = witnessed = smaller = 0
    for trs in systems:
        for mode in ("strict", "quasi"):
            for processor in ("thm5", "thm12"):
                encodings.clear()
                verdict = prove(trs, ProverConfig(mode=mode, processor=processor,
                                                  timeout=10))
                witnesses = {id(step.problem): step.witness for step in verdict.steps
                             if step.witness is not None}
                for problem, enc in encodings:
                    pairs, rules = problem.pairs, problem.rules
                    read = pairs.signature | Trs.of(usable_rules(pairs, rules)).signature
                    assert read <= set(enc.symbols), (str(pairs), str(rules), mode)
                    rounds += 1
                    smaller += len(enc.symbols) < len(problem_signature(problem))
                    w = witnesses.get(id(problem))
                    if w is not None:
                        assert tuple(f for f, _ in w.filtering.items()) == enc.symbols
                        assert all(w.precedence.rank(f) for f in enc.symbols)
                        witnessed += 1
    # about half the rounds number fewer symbols than their problem holds
    assert rounds >= 1000 and witnessed >= 400 and smaller >= 500, \
        (rounds, witnessed, smaller)


@pytest.mark.parametrize("mode", ["strict", "quasi"])
def test_deep_tower_terminates(mode):
    # f(s^120(x)) -> f(x), the deepest tower the benchmark times
    trs = parse_trs("(VAR x)(RULES f(" + "s(" * 120 + "x" + ")" * 120 + ") -> f(x))")
    assert isinstance(prove(trs, ProverConfig(mode=mode)), Terminating)


@pytest.mark.parametrize("mode", ["strict", "quasi"])
def test_tower_of_depth_200_terminates(mode):
    # f(s^200(x)) -> f(x) under the default recursion limit: the encoder
    # descends two frames per level of term depth and the order check one
    _assert_tower_terminates(200, mode)


@pytest.mark.parametrize("mode", ["strict", "quasi"])
def test_tower_of_depth_400_terminates(mode):
    # deeper than the encoder alone allows with recursive term walks: the
    # graph estimation's unification and renaming walk with explicit stacks
    _assert_tower_terminates(400, mode)


def _assert_tower_terminates(depth, mode):
    trs = parse_trs("(VAR x)(RULES f(" + "s(" * depth + "x" + ")" * depth + ") -> f(x))")
    verdict = prove(trs, ProverConfig(mode=mode))
    assert isinstance(verdict, Terminating)
    steps = [s for s in verdict.steps if s.processor == "reduction_pair"]
    assert steps
    for step in steps:
        w = step.witness
        assert w.removed
        for p in step.problem.pairs.rules:
            assert lpo_af_ge(w.precedence, w.filtering, mode, p.lhs, p.rhs)
        for p in w.removed:
            assert lpo_af_gt(w.precedence, w.filtering, mode, p.lhs, p.rhs)
        for r in w.usable:
            assert lpo_af_ge(w.precedence, w.filtering, mode, r.lhs, r.rhs)
