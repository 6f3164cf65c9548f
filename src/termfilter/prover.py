"""The proof-search driver.

``prove`` starts from the initial pair problem of a system, splits it along
strongly connected components of the estimated dependency graph, and removes
strictly decreasing pairs found by one SAT call per sub-problem, iterating to
a fixpoint.  Every satisfying assignment is replayed through the filtered
order of ``orders`` (filter both sides, then compare with the plain LPO)
before it is trusted; a verdict is never based on the SAT path alone.
"""

from __future__ import annotations

import json
import math
import time
from pathlib import Path

from .cnf import tseitin_cnf, write_dimacs
from .dp import DpProblem, dependency_pairs, scc_decompose
from .encoder import OutOfTime, encode_rp_formula
from .formula import dump
from .lowering import (DecodedModel, VarMap, decode_model, lower_atoms,
                       structural_constraints)
from .orders import ArgumentFiltering, Collapse, Precedence, lpo_af_ge, lpo_af_gt
from .solver import UNKNOWN, UNSAT, solve
from .terms import Mutable, Rule, Symbol, Trs, Value
from .usable import usable_rules, usable_rules_mod_pi
from . import atoms as A


class VerificationError(RuntimeError):
    """A model came back from the solver that the order semantics rejects."""


class ProverConfig(Mutable):
    __slots__ = _fields = ("mode", "processor", "timeout", "emit_dimacs", "dump_formula")
    mode: str                       # strict | quasi
    processor: str                  # thm5 | thm12
    timeout: float | None
    emit_dimacs: str | None
    dump_formula: bool

    def __init__(self, mode: str = "strict", processor: str = "thm12",
                 timeout: float | None = None, emit_dimacs: str | None = None,
                 dump_formula: bool = False) -> None:
        self.mode = mode
        self.processor = processor
        self.timeout = timeout
        self.emit_dimacs = emit_dimacs
        self.dump_formula = dump_formula


class ReductionWitness(Value):
    __slots__ = _fields = ("mode", "processor", "precedence", "filtering", "removed", "usable")
    mode: str
    processor: str
    precedence: Precedence
    filtering: ArgumentFiltering
    removed: tuple[Rule, ...]
    usable: tuple[Rule, ...]

    def __init__(self, mode: str, processor: str, precedence: Precedence,
                 filtering: ArgumentFiltering, removed: tuple[Rule, ...],
                 usable: tuple[Rule, ...]) -> None:
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "processor", processor)
        object.__setattr__(self, "precedence", precedence)
        object.__setattr__(self, "filtering", filtering)
        object.__setattr__(self, "removed", removed)
        object.__setattr__(self, "usable", usable)


class ProofStep(Value):
    __slots__ = _fields = ("processor", "problem", "results", "witness")
    processor: str                  # "dependency_graph" | "reduction_pair"
    problem: DpProblem
    results: tuple[DpProblem, ...]
    witness: ReductionWitness | None

    def __init__(self, processor: str, problem: DpProblem, results: tuple[DpProblem, ...],
                 witness: ReductionWitness | None = None) -> None:
        object.__setattr__(self, "processor", processor)
        object.__setattr__(self, "problem", problem)
        object.__setattr__(self, "results", results)
        object.__setattr__(self, "witness", witness)


class Terminating(Value):
    __slots__ = _fields = ("steps",)
    steps: tuple[ProofStep, ...]

    def __init__(self, steps: tuple[ProofStep, ...]) -> None:
        object.__setattr__(self, "steps", steps)


class Maybe(Value):
    __slots__ = _fields = ("reason", "steps")
    reason: str
    steps: tuple[ProofStep, ...]

    def __init__(self, reason: str, steps: tuple[ProofStep, ...] = ()) -> None:
        object.__setattr__(self, "reason", reason)
        object.__setattr__(self, "steps", steps)


class Timeout(Value):
    __slots__ = _fields = ("steps",)
    steps: tuple[ProofStep, ...]

    def __init__(self, steps: tuple[ProofStep, ...] = ()) -> None:
        object.__setattr__(self, "steps", steps)


Verdict = Terminating | Maybe | Timeout


class _Session:
    """One proof search: its deadline and solver calls.  A configuration
    that no round could run (an unknown mode or processor, a NaN timeout)
    is refused here, before the first step."""

    def __init__(self, config: ProverConfig):
        if config.mode not in ("strict", "quasi"):
            raise ValueError(f"mode must be 'strict' or 'quasi', got {config.mode!r}")
        if config.processor not in ("thm5", "thm12"):
            raise ValueError(f"processor must be 'thm5' or 'thm12', got {config.processor!r}")
        if config.timeout is not None and math.isnan(config.timeout):
            raise ValueError("timeout must be a number of seconds, not NaN")
        self.deadline = None if config.timeout is None else time.monotonic() + config.timeout
        self.calls = 0

    def check(self) -> None:
        """Raise ``OutOfTime`` once the deadline has passed."""
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise OutOfTime


def reduction_pair_processor(problem: DpProblem, config: ProverConfig,
                             session: _Session | None = None) -> ProofStep | None:
    """One SAT round: encode, solve, decode, verify, and drop the strictly
    decreasing pairs.  Returns the round's proof step, or ``None`` when the
    problem has no pairs or no ordering orients it.  Past the deadline it
    raises ``OutOfTime``: an encoding that runs past it gives up, one that
    ends past it is neither lowered nor solved, a CNF whose lowering ends
    past it is not solved, and a refutation that ends past it is no answer."""
    session = session or _Session(config)
    if not problem.pairs.rules:
        return None

    enc = encode_rp_formula(problem, processor=config.processor, mode=config.mode,
                            deadline=session.deadline)
    session.check()
    vm = VarMap(enc.symbols, len(problem.pairs.rules), enc.usable_symbols)
    b = enc.context.builder
    ts = tseitin_cnf(b.and_([enc.formula] + structural_constraints(vm, b)),
                     vm.num_reserved, lower_atoms(vm, config.mode, b))

    session.calls += 1
    if config.dump_formula:
        print(f"; formula for solver call {session.calls}")
        print(dump(enc.formula, A.describe))
    if config.emit_dimacs:
        _emit(ts.cnf, vm, ts.definitions, problem, config, session.calls)

    session.check()
    result = solve(ts.cnf, deadline=session.deadline)
    if result.status == UNKNOWN:
        raise OutOfTime
    if result.status == UNSAT:
        # a refutation that arrives after the deadline is not a verdict in time
        session.check()
        return None

    witness = _verify(problem, config, decode_model(result.model, vm))
    removed = set(witness.removed)
    keep = Trs.of([p for p in problem.pairs.rules if p not in removed])
    return ProofStep("reduction_pair", problem, (DpProblem(keep, problem.rules),), witness)


def _verify(problem: DpProblem, config: ProverConfig,
            decoded: DecodedModel) -> ReductionWitness:
    """Replay the model through the filtered order, with the usable rules
    worked out from the problem and the decoded filtering, not the encoder.

    The witness removes every pair that the decoded precedence and filtering
    orient strictly, whether or not its marker is set.  The model is
    rejected when it marks no pair, when a marked pair is not strictly
    decreasing, or when a pair or a usable rule is not weakly decreasing."""
    prec, pi = decoded.precedence, decoded.filtering
    mode = config.mode
    if config.processor == "thm5":
        obligations = usable_rules(problem.pairs, problem.rules)
    else:
        obligations = usable_rules_mod_pi(problem.pairs, problem.rules, pi)
    if not decoded.strict_pairs:
        raise VerificationError("model removes no pair")
    marked = set(decoded.strict_pairs)
    removed = []
    for i, p in enumerate(problem.pairs.rules):
        # a strict decrease is also a weak one, so a strict pair needs one check
        if lpo_af_gt(prec, pi, mode, p.lhs, p.rhs):
            removed.append(p)
        elif i in marked:
            raise VerificationError(f"pair marked strict but not strictly decreasing: {p}")
        elif not lpo_af_ge(prec, pi, mode, p.lhs, p.rhs):
            raise VerificationError(f"pair not weakly decreasing: {p}")
    for rule in obligations:
        if not lpo_af_ge(prec, pi, mode, rule.lhs, rule.rhs):
            raise VerificationError(f"usable rule not weakly decreasing: {rule}")
    return ReductionWitness(mode, config.processor, prec, pi, tuple(removed), obligations)


def _emit(cnf, vm: VarMap, definitions: dict[int, str], problem: DpProblem,
          config: ProverConfig, call: int) -> None:
    directory = Path(config.emit_dimacs)
    directory.mkdir(parents=True, exist_ok=True)
    stem = f"problem{call:03d}"
    (directory / f"{stem}.cnf").write_text(write_dimacs(cnf))
    manifest = {
        "processor": config.processor,
        "pairs": [str(p) for p in problem.pairs.rules],
        "variables": {str(v): desc for v, desc in sorted(vm.descriptions.items())},
        "definitions": {str(v): desc for v, desc in sorted(definitions.items())},
    }
    (directory / f"{stem}.vars.json").write_text(json.dumps(manifest, indent=2))


def prove(trs: Trs, config: ProverConfig | None = None) -> Verdict:
    """Full proof search; Terminating only when every leaf problem has no
    pairs left."""
    config = config or ProverConfig()
    session = _Session(config)
    steps: list[ProofStep] = []
    queue: list[DpProblem] = [DpProblem(dependency_pairs(trs), trs)]
    arcs: dict = {}                 # every problem of the proof has the rules of trs
    try:
        while queue:
            session.check()
            problem = queue.pop(0)
            if not problem.pairs.rules:
                continue
            subs = scc_decompose(problem, arcs)
            steps.append(ProofStep("dependency_graph", problem, tuple(subs)))
            for sub in subs:
                session.check()
                step = reduction_pair_processor(sub, config, session)
                if step is None:
                    roots = ", ".join(sorted({p.root.display for p in sub.pairs.rules}))
                    return Maybe(f"no ordering orients the {len(sub.pairs.rules)}-pair "
                                 f"component rooted at {roots}", tuple(steps))
                steps.append(step)
                queue.append(step.results[0])
    except OutOfTime:
        return Timeout(tuple(steps))
    return Terminating(tuple(steps))


def _format_precedence(prec: Precedence, symbols: tuple[Symbol, ...], mode: str) -> str:
    # symbols of one rank are equivalent in a quasi precedence, but
    # incomparable in a strict one
    same_rank = " ~ " if mode == "quasi" else ", "
    groups: dict[int, list[str]] = {}
    for f in symbols:
        groups.setdefault(prec.rank(f), []).append(f.display)
    chains = []
    for rank in sorted(groups, reverse=True):
        chains.append(same_rank.join(sorted(groups[rank])))
    return " > ".join(chains)


def _format_filtering(pi: ArgumentFiltering) -> str:
    parts = []
    for f, spec in pi.items():
        if isinstance(spec, Collapse):
            parts.append(f"pi({f.display}) = {spec.position}")
        else:
            parts.append(f"pi({f.display}) = [{','.join(map(str, spec.positions))}]")
    return "; ".join(parts)


def render_proof(verdict: Verdict) -> str:
    lines: list[str] = []
    for step in verdict.steps:
        if step.processor == "dependency_graph":
            kept = sum(len(r.pairs.rules) for r in step.results)
            total = len(step.problem.pairs.rules)
            lines.append(f"dependency graph: {total} pairs -> "
                         f"{len(step.results)} component(s), {total - kept} pair(s) dropped")
            for i, sub in enumerate(step.results, 1):
                for p in sub.pairs.rules:
                    lines.append(f"  component {i}: {p}")
        else:
            w = step.witness
            assert w is not None
            symbols = tuple(f for f, _ in w.filtering.items())  # those the round met
            lines.append(f"reduction pair ({w.processor}, "
                         f"{'qlpo' if w.mode == 'quasi' else 'lpo'}): removed "
                         f"{len(w.removed)} of {len(step.problem.pairs.rules)} pair(s)")
            lines.append(f"  precedence: {_format_precedence(w.precedence, symbols, w.mode)}")
            lines.append(f"  filtering:  {_format_filtering(w.filtering)}")
            lines += [f"  removed: {p}" for p in w.removed]
            lines += [f"  usable rule: {r}" for r in w.usable] or ["  usable rules: none"]
    if isinstance(verdict, Terminating):
        lines.append("TERMINATING")
    elif isinstance(verdict, Maybe):
        lines.append(f"MAYBE ({verdict.reason})")
    else:
        lines.append("TIMEOUT")
    return "\n".join(lines)
