"""Per-layer spans for the traced benchmark run.

``Tracer.install`` replaces the names ``termfilter.prover`` imported from
the other modules, plus ``termfilter.usable.omega`` (which the encoder looks
up at call time), by wrappers that time each call and pass its result
through unchanged.  Sizes are read off the returned objects with
``formula.dag_size`` outside the timed span, so they cost wall time but not
layer time.  Spans nest: a layer's time includes its children (``omega``
runs inside ``encode_rp_formula``); ``prover.self_ms`` is the part of
``prove`` that no wrapped call covers.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self) -> None:
        self.ms: dict[str, float] = defaultdict(float)       # inclusive, per span name
        self.self_ms: dict[str, float] = defaultdict(float)  # minus child spans
        self.counts: dict[str, float] = defaultdict(float)
        self._children: list[float] = []

    @contextmanager
    def span(self, name: str):
        self._children.append(0.0)
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = (time.perf_counter() - start) * 1000.0
            children = self._children.pop()
            self.ms[name] += elapsed
            self.self_ms[name] += elapsed - children
            if self._children:
                self._children[-1] += elapsed

    def _wrap(self, name: str, fn, after=None):
        def wrapper(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            if after is not None:
                after(out, *args, **kwargs)
            return out
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Wrap the layer entry points of the imported ``termfilter``;
        returns a function that puts the originals back."""
        from termfilter import prover, usable
        from termfilter.formula import dag_size
        from termfilter.solver import SAT, UNKNOWN, UNSAT

        c = self.counts

        def pairs_done(out, trs):
            c["dp.pairs"] += len(out.rules)

        def scc_done(out, problem, *_):
            c["dp.components"] += len(out)
            c["dp.scc_in"] += len(problem.pairs.rules)
            c["dp.scc_out"] += sum(len(p.pairs.rules) for p in out)

        def encoded(out, problem, *_, **__):
            c["encoder.calls"] += 1
            c["encoder.dag_nodes"] += dag_size(out.formula)
            c["prover.round_pairs"] += len(problem.pairs.rules)

        def varmap_done(out, *_, **__):
            c["lowering.reserved_vars"] += out.num_reserved

        def tseitin_done(out, phi, *_):
            c["lowering.dag_nodes"] += dag_size(phi)
            c["cnf.vars"] += out.cnf.num_vars
            c["cnf.clauses"] += len(out.cnf.clauses)
            c["cnf.literals"] += sum(len(cl) for cl in out.cnf.clauses)

        status_name = {SAT: "sat", UNSAT: "unsat", UNKNOWN: "unknown"}

        def decoded(out, *_):
            c["prover.strict_pairs"] += len(out.strict_pairs)

        def checked(out, *_):
            c["orders.checks"] += 1

        base_solve = prover.solve

        def solve(*args, **kwargs):
            # one span, its time filed under the answer it produced
            start = time.perf_counter()
            with self.span("solver.solve"):
                out = base_solve(*args, **kwargs)
            status = status_name[out.status]
            self.ms[f"solver.{status}"] += (time.perf_counter() - start) * 1000.0
            c[f"solver.{status}_calls"] += 1
            return out
        solve.__wrapped__ = base_solve

        replacements = {
            (prover, "dependency_pairs"): self._wrap("dp.pairs", prover.dependency_pairs, pairs_done),
            (prover, "scc_decompose"): self._wrap("dp.scc", prover.scc_decompose, scc_done),
            (prover, "encode_rp_formula"): self._wrap("encoder.encode", prover.encode_rp_formula, encoded),
            (usable, "omega"): self._wrap("usable.omega", usable.omega),
            (prover, "usable_rules_mod_pi"): self._wrap("usable.mod_pi", prover.usable_rules_mod_pi),
            (prover, "VarMap"): self._wrap("lowering.varmap", prover.VarMap, varmap_done),
            (prover, "lower_atoms"): self._wrap("lowering.lower", prover.lower_atoms),
            (prover, "decode_model"): self._wrap("lowering.decode", prover.decode_model, decoded),
            (prover, "tseitin_cnf"): self._wrap("cnf.tseitin", prover.tseitin_cnf, tseitin_done),
            (prover, "solve"): solve,
            (prover, "lpo_af_ge"): self._wrap("orders.verify", prover.lpo_af_ge, checked),
            (prover, "lpo_af_gt"): self._wrap("orders.verify", prover.lpo_af_gt, checked),
        }
        originals = {key: getattr(*key) for key in replacements}
        for (module, name), fn in replacements.items():
            setattr(module, name, fn)

        def restore() -> None:
            for (module, name), fn in originals.items():
                setattr(module, name, fn)
        return restore

    def metrics(self, passes: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, summed per pass, with their units."""
        ms, c = self.ms, self.counts
        per = 1.0 / passes

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        return {
            "tpdb.parse_ms": (ms["tpdb.parse"] * per, "ms"),
            "dp.pairs_ms": (ms["dp.pairs"] * per, "ms"),
            "dp.scc_ms": (ms["dp.scc"] * per, "ms"),
            "dp.pairs": (c["dp.pairs"] * per, "count"),
            "dp.components": (c["dp.components"] * per, "count"),
            "dp.graph_drop_ratio": (ratio(c["dp.scc_in"] - c["dp.scc_out"], c["dp.scc_in"]), "ratio"),
            "encoder.encode_ms": (ms["encoder.encode"] * per, "ms"),
            "encoder.calls": (c["encoder.calls"] * per, "count"),
            "encoder.dag_nodes": (c["encoder.dag_nodes"] * per, "count"),
            "encoder.us_per_node": (ratio(ms["encoder.encode"] * 1000.0, c["encoder.dag_nodes"]), "us"),
            "usable.omega_ms": (ms["usable.omega"] * per, "ms"),
            "usable.mod_pi_ms": (ms["usable.mod_pi"] * per, "ms"),
            "lowering.varmap_ms": (ms["lowering.varmap"] * per, "ms"),
            "lowering.lower_ms": (ms["lowering.lower"] * per, "ms"),
            "lowering.decode_ms": (ms["lowering.decode"] * per, "ms"),
            "lowering.reserved_vars": (c["lowering.reserved_vars"] * per, "count"),
            "lowering.dag_nodes": (c["lowering.dag_nodes"] * per, "count"),
            "cnf.tseitin_ms": (ms["cnf.tseitin"] * per, "ms"),
            "cnf.vars": (c["cnf.vars"] * per, "count"),
            "cnf.clauses": (c["cnf.clauses"] * per, "count"),
            "cnf.literals": (c["cnf.literals"] * per, "count"),
            "solver.solve_ms": (ms["solver.solve"] * per, "ms"),
            "solver.sat_ms": (ms["solver.sat"] * per, "ms"),
            "solver.unsat_ms": (ms["solver.unsat"] * per, "ms"),
            "solver.sat_calls": (c["solver.sat_calls"] * per, "count"),
            "solver.unsat_calls": (c["solver.unsat_calls"] * per, "count"),
            "solver.unknown_calls": (c["solver.unknown_calls"] * per, "count"),
            "orders.verify_ms": (ms["orders.verify"] * per, "ms"),
            "orders.checks": (c["orders.checks"] * per, "count"),
            "prover.self_ms": (self.self_ms["prover.prove"] * per, "ms"),
            "prover.rounds": (c["encoder.calls"] * per, "count"),
            "prover.strict_ratio": (ratio(c["prover.strict_pairs"], c["prover.round_pairs"]), "ratio"),
        }
