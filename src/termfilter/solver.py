"""SAT solving: an internal CDCL solver and a DIMACS subprocess bridge.

The internal solver is a conflict-driven clause learner with two watched
literals per clause, first-UIP learning, activity-based decisions, phase
saving (all variables start false), and Luby restarts.  It is deterministic:
identical input yields the identical model.
"""

from __future__ import annotations

import heapq
import shlex
import subprocess
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from .cnf import Cnf, write_dimacs

SAT = "sat"
UNSAT = "unsat"
UNKNOWN = "unknown"


@dataclass
class SolveResult:
    status: str
    model: dict[int, bool] | None = None


class ExternalSolverError(RuntimeError):
    """The external solver crashed or produced unparseable output."""


def _luby(i: int) -> int:
    """The i-th element (i >= 1) of the 1,1,2,1,1,2,4,... restart sequence."""
    k = i.bit_length()
    if i + 1 == 1 << k:
        return 1 << (k - 1)
    return _luby(i - (1 << (k - 1)) + 1)


class _Cdcl:
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


def solve_internal(cnf: Cnf, deadline: float | None = None) -> SolveResult:
    """Complete search; UNKNOWN only when the deadline expires."""
    return _Cdcl(cnf, deadline).solve()


def solve_external(cnf: Cnf, command: str, timeout: float | None = None) -> SolveResult:
    """Run a DIMACS solver as a subprocess and parse its s/v output lines."""
    with tempfile.NamedTemporaryFile("w", suffix=".cnf", delete=False) as handle:
        handle.write(write_dimacs(cnf))
        path = handle.name
    try:
        argv = shlex.split(command) + [path]
        try:
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            return SolveResult(UNKNOWN)
        except OSError as exc:
            raise ExternalSolverError(f"cannot run {command!r}: {exc}") from exc
        status: str | None = None
        positives: set[int] = set()
        mentioned: set[int] = set()
        for line in proc.stdout.splitlines():
            line = line.strip()
            if line.startswith("s "):
                token = line[2:].strip()
                if token == "SATISFIABLE":
                    status = SAT
                elif token == "UNSATISFIABLE":
                    status = UNSAT
                elif token == "UNKNOWN":
                    status = UNKNOWN
                else:
                    raise ExternalSolverError(f"unrecognised status line {line!r}")
            elif line.startswith("v "):
                for tok in line[2:].split():
                    lit = int(tok)
                    if lit == 0:
                        continue
                    mentioned.add(abs(lit))
                    if lit > 0:
                        positives.add(lit)
        if status is None:
            raise ExternalSolverError(
                f"no status line from {command!r} "
                f"(exit {proc.returncode}, stderr: {proc.stderr.strip()[:200]!r})")
        if status != SAT:
            return SolveResult(status)
        if not mentioned:
            raise ExternalSolverError(f"satisfiable but no model lines from {command!r}")
        model = {v: v in positives for v in range(1, cnf.num_vars + 1)}
        return SolveResult(SAT, model)
    finally:
        Path(path).unlink(missing_ok=True)


def solve(cnf: Cnf, backend: str = "internal", *, deadline: float | None = None) -> SolveResult:
    """Dispatch to the internal solver or ``external:<command>``."""
    if backend == "internal":
        return solve_internal(cnf, deadline)
    if backend.startswith("external:"):
        command = backend[len("external:"):]
        if not command.strip():
            raise ValueError("external solver backend needs a command")
        timeout = None
        if deadline is not None:
            timeout = max(0.01, deadline - time.monotonic())
        return solve_external(cnf, command, timeout)
    raise ValueError(f"unknown solver backend {backend!r}")
