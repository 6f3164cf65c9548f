"""SAT solving: the one CDCL solver that every pair problem's SAT call runs.

It is a conflict-driven clause learner with two watched literals per
clause, first-UIP learning, activity-based decisions, phase saving (all
variables start false), and Luby restarts.  It is deterministic: identical
input yields the identical model.

The layout follows MiniSat (Een & Sorensson 2003).  Values and watch lists
are lists indexed by the literal itself, negative literals wrapping into the
upper half; watch lists and reasons hold the clause lists themselves; the
propagation loop compacts each watch list in place.  The decision heap holds
no duplicate entry per activity: only assigned variables are bumped, and a
variable goes back on the heap when it is unassigned with a changed
activity.

The work per conflict lives in three loops with no helper call per
literal: ``_propagate`` searches a clause for its new watch with a plain
index loop; ``_analyze`` bumps each activity where it meets the variable
and picks the backjump literal as it collects the learnt clause; ``solve``
enqueues each decision and each learnt clause itself.
Every decision, conflict, learnt clause (its literal order included),
restart and model is still the same as those of the plain variable-indexed
solver that the tests keep as their reference.

Clauses come in normal form from ``cnf.Cnf``; intake copies each into a
list, watches its first two literals or enqueues it as a unit, and checks
nothing.
"""

from __future__ import annotations

import heapq
import time
from .cnf import Cnf
from .terms import Mutable

SAT = "sat"
UNSAT = "unsat"
UNKNOWN = "unknown"

DEADLINE_PROPAGATIONS = 4096
"""A solver with a deadline also looks at the clock at the first decision
past each this many propagations, not only every 64 conflicts."""


class SolveResult(Mutable):
    __slots__ = _fields = ("status", "model")
    status: str
    model: dict[int, bool] | None

    def __init__(self, status: str, model: dict[int, bool] | None = None) -> None:
        self.status = status
        self.model = model


def _luby(i: int) -> int:
    """The i-th element (i >= 1) of the 1,1,2,1,1,2,4,... restart sequence."""
    k = i.bit_length()
    if i + 1 == 1 << k:
        return 1 << (k - 1)
    return _luby(i - (1 << (k - 1)) + 1)


class _Cdcl:
    def __init__(self, cnf: Cnf, deadline: float | None):
        n = self.n = cnf.num_vars
        self.deadline = deadline
        # indexed by literal: -v wraps to index 2n+1-v
        self.val = [0] * (2 * n + 1)    # 0 unset, 1 true, -1 false
        self.watches: list[list[list[int]]] = [[] for _ in range(2 * n + 1)]
        self.level = [0] * (n + 1)
        self.reason: list[list[int] | None] = [None] * (n + 1)  # None for decisions
        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        self.qhead = 0
        self.seen = [False] * (n + 1)
        self.activity = [0.0] * (n + 1)
        self.var_inc = 1.0
        self.phase = [-v for v in range(n + 1)]   # literal to decide next
        # queued[v] is the activity of v's newest heap entry, or -1.0 once that
        # entry is popped; older entries of v hold lower activities.
        self.queued = [0.0] * (n + 1)
        self.heap: list[tuple[float, int]] = [(0.0, v) for v in range(1, n + 1)]
        self.conflicts = 0
        self.decisions = 0
        self.propagations = 0
        self.ok = True
        watches = self.watches
        for clause in cnf.clauses:
            if len(clause) > 1:
                out = list(clause)      # propagation swaps its literals
                watches[out[0]].append(out)
                watches[out[1]].append(out)
            elif not clause or not self._enqueue(clause[0], None):
                self.ok = False
                return

    def _enqueue(self, lit: int, reason: list[int] | None) -> bool:
        """Make lit true; False if it is already false."""
        val = self.val[lit]
        if val:
            return val == 1
        self.val[lit] = 1
        self.val[-lit] = -1
        v = abs(lit)
        self.level[v] = len(self.trail_lim)
        self.reason[v] = reason
        self.trail.append(lit)
        return True

    def _propagate(self) -> list[int] | None:
        """Exhaust unit propagation; return a conflicting clause or None.

        The watched literals are clause[0] and clause[1].  A clause that
        leaves the watch list of false_lit goes to the end of its new
        literal's list; the others keep their order.
        """
        trail = self.trail
        val = self.val
        watches = self.watches
        level = self.level
        reason = self.reason
        depth = len(self.trail_lim)
        start = len(trail)
        qhead = self.qhead
        while qhead < len(trail):
            false_lit = -trail[qhead]
            qhead += 1
            ws = watches[false_lit]
            if not ws:
                continue
            i = j = 0               # ws[:j] keeps the clauses still watched
            for clause in ws:
                i += 1
                first = clause[0]
                if first == false_lit:
                    first = clause[1]
                    clause[0] = first
                    clause[1] = false_lit
                first_val = val[first]
                if first_val == 1:
                    ws[j] = clause
                    j += 1
                    continue
                k = 2
                size = len(clause)
                while k < size:
                    lit = clause[k]
                    if val[lit] != -1:
                        clause[1] = lit
                        clause[k] = false_lit
                        watches[lit].append(clause)
                        break
                    k += 1
                else:
                    ws[j] = clause
                    j += 1
                    if first_val:
                        del ws[j:i]     # the unvisited ws[i:] stay watched
                        self.qhead = qhead
                        self.propagations += len(trail) - start
                        return clause
                    val[first] = 1
                    val[-first] = -1
                    v = first if first > 0 else -first
                    level[v] = depth
                    reason[v] = clause
                    trail.append(first)
            del ws[j:]
        self.qhead = qhead
        self.propagations += len(trail) - start
        return None

    def _rescale(self) -> None:
        activity = self.activity
        for u in range(1, self.n + 1):
            activity[u] *= 1e-100
        self.var_inc *= 1e-100
        # every heap key is now out of date: rebuild from current activities
        val = self.val
        self.queued = queued = [-1.0] * (self.n + 1)
        self.heap = [(-activity[u], u) for u in range(1, self.n + 1) if not val[u]]
        for _, u in self.heap:
            queued[u] = activity[u]
        heapq.heapify(self.heap)

    def _analyze(self, confl: list[int]) -> tuple[list[int], int]:
        """The first-UIP clause of confl, asserting literal first and a
        literal of the backjump level second, and that level.

        Each variable of a resolved clause is bumped when it is first seen;
        a bump past 1e100 rescales there, and later bumps add the rescaled
        increment.  learnt[1] is the first literal of the highest level
        among learnt[1:], as ``max`` would pick it.
        """
        level = self.level
        reason = self.reason
        trail = self.trail
        seen = self.seen
        activity = self.activity
        var_inc = self.var_inc
        learnt: list[int] = [0]
        counter = 0
        back = 0                # the highest level in learnt[1:] ...
        back_i = 1              # ... and where it first occurs
        p = 0
        idx = len(trail) - 1
        current = len(self.trail_lim)
        clause = confl
        while True:
            for q in clause:
                if q == p:
                    continue
                v = q if q > 0 else -q
                if seen[v]:
                    continue
                lv = level[v]
                if lv:
                    seen[v] = True
                    # v is assigned (it is on the trail), so it needs no heap
                    # entry until _backtrack unassigns it
                    a = activity[v] = activity[v] + var_inc
                    if a > 1e100:
                        self._rescale()
                        var_inc = self.var_inc
                    if lv == current:
                        counter += 1
                    else:
                        if lv > back:
                            back = lv
                            back_i = len(learnt)
                        learnt.append(q)
            while True:
                p = trail[idx]
                idx -= 1
                v = p if p > 0 else -p
                if seen[v]:
                    break
            seen[v] = False
            counter -= 1
            if counter == 0:
                break
            clause = reason[v]
        learnt[0] = -p
        for q in learnt:
            seen[q if q > 0 else -q] = False
        if back:
            learnt[1], learnt[back_i] = learnt[back_i], learnt[1]
        return learnt, back

    def _backtrack(self, level: int) -> None:
        if len(self.trail_lim) <= level:
            return
        bound = self.trail_lim[level]
        val = self.val
        phase = self.phase
        activity = self.activity
        queued = self.queued
        heap = self.heap
        for lit in self.trail[bound:]:
            val[lit] = 0
            val[-lit] = 0
            v = lit if lit > 0 else -lit
            phase[v] = lit
            # an unchanged activity means v's entry is still on the heap
            if activity[v] != queued[v]:
                queued[v] = activity[v]
                heapq.heappush(heap, (-activity[v], v))
        del self.trail[bound:]
        del self.trail_lim[level:]
        self.qhead = min(self.qhead, bound)

    def _decide(self) -> int:
        """The unassigned variable of highest activity, ties to the lowest
        index; 0 when every variable is assigned.

        Every unassigned variable has an entry keyed by its current activity:
        all start on the heap, only assigned variables are bumped, and
        _backtrack pushes each one it unassigns whose activity changed.
        """
        heap = self.heap
        val = self.val
        queued = self.queued
        while heap:
            key, v = heapq.heappop(heap)
            if key == -queued[v]:
                queued[v] = -1.0
                if not val[v]:
                    return v
        return 0

    def solve(self) -> SolveResult:
        if not self.ok:
            return SolveResult(UNSAT)
        val = self.val
        level = self.level
        reason = self.reason
        trail = self.trail
        trail_lim = self.trail_lim
        watches = self.watches
        phase = self.phase
        deadline = self.deadline
        propagate = self._propagate
        analyze = self._analyze
        backtrack = self._backtrack
        decide = self._decide
        clock_at = DEADLINE_PROPAGATIONS    # propagations at the next decision-path read
        restart = 0
        while True:
            restart += 1
            budget = 64 * _luby(restart)
            conflicts = 0
            while True:
                confl = propagate()
                if confl is not None:
                    conflicts += 1
                    self.conflicts += 1
                    if self.conflicts % 64 == 0 and deadline is not None \
                            and time.monotonic() > deadline:
                        return SolveResult(UNKNOWN)
                    if not trail_lim:
                        return SolveResult(UNSAT)
                    learnt, back = analyze(confl)
                    backtrack(back)
                    # learnt[0] was assigned at the conflict level, so it is
                    # unassigned now; the backjump leaves back decisions
                    lit = learnt[0]
                    val[lit] = 1
                    val[-lit] = -1
                    v = lit if lit > 0 else -lit
                    level[v] = back
                    if back:
                        watches[lit].append(learnt)
                        watches[learnt[1]].append(learnt)
                        reason[v] = learnt
                    else:
                        reason[v] = None
                    trail.append(lit)
                    self.var_inc /= 0.95
                    if conflicts >= budget:
                        backtrack(0)
                        break
                    continue
                v = decide()
                if v == 0:
                    model = {u: val[u] > 0 for u in range(1, self.n + 1)}
                    return SolveResult(SAT, model)
                if deadline is not None and self.propagations >= clock_at:
                    if time.monotonic() > deadline:
                        return SolveResult(UNKNOWN)
                    clock_at = self.propagations + DEADLINE_PROPAGATIONS
                self.decisions += 1
                trail_lim.append(len(trail))
                lit = phase[v]
                val[lit] = 1
                val[-lit] = -1
                level[v] = len(trail_lim)
                reason[v] = None
                trail.append(lit)


def solve(cnf: Cnf, *, deadline: float | None = None) -> SolveResult:
    """Complete search; UNKNOWN only when the deadline expires."""
    return _Cdcl(cnf, deadline).solve()
