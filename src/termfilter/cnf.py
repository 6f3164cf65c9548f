"""Clause sets in normal form, CNF conversion and DIMACS reading/writing.

``Cnf`` is the one place where clause normal form is decided: whatever
builds a clause set (Tseitin, ``parse_dimacs``, a test) hands over clauses
as they come, and whatever reads one (the internal solver, ``write_dimacs``,
an external solver) takes them as they are.

``tseitin_cnf`` is polarity-aware: it defines each node only in the
directions the formula uses it in, so a node that occurs only positively
(or only negatively) costs about half the clauses of a full equivalence.
Its definition variables therefore bound their nodes rather than equal
them, and only the original variables of a model carry meaning.  The
formulas have no implication node (``FormulaBuilder.implies`` builds a
disjunction), so an asserted implication, like any asserted disjunction,
is one clause.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from .formula import ATOM, AND, FALSE, IFF, NOT, OR, TRUE, Formula


@dataclass(frozen=True)
class Cnf:
    """A clause set in normal form: no clause repeats a literal or holds a
    literal and its complement.

    The constructor drops repeated literals, keeping first occurrences in
    order, and then drops every clause that is still tautological; a clause
    over distinct variables is kept as the same object.  Every consumer
    relies on this and checks no clause again.
    """

    num_vars: int
    clauses: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        normal = []
        for clause in self.clauses:
            n = len(clause)
            if n == 2:
                # most clauses are binary: two comparisons decide them
                a, b = clause
                if a == b:
                    clause = (a,)
                elif a == -b:
                    continue  # tautological clause
            elif n > 2 and len(set(map(abs, clause))) != n:
                clause = tuple(dict.fromkeys(clause))
                if len(set(map(abs, clause))) != len(clause):
                    continue  # tautological clause
            normal.append(clause)
        object.__setattr__(self, "clauses", tuple(normal))


# a polarity mask with its two directions exchanged
_SWAP = (0, 2, 1, 3)


@dataclass
class TseitinResult:
    cnf: Cnf
    definitions: dict[int, str] = field(default_factory=dict)


def tseitin_cnf(phi: Formula, num_reserved: int,
                lower: Callable[[Any], Formula]) -> TseitinResult:
    """Equisatisfiable clause form with one-sided definitions.

    The root is asserted without a definition: a conjunction child by
    child, a disjunction as one clause over its children's literals, and
    any other node as a unit clause of its literal.  Below that, every
    ``and``, ``or`` and ``iff`` node gets one definition variable ``v`` and
    is encoded once regardless of how often it is referenced; negations
    reuse the child's literal.  An atom whose payload is an ``int`` is
    that variable.  Any other atom is translated by ``lower`` into a formula
    over variables the first time the walk reaches its node, once per node,
    and stands for that formula.

    A definition is emitted only in the directions its node is used in
    (Plaisted & Greenbaum 1986): direction 1 is ``v -> node``, needed where
    the node occurs positively, and direction 2 is ``node -> v``, needed
    where it occurs negatively.  The walk carries this polarity mask down:
    ``and`` and ``or`` pass it to their children, ``not`` swaps it, the
    children of ``iff`` get both directions, and a translated atom passes
    its own mask to its translation.  A node reached again under a direction
    not yet emitted gets just that direction, so each direction of each
    definition is emitted at most once.  The result is satisfiable exactly
    when the input is, and any model of it restricted to the original
    variables satisfies the input with its atoms so translated; a definition
    variable need not equal its node's value.  Clauses are kept as built;
    ``Cnf`` puts them in normal form.
    """
    clauses: list[tuple[int, ...]] = []
    defs: dict[int, str] = {}
    counter = [num_reserved]
    # keyed by node, so a translation cannot alias a node of ``phi``
    lits: dict[Formula, int] = {}
    emitted: dict[Formula, int] = {}    # the directions done, as a mask
    lowered: dict[Formula, Formula] = {}
    const_lit: list[int] = []

    def fresh(desc: str) -> int:
        counter[0] += 1
        defs[counter[0]] = desc
        return counter[0]

    def true_lit() -> int:
        if not const_lit:
            v = fresh("constant-true")
            const_lit.append(v)
            clauses.append((v,))
        return const_lit[0]

    def lit(n: Formula, pol: int) -> int:
        done = emitted.get(n, 0)
        new = pol & ~done
        if not new:
            return lits[n]
        k = n.kind
        if k == TRUE:
            out, new = true_lit(), 3
        elif k == FALSE:
            out, new = -true_lit(), 3
        elif k == ATOM:
            payload = n.payload
            if isinstance(payload, int):
                out, new = payload, 3
            else:
                low = lowered.get(n)
                if low is None:
                    low = lowered[n] = lower(payload)
                out = lit(low, new)
        elif k == NOT:
            out = -lit(n.children[0], _SWAP[new])
        else:
            sub = 3 if k == IFF else new
            cs = [lit(c, sub) for c in n.children]
            v = lits.get(n) or fresh(f"def({k})")
            if k == AND:
                if new & 1:
                    for c in cs:
                        clauses.append((-v, c))
                if new & 2:
                    clauses.append(tuple([v] + [-c for c in cs]))
            elif k == OR:
                if new & 2:
                    for c in cs:
                        clauses.append((v, -c))
                if new & 1:
                    clauses.append(tuple([-v] + cs))
            elif k == IFF:
                a, b = cs
                if new & 1:
                    clauses.append((-v, -a, b))
                    clauses.append((-v, a, -b))
                if new & 2:
                    clauses.append((v, a, b))
                    clauses.append((v, -a, -b))
            else:
                raise ValueError(f"unknown node kind {k!r}")
            out = v
        lits[n] = out
        emitted[n] = done | new
        return out

    def assert_node(n: Formula) -> None:
        if n.kind == TRUE:
            return
        if n.kind == FALSE:
            clauses.append(())
        elif n.kind == AND:
            for c in n.children:
                assert_node(c)
        elif n.kind == OR:
            clauses.append(tuple([lit(c, 1) for c in n.children]))
        else:
            clauses.append((lit(n, 1),))

    assert_node(phi)
    return TseitinResult(Cnf(counter[0], tuple(clauses)), defs)


def write_dimacs(cnf: Cnf) -> str:
    lines = [f"p cnf {cnf.num_vars} {len(cnf.clauses)}"]
    for clause in cnf.clauses:
        lines.append(" ".join(str(lit) for lit in clause) + " 0")
    return "\n".join(lines) + "\n"


def parse_dimacs(text: str) -> Cnf:
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
