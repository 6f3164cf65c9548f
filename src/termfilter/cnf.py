"""CNF conversion and DIMACS reading/writing."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from .formula import ATOM, AND, FALSE, IFF, IMPLIES, NOT, OR, TRUE, Formula


@dataclass(frozen=True)
class Cnf:
    num_vars: int
    clauses: tuple[tuple[int, ...], ...]

    def validate(self) -> None:
        for clause in self.clauses:
            lits = set(clause)
            for lit in clause:
                if lit == 0 or abs(lit) > self.num_vars:
                    raise ValueError(f"literal {lit} out of range")
                if -lit in lits:
                    raise ValueError(f"clause {clause} contains {lit} and {-lit}")


@dataclass
class TseitinResult:
    cnf: Cnf
    definitions: dict[int, str] = field(default_factory=dict)


def tseitin_cnf(phi: Formula, num_reserved: int,
                lower: Callable[[Any], Formula]) -> TseitinResult:
    """Equisatisfiable clause form.

    Every connective node of the DAG gets one definition variable and is
    encoded once regardless of how often it is referenced; negations reuse
    the child's literal; a conjunctive root is asserted child by child
    instead of through a definition.  An atom whose payload is an ``int`` is
    that variable.  Any other atom is translated by ``lower`` into a formula
    over variables the first time the walk reaches its node, once per node,
    and stands for that formula.  Any model of the result restricted to the
    original variables satisfies the input with its atoms so translated.
    """
    clauses: list[tuple[int, ...]] = []
    defs: dict[int, str] = {}
    counter = [num_reserved]
    # keyed by node, so a translation cannot alias a node of ``phi``
    lits: dict[Formula, int] = {}
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

    def emit(cl: tuple[int, ...]) -> None:
        seen = set()
        out = []
        for lit in cl:
            if -lit in seen:
                return  # tautological clause
            if lit not in seen:
                seen.add(lit)
                out.append(lit)
        clauses.append(tuple(out))

    def lit(n: Formula) -> int:
        hit = lits.get(n)
        if hit is not None:
            return hit
        k = n.kind
        if k == TRUE:
            out = true_lit()
        elif k == FALSE:
            out = -true_lit()
        elif k == ATOM:
            payload = n.payload
            out = payload if isinstance(payload, int) else lit(lower(payload))
        elif k == NOT:
            out = -lit(n.children[0])
        else:
            cs = [lit(c) for c in n.children]
            v = fresh(f"def({k})")
            if k == AND:
                for c in cs:
                    emit((-v, c))
                emit(tuple([v] + [-c for c in cs]))
            elif k == OR:
                for c in cs:
                    emit((v, -c))
                emit(tuple([-v] + cs))
            elif k == IMPLIES:
                a, b = cs
                emit((v, a))
                emit((v, -b))
                emit((-v, -a, b))
            elif k == IFF:
                a, b = cs
                emit((-v, -a, b))
                emit((-v, a, -b))
                emit((v, a, b))
                emit((v, -a, -b))
            else:
                raise ValueError(f"unknown node kind {k!r}")
            out = v
        lits[n] = out
        return out

    def is_literal(n: Formula) -> bool:
        return n.kind == ATOM or (n.kind == NOT and n.children[0].kind == ATOM)

    def assert_node(n: Formula) -> None:
        if n.kind == TRUE:
            return
        if n.kind == FALSE:
            clauses.append(())
            return
        if n.kind == AND:
            for c in n.children:
                assert_node(c)
            return
        if n.kind == OR and all(is_literal(c) for c in n.children):
            emit(tuple(lit(c) for c in n.children))
            return
        emit((lit(n),))

    assert_node(phi)
    return TseitinResult(Cnf(counter[0], tuple(clauses)), defs)


def write_dimacs(cnf: Cnf, comments: tuple[str, ...] = ()) -> str:
    lines = [f"c {c}" for c in comments]
    lines.append(f"p cnf {cnf.num_vars} {len(cnf.clauses)}")
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
