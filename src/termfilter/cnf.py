"""Clause sets in normal form, CNF conversion and DIMACS writing.

``Cnf`` is the one place where clause normal form is decided: whatever
builds a clause set (Tseitin, a test) hands over clauses as they come, and
whatever reads one (the solver, ``write_dimacs``) takes them as they are.
``tseitin_cnf`` converts a formula DAG polarity-aware (Plaisted & Greenbaum
1986); its docstring says which nodes get a definition and how it is written.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from .formula import ATOM, AND, FALSE, NOT, OR, TRUE, Formula


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


@dataclass
class TseitinResult:
    cnf: Cnf
    definitions: dict[int, str]


def _parent_counts(phi: Formula) -> dict[Formula, int]:
    """How often each node below ``phi`` is a child in ``phi``'s DAG."""
    counts: dict[Formula, int] = {}
    stack = [phi]
    while stack:
        for c in stack.pop().children:
            seen = counts.get(c)
            if seen is None:
                counts[c] = 1
                stack.append(c)
            else:
                counts[c] = seen + 1
    return counts


def tseitin_cnf(phi: Formula, num_reserved: int,
                lower: Callable[[Any], Formula]) -> TseitinResult:
    """Equisatisfiable clause form with one-sided definitions, and no
    definition variable for a node that is spliced or distributed.

    In a clause, a node ``n`` used with sign ``s`` (``+1`` where it occurs
    positively, ``-1`` under a negation) stands for literals whose
    disjunction implies ``n``, or ``not n`` (Plaisted & Greenbaum 1986).
    ``not`` swaps the sign.  An atom whose payload is an ``int`` is that
    variable; any other atom is translated by ``lower`` into a formula over
    variables the first time the walk reaches its node, once per node, and
    stands for that formula.  ``and`` and ``or``, the only other kinds
    besides the constants (``FormulaBuilder.implies`` and ``iff`` build
    them too), go by their kind under the sign:

    - Disjunction-like (an ``or`` with sign +1, an ``and`` with -1): its
      definition would be one clause, so it gets no variable and stands
      for its children's literals, spliced into each clause that uses it.
      The expansion is memoized per node and sign.
    - Conjunction-like (an ``and`` with sign +1, an ``or`` with -1): where
      it is the only reference to the node in ``phi``'s DAG, it is
      distributed into the one clause that uses it, which is emitted once
      per child with the child in the node's place.  This repeats through
      single-parent descendants (through ``not`` too, and from an atom to
      its translation's root), but only the first such node of a clause is
      distributed, so no clause is added.  Otherwise (a node with several
      parents, one below a spliced node, one inside a translation) ``lits``
      gives the node a definition variable ``v`` where it first names it,
      and writes the definition there, in the one direction the sign
      needs: ``v -> n`` for an ``and``, ``n -> v`` for an ``or``.  That is
      one clause per child, ``-v`` or ``v`` with the child's literals, or
      more where a single-parent child is distributed into it.

    So an ``or`` never gets a definition ``v -> n``, nor an ``and`` one
    ``n -> v``, and no node is defined twice.
    The root is asserted as a clause of its own: a conjunction child by
    child, a disjunction as one clause.  The result is satisfiable exactly
    when the input is.  A model of it, restricted to the variables
    ``1..num_reserved``, satisfies the input with its atoms so translated,
    and every assignment of those variables that satisfies the input
    extends to a model.  A definition variable need not equal its node's
    value.  Clauses are kept as built; ``Cnf`` puts them in normal form.
    """
    clauses: list[tuple[int, ...]] = []
    defs: dict[int, str] = {}
    counter = [num_reserved]
    parents = _parent_counts(phi)
    # the literals that stand for a node, one table per sign; keyed by node,
    # so a translation cannot alias a node of ``phi``
    pos: dict[Formula, tuple[int, ...]] = {}
    neg: dict[Formula, tuple[int, ...]] = {}
    lowered: dict[Formula, Formula] = {}
    const_lit: list[int] = []

    def fresh(desc: str) -> int:
        counter[0] += 1
        defs[counter[0]] = desc
        return counter[0]

    def translation(n: Formula) -> Formula:
        low = lowered.get(n)
        if low is None:
            low = lowered[n] = lower(n.payload)
        return low

    def lits(n: Formula, s: int) -> tuple[int, ...]:
        """The literals that stand for ``n`` under sign ``s``."""
        memo = pos if s > 0 else neg
        out = memo.get(n)
        if out is not None:
            return out
        k = n.kind
        if k == NOT:
            out = lits(n.children[0], -s)
        elif k == ATOM:
            p = n.payload
            if isinstance(p, int):
                out = (p if s > 0 else -p,)
            else:
                out = lits(translation(n), s)
        elif k == (OR if s > 0 else AND):
            spliced: list[int] = []
            for c in n.children:
                spliced += lits(c, s)
            out = tuple(spliced)
        elif k == TRUE or k == FALSE:
            if not const_lit:
                const_lit.append(fresh("constant-true"))
                clauses.append((const_lit[0],))
            t = const_lit[0]
            out = (t if (k == TRUE) == (s > 0) else -t,)
        else:
            v = fresh(f"def({k})")
            head = (-v,) if s > 0 else (v,)
            for c in n.children:
                if parents.get(c) == 1:
                    emit(head, c, s, True)
                else:
                    clauses.append(head + lits(c, s))
            out = (v if s > 0 else -v,)
        memo[n] = out
        return out

    def emit(base: tuple[int, ...], n: Formula, s: int, own: bool) -> None:
        """Emit the clauses ``base or n`` for ``n`` under sign ``s``;
        ``own`` says that no other clause reaches ``n``.  An unowned
        conjunction-like node is distributed only into a clause that is
        nothing but the node."""
        if (base and not own) or (n.kind == ATOM and isinstance(n.payload, int)):
            clauses.append(base + lits(n, s))
            return
        out = list(base)
        todo = [(n, s, own)]
        dist = None
        while todo:
            n, s, own = todo.pop()
            if own or not (out or todo):
                k = n.kind
                if k == NOT:
                    c = n.children[0]
                    todo.append((c, -s, own and parents.get(c) == 1))
                    continue
                if k == ATOM:
                    if own and not isinstance(n.payload, int):
                        # each atom has a translation of its own, whose
                        # root the atom passes its ownership to
                        todo.append((translation(n), s, True))
                        continue
                elif own and k == (OR if s > 0 else AND):
                    for c in reversed(n.children):
                        todo.append((c, s, parents.get(c) == 1))
                    continue
                elif dist is None and k == (AND if s > 0 else OR):
                    dist, sign, dist_own = n, s, own
                    continue
            out += lits(n, s)
        if dist is None:
            clauses.append(tuple(out))
        else:
            base = tuple(out)
            for c in dist.children:
                emit(base, c, sign, dist_own and parents.get(c) == 1)

    if phi.kind == FALSE:
        clauses.append(())
    elif phi.kind != TRUE:
        emit((), phi, 1, True)
    # the two functions reach each other through their closure cells;
    # emptying the cells breaks that cycle, so the tables above are freed
    # on return rather than left to the cycle collector
    del lits, emit
    return TseitinResult(Cnf(counter[0], tuple(clauses)), defs)


def write_dimacs(cnf: Cnf) -> str:
    lines = [f"p cnf {cnf.num_vars} {len(cnf.clauses)}"]
    for clause in cnf.clauses:
        lines.append(" ".join(str(lit) for lit in clause) + " 0")
    return "\n".join(lines) + "\n"
