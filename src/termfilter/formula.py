"""Hash-consed boolean formula DAGs with light structural simplification.

Nodes are created through a :class:`FormulaBuilder`.  With sharing enabled,
structurally equal subformulas are the same object, so equality is identity
and a formula is a DAG rather than a tree.  Interning, de-duplication and
the walks below are keyed by the node itself: ids, which two builders share,
only order children and rendering.  With simplification enabled the
builder folds constants, flattens nested conjunctions/disjunctions, removes
duplicate children, and collapses complementary ones; when two children
remain after flattening, as they mostly do, two identity tests (a repeat, a
complement) and one id comparison take the place of the de-duplicating copy
and the sort.  Both switches can be turned off to measure what they buy.
Besides the constants and atoms there are three node kinds, ``not``, ``and``
and ``or``: ``implies`` and ``iff`` build their formulas from these.  Each
kind has its own intern table, keyed by an atom's payload and by the
children of the other kinds.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Any, Callable, Hashable, Iterable, Iterator

TRUE = "true"
FALSE = "false"
ATOM = "atom"
NOT = "not"
AND = "and"
OR = "or"

_BY_ID = attrgetter("id")


class Formula:
    __slots__ = ("kind", "payload", "children", "id")

    def __init__(self, kind: str, payload: Hashable, children: tuple["Formula", ...],
                 node_id: int):
        self.kind = kind
        self.payload = payload
        self.children = children
        self.id = node_id

    def __repr__(self) -> str:
        if self.kind == ATOM:
            return f"<n{self.id} atom {self.payload!r}>"
        return f"<n{self.id} {self.kind}/{len(self.children)}>"


class FormulaBuilder:
    """Factory for formula nodes; one builder per encoding session."""

    def __init__(self, simplify: bool = True, share: bool = True):
        self.simplify = simplify
        self.share = share
        self._tables: dict[str, dict] = {ATOM: {}, NOT: {}, AND: {}, OR: {}}
        self._count = 0
        self.TRUE = self._fresh(TRUE, None, ())
        self.FALSE = self._fresh(FALSE, None, ())

    def _fresh(self, kind: str, payload: Hashable, children: tuple[Formula, ...]) -> Formula:
        node = Formula(kind, payload, children, self._count)
        self._count += 1
        return node

    def _node(self, kind: str, payload: Hashable, children: tuple[Formula, ...]) -> Formula:
        if not self.share:
            return self._fresh(kind, payload, children)
        table = self._tables[kind]
        key = payload if kind == ATOM else children
        node = table.get(key)
        if node is None:
            node = table[key] = self._fresh(kind, payload, children)
        return node

    def atom(self, payload: Hashable) -> Formula:
        return self._node(ATOM, payload, ())

    def not_(self, a: Formula) -> Formula:
        if self.simplify:
            if a is self.TRUE:
                return self.FALSE
            if a is self.FALSE:
                return self.TRUE
            if a.kind == NOT:
                return a.children[0]
        return self._node(NOT, None, (a,))

    def and_(self, children: Iterable[Formula]) -> Formula:
        return self._nary(AND, children, self.FALSE, self.TRUE)

    def or_(self, children: Iterable[Formula]) -> Formula:
        return self._nary(OR, children, self.TRUE, self.FALSE)

    def _nary(self, kind: str, children: Iterable[Formula], absorbing: Formula,
              neutral: Formula) -> Formula:
        if not self.simplify:
            return self._node(kind, None, tuple(children))
        flat: list[Formula] = []
        for c in children:
            if c is absorbing:
                return absorbing
            if c is neutral:
                continue
            if c.kind == kind:
                flat += c.children
            else:
                flat.append(c)
        n = len(flat)
        if n < 2:
            return flat[0] if flat else neutral
        if n == 2:
            a, c = flat
            if a is c:
                return a
            if (a.kind == NOT and a.children[0] is c) or (c.kind == NOT and c.children[0] is a):
                return absorbing
            return self._node(kind, None, (a, c) if a.id < c.id else (c, a))
        uniq = dict.fromkeys(flat)
        if len(uniq) < 2:
            return flat[0]
        for c in uniq:
            if c.kind == NOT and c.children[0] in uniq:
                return absorbing
        return self._node(kind, None, tuple(sorted(uniq, key=_BY_ID)))

    def implies(self, a: Formula, b: Formula) -> Formula:
        """``a -> b``, built as the disjunction ``not a or b``: there is no
        implication node, and ``not_`` and ``or_`` do all the folding."""
        return self.or_([self.not_(a), b])

    def iff(self, a: Formula, b: Formula) -> Formula:
        """``a <-> b``, built as the conjunction ``(not a or b) and (a or not
        b)``: there is no equivalence node either, and ``not_``, ``or_`` and
        ``and_`` do all the folding."""
        return self.and_([self.or_([self.not_(a), b]), self.or_([a, self.not_(b)])])


def iter_nodes(f: Formula) -> Iterator[Formula]:
    """Each reachable node exactly once, children before parents."""
    seen: set[Formula] = set()
    stack: list[tuple[Formula, bool]] = [(f, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            yield node
            continue
        if node in seen:
            continue
        seen.add(node)
        stack.append((node, True))
        for c in node.children:
            stack.append((c, False))


def dag_size(f: Formula) -> int:
    """Number of distinct nodes reachable from ``f``."""
    return sum(1 for _ in iter_nodes(f))


def dump(f: Formula, atom_str: Callable[[Any], str] = repr) -> str:
    """Deterministic one-node-per-line rendering of the DAG."""
    nodes = sorted(iter_nodes(f), key=_BY_ID)
    lines = []
    for n in nodes:
        if n.kind == ATOM:
            body = f"(atom {atom_str(n.payload)})"
        elif n.kind in (TRUE, FALSE):
            body = n.kind
        else:
            body = "(" + " ".join([n.kind] + [f"n{c.id}" for c in n.children]) + ")"
        lines.append(f"n{n.id} = {body}")
    lines.append(f"root = n{f.id}")
    return "\n".join(lines)
