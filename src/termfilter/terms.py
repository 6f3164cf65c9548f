"""First-order terms, rules, and term rewrite systems."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping


@dataclass(frozen=True)
class Symbol:
    """Function symbol with a fixed arity.

    Tuple symbols are the marked copies of defined symbols used by dependency
    pairs.  The marker lives in ``is_tuple`` so that a tuple symbol can never
    collide with a user symbol; the trailing ``#`` is display only.

    The hash is ``hash((name, arity, is_tuple))``, the value the generated
    one would have, computed once when the symbol is built.
    """

    name: str
    arity: int
    is_tuple: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.name, self.arity, self.is_tuple)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # as for ``App``: rebuild the cached hash in the unpickling process
        return (Symbol, (self.name, self.arity, self.is_tuple))

    @property
    def display(self) -> str:
        return self.name + "#" if self.is_tuple else self.name

    def marked(self) -> Symbol:
        """The tuple-symbol copy of this (base) symbol."""
        return Symbol(self.name, self.arity, True)


def symbol_key(f: Symbol) -> tuple[str, bool]:
    """Identity of a symbol independent of its (possibly filtered) arity."""
    return (f.name, f.is_tuple)


class Term:
    """A first-order term; concrete instances are ``Var`` or ``App``."""

    __slots__ = ()


@dataclass(frozen=True)
class Var(Term):
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class App(Term):
    """Application of ``fun`` to ``args``.

    The hash is computed once, from ``(fun, args)``, when the term is built.
    The arguments' hashes are already cached, so this is constant work per
    node, and hashing a term never walks it.
    """

    fun: Symbol
    args: tuple[Term, ...] = ()

    def __post_init__(self) -> None:
        if len(self.args) != self.fun.arity:
            raise ValueError(
                f"symbol {self.fun.display}/{self.fun.arity} applied to "
                f"{len(self.args)} arguments"
            )
        object.__setattr__(self, "_hash", hash((self.fun, self.args)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # String hashes differ between processes, so rebuild the cached hash
        # on unpickling instead of carrying it.
        return (App, (self.fun, self.args))

    def __str__(self) -> str:
        if not self.args:
            return self.fun.display
        return f"{self.fun.display}({','.join(str(a) for a in self.args)})"


def variables(t: Term) -> tuple[Var, ...]:
    """Variables of ``t`` in order of first occurrence."""
    out: dict[Var, None] = {}
    stack = [t]
    while stack:
        u = stack.pop()
        if isinstance(u, Var):
            out.setdefault(u)
        else:
            stack.extend(reversed(u.args))  # type: ignore[union-attr]
    return tuple(out)


def functions(t: Term) -> tuple[Symbol, ...]:
    """Function symbols of ``t`` in order of first occurrence."""
    out: dict[Symbol, None] = {}
    stack = [t]
    while stack:
        u = stack.pop()
        if isinstance(u, App):
            out.setdefault(u.fun)
            stack.extend(reversed(u.args))
    return tuple(out)


def subterms(t: Term) -> Iterator[Term]:
    """All subterms of ``t`` in preorder (outermost first, left to right)."""
    yield t
    if isinstance(t, App):
        for a in t.args:
            yield from subterms(a)


def substitute(t: Term, mapping: Mapping[Var, Term]) -> Term:
    if isinstance(t, Var):
        return mapping.get(t, t)
    return App(t.fun, tuple(substitute(a, mapping) for a in t.args))


@dataclass(frozen=True)
class Rule:
    """A rewrite rule ``lhs -> rhs``."""

    lhs: Term
    rhs: Term

    def __post_init__(self) -> None:
        if isinstance(self.lhs, Var):
            raise ValueError("left-hand side of a rule must not be a variable")
        missing = [v for v in variables(self.rhs) if v not in set(variables(self.lhs))]
        if missing:
            names = ", ".join(v.name for v in missing)
            raise ValueError(f"right-hand side variables not bound on the left: {names}")

    @property
    def root(self) -> Symbol:
        assert isinstance(self.lhs, App)
        return self.lhs.fun

    def __str__(self) -> str:
        return f"{self.lhs} -> {self.rhs}"


@dataclass(frozen=True)
class Trs:
    """An ordered list of rules together with its signature.

    All values are immutable; sharing between threads is safe.
    """

    rules: tuple[Rule, ...]
    signature: frozenset[Symbol]

    @staticmethod
    def of(rules: Iterable[Rule]) -> Trs:
        rules = tuple(rules)
        sig: dict[tuple[str, bool], Symbol] = {}
        for rule in rules:
            for t in (rule.lhs, rule.rhs):
                for f in functions(t):
                    prev = sig.setdefault(symbol_key(f), f)
                    if prev != f:
                        raise ValueError(
                            f"symbol {f.display} used with arities "
                            f"{prev.arity} and {f.arity}"
                        )
        return Trs(rules, frozenset(sig.values()))

    def rules_for(self, f: Symbol) -> tuple[Rule, ...]:
        return tuple(r for r in self.rules if r.root == f)

    def __str__(self) -> str:
        return format_trs(self)


def defined_symbols(trs: Trs) -> frozenset[Symbol]:
    """Root symbols of left-hand sides."""
    return frozenset(r.root for r in trs.rules)


def format_trs(trs: Trs) -> str:
    """Render a system in the textual rule format accepted by the parser."""
    seen: list[str] = []
    for rule in trs.rules:
        for t in (rule.lhs, rule.rhs):
            for v in variables(t):
                if v.name not in seen:
                    seen.append(v.name)
    lines = ["(VAR " + " ".join(seen) + ")" if seen else "(VAR )"]
    lines.append("(RULES")
    for rule in trs.rules:
        lines.append(f"  {rule}")
    lines.append(")")
    return "\n".join(lines)


def unify(s: Term, t: Term) -> dict[Var, Term] | None:
    """Most general unifier of ``s`` and ``t``, or ``None``.

    Callers must rename the two terms apart beforehand.  The occurs check is
    performed and the returned substitution is idempotent.
    """
    subst: dict[Var, Term] = {}

    def walk(u: Term) -> Term:
        while isinstance(u, Var) and u in subst:
            u = subst[u]
        return u

    def occurs(v: Var, u: Term) -> bool:
        u = walk(u)
        if u == v:
            return True
        return isinstance(u, App) and any(occurs(v, a) for a in u.args)

    stack: list[tuple[Term, Term]] = [(s, t)]
    while stack:
        a, b = stack.pop()
        a, b = walk(a), walk(b)
        if a == b:
            continue
        if isinstance(a, Var):
            if occurs(a, b):
                return None
            subst[a] = b
        elif isinstance(b, Var):
            if occurs(b, a):
                return None
            subst[b] = a
        else:
            if a.fun != b.fun:
                return None
            stack.extend(zip(a.args, b.args))

    def resolve(u: Term) -> Term:
        u = walk(u)
        if isinstance(u, Var):
            return u
        return App(u.fun, tuple(resolve(a) for a in u.args))

    return {v: resolve(u) for v, u in subst.items()}
