"""First-order terms, rules, and term rewrite systems.

Symbols, variables and applications are hash-consed (Filliâtre and Conchon,
"Type-safe modular hash-consing", 2006).  Each class keeps a table of its
live instances, held weakly, and building a value that is already in the
table returns that object, so structurally equal terms are the same object.
The classes define no ``__eq__`` or ``__hash__``: equality is identity and
hashing is CPython's identity hash, so a lookup keyed on terms runs no
Python code and comparing two terms never walks them.  The order of a set
of terms follows memory addresses, so no output may depend on it.

Every walk over a term uses an explicit stack, so term depth is bounded by
memory, not by the recursion limit.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

# Taken only when a table misses, so that two threads building the same
# value get one object.
_INTERN_LOCK = threading.Lock()


class _Interned:
    """Base of the hash-consed classes: immutable, weakly referenceable,
    with ``object``'s identity equality and hash.  A subclass keeps its
    canonical instances in its own ``_table``."""

    __slots__ = ("__weakref__",)
    _table: weakref.WeakValueDictionary

    @classmethod
    def _intern(cls, key, fields: dict):
        """The instance for ``key`` after a lookup without the lock missed:
        looked up again under the lock, and made from ``fields`` when still
        missing."""
        with _INTERN_LOCK:
            self = cls._table.get(key)
            if self is None:
                self = object.__new__(cls)
                for name, value in fields.items():
                    object.__setattr__(self, name, value)
                cls._table[key] = self
        return self

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")


class Symbol(_Interned):
    """Function symbol with a fixed arity.

    Tuple symbols are the marked copies of defined symbols used by dependency
    pairs.  The marker lives in ``is_tuple`` so that a tuple symbol can never
    collide with a user symbol; the trailing ``#`` is display only.
    """

    __slots__ = ("name", "arity", "is_tuple")
    _table = weakref.WeakValueDictionary()
    name: str
    arity: int
    is_tuple: bool

    def __new__(cls, name: str, arity: int, is_tuple: bool = False) -> Symbol:
        key = (name, arity, is_tuple)
        self = cls._table.get(key)
        if self is None:
            self = cls._intern(key, {"name": name, "arity": arity, "is_tuple": is_tuple})
        return self

    def __reduce__(self):
        # unpickling builds through the table of the loading process
        return (Symbol, (self.name, self.arity, self.is_tuple))

    def __repr__(self) -> str:
        return f"Symbol(name={self.name!r}, arity={self.arity!r}, is_tuple={self.is_tuple!r})"

    @property
    def display(self) -> str:
        return self.name + "#" if self.is_tuple else self.name

    def marked(self) -> Symbol:
        """The tuple-symbol copy of this (base) symbol."""
        return Symbol(self.name, self.arity, True)


def symbol_key(f: Symbol) -> tuple[str, bool]:
    """Identity of a symbol independent of its (possibly filtered) arity."""
    return (f.name, f.is_tuple)


class Term(_Interned):
    """A first-order term; concrete instances are ``Var`` or ``App``."""

    __slots__ = ()


class Var(Term):
    __slots__ = ("name",)
    _table = weakref.WeakValueDictionary()
    name: str

    def __new__(cls, name: str) -> Var:
        self = cls._table.get(name)
        if self is None:
            self = cls._intern(name, {"name": name})
        return self

    def __reduce__(self):
        return (Var, (self.name,))

    def __repr__(self) -> str:
        return f"Var(name={self.name!r})"

    def __str__(self) -> str:
        return self.name


class App(Term):
    """Application of ``fun`` to ``args``.  The arity is checked when the
    application is first built; a later build finds it in the table."""

    __slots__ = ("fun", "args")
    _table = weakref.WeakValueDictionary()
    fun: Symbol
    args: tuple[Term, ...]

    def __new__(cls, fun: Symbol, args: tuple[Term, ...] = ()) -> App:
        key = (fun, args)
        self = cls._table.get(key)
        if self is None:
            if len(args) != fun.arity:
                raise ValueError(
                    f"symbol {fun.display}/{fun.arity} applied to {len(args)} arguments")
            self = cls._intern(key, {"fun": fun, "args": args})
        return self

    def __reduce__(self):
        return (App, (self.fun, self.args))

    def __repr__(self) -> str:
        return f"App(fun={self.fun!r}, args={self.args!r})"

    def __str__(self) -> str:
        # the stack holds terms still to print and the punctuation between them
        out: list[str] = []
        stack: list[Term | str] = [self]
        while stack:
            u = stack.pop()
            if isinstance(u, str):
                out.append(u)
            elif isinstance(u, Var):
                out.append(u.name)
            elif not u.args:
                out.append(u.fun.display)
            else:
                out.append(u.fun.display + "(")
                stack.append(")")
                for k in range(len(u.args) - 1, 0, -1):
                    stack += (u.args[k], ",")
                stack.append(u.args[0])
        return "".join(out)


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
    """All subterms of ``t`` in preorder (outermost first, left to right),
    one per occurrence."""
    stack = [t]
    while stack:
        u = stack.pop()
        yield u
        if isinstance(u, App):
            stack.extend(reversed(u.args))


def substitute(t: Term, mapping: Mapping[Var, Term]) -> Term:
    """``t`` with every variable ``v`` in ``mapping`` replaced by
    ``mapping[v]``, all at once."""
    return _instantiate(t, mapping, {}, False)


def _instantiate(t: Term, mapping: Mapping[Var, Term], done: dict[Term, Term],
                 chase: bool) -> Term:
    """``t`` with each variable replaced by its image under ``mapping``, by
    an explicit post-order walk that rebuilds each distinct subterm once;
    ``done`` maps the subterms rebuilt so far to their results.  With
    ``chase`` an image is rebuilt in turn, which resolves an acyclic
    triangular substitution."""
    stack = [t]
    while stack:
        u = stack[-1]
        if u in done:
            stack.pop()
        elif isinstance(u, Var):
            image = mapping.get(u, u)
            if image is u or not chase:
                done[u] = image
                stack.pop()
            elif image in done:
                done[u] = done[image]
                stack.pop()
            else:
                stack.append(image)
        else:
            missing = [a for a in u.args if a not in done]
            if missing:
                stack += missing
            else:
                done[u] = App(u.fun, tuple([done[a] for a in u.args]))
                stack.pop()
    return done[t]


@dataclass(frozen=True)
class Rule:
    """A rewrite rule ``lhs -> rhs``."""

    lhs: Term
    rhs: Term

    def __post_init__(self) -> None:
        if isinstance(self.lhs, Var):
            raise ValueError("left-hand side is a variable")
        bound = set(variables(self.lhs))
        missing = [v for v in variables(self.rhs) if v not in bound]
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

    All values are immutable, and the intern tables take a lock before they
    add a term, so sharing between threads is safe.
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
                    if prev is not f:
                        raise ValueError(
                            f"symbol {f.display} used with arities "
                            f"{prev.arity} and {f.arity}"
                        )
        return Trs(rules, frozenset(sig.values()))

    def rules_for(self, f: Symbol) -> tuple[Rule, ...]:
        return tuple(r for r in self.rules if r.root is f)

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
        # each distinct subterm once, so bindings shared along many paths
        # are not walked again
        stack = [u]
        seen: set[Term] = set()
        while stack:
            w = walk(stack.pop())
            if w is v:
                return True
            if isinstance(w, App) and w not in seen:
                seen.add(w)
                stack += w.args
        return False

    stack: list[tuple[Term, Term]] = [(s, t)]
    while stack:
        a, b = stack.pop()
        a, b = walk(a), walk(b)
        if a is b:
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
            if a.fun is not b.fun:
                return None
            stack.extend(zip(a.args, b.args))

    done: dict[Term, Term] = {}
    return {v: _instantiate(v, subst, done, True) for v in subst}
