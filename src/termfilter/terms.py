"""First-order terms, rules, and term rewrite systems.

Symbols, variables and applications are hash-consed (Filliâtre and Conchon,
"Type-safe modular hash-consing", 2006).  Each class keeps a ``dict`` from
a value's key to a weak reference to its live instance; building a value
that is already in the table returns that object, so structurally equal
terms are the same object.  A hit takes no lock.  A dead instance's entry
is dropped unless its key was built again first.
Terms are immutable, so each application's function symbols and variables
(``symbols``, ``variables``) are computed once, from its arguments' sets,
when its table misses; a variable answers with no symbols and itself.
``repr`` and pickles use the constructor fields alone (``_fields``).
The classes define no ``__eq__`` or ``__hash__``: equality is identity and
hashing is CPython's identity hash, so a lookup keyed on terms runs no
Python code and comparing two terms never walks them.  The order of a set
of terms follows memory addresses, so no output may depend on it.

Every walk over a term uses an explicit stack, so term depth is bounded by
memory, not by the recursion limit.  Nothing here applies a substitution;
the tests keep ``substitute``.
"""

from __future__ import annotations

import threading
import weakref
from _weakref import _remove_dead_weakref
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

# Taken only when a table misses, so that two threads building the same
# value get one object.
_INTERN_LOCK = threading.Lock()

_NO_ENTRY = type(None)  # a missing table entry: called like a dead one, gives None


class _Entry(weakref.ref):
    __slots__ = ("key",)  # a table entry: a weak reference that knows its key


class _Interned:
    """Base of the hash-consed classes: immutable, weakly referenceable,
    with ``object``'s identity equality and hash.  A subclass keeps its
    canonical instances in its own ``_table``."""

    __slots__ = ("__weakref__",)
    _table: dict[object, _Entry]
    _fields: tuple[str, ...]  # the constructor's arguments, in order

    @classmethod
    def _intern(cls, key, fields: dict):
        """The instance for ``key`` after a lock-free lookup missed: looked
        up again under the lock, and made from ``fields`` if still missing."""
        with _INTERN_LOCK:
            self = cls._table.get(key, _NO_ENTRY)()
            if self is None:
                self = object.__new__(cls)
                for name, value in fields.items():
                    object.__setattr__(self, name, value)
                entry = _Entry(self, cls._forget)
                entry.key = key
                cls._table[key] = entry
        return self

    @classmethod
    def _forget(cls, entry: _Entry, remove=_remove_dead_weakref) -> None:
        remove(cls._table, entry.key)  # only while the entry is this dead one

    def __reduce__(self):
        # unpickling builds through the table of the loading process
        return (type(self), tuple(getattr(self, name) for name in self._fields))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

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

    __slots__ = _fields = ("name", "arity", "is_tuple")
    _table = {}
    name: str
    arity: int
    is_tuple: bool

    def __new__(cls, name: str, arity: int, is_tuple: bool = False) -> Symbol:
        key = (name, arity, is_tuple)
        self = cls._table.get(key, _NO_ENTRY)()
        if self is None:
            self = cls._intern(key, {"name": name, "arity": arity, "is_tuple": is_tuple})
        return self

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
    """A first-order term; concrete instances are ``Var`` or ``App``.
    ``symbols`` and ``variables`` are its function symbols and variables."""

    __slots__ = ()
    symbols: frozenset[Symbol]
    variables: frozenset[Var]


class Var(Term):
    __slots__ = _fields = ("name",)
    _table = {}
    name: str
    symbols = frozenset()

    def __new__(cls, name: str) -> Var:
        self = cls._table.get(name, _NO_ENTRY)()
        if self is None:
            self = cls._intern(name, {"name": name})
        return self

    @property
    def variables(self) -> frozenset[Var]:
        return frozenset((self,))  # made per call: a stored one would be a cycle

    def __str__(self) -> str:
        return self.name


class App(Term):
    """Application of ``fun`` to ``args``.  The arity is checked, and the
    symbol and variable sets are made, when the application is first built;
    a later build finds it in the table."""

    _fields = ("fun", "args")
    __slots__ = _fields + ("symbols", "variables")
    _table = {}
    fun: Symbol
    args: tuple[Term, ...]

    def __new__(cls, fun: Symbol, args: tuple[Term, ...] = ()) -> App:
        key = (fun, args)
        self = cls._table.get(key, _NO_ENTRY)()
        if self is None:
            if len(args) != fun.arity:
                raise ValueError(
                    f"symbol {fun.display}/{fun.arity} applied to {len(args)} arguments")
            if len(args) == 1:  # shares its argument's sets where the root adds nothing
                symbols, variables = args[0].symbols, args[0].variables
                if fun not in symbols:
                    symbols = symbols | {fun}
            else:
                symbols = frozenset((fun,)).union(*[a.symbols for a in args])
                variables = frozenset().union(*[a.variables for a in args])
            self = cls._intern(key, {"fun": fun, "args": args,
                                     "symbols": symbols, "variables": variables})
        return self

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


def subterms(t: Term) -> Iterator[Term]:
    """All subterms of ``t`` in preorder (outermost first, left to right),
    one per occurrence."""
    stack = [t]
    while stack:
        u = stack.pop()
        yield u
        if isinstance(u, App):
            stack.extend(reversed(u.args))


def _instantiate(t: Term, subst: Mapping[Var, Term], done: dict[Term, Term]) -> Term:
    """``t`` under the acyclic triangular substitution ``subst``, resolved by
    an explicit post-order walk that rebuilds each distinct subterm, and each
    image, once; ``done`` maps the subterms rebuilt so far to their results."""
    stack = [t]
    while stack:
        u = stack[-1]
        if u in done:
            stack.pop()
        elif isinstance(u, Var):
            image = subst.get(u, u)
            if image is u or image in done:
                done[u] = done.get(image, u)
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
        bound = self.lhs.variables
        if not self.rhs.variables <= bound:
            names = ", ".join(v.name for v in variables(self.rhs) if v not in bound)
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
        sig = frozenset().union(*[t.symbols for r in rules for t in (r.lhs, r.rhs)])
        if len({symbol_key(f) for f in sig}) < len(sig):
            # the first clash in name order, so that the rules alone fix the message
            ordered = sorted(sig, key=lambda f: (symbol_key(f), f.arity))
            low, high = next((f, g) for f, g in zip(ordered, ordered[1:])
                             if symbol_key(f) == symbol_key(g))
            raise ValueError(
                f"symbol {low.display} used with arities {low.arity} and {high.arity}")
        return Trs(rules, sig)

    def rules_for(self, f: Symbol) -> tuple[Rule, ...]:
        return tuple(r for r in self.rules if r.root is f)

    def __str__(self) -> str:
        return format_trs(self)


def defined_symbols(trs: Trs) -> frozenset[Symbol]:
    """Root symbols of left-hand sides."""
    return frozenset(r.root for r in trs.rules)


def format_trs(trs: Trs) -> str:
    """Render a system in the textual rule format accepted by the parser."""
    seen = list(dict.fromkeys(v.name for rule in trs.rules
                              for t in (rule.lhs, rule.rhs) for v in variables(t)))
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
    subst = _bindings(s, t)
    done: dict[Term, Term] = {}
    return None if subst is None else {v: _instantiate(v, subst, done) for v in subst}


def unifiable(s: Term, t: Term) -> bool:
    """Whether ``unify`` finds a unifier, found without building it."""
    return _bindings(s, t) is not None


def _bindings(s: Term, t: Term) -> dict[Var, Term] | None:
    """A unifier as an acyclic triangular substitution, or ``None``."""
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
        if isinstance(b, Var) and not isinstance(a, Var):
            a, b = b, a
        if isinstance(a, Var):
            if occurs(a, b):
                return None
            subst[a] = b
        elif a.fun is not b.fun:
            return None
        else:
            stack.extend(zip(a.args, b.args))
    return subst
