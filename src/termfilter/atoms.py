"""Atomic constraints: precedence comparisons, filtering shape, usable flags."""

from __future__ import annotations

from .terms import Symbol, Value


class PoGt(Value):
    """``left`` strictly above ``right`` in the precedence."""

    __slots__ = _fields = ("left", "right")
    left: Symbol
    right: Symbol

    def __init__(self, left: Symbol, right: Symbol) -> None:
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)


class PoEq(Value):
    """``left`` and ``right`` equivalent in the precedence (quasi mode only)."""

    __slots__ = _fields = ("left", "right")
    left: Symbol
    right: Symbol

    def __init__(self, left: Symbol, right: Symbol) -> None:
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)


class ListP(Value):
    """The filtering keeps ``fun`` as a (possibly empty) argument list."""

    __slots__ = _fields = ("fun",)
    fun: Symbol

    def __init__(self, fun: Symbol) -> None:
        object.__setattr__(self, "fun", fun)


class ArgIn(Value):
    """Position ``pos`` of ``fun`` survives the filtering."""

    __slots__ = _fields = ("fun", "pos")
    fun: Symbol
    pos: int

    def __init__(self, fun: Symbol, pos: int) -> None:
        object.__setattr__(self, "fun", fun)
        object.__setattr__(self, "pos", pos)


class CollapsesTo(Value):
    """The filtering collapses ``fun`` to its argument at ``pos``."""

    __slots__ = _fields = ("fun", "pos")
    fun: Symbol
    pos: int

    def __init__(self, fun: Symbol, pos: int) -> None:
        object.__setattr__(self, "fun", fun)
        object.__setattr__(self, "pos", pos)


class Usable(Value):
    """The rules of ``fun`` must be oriented weakly."""

    __slots__ = _fields = ("fun",)
    fun: Symbol

    def __init__(self, fun: Symbol) -> None:
        object.__setattr__(self, "fun", fun)


class StrictPair(Value):
    """Marker: pair number ``index`` decreases strictly."""

    __slots__ = _fields = ("index",)
    index: int

    def __init__(self, index: int) -> None:
        object.__setattr__(self, "index", index)


Atom = PoGt | PoEq | ListP | ArgIn | CollapsesTo | Usable | StrictPair


def describe(atom: Atom) -> str:
    if isinstance(atom, PoGt):
        return f"(gt {atom.left.display} {atom.right.display})"
    if isinstance(atom, PoEq):
        return f"(eq {atom.left.display} {atom.right.display})"
    if isinstance(atom, ListP):
        return f"(list {atom.fun.display})"
    if isinstance(atom, ArgIn):
        return f"(in {atom.fun.display} {atom.pos})"
    if isinstance(atom, CollapsesTo):
        return f"(collapse {atom.fun.display} {atom.pos})"
    if isinstance(atom, Usable):
        return f"(usable {atom.fun.display})"
    if isinstance(atom, StrictPair):
        return f"(strict {atom.index})"
    return repr(atom)
