"""Executable semantics of lexicographic path orders and argument filterings.

This module is the ground truth the SAT pipeline is checked against: it
decides ``s > t`` / ``s >= t`` for *concrete* precedences and filterings,
with no propositional machinery involved.  The filtered order is defined, as
in the paper, by filtering first and comparing with the plain LPO after:
``s >pi t`` iff ``pi(s) > pi(t)``.  It deliberately does not mirror the
encoder's case split (collapse / kept / lexicographic).
"""

from __future__ import annotations

import operator
from functools import partial
from itertools import repeat
from typing import Callable, Iterable, Iterator, Mapping

from .terms import App, Symbol, Term, Value, Var, symbol_key

STRICT = "strict"
QUASI = "quasi"
_MODES = (STRICT, QUASI)


class Precedence:
    """Symbol ranks; a higher rank is greater in the precedence.

    In quasi mode, equal ranks make two symbols equivalent.  In strict mode
    distinct symbols with equal rank are simply incomparable.
    """

    def __init__(self, ranks: Mapping[Symbol, int]):
        self._ranks = {symbol_key(f): r for f, r in ranks.items()}

    def rank(self, f: Symbol) -> int:
        try:
            return self._ranks[symbol_key(f)]
        except KeyError:
            raise ValueError(f"no rank for symbol {f.display}") from None

    def gt(self, f: Symbol, g: Symbol) -> bool:
        return self.rank(f) > self.rank(g)

    def equivalent(self, f: Symbol, g: Symbol, mode: str) -> bool:
        if symbol_key(f) == symbol_key(g):
            return True
        if mode == STRICT:
            return False
        return self.rank(f) == self.rank(g)

    def items(self) -> Iterator[tuple[tuple[str, bool], int]]:
        return iter(sorted(self._ranks.items()))

    def __repr__(self) -> str:
        entries = ", ".join(f"{name}{'#' if tup else ''}={r}"
                            for (name, tup), r in self.items())
        return f"Precedence({entries})"


class Keep(Value):
    """Keep the listed argument positions (1-based, strictly increasing)."""

    __slots__ = _fields = ("positions",)
    positions: tuple[int, ...]

    def __init__(self, positions: tuple[int, ...] = ()) -> None:
        object.__setattr__(self, "positions", positions)


class Collapse(Value):
    """Replace the whole application by the argument at ``position``."""

    __slots__ = _fields = ("position",)
    position: int

    def __init__(self, position: int) -> None:
        object.__setattr__(self, "position", position)


FilterSpec = Keep | Collapse


class ArgumentFiltering:
    """Per-symbol choice of kept argument positions or a collapsing position."""

    def __init__(self, mapping: Mapping[Symbol, FilterSpec]):
        self._specs: dict[tuple[str, bool], FilterSpec] = {}
        self._symbols: dict[tuple[str, bool], Symbol] = {}
        for f, spec in mapping.items():
            if isinstance(spec, Collapse):
                if f.arity < 1:
                    raise ValueError(f"cannot collapse nullary symbol {f.display}")
                if not 1 <= spec.position <= f.arity:
                    raise ValueError(f"collapse position {spec.position} out of range "
                                     f"for {f.display}/{f.arity}")
            else:
                if any(not 1 <= i <= f.arity for i in spec.positions):
                    raise ValueError(f"kept position out of range for {f.display}/{f.arity}")
                if any(a >= b for a, b in zip(spec.positions, spec.positions[1:])):
                    raise ValueError("kept positions must be strictly increasing")
            self._specs[symbol_key(f)] = spec
            self._symbols[symbol_key(f)] = f

    @staticmethod
    def identity(symbols: Iterable[Symbol]) -> ArgumentFiltering:
        return ArgumentFiltering(
            {f: Keep(tuple(range(1, f.arity + 1))) for f in symbols})

    def get(self, f: Symbol) -> FilterSpec:
        try:
            return self._specs[symbol_key(f)]
        except KeyError:
            raise ValueError(f"no filtering for symbol {f.display}") from None

    def kept(self, f: Symbol) -> tuple[int, ...]:
        """Positions ``i`` with ``pi(f) ∋ i`` (kept list entries, or the
        collapse target itself)."""
        spec = self.get(f)
        return (spec.position,) if isinstance(spec, Collapse) else spec.positions

    def items(self) -> list[tuple[Symbol, FilterSpec]]:
        return [(self._symbols[k], self._specs[k]) for k in sorted(self._specs)]

    def __repr__(self) -> str:
        parts = []
        for f, spec in self.items():
            if isinstance(spec, Collapse):
                parts.append(f"pi({f.display})={spec.position}")
            else:
                parts.append(f"pi({f.display})={list(spec.positions)}")
        return "ArgumentFiltering(" + ", ".join(parts) + ")"


def apply_filtering(pi: ArgumentFiltering, t: Term) -> Term:
    """The term mapping induced by a filtering; kept arities shrink."""
    if isinstance(t, Var):
        return t
    spec = pi.get(t.fun)
    if isinstance(spec, Collapse):
        return apply_filtering(pi, t.args[spec.position - 1])
    kept = tuple(apply_filtering(pi, t.args[i - 1]) for i in spec.positions)
    return App(Symbol(t.fun.name, len(kept), t.fun.is_tuple), kept)


def _check_mode(mode: str) -> None:
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")


def _equivalence(prec: Precedence, mode: str) -> Callable[[Term, Term], bool]:
    """Equality of terms up to equivalence of symbols, the mode checked once.
    Terms are interned and a strict precedence makes no two distinct symbols
    equivalent, so strict equivalence is identity."""
    _check_mode(mode)
    return operator.is_ if mode == STRICT else partial(_quasi_equivalent, prec)


def _quasi_equivalent(prec: Precedence, s: Term, t: Term) -> bool:
    # a module-level function, so that a call leaves no closure cycle
    if s is t:
        return True
    if isinstance(s, Var) or isinstance(t, Var) or s.fun.arity != t.fun.arity:
        return False
    return (prec.equivalent(s.fun, t.fun, QUASI)
            and all(map(_quasi_equivalent, repeat(prec), s.args, t.args)))


def terms_equivalent(prec: Precedence, mode: str, s: Term, t: Term) -> bool:
    """Equality of terms up to equivalence of symbols (identity when strict)."""
    return _equivalence(prec, mode)(s, t)


def lpo_gt(prec: Precedence, mode: str, s: Term, t: Term) -> bool:
    """Strict lexicographic path order on plain terms.

    ``s = f(s1..sn) > t`` iff either some ``si >= t``, or ``t = g(t1..tm)``
    with every ``tj`` strictly below ``s`` and ``f`` above ``g`` (or
    equivalent to it with the argument tuples lexicographically decreasing).
    """
    equivalent = _equivalence(prec, mode)
    memo: dict[tuple[Term, Term], bool] = {}

    # One frame per level of term depth: the weak and the lexicographic
    # comparisons are loops inside the one memoized strict comparison.
    def gt(a: Term, b: Term) -> bool:
        key = (a, b)
        result = memo.get(key)
        if result is not None:
            return result
        result = False
        if isinstance(a, App):
            for ai in a.args:
                if gt(ai, b) or equivalent(ai, b):
                    result = True
                    break
            else:
                if isinstance(b, App):
                    for bj in b.args:
                        if not gt(a, bj):
                            break
                    else:
                        if prec.gt(a.fun, b.fun):
                            result = True
                        elif prec.equivalent(a.fun, b.fun, mode):
                            # the first argument pair that is not equivalent decides
                            for ai, bi in zip(a.args, b.args):
                                if gt(ai, bi):
                                    result = True
                                    break
                                if not equivalent(ai, bi):
                                    break
                            else:
                                result = len(a.args) > len(b.args)
        memo[key] = result
        return result

    try:
        return gt(s, t)
    finally:
        # ``gt`` reaches itself through its closure cell; emptying the cell
        # frees the memo on return rather than leaving it to the collector
        del gt


def lpo_ge(prec: Precedence, mode: str, s: Term, t: Term) -> bool:
    """Weak order: strict order or term equivalence."""
    return lpo_gt(prec, mode, s, t) or terms_equivalent(prec, mode, s, t)


def lpo_af_gt(prec: Precedence, pi: ArgumentFiltering, mode: str, s: Term, t: Term) -> bool:
    """``s`` strictly above ``t`` in the LPO induced by ``prec`` modulo ``pi``:
    ``pi(s) > pi(t)`` in the plain LPO."""
    return lpo_gt(prec, mode, apply_filtering(pi, s), apply_filtering(pi, t))


def lpo_af_ge(prec: Precedence, pi: ArgumentFiltering, mode: str, s: Term, t: Term) -> bool:
    """Weak companion of :func:`lpo_af_gt`: ``pi(s) >= pi(t)``."""
    return lpo_ge(prec, mode, apply_filtering(pi, s), apply_filtering(pi, t))
