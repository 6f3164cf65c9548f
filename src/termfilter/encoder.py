"""Constraint construction for filtered path-order inequalities.

``tau_gt(s, t)`` builds a formula over precedence and filtering atoms that is
satisfied by exactly those (precedence, filtering) pairs under which ``s``
strictly exceeds ``t``; ``tau_ge`` is the weak counterpart.  The builder
applies three size optimizations: constant folding and flattening, pruning
against atoms already known true or false on the current branch, and
hash-consing of identical subformulas.  Each can be switched off.

With sharing on, construction is memoized so that its cost tracks the DAG it
produces.  ``_tau`` is keyed on its terms, relation and the whole branch
context.  The quasi-mode comparison of two argument tuples, ``_lex_two``,
would miss almost always on such a key, because every path to a cell
``(i, j)`` fixes different filtering literals of the earlier positions.  A
cell can only read atoms over the symbols of the argument suffixes from
``i`` and ``j`` on, plus the filtering atoms of the two heads at those
positions and later.  So it is keyed on the context cut down to these atoms
and built under that cut-down context: every read answers as before, and
hash-consing returns the same node the full context would have given.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from . import atoms as A
from .dp import DpProblem
from .formula import Formula, FormulaBuilder
from .terms import App, Rule, Symbol, Term, Var, functions

GT = "gt"
GE = "ge"


@dataclass(frozen=True)
class Ctx:
    """Atoms known true/false on the current construction branch."""

    true_atoms: frozenset = frozenset()
    false_atoms: frozenset = frozenset()

    def value(self, atom) -> bool | None:
        if atom in self.true_atoms:
            return True
        if atom in self.false_atoms:
            return False
        return None


EMPTY_CTX = Ctx()


def _consequences(atom, value: bool) -> list[tuple[object, bool]]:
    """Facts entailed by fixing one atom, for assignments that describe an
    actual precedence and filtering."""
    out: list[tuple[object, bool]] = [(atom, value)]
    if isinstance(atom, A.CollapsesTo) and value:
        f, i = atom.fun, atom.pos
        out.append((A.ListP(f), False))
        out.append((A.ArgIn(f, i), True))
        for j in range(1, f.arity + 1):
            if j != i:
                out.append((A.CollapsesTo(f, j), False))
                out.append((A.ArgIn(f, j), False))
    elif isinstance(atom, A.ListP) and value:
        for j in range(1, atom.fun.arity + 1):
            out.append((A.CollapsesTo(atom.fun, j), False))
    elif isinstance(atom, A.ArgIn) and not value:
        out.append((A.CollapsesTo(atom.fun, atom.pos), False))
    elif isinstance(atom, A.PoGt) and value:
        out.append((A.PoGt(atom.right, atom.left), False))
        out.append((_poeq(atom.left, atom.right), False))
    elif isinstance(atom, A.PoEq) and value:
        out.append((A.PoGt(atom.left, atom.right), False))
        out.append((A.PoGt(atom.right, atom.left), False))
    return out


def _poeq(f: Symbol, g: Symbol) -> A.PoEq:
    if (g.name, g.is_tuple) < (f.name, f.is_tuple):
        f, g = g, f
    return A.PoEq(f, g)


class EncodingContext:
    """One encoding session: builder, comparison mode, and memo tables."""

    def __init__(self, mode: str = "strict", *, simplify: bool = True,
                 share: bool = True, propagate: bool = True):
        if mode not in ("strict", "quasi"):
            raise ValueError(f"mode must be 'strict' or 'quasi', got {mode!r}")
        self.mode = mode
        self.builder = FormulaBuilder(simplify=simplify, share=share)
        self.propagate = propagate
        self._memo: dict = {}
        self._lex_memo: dict = {}
        # (argument tuple, position) -> symbols occurring from that position on
        self._suffix_symbols: dict[tuple[tuple[Term, ...], int], frozenset[Symbol]] = {}

    # ------------------------------------------------------------------
    # context plumbing

    def _known(self, ctx: Ctx, atom) -> bool | None:
        return ctx.value(atom) if self.propagate else None

    def _assume(self, ctx: Ctx, atom, value: bool) -> Ctx:
        if not self.propagate:
            return ctx
        true_atoms = set(ctx.true_atoms)
        false_atoms = set(ctx.false_atoms)
        for a, v in _consequences(atom, value):
            (true_atoms if v else false_atoms).add(a)
        return Ctx(frozenset(true_atoms), frozenset(false_atoms))

    def _atom(self, ctx: Ctx, payload) -> Formula:
        known = self._known(ctx, payload)
        if known is True:
            return self.builder.TRUE
        if known is False:
            return self.builder.FALSE
        return self.builder.atom(payload)

    def _with_literals(self, ctx: Ctx, literals: Sequence[tuple[object, bool]],
                       body: Callable[[Ctx], Sequence[Formula]]) -> Formula:
        """Conjunction of the given atom literals with formulas built under a
        context extended by them."""
        b = self.builder
        parts: list[Formula] = []
        inner = ctx
        for payload, positive in literals:
            known = self._known(inner, payload)
            if known is None:
                node = b.atom(payload)
                parts.append(node if positive else b.not_(node))
                inner = self._assume(inner, payload, positive)
            elif known != positive:
                return b.FALSE
        return b.and_(list(parts) + list(body(inner)))

    def _guarded(self, ctx: Ctx, payload, body: Callable[[Ctx], Formula]) -> Formula:
        """``payload -> body``, with the guard assumed inside the body."""
        b = self.builder
        known = self._known(ctx, payload)
        if known is True:
            return body(ctx)
        if known is False:
            return b.TRUE
        return b.implies(b.atom(payload), body(self._assume(ctx, payload, True)))

    # ------------------------------------------------------------------
    # inequality encodings

    def tau_gt(self, s: Term, t: Term, ctx: Ctx = EMPTY_CTX) -> Formula:
        """Constraints under which ``s`` strictly exceeds ``t``."""
        return self._tau(s, t, GT, ctx)

    def tau_ge(self, s: Term, t: Term, ctx: Ctx = EMPTY_CTX) -> Formula:
        """Constraints under which ``s`` weakly exceeds ``t``."""
        return self._tau(s, t, GE, ctx)

    def _tau(self, s: Term, t: Term, rel: str, ctx: Ctx) -> Formula:
        use_memo = self.builder.share
        key = (s, t, rel, ctx) if use_memo else None
        if use_memo and key in self._memo:
            return self._memo[key]
        result = self._build_tau(s, t, rel, ctx)
        if use_memo:
            self._memo[key] = result
        return result

    def _build_tau(self, s: Term, t: Term, rel: str, ctx: Ctx) -> Formula:
        b = self.builder
        if isinstance(s, Var):
            if rel == GT:
                return b.FALSE
            if isinstance(t, Var):
                return b.TRUE if s == t else b.FALSE
            # a variable only weakly exceeds a collapsed application
            return b.or_([
                self._with_literals(
                    ctx, [(A.CollapsesTo(t.fun, j), True)],
                    lambda c, j=j: [self._tau(s, t.args[j - 1], GE, c)])
                for j in range(1, t.fun.arity + 1)
            ])

        f = s.fun
        branches: list[Formula] = []

        if isinstance(t, App):
            g = t.fun
            # target root collapsed away
            for j in range(1, g.arity + 1):
                branches.append(self._with_literals(
                    ctx, [(A.CollapsesTo(g, j), True)],
                    lambda c, j=j: [self._tau(s, t.args[j - 1], rel, c)]))
            # both roots kept: compare heads, guard every kept argument of t
            branches.append(self._roots_branch(s, t, rel, ctx))

        # source root collapsed onto one argument
        for i in range(1, f.arity + 1):
            branches.append(self._with_literals(
                ctx, [(A.CollapsesTo(f, i), True)],
                lambda c, i=i: [self._tau(s.args[i - 1], t, rel, c)]))
        # source kept: some kept argument already weakly exceeds t
        branches.append(self._with_literals(
            ctx, [(A.ListP(f), True)],
            lambda c: [b.or_([
                self._with_literals(c, [(A.ArgIn(f, i), True)],
                                    lambda c2, i=i: [self._tau(s.args[i - 1], t, GE, c2)])
                for i in range(1, f.arity + 1)
            ])]))
        return b.or_(branches)

    def _roots_branch(self, s: App, t: App, rel: str, ctx: Ctx) -> Formula:
        b = self.builder
        f, g = s.fun, t.fun

        def body(c: Ctx) -> list[Formula]:
            parts: list[Formula] = []
            if f == g:
                parts.append(self._lex_same(f, s.args, t.args, 1, rel, c))
            elif self.mode == "quasi":
                lex = self._with_literals(
                    c, [(_poeq(f, g), True)],
                    lambda c2: [self._lex_two(f, g, s.args, t.args, 1, 1, rel, c2)])
                parts.append(b.or_([self._atom(c, A.PoGt(f, g)), lex]))
            for j in range(1, g.arity + 1):
                parts.append(self._guarded(
                    c, A.ArgIn(g, j),
                    lambda c2, j=j: self._tau(s, t.args[j - 1], GT, c2)))
            return parts

        literals = [(A.ListP(f), True)]
        if f != g:
            literals.append((A.ListP(g), True))
            if self.mode == "strict":
                literals.append((A.PoGt(f, g), True))
        return self._with_literals(ctx, literals, body)

    def _lex_same(self, f: Symbol, ss: tuple[Term, ...], ts: tuple[Term, ...],
                  i: int, rel: str, ctx: Ctx) -> Formula:
        """Lexicographic comparison of the argument tuples of one symbol,
        skipping positions the filtering drops."""
        b = self.builder
        if i > len(ss):
            return b.FALSE if rel == GT else b.TRUE
        first = self._with_literals(
            ctx, [(A.ArgIn(f, i), True)],
            lambda c: [self._tau(ss[i - 1], ts[i - 1], GT, c)])
        hold = self._guarded(
            ctx, A.ArgIn(f, i),
            lambda c: self._tau(ss[i - 1], ts[i - 1], GE, c))
        rest = self._lex_same(f, ss, ts, i + 1, rel, ctx)
        return b.or_([first, b.and_([hold, rest])])

    def _lex_two(self, f: Symbol, g: Symbol, ss: tuple[Term, ...], ts: tuple[Term, ...],
                 i: int, j: int, rel: str, ctx: Ctx) -> Formula:
        """Lexicographic comparison across two equivalent symbols with
        independent filterings (quasi mode), memoized on the part of the
        context the comparison can read."""
        if not self.builder.share:
            return self._build_lex_two(f, g, ss, ts, i, j, rel, ctx)
        ctx = self._lex_readable(f, g, ss, ts, i, j, ctx)
        key = (f, g, ss, ts, i, j, rel, ctx)
        result = self._lex_memo.get(key)
        if result is None:
            result = self._build_lex_two(f, g, ss, ts, i, j, rel, ctx)
            self._lex_memo[key] = result
        return result

    def _lex_readable(self, f: Symbol, g: Symbol, ss: tuple[Term, ...],
                      ts: tuple[Term, ...], i: int, j: int, ctx: Ctx) -> Ctx:
        """``ctx`` cut down to the atoms ``_lex_two`` at ``(i, j)`` can read:
        those over symbols of ``ss[i-1:]`` and ``ts[j-1:]``, and the filtering
        atoms of ``f`` from ``i`` and of ``g`` from ``j`` on."""
        syms = self._symbols_from(ss, i) | self._symbols_from(ts, j)

        def readable(atom) -> bool:
            if isinstance(atom, A.ArgIn) and (
                    (atom.fun == f and atom.pos >= i) or (atom.fun == g and atom.pos >= j)):
                return True
            if isinstance(atom, (A.PoGt, A.PoEq)):
                return atom.left in syms and atom.right in syms
            return atom.fun in syms

        return Ctx(frozenset(filter(readable, ctx.true_atoms)),
                   frozenset(filter(readable, ctx.false_atoms)))

    def _symbols_from(self, args: tuple[Term, ...], i: int) -> frozenset[Symbol]:
        """Function symbols occurring in ``args[i-1:]``."""
        key = (args, i)
        syms = self._suffix_symbols.get(key)
        if syms is None:
            syms = frozenset(h for t in args[i - 1:] for h in functions(t))
            self._suffix_symbols[key] = syms
        return syms

    def _build_lex_two(self, f: Symbol, g: Symbol, ss: tuple[Term, ...],
                       ts: tuple[Term, ...], i: int, j: int, rel: str, ctx: Ctx) -> Formula:
        b = self.builder
        if i > len(ss):
            if rel == GT:
                return b.FALSE
            # weak: nothing may remain on the right either
            return self._with_literals(
                ctx, [(A.ArgIn(g, c), False) for c in range(j, len(ts) + 1)],
                lambda _c: [])
        if j > len(ts):
            if rel == GE:
                return b.TRUE
            # strict: something must remain on the left
            return b.or_([self._atom(ctx, A.ArgIn(f, c))
                          for c in range(i, len(ss) + 1)])
        skip_left = self._with_literals(
            ctx, [(A.ArgIn(f, i), False)],
            lambda c: [self._lex_two(f, g, ss, ts, i + 1, j, rel, c)])
        skip_right = self._with_literals(
            ctx, [(A.ArgIn(f, i), True), (A.ArgIn(g, j), False)],
            lambda c: [self._lex_two(f, g, ss, ts, i, j + 1, rel, c)])
        compare = self._with_literals(
            ctx, [(A.ArgIn(f, i), True), (A.ArgIn(g, j), True)],
            lambda c: [b.or_([
                self._tau(ss[i - 1], ts[j - 1], GT, c),
                b.and_([self._tau(ss[i - 1], ts[j - 1], GE, c),
                        self._lex_two(f, g, ss, ts, i + 1, j + 1, rel, c)]),
            ])])
        return b.or_([skip_left, skip_right, compare])

    def tau_lex(self, f: Symbol, sargs: Sequence[Term], targs: Sequence[Term],
                start: int = 1, relation: str = GT) -> Formula:
        """Public entry point for the single-symbol lexicographic encoding."""
        if len(sargs) != len(targs):
            raise ValueError("argument tuples of one symbol must have equal length")
        return self._lex_same(f, tuple(sargs), tuple(targs), start, relation, EMPTY_CTX)

    # ------------------------------------------------------------------

    def identity_filtering_constraint(self, symbols: Sequence[Symbol]) -> Formula:
        """Force the filtering to keep every argument of every symbol."""
        b = self.builder
        parts = []
        for f in symbols:
            parts.append(b.atom(A.ListP(f)))
            for i in range(1, f.arity + 1):
                parts.append(b.atom(A.ArgIn(f, i)))
        return b.and_(parts)


@dataclass(frozen=True)
class RpEncoding:
    """A reduction-pair search problem as a single formula."""

    formula: Formula
    context: EncodingContext
    problem: DpProblem
    processor: str
    usable: tuple[Rule, ...]
    usable_symbols: tuple[Symbol, ...]


def encode_rp_formula(problem: DpProblem, processor: str = "thm12",
                      mode: str = "strict", *, simplify: bool = True, share: bool = True,
                      propagate: bool = True) -> RpEncoding:
    """Formula whose models are the orderings accepted by the reduction pair
    processor: every pair weakly decreasing, at least one strictly, and the
    usable rules weakly decreasing.

    With ``processor="thm5"`` the usable rules are the classical closure and
    their orientation is required outright.  With ``processor="thm12"`` rule
    orientation is conditional on per-symbol usability flags that track which
    rules survive under the chosen filtering.
    """
    from .usable import omega, usable_rules, defined_usable_symbols

    if processor not in ("thm5", "thm12"):
        raise ValueError(f"processor must be 'thm5' or 'thm12', got {processor!r}")
    ctx = EncodingContext(mode, simplify=simplify, share=share, propagate=propagate)
    b = ctx.builder
    pairs = problem.pairs.rules
    usable = usable_rules(problem.pairs, problem.rules)
    usable_syms: tuple[Symbol, ...] = ()

    parts: list[Formula] = []
    if processor == "thm5":
        for rule in usable:
            parts.append(ctx.tau_ge(rule.lhs, rule.rhs))
    else:
        usable_syms = defined_usable_symbols(problem.pairs, problem.rules)
        parts.append(omega(problem.pairs, problem.rules, ctx))

    for p in pairs:
        parts.append(ctx.tau_ge(p.lhs, p.rhs))

    strict_atoms = []
    for i, p in enumerate(pairs):
        marker = b.atom(A.StrictPair(i))
        parts.append(b.iff(marker, ctx.tau_gt(p.lhs, p.rhs)))
        strict_atoms.append(marker)
    parts.append(b.or_(strict_atoms))

    return RpEncoding(b.and_(parts), ctx, problem, processor, usable, usable_syms)
