"""Constraint construction for filtered path-order inequalities.

``tau_gt(s, t)`` builds a formula over precedence and filtering atoms that is
satisfied by exactly those (precedence, filtering) pairs under which ``s``
strictly exceeds ``t``; ``tau_ge`` is the weak counterpart.  The builder
applies three size optimizations: constant folding and flattening, pruning
against atoms already known true or false on the current branch, and
hash-consing of identical subformulas.  Each can be switched off.

The branch context is one int, ``Ctx``: each ``EncodingContext`` numbers
the atoms it meets and gives every atom a "known true" and a "known false"
bit.  Looking an atom up tests a bit, and assuming one ORs in the bits of
its consequences, computed once per atom and value.

With sharing on, construction is memoized so that its cost tracks the DAG it
produces.  A key holding the whole branch context would miss almost always,
because every path to a comparison fixes different literals elsewhere in the
problem.  So each memoized comparison is keyed on the context cut down, by
one AND with a cached mask, to the atoms it can read, and built under that
cut-down context: every read answers as before, and hash-consing returns the
same node the full context would have given.
- ``_tau(s, t)`` reads and assumes only atoms over the function symbols of
  ``s`` and ``t``.
- The quasi-mode comparison of two argument tuples, ``_lex_two`` at cell
  ``(i, j)``, reads the atoms over the symbols of the argument suffixes from
  ``i`` and ``j`` on, plus the filtering atoms of the two heads at those
  positions and later.

For a mask to stay complete, meeting a symbol numbers at once every atom
over it alone and every precedence atom between it and the symbols met
before.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Sequence

from . import atoms as A
from .dp import DpProblem
from .formula import Formula, FormulaBuilder
from .terms import App, Rule, Symbol, Term, Var, functions

GT = "gt"
GE = "ge"


Ctx = int
"""Atoms known true or false on the current construction branch, as a bit
set.  Each ``EncodingContext`` numbers the atoms it meets: atom ``k`` owns
bit ``2k`` ("known true") and bit ``2k + 1`` ("known false")."""

EMPTY_CTX: Ctx = 0


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
    # a total order, so that both argument orders give the one atom that
    # ``EncodingContext._meet`` numbers
    if (g.name, g.is_tuple, g.arity) < (f.name, f.is_tuple, f.arity):
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
        # atom -> its "known true" bit; the "known false" bit is the next one
        self._bits: dict = {}
        # symbol -> both bits of each atom over it alone
        self._own: dict[Symbol, int] = {}
        # (f, g) -> both bits of each precedence atom between f and g
        self._between: dict[tuple[Symbol, Symbol], int] = {}
        # (atom, value) -> the bits that fixing the atom sets
        self._implied: dict = {}
        # symbol set -> both bits of each atom over those symbols
        self._masks: dict[frozenset[Symbol], int] = {}
        # cells -> the bits ``_tau`` and ``_lex_two`` can read there
        self._tau_masks: dict[tuple[Term, Term], int] = {}
        self._lex_masks: dict = {}

    # ------------------------------------------------------------------
    # context plumbing

    def _meet(self, f: Symbol) -> None:
        """On first meeting ``f``, number the atoms over ``f`` alone and the
        precedence atoms between ``f`` and every symbol met before.  A mask
        taken over met symbols then already holds every atom over them that
        can ever get a bit."""
        if f in self._own:
            return
        others = list(self._own)
        own = [A.ListP(f), A.Usable(f)]
        for i in range(1, f.arity + 1):
            own += [A.ArgIn(f, i), A.CollapsesTo(f, i)]
        self._own[f] = self._number(own)
        for g in others:
            self._between[f, g] = self._between[g, f] = self._number(
                [A.PoGt(f, g), A.PoGt(g, f), _poeq(f, g)])

    def _number(self, atoms: list) -> int:
        mask = 0
        for atom in atoms:
            bit = 1 << 2 * len(self._bits)
            self._bits[atom] = bit
            mask |= bit | bit << 1
        return mask

    def _bit(self, atom) -> int:
        bit = self._bits.get(atom)
        if bit is None:
            if isinstance(atom, (A.PoGt, A.PoEq)):
                self._meet(atom.left)
                self._meet(atom.right)
            else:
                self._meet(atom.fun)
            bit = self._bits[atom]
        return bit

    def _readable(self, symbols: frozenset[Symbol]) -> int:
        """Both bits of every atom over ``symbols``."""
        mask = self._masks.get(symbols)
        if mask is None:
            mask = 0
            for f in symbols:
                self._meet(f)
                mask |= self._own[f]
            for f, g in combinations(symbols, 2):
                mask |= self._between[f, g]
            self._masks[symbols] = mask
        return mask

    def _known(self, ctx: Ctx, atom) -> bool | None:
        if not ctx:
            return None
        bit = self._bit(atom)
        if ctx & bit:
            return True
        if ctx & bit << 1:
            return False
        return None

    def _assume(self, ctx: Ctx, atom, value: bool) -> Ctx:
        if not self.propagate:
            return ctx
        implied = self._implied.get((atom, value))
        if implied is None:
            implied = 0
            for a, v in _consequences(atom, value):
                bit = self._bit(a)
                implied |= bit if v else bit << 1
            self._implied[atom, value] = implied
        return ctx | implied

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
        """Memoized on the part of the context the comparison can read."""
        if not self.builder.share:
            return self._build_tau(s, t, rel, ctx)
        ctx = self._tau_readable(s, t, ctx)
        key = (s, t, rel, ctx)
        result = self._memo.get(key)
        if result is None:
            result = self._build_tau(s, t, rel, ctx)
            self._memo[key] = result
        return result

    def _tau_readable(self, s: Term, t: Term, ctx: Ctx) -> Ctx:
        """``ctx`` cut down to the atoms ``_tau`` on ``s`` and ``t`` can read:
        those over the function symbols of the two terms."""
        if not ctx:
            return ctx
        mask = self._tau_masks.get((s, t))
        if mask is None:
            mask = self._readable(self._symbols_from((s, t), 1))
            self._tau_masks[s, t] = mask
        return ctx & mask

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
        those over symbols of ``ss[i-1:]`` and ``ts[j-1:]``, and the ``ArgIn``
        atoms of ``f`` from ``i`` and of ``g`` from ``j`` on."""
        if not ctx:
            return ctx
        key = (f, g, ss, ts, i, j)
        mask = self._lex_masks.get(key)
        if mask is None:
            mask = self._readable(self._symbols_from(ss, i) | self._symbols_from(ts, j))
            for h, start in ((f, i), (g, j)):
                for k in range(start, h.arity + 1):
                    mask |= 3 * self._bit(A.ArgIn(h, k))
            self._lex_masks[key] = mask
        return ctx & mask

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
    from . import usable as U

    if processor not in ("thm5", "thm12"):
        raise ValueError(f"processor must be 'thm5' or 'thm12', got {processor!r}")
    ctx = EncodingContext(mode, simplify=simplify, share=share, propagate=propagate)
    b = ctx.builder
    pairs = problem.pairs.rules
    usable = U.usable_rules(problem.pairs, problem.rules)
    usable_syms: tuple[Symbol, ...] = ()

    parts: list[Formula] = []
    if processor == "thm5":
        for rule in usable:
            parts.append(ctx.tau_ge(rule.lhs, rule.rhs))
    else:
        usable_syms = U.roots(usable)
        # looked up on the module at call time, where a tracer may wrap it
        parts.append(U.omega(problem.pairs, problem.rules, ctx, usable_syms))

    for p in pairs:
        parts.append(ctx.tau_ge(p.lhs, p.rhs))

    strict_atoms = []
    for i, p in enumerate(pairs):
        marker = b.atom(A.StrictPair(i))
        parts.append(b.iff(marker, ctx.tau_gt(p.lhs, p.rhs)))
        strict_atoms.append(marker)
    parts.append(b.or_(strict_atoms))

    return RpEncoding(b.and_(parts), ctx, problem, processor, usable, usable_syms)
