"""Constraint construction for filtered path-order inequalities.

``tau_gt(s, t)`` builds a formula over precedence and filtering atoms that is
satisfied by exactly those (precedence, filtering) pairs under which ``s``
strictly exceeds ``t``; ``tau_ge`` is the weak counterpart.  The builder
applies three size optimizations: constant folding and flattening, pruning
against atoms already known true or false on the current branch, and
hash-consing of identical subformulas.  Each can be switched off.

Construction works on atom numbers, not atom objects.  Each
``EncodingContext`` builds every atom once, when it first meets a symbol
(``_meet``), and numbers it; per-symbol and per-pair tables then give the
number of each atom a comparison needs, and a literal is a pair ``(k,
positive)``.  The branch context is one int, ``Ctx``: atom ``k`` owns a
"known true" and a "known false" bit.  Looking an atom up tests a bit.  What
each literal implies in every actual precedence and filtering is fixed, as a
bit mask, when ``_meet`` numbers its atoms, so assuming a literal is one OR;
with ``propagate`` off, ``_meet`` leaves every mask empty.  The formula node
of an atom is made from its object when first needed, and kept per number
when the builder shares nodes.

A branch whose body is one memoized comparison hands its guard literals
to that comparison: ``_compare`` takes them, enters them in place, a bit
test per literal (``FALSE`` when one is known false), builds or looks up
the body under the extended context and conjoins it to the nodes of the
literals not yet known.  A loop over such branches tests each one's guard
before the call, and appends the ``FALSE`` itself when the guard is known
false.  The kept branch of ``_build_tau``, ``_roots_branch`` and
``_build_lex_two`` enter their other literals the same way, and the
implications ``guard -> body`` of ``_roots_branch`` and ``_lex_same``
open their guards in place too, and so does the usable-flag walk
(``usable_flags``, ``if_usable``), so no other module reads the branch
context.  A symbol's atom numbers are read in place as well, as
``self._own.get(f) or self._meet(f)``: ``encode_rp_formula`` meets every
symbol up front.  No helper takes a body to call back, and ``_compare``
picks its builder in its own frame, so descending one level of a term
costs two frames, ``_compare`` and ``_build_tau``.  The order in which
nodes are made fixes their ids, so a branch makes its literal nodes before
its body, and a guard tested in place leaves the constant the call would
have returned among the branches.

With sharing on, construction is memoized so that its cost tracks the DAG it
produces, in one cell per memoized comparison.  Terms and symbols are
hash-consed (see ``terms``), so a cell is keyed on the compared terms
themselves and hashing its key runs no Python code: ``(s, t)`` for τ, and
``(s, t, i, j)`` for the quasi-mode comparison of the arguments of ``s``
and ``t`` from positions ``i`` and ``j`` on (``_build_lex_two``).  τ
compares filtered terms: where the context knows ``f`` collapses onto
``i``, ``f(t1, ..., tn)`` filters to ``ti``, so ``_compare`` keys τ on
these images (``_image``), which it looks for only when the context knows
some collapse.  Lex keys need none: ``_roots_branch`` enters the list
flags of both heads before it makes one.  A key holding the whole branch
context would miss almost always, because every path to a comparison fixes
different literals elsewhere.  So the cell keeps a mask of the atoms the
comparison can read, made the first time a non-empty context reaches it,
and its results keyed on the relation and the context cut down by that
mask.  Each result is built under the cut-down context:
every read answers as before, and hash-consing returns the same node the
full context would have given.  The one mask rule (``_mask``): a
comparison reads and assumes only atoms over the function symbols of the
terms it compares (for a τ key, of the images, so fewer; kept per pair of
symbol sets), which for ``(s, t, i, j)`` are the argument suffixes, plus
the filtering atoms of the two heads at those positions and later.

For a mask to stay complete, meeting a symbol numbers at once every atom
over it alone and every precedence atom between it and the symbols met
before.

Occurrence pruning.  A filtering only deletes, and the LPO's variable
condition says ``s ≥ x`` for a variable ``x`` only if ``x`` occurs in the
filtered ``s``.  So ``x ≥ f(t1, ..., tn)`` holds only through a collapse of
``f`` onto an argument that contains ``x``, and ``s > x`` and ``s ≥ x``
only through arguments of ``s`` that contain ``x``; ``_build_tau`` skips
every other argument, by the variable sets each term carries
(``Term.variables``).  A skipped argument meets no symbol, so
``encode_rp_formula`` meets every symbol of the round's pairs and
classically usable rules up front, in ``symbol_key`` order: the model
replay and the proof read them all.

Short-circuits.  With ``simplify`` on, the builder folds a disjunction with
a ``TRUE`` branch to ``TRUE`` and a conjunction with a ``FALSE`` part to
``FALSE``, whatever the siblings are, so construction stops there, in the
order the branches are built: ``_build_tau`` at a ``TRUE`` roots branch,
and at a ``TRUE`` kept argument when the list flag of ``s``'s root is
known, ``_roots_branch`` at its first ``FALSE`` part, ``_lex_same`` at the
first position whose "greater here" is ``TRUE`` or whose "equal here" is
``FALSE``, ``_build_lex_two`` before ``s_i ≥ t_j`` when ``s_i > t_j`` is
``TRUE`` and before the next cell when ``s_i ≥ t_j`` is ``FALSE``, and
``_compare`` returns a ``FALSE`` body without the conjunction with its
literal nodes.  A skipped sibling makes no nodes, so the ids of later nodes
shift; otherwise the formula is the one a full build gives.  With
``simplify`` off the builder keeps constants as children, and every branch
is built.  No collapse branch of ``_build_tau`` decides, by the imaging
invariant: ``_compare`` keys τ on the images under every collapse the
context knows, so no collapse guard of either root is known true in a
build, and an ``ArgIn`` of ``s``'s root is known true only with its
``ListP``.

Given a deadline, the miss path of ``_compare`` reads the clock once per
``DEADLINE_BUILDS`` builds and, past the deadline, unwinds the whole
encoding with ``OutOfTime``, which the prover reports as a timeout.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

from . import atoms as A
from . import usable as U
from .dp import DpProblem
from .formula import Formula, FormulaBuilder
from .terms import App, Rule, Symbol, Term, Var, symbol_key

GT = "gt"
GE = "ge"


Ctx = int
"""Atoms known true or false on the current construction branch, as a bit
set.  Each ``EncodingContext`` numbers the atoms it builds: atom ``k`` owns
bit ``2k`` ("known true") and bit ``2k + 1`` ("known false"), so the bit of
literal ``(k, positive)`` is bit ``2k + (not positive)``."""

EMPTY_CTX: Ctx = 0

_NO_SYMBOLS: frozenset[Symbol] = frozenset()

DEADLINE_BUILDS = 256
"""A context with a deadline looks at the clock once per this many builds."""


class OutOfTime(Exception):
    """The deadline has passed.  Raised by a build past the context's
    deadline and by the prover's own checks; ``prove`` reports it as a
    timeout."""


class SymbolAtoms:
    """Numbers of the atoms over one symbol alone.  ``arg_in[i]`` and
    ``collapses_to[i]`` belong to argument position ``i + 1``, so they line
    up with ``args[i]``; ``mask`` holds both bits of each of these atoms."""

    __slots__ = ("list_p", "usable", "arg_in", "collapses_to", "mask")

    def __init__(self, list_p: int, usable: int, arg_in: tuple[int, ...],
                 collapses_to: tuple[int, ...], mask: int):
        self.list_p = list_p
        self.usable = usable
        self.arg_in = arg_in
        self.collapses_to = collapses_to
        self.mask = mask


def _poeq(f: Symbol, g: Symbol) -> A.PoEq:
    # a total order, so that both argument orders give the one atom
    if symbol_key(g) < symbol_key(f):
        f, g = g, f
    return A.PoEq(f, g)


class EncodingContext:
    """One encoding session: builder, comparison mode, atom tables and memo
    tables."""

    def __init__(self, mode: str = "strict", *, simplify: bool = True,
                 share: bool = True, propagate: bool = True,
                 deadline: float | None = None):
        if mode not in ("strict", "quasi"):
            raise ValueError(f"mode must be 'strict' or 'quasi', got {mode!r}")
        self.mode = mode
        self.builder = FormulaBuilder(simplify=simplify, share=share)
        # the constants at which construction stops a disjunction and a
        # conjunction, which the builder folds to them whatever the other
        # parts are; ``None`` when it keeps constants as children
        self._decides_or = self.builder.TRUE if simplify else None
        self._decides_and = self.builder.FALSE if simplify else None
        self.propagate = propagate
        # a ``time.monotonic`` value, and the builds made so far
        self.deadline = deadline
        self._builds = 0
        # per atom number k: the atom and its formula node once made
        self._atoms: list = []
        self._nodes: list[Formula | None] = []
        # literal 2k + (not positive) -> the bits that assuming it sets
        self._implied: list[int] = []
        self._own: dict[Symbol, SymbolAtoms] = {}
        # (f, g) -> numbers of PoGt(f, g) and of the PoEq atom of f and g,
        # and both bits of each precedence atom between f and g
        self._precedence: dict[tuple[Symbol, Symbol], tuple[int, int, int]] = {}
        # the "known true" bits of every CollapsesTo atom
        self._collapse_bits = 0
        # symbol set -> both bits of each atom over those symbols
        self._masks: dict[frozenset[Symbol], int] = {}
        # (symbols of s, symbols of t) -> the mask of a τ key (s, t)
        self._pair_masks: dict[tuple[frozenset[Symbol], frozenset[Symbol]], int] = {}
        # one cell per memoized comparison, keyed (s, t) or (s, t, i, j):
        # [the bits it can read, or None until a non-empty context reaches
        # it; {(rel, cut context): formula}]
        self._cells: dict[tuple, list] = {}

    # ------------------------------------------------------------------
    # atom tables

    def _number(self, atom) -> int:
        """Number ``atom``; each of its literals implies at least itself."""
        k = len(self._atoms)
        self._atoms.append(atom)
        self._nodes.append(None)
        self._implied += (1 << 2 * k, 2 << 2 * k)
        return k

    def _meet(self, f: Symbol) -> SymbolAtoms:
        """The atom numbers over ``f``, numbering them when ``f`` is first
        met, together with the precedence atoms between ``f`` and every
        symbol met before.  A mask taken over met symbols then already holds
        every atom over them that can ever get a bit.  Numbering fixes what
        each literal implies in every actual precedence and filtering (with
        ``propagate`` off: nothing, not even itself)."""
        own = self._own.get(f)
        if own is not None:
            return own
        others = list(self._own)
        start = first = len(self._atoms)
        list_p = self._number(A.ListP(f))
        usable = self._number(A.Usable(f))
        arg_in, collapses_to = [], []
        for i in range(1, f.arity + 1):
            arg_in.append(self._number(A.ArgIn(f, i)))
            collapses_to.append(self._number(A.CollapsesTo(f, i)))
        mask = (1 << 2 * len(self._atoms)) - (1 << 2 * first)
        own = self._own[f] = SymbolAtoms(list_p, usable, tuple(arg_in),
                                         tuple(collapses_to), mask)
        implied = self._implied
        # f kept collapses nowhere; an argument filtered away is not the
        # one f collapses to; f collapsed onto i keeps i and nothing else:
        # every position's "known false" bits but i's own
        positions_false = 0
        for a, c in zip(arg_in, collapses_to):
            positions_false |= 2 << 2 * a | 2 << 2 * c
            self._collapse_bits |= 1 << 2 * c
        for a, c in zip(arg_in, collapses_to):
            implied[2 * list_p] |= 2 << 2 * c
            implied[2 * a + 1] |= 2 << 2 * c
            implied[2 * c] |= (positions_false & ~(2 << 2 * a | 2 << 2 * c)
                               | 2 << 2 * list_p | 1 << 2 * a)
        for g in others:
            first = len(self._atoms)
            fg = self._number(A.PoGt(f, g))
            gf = self._number(A.PoGt(g, f))
            eq = self._number(_poeq(f, g))
            between = (1 << 2 * len(self._atoms)) - (1 << 2 * first)
            self._precedence[f, g] = (fg, eq, between)
            self._precedence[g, f] = (gf, eq, between)
            # at most one of f > g, g > f and f ~ g holds
            implied[2 * fg] |= 2 << 2 * gf | 2 << 2 * eq
            implied[2 * gf] |= 2 << 2 * fg | 2 << 2 * eq
            implied[2 * eq] |= 2 << 2 * fg | 2 << 2 * gf
        if not self.propagate:
            implied[2 * start:] = [0] * (len(implied) - 2 * start)
        return own

    def _node(self, k: int) -> Formula:
        """The formula node of atom ``k``: kept per number when nodes are
        shared, made afresh on every request when not."""
        node = self._nodes[k]
        if node is None:
            node = self.builder.atom(self._atoms[k])
            if self.builder.share:
                self._nodes[k] = node
        return node

    # ------------------------------------------------------------------
    # context plumbing

    def _readable(self, symbols: frozenset[Symbol]) -> int:
        """Both bits of every atom over ``symbols``."""
        mask = self._masks.get(symbols)
        if mask is None:
            mask = 0
            for f in symbols:
                mask |= self._meet(f).mask
            for f, g in combinations(symbols, 2):
                mask |= self._precedence[f, g][2]
            self._masks[symbols] = mask
        return mask

    def _atom(self, ctx: Ctx, k: int) -> Formula:
        bits = ctx >> 2 * k & 3
        if not bits:
            return self._node(k)
        return self.builder.TRUE if bits & 1 else self.builder.FALSE

    # ------------------------------------------------------------------
    # inequality encodings

    def tau_gt(self, s: Term, t: Term, ctx: Ctx = EMPTY_CTX) -> Formula:
        """Constraints under which ``s`` strictly exceeds ``t``."""
        return self._compare((s, t), GT, ctx)

    def tau_ge(self, s: Term, t: Term, ctx: Ctx = EMPTY_CTX) -> Formula:
        """Constraints under which ``s`` weakly exceeds ``t``."""
        return self._compare((s, t), GE, ctx)

    def _compare(self, key: tuple, rel: str, ctx: Ctx,
                 literals: Sequence[tuple[int, bool]] = ()) -> Formula:
        """The comparison at ``key``: τ of the images of ``(s, t)``, or
        ``_build_lex_two`` of ``(s, t, i, j)``.  Memoized on the part of the
        context it can read.  Given ``literals``, the branch on them: the
        comparison under the context they extend, conjoined to the nodes of
        those not yet known."""
        b = self.builder
        if literals:
            # the literals entered in place: a literal's two bits are 1 when
            # its atom is known true, 2 when known false only, 0 when not known
            parts: list[Formula] = []
            for k, positive in literals:
                bits = ctx >> 2 * k & 3
                if not bits:
                    node = self._nodes[k] or self._node(k)
                    parts.append(node if positive else b.not_(node))
                    ctx |= self._implied[2 * k + (not positive)]
                elif (bits == 2) == positive:
                    return b.FALSE
        if ctx & self._collapse_bits and len(key) == 2:
            key = (self._image(key[0], ctx), self._image(key[1], ctx))
        if b.share:
            cell = self._cells.get(key)
            if cell is None:
                cell = self._cells[key] = [None, {}]
            if ctx:
                if cell[0] is None:
                    cell[0] = self._mask(key)
                ctx &= cell[0]
            results = cell[1]
        else:
            results = {}
        result = results.get((rel, ctx))
        if result is None:
            if self.deadline is not None:
                self._builds += 1
                if not self._builds % DEADLINE_BUILDS and time.monotonic() > self.deadline:
                    raise OutOfTime
            if len(key) == 2:
                result = self._build_tau(key[0], key[1], rel, ctx)
            else:
                result = self._build_lex_two(key[0], key[1], key[2], key[3], rel, ctx)
            results[rel, ctx] = result
        if not literals or result is self._decides_and:
            return result
        parts.append(result)
        return b.and_(parts)

    def _image(self, t: Term, ctx: Ctx) -> Term:
        """``t`` filtered at the root levels ``ctx`` knows to collapse."""
        while isinstance(t, App):
            own = self._own.get(t.fun)
            if own is None or not ctx & 2 << 2 * own.list_p:
                return t
            for k, a in zip(own.collapses_to, t.args):
                if ctx >> 2 * k & 1:
                    break
            else:
                return t
            t = a
        return t

    def _mask(self, key: tuple) -> int:
        """The bits the comparison at ``key`` can read, by the one mask rule
        of the module docstring."""
        if len(key) == 2:
            pair = (key[0].symbols, key[1].symbols)
            mask = self._pair_masks.get(pair)
            if mask is None:
                mask = self._pair_masks[pair] = self._readable(pair[0] | pair[1])
            return mask
        s, t, i, j = key
        mask = self._readable(_NO_SYMBOLS.union(
            *[a.symbols for a in s.args[i - 1:] + t.args[j - 1:]]))
        for h, start in ((s.fun, i), (t.fun, j)):
            for k in self._meet(h).arg_in[start - 1:]:
                mask |= 3 << 2 * k
        return mask

    def _build_tau(self, s: Term, t: Term, rel: str, ctx: Ctx) -> Formula:
        # A branch below one comparison hands its guard literals to
        # ``_compare``, which enters them itself, so that descending one
        # level of a term costs two frames.  Plain loops, not comprehensions,
        # make the calls: a comprehension is one more frame per level.  Each
        # loop tests its guard first and, when it is known false, appends
        # the FALSE that ``_compare`` would return.  By the imaging
        # invariant, only the roots branch and, with ``list_p`` known, a
        # kept argument can decide the disjunction.
        b = self.builder
        branches: list[Formula] = []
        if isinstance(s, Var):
            # a variable only weakly exceeds itself, or an application
            # collapsed onto an argument that contains the variable
            if rel == GT or s not in t.variables:
                return b.FALSE
            if isinstance(t, Var):
                return b.TRUE
            x = s
        else:
            f = self._own.get(s.fun) or self._meet(s.fun)
            if isinstance(t, App):
                x = None
            elif t in s.variables:
                # s exceeds a variable only through arguments that contain it
                x = t
            else:
                return b.FALSE

        if isinstance(t, App):
            # target root collapsed away
            for k, a in zip((self._own.get(t.fun) or self._meet(t.fun)).collapses_to, t.args):
                if x is not None and x not in a.variables:
                    continue
                if ctx >> 2 * k & 3 == 2:
                    branches.append(b.FALSE)
                    continue
                branches.append(self._compare((s, a), rel, ctx, ((k, True),)))
            if x is s:
                return b.or_(branches)
            # both roots kept: compare heads, guard every kept argument of t
            branch = self._roots_branch(s, t, rel, ctx)
            if branch is self._decides_or:
                return branch
            branches.append(branch)

        # source root collapsed onto one argument
        for k, a in zip(f.collapses_to, s.args):
            if x is not None and x not in a.variables:
                continue
            if ctx >> 2 * k & 3 == 2:
                branches.append(b.FALSE)
                continue
            branches.append(self._compare((a, t), rel, ctx, ((k, True),)))
        # source kept: some kept argument already weakly exceeds t; its
        # literal entered in place, as ``_compare`` enters its own
        kept_parts: list[Formula] = []
        kept_ctx = ctx
        bits = ctx >> 2 * f.list_p & 3
        if bits == 2:
            branches.append(b.FALSE)
            return b.or_(branches)
        if not bits:
            kept_parts.append(self._nodes[f.list_p] or self._node(f.list_p))
            kept_ctx |= self._implied[2 * f.list_p]
        kept: list[Formula] = []
        for k, a in zip(f.arg_in, s.args):
            if x is not None and x not in a.variables:
                continue
            if kept_ctx >> 2 * k & 3 == 2:
                kept.append(b.FALSE)
                continue
            branch = self._compare((a, t), GE, kept_ctx, ((k, True),))
            if branch is self._decides_or and not kept_parts:
                # list_p known: the kept branch, and so the whole, holds
                return branch
            kept.append(branch)
        kept_parts.append(b.or_(kept))
        branches.append(b.and_(kept_parts))
        return b.or_(branches)

    def _roots_branch(self, s: App, t: App, rel: str, ctx: Ctx) -> Formula:
        # a conjunction: FALSE at its first part that is FALSE
        b = self.builder
        decides_and = self._decides_and
        f, g = s.fun, t.fun
        g_atoms = self._own.get(g) or self._meet(g)
        heads = [(self._own.get(f) or self._meet(f)).list_p]
        if f != g:
            heads.append(g_atoms.list_p)
            if self.mode == "strict":
                heads.append(self._precedence[f, g][0])
        # the head literals, all positive, entered in place
        parts: list[Formula] = []
        for k in heads:
            bits = ctx >> 2 * k & 3
            if not bits:
                parts.append(self._nodes[k] or self._node(k))
                ctx |= self._implied[2 * k]
            elif bits == 2:
                return b.FALSE
        if f == g:
            part = self._lex_same(f, s.args, t.args, rel, ctx)
        elif self.mode == "quasi":
            gt, eq, _ = self._precedence[f, g]
            lex = self._compare((s, t, 1, 1), rel, ctx, ((eq, True),))
            # the lex branch is built before the precedence atom's node
            part = b.or_([self._atom(ctx, gt), lex])
        else:
            part = None
        if part is not None:
            if part is decides_and:
                return part
            parts.append(part)
        # each kept argument of t, its guard opened in place
        for k, a in zip(g_atoms.arg_in, t.args):
            bits = ctx >> 2 * k & 3
            if bits == 2:
                parts.append(b.TRUE)
            elif bits:
                part = self._compare((s, a), GT, ctx)
                if part is decides_and:
                    return part
                parts.append(part)
            else:
                guard = self._nodes[k] or self._node(k)
                parts.append(b.implies(guard, self._compare(
                    (s, a), GT, ctx | self._implied[2 * k])))
        return b.and_(parts)

    def _lex_same(self, f: Symbol, ss: tuple[Term, ...], ts: tuple[Term, ...],
                  rel: str, ctx: Ctx) -> Formula:
        """Lexicographic comparison of the argument tuples of one symbol,
        skipping positions the filtering drops.  Each position's "greater
        here" and "equal here" parts are built in order, then folded from
        the last position back, which makes nodes in the order a recursion
        over the positions would, with no frame per position.  A position
        whose "greater here" is TRUE, or whose "equal here" is FALSE, decides
        the fold from there on, so the loop stops at it."""
        b = self.builder
        steps: list[tuple[Formula, Formula]] = []
        rest = b.FALSE if rel == GT else b.TRUE
        for k, s_i, t_i in zip((self._own.get(f) or self._meet(f)).arg_in, ss, ts):
            bits = ctx >> 2 * k & 3
            if bits == 2:
                steps.append((b.FALSE, b.TRUE))
                continue
            first = self._compare((s_i, t_i), GT, ctx, ((k, True),))
            if first is self._decides_or:
                rest = first
                break
            if bits:
                hold = self._compare((s_i, t_i), GE, ctx)
            else:
                hold = b.implies(self._nodes[k] or self._node(k), self._compare(
                    (s_i, t_i), GE, ctx | self._implied[2 * k]))
            if hold is self._decides_and:
                rest = first
                break
            steps.append((first, hold))
        for first, hold in reversed(steps):
            rest = b.or_([first, b.and_([hold, rest])])
        return rest

    def _build_lex_two(self, s: App, t: App, i: int, j: int, rel: str, ctx: Ctx) -> Formula:
        """Lexicographic comparison of the arguments of ``s`` from ``i`` on
        and of ``t`` from ``j`` on, across two equivalent symbols with
        independent filterings (quasi mode)."""
        b = self.builder
        ss, ts = s.args, t.args
        f_in = (self._own.get(s.fun) or self._meet(s.fun)).arg_in
        g_in = (self._own.get(t.fun) or self._meet(t.fun)).arg_in
        if i > len(ss):
            if rel == GT:
                return b.FALSE
            # weak: nothing may remain on the right either; no such literal
            # implies another, so each one is a bit test
            parts: list[Formula] = []
            for k in g_in[j - 1:len(ts)]:
                bits = ctx >> 2 * k & 3
                if bits & 1:
                    return b.FALSE
                if not bits:
                    parts.append(b.not_(self._nodes[k] or self._node(k)))
            return b.and_(parts)
        if j > len(ts):
            if rel == GE:
                return b.TRUE
            # strict: something must remain on the left
            return b.or_([self._atom(ctx, k) for k in f_in[i - 1:len(ss)]])
        left, right = f_in[i - 1], g_in[j - 1]
        branches: list[Formula] = []
        # skip the left argument, skip the right one, or compare the two
        branches.append(self._compare((s, t, i + 1, j), rel, ctx, ((left, False),)))
        branches.append(self._compare((s, t, i, j + 1), rel, ctx,
                                      ((left, True), (right, False))))
        # the compare-both literals, entered in place
        parts = []
        for k in (left, right):
            bits = ctx >> 2 * k & 3
            if not bits:
                parts.append(self._nodes[k] or self._node(k))
                ctx |= self._implied[2 * k]
            elif bits == 2:
                branches.append(b.FALSE)
                return b.or_(branches)
        s_i, t_j = ss[i - 1], ts[j - 1]
        # s_i > t_j decides here when TRUE, and s_i >= t_j when FALSE
        here = self._compare((s_i, t_j), GT, ctx)
        if here is not self._decides_or:
            hold = self._compare((s_i, t_j), GE, ctx)
            if hold is not self._decides_and:
                here = b.or_([here, b.and_([
                    hold, self._compare((s, t, i + 1, j + 1), rel, ctx)])])
        parts.append(here)
        branches.append(b.and_(parts))
        return b.or_(branches)

    # ------------------------------------------------------------------
    # usable-rule flags

    def usable_flags(self, t: Term, defined: frozenset[Symbol],
                     ctx: Ctx = EMPTY_CTX) -> Formula:
        """The flags ``Usable(f)`` of the ``defined`` symbols ``f`` of ``t``,
        descending only into kept argument positions: the root's flag,
        entered in place (``FALSE`` when known false), and per argument the
        implication ``ArgIn -> flags below``, its guard opened in place."""
        b = self.builder
        if isinstance(t, Var):
            return b.TRUE
        f = self._own.get(t.fun) or self._meet(t.fun)
        parts: list[Formula] = []
        if t.fun in defined:
            bits = ctx >> 2 * f.usable & 3
            if bits == 2:
                return b.FALSE
            if not bits:
                parts.append(self._nodes[f.usable] or self._node(f.usable))
                ctx |= self._implied[2 * f.usable]
        for k, a in zip(f.arg_in, t.args):
            bits = ctx >> 2 * k & 3
            if bits:
                parts.append(b.TRUE if bits == 2 else self.usable_flags(a, defined, ctx))
            else:
                parts.append(b.implies(self._nodes[k] or self._node(k), self.usable_flags(
                    a, defined, ctx | self._implied[2 * k])))
        return b.and_(parts)

    def if_usable(self, f: Symbol, rules: Sequence[Rule],
                  defined: frozenset[Symbol]) -> Formula:
        """``Usable(f) -> body``, where ``body`` orients ``rules``, the rules
        of ``f``, weakly and asserts the flags of their right-hand sides
        under the guard, so ``f``'s own flag, reached again, folds to true."""
        b = self.builder
        k = (self._own.get(f) or self._meet(f)).usable
        ctx = self._implied[2 * k]
        return b.implies(self._nodes[k] or self._node(k), b.and_(
            [self.tau_ge(r.lhs, r.rhs) for r in rules]
            + [self.usable_flags(r.rhs, defined, ctx) for r in rules]))


@dataclass(frozen=True)
class RpEncoding:
    """A reduction-pair search problem as a single formula.  ``symbols``
    are the symbols the encoder met, in ``symbol_key`` order: every atom of
    the formula is over them alone."""

    formula: Formula
    context: EncodingContext
    symbols: tuple[Symbol, ...]
    usable_symbols: tuple[Symbol, ...]


def encode_rp_formula(problem: DpProblem, processor: str = "thm12",
                      mode: str = "strict", *, simplify: bool = True, share: bool = True,
                      propagate: bool = True, deadline: float | None = None) -> RpEncoding:
    """Formula whose models are the orderings accepted by the reduction pair
    processor: every pair weakly decreasing, at least one strictly, and the
    usable rules weakly decreasing.

    Pair ``i``'s marker ``StrictPair(i)`` only implies that the pair is
    strictly decreasing, and the markers are asked to be true for at least
    one pair.  So τ> occurs in positive polarity only, and a model may leave
    the marker of a strictly decreasing pair false: the pairs a model
    removes are the ones the prover finds strictly oriented when it replays
    the model, a superset of the marked ones.

    With ``processor="thm5"`` the usable rules are the classical closure and
    their orientation is required outright.  With ``processor="thm12"`` rule
    orientation is conditional on per-symbol usability flags that track which
    rules survive under the chosen filtering.

    Past ``deadline``, a ``time.monotonic`` value, encoding gives up with
    ``OutOfTime`` within ``DEADLINE_BUILDS`` builds; with no deadline it
    never reads the clock.
    """
    if processor not in ("thm5", "thm12"):
        raise ValueError(f"processor must be 'thm5' or 'thm12', got {processor!r}")
    ctx = EncodingContext(mode, simplify=simplify, share=share, propagate=propagate,
                          deadline=deadline)
    b = ctx.builder
    pairs = problem.pairs.rules
    usable = U.usable_rules(problem.pairs, problem.rules)
    usable_syms: tuple[Symbol, ...] = ()
    # pruned branches read no atom, so the round meets up front every
    # symbol that the model replay and the proof read
    for f in sorted(_NO_SYMBOLS.union(*[side.symbols for r in pairs + usable
                                        for side in (r.lhs, r.rhs)]), key=symbol_key):
        ctx._meet(f)

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
        parts.append(b.implies(marker, ctx.tau_gt(p.lhs, p.rhs)))
        strict_atoms.append(marker)
    parts.append(b.or_(strict_atoms))

    return RpEncoding(b.and_(parts), ctx, tuple(sorted(ctx._own, key=symbol_key)),
                      usable_syms)
