"""Lowering atoms onto propositional variables.

Each symbol gets a little-endian vector of rank bits, a list flag, and one
variable per argument position; precedence atoms become unsigned bit-vector
comparisons, filtering atoms become (combinations of) flag variables.  No
second formula is built: ``cnf.tseitin_cnf`` walks the encoder's DAG and
translates each atom the first time it reaches it, once per node.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping, Sequence

from . import atoms as A
from .formula import Formula, FormulaBuilder
from .orders import ArgumentFiltering, Collapse, Keep, Precedence
from .terms import Symbol


class EncodingError(RuntimeError):
    """An internal invariant of the encoding pipeline was violated."""


class VarMap:
    """Deterministic numbering of the propositional variables.

    Order: rank bits per symbol (in the order given, least significant first),
    then list/argument flags per symbol, then per-pair strictness markers
    (``strict``), then usability flags; definition variables introduced by
    the CNF transformation come after ``num_reserved``.
    """

    def __init__(self, symbols: Sequence[Symbol], pair_count: int = 0,
                 usable_symbols: Sequence[Symbol] = ()):
        self.symbols = tuple(symbols)
        if len({(f.name, f.is_tuple) for f in self.symbols}) != len(self.symbols):
            raise ValueError("duplicate symbols in signature")
        self.k = max(1, (len(self.symbols) - 1).bit_length()) if self.symbols else 1
        self.descriptions: dict[int, str] = {}

        def alloc(desc: str) -> int:
            v = len(self.descriptions) + 1
            self.descriptions[v] = desc
            return v

        self._bits = {f: tuple(alloc(f"rank({f.display})[{i}]") for i in range(1, self.k + 1))
                      for f in self.symbols}
        self._list: dict[Symbol, int] = {}
        self._arg: dict[Symbol, tuple[int, ...]] = {}
        for f in self.symbols:
            self._list[f] = alloc(f"list({f.display})")
            self._arg[f] = tuple(alloc(f"keeps({f.display},{i})") for i in range(1, f.arity + 1))
        self.strict = tuple(alloc(f"strict({i})") for i in range(pair_count))
        self._usable = {f: alloc(f"usable({f.display})") for f in usable_symbols}
        self.num_reserved = len(self.descriptions)

    def bits(self, f: Symbol) -> tuple[int, ...]:
        return self._bits[f]

    def list_var(self, f: Symbol) -> int:
        return self._list[f]

    def arg_var(self, f: Symbol, i: int) -> int:
        return self._arg[f][i - 1]

    def strict_var(self, index: int) -> int:
        return self.strict[index]

    def usable_var(self, f: Symbol) -> int:
        try:
            return self._usable[f]
        except KeyError:
            raise EncodingError(f"no usability variable for {f.display}") from None


def _bit_gt(b: FormulaBuilder, fb: Sequence[int], gb: Sequence[int]) -> Formula:
    """Unsigned comparison of two little-endian bit vectors: up to bit
    ``i``, ``f > g`` when ``f_i and not g_i``, or when bit ``i`` does not
    favour ``g`` (``f_i or not g_i``) and the lower bits put ``f`` above
    ``g``.  That tie test needs no equivalence ``f_i <-> g_i``: where the
    bits differ with ``f_i`` on, the first disjunct holds anyway."""
    form = b.and_([b.atom(fb[0]), b.not_(b.atom(gb[0]))])
    for i in range(1, len(fb)):
        f_i, not_g_i = b.atom(fb[i]), b.not_(b.atom(gb[i]))
        form = b.or_([b.and_([f_i, not_g_i]), b.and_([b.or_([f_i, not_g_i]), form])])
    return form


def _bit_eq(b: FormulaBuilder, fb: Sequence[int], gb: Sequence[int]) -> Formula:
    return b.and_([b.iff(b.atom(x), b.atom(y)) for x, y in zip(fb, gb)])


def lower_atoms(vm: VarMap, mode: str, b: FormulaBuilder) -> Callable[[Any], Formula]:
    """The translation of one atom into a formula over integer variables,
    built with ``b``; ``cnf.tseitin_cnf`` calls it once per atom node."""
    def lower(payload) -> Formula:
        if isinstance(payload, A.PoGt):
            return _bit_gt(b, vm.bits(payload.left), vm.bits(payload.right))
        if isinstance(payload, A.PoEq):
            if mode == "strict":
                raise EncodingError("precedence-equivalence atom in strict mode")
            return _bit_eq(b, vm.bits(payload.left), vm.bits(payload.right))
        if isinstance(payload, A.ListP):
            return b.atom(vm.list_var(payload.fun))
        if isinstance(payload, A.ArgIn):
            return b.atom(vm.arg_var(payload.fun, payload.pos))
        if isinstance(payload, A.CollapsesTo):
            return b.and_([b.not_(b.atom(vm.list_var(payload.fun))),
                           b.atom(vm.arg_var(payload.fun, payload.pos))])
        if isinstance(payload, A.Usable):
            return b.atom(vm.usable_var(payload.fun))
        if isinstance(payload, A.StrictPair):
            return b.atom(vm.strict_var(payload.index))
        raise EncodingError(f"unknown atom {payload!r}")

    return lower


def structural_constraints(vm: VarMap, b: FormulaBuilder) -> list[Formula]:
    """A collapsed symbol points at exactly one argument position: when the
    list flag is off, at least one and at most one argument flag is on."""
    out: list[Formula] = []
    for f in vm.symbols:
        lst = b.atom(vm.list_var(f))
        args = [b.atom(vm.arg_var(f, i)) for i in range(1, f.arity + 1)]
        out.append(b.or_([lst] + args))
        for i in range(len(args)):
            for j in range(i + 1, len(args)):
                out.append(b.or_([lst, b.not_(args[i]), b.not_(args[j])]))
    return out


@dataclass(frozen=True)
class DecodedModel:
    precedence: Precedence
    filtering: ArgumentFiltering
    # the pairs whose strict marker is true; the encoding makes each of them
    # strictly decreasing, but the prover removes every pair that is
    strict_pairs: tuple[int, ...]


def decode_model(model: Mapping[int, bool], vm: VarMap) -> DecodedModel:
    """Read a precedence, filtering and strict-pair markers off a satisfying
    assignment.  Ranks are compressed to 1..d preserving order.  The marked
    pairs are a subset of those the model orients strictly, which the
    prover's replay works out and removes."""
    def val(v: int) -> bool:
        return bool(model.get(v, False))

    raw: dict[Symbol, int] = {}
    for f in vm.symbols:
        raw[f] = sum(1 << i for i, v in enumerate(vm.bits(f)) if val(v)) + 1
    dense = {r: i + 1 for i, r in enumerate(sorted(set(raw.values())))}
    prec = Precedence({f: dense[r] for f, r in raw.items()})

    pi: dict[Symbol, Keep | Collapse] = {}
    for f in vm.symbols:
        kept = tuple(i for i in range(1, f.arity + 1) if val(vm.arg_var(f, i)))
        if val(vm.list_var(f)):
            pi[f] = Keep(kept)
        else:
            if len(kept) != 1:
                raise EncodingError(
                    f"model collapses {f.display} onto {len(kept)} positions")
            pi[f] = Collapse(kept[0])

    stricts = tuple(i for i, v in enumerate(vm.strict) if val(v))
    return DecodedModel(prec, ArgumentFiltering(pi), stricts)
