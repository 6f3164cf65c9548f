import itertools
import math
import random
import sys

import pytest

from termfilter import atoms as A
from termfilter.cnf import write_dimacs
from termfilter import encoder
from termfilter.encoder import (DEADLINE_BUILDS, EMPTY_CTX, GE, GT, EncodingContext,
                                encode_rp_formula)
from termfilter.dp import DpProblem, dependency_pairs
from termfilter.formula import FormulaBuilder, dag_size, dump
from termfilter.lowering import VarMap
from termfilter.orders import lpo_af_ge, lpo_af_gt
from termfilter.prover import ProverConfig, Timeout, prove
from termfilter.terms import App, Rule, Symbol, Trs, Var
from termfilter.tpdb import parse_trs
from termfilter.usable import usable_rules
from util import (ACKERMANN_TEXT, EX13_TEXT, EX2_TEXT, REVERSE_TEXT, SHUFFLE_TEXT,
                  all_filterings, all_precedences, concrete_atom_value, evaluate, ex13,
                  ex2, identity_filtering, lowered_cnf, problem_signature,
                  random_signature, random_term, random_trs, rot_text, stack_depth,
                  tree_size)

S1 = Symbol("s", 1)
MINUS = Symbol("minus", 2)
X, Y = Var("x"), Var("y")


def mk(f, *args):
    return App(f, tuple(args))


def golden_formula(b):
    """The hand-written simplified encoding of s(x) > minus(x,y)."""
    col_m1 = b.atom(("collapse", MINUS, 1))
    list_s = b.atom(("list", S1))
    in_s1 = b.atom(("in", S1, 1))
    list_m = b.atom(("list", MINUS))
    gt_sm = b.atom(("gt", S1, MINUS))
    in_m1 = b.atom(("in", MINUS, 1))
    in_m2 = b.atom(("in", MINUS, 2))
    return b.or_([
        b.and_([col_m1, list_s, in_s1]),
        b.and_([list_s, list_m, gt_sm,
                b.implies(in_m1, b.and_([list_s, in_s1])),
                b.not_(in_m2)]),
    ])


GOLDEN_ATOMS = [
    ("collapse", MINUS, 1), ("list", S1), ("in", S1, 1), ("list", MINUS),
    ("gt", S1, MINUS), ("in", MINUS, 1), ("in", MINUS, 2),
]


def test_golden_truth_table():
    ctx = EncodingContext("strict")
    mine = ctx.tau_gt(mk(S1, X), mk(MINUS, X, Y))
    expected = golden_formula(ctx.builder)
    for bits in itertools.product([False, True], repeat=len(GOLDEN_ATOMS)):
        env = dict(zip(GOLDEN_ATOMS, bits))
        assert evaluate(mine, env.__getitem__) == evaluate(expected, env.__getitem__)


def test_tau_gt_variable_lhs_false():
    ctx = EncodingContext("strict")
    assert ctx.tau_gt(X, mk(MINUS, X, Y)) is ctx.builder.FALSE
    assert ctx.tau_gt(X, X) is ctx.builder.FALSE


def test_tau_ge_variable_cases():
    ctx = EncodingContext("strict")
    b = ctx.builder
    assert ctx.tau_ge(X, X) is b.TRUE
    assert ctx.tau_ge(X, Y) is b.FALSE
    # x >= minus(x,y) exactly when minus collapses to position 1
    got = ctx.tau_ge(X, mk(MINUS, X, Y))
    assert got is b.atom(("collapse", MINUS, 1))


def test_tau_lex_base_cases():
    strict = EncodingContext("strict")
    assert strict._lex_same(MINUS, (), (), GT, EMPTY_CTX) is strict.builder.FALSE
    assert strict._lex_same(MINUS, (), (), GE, EMPTY_CTX) is strict.builder.TRUE


def test_tau_lex_identical_unary_false():
    ctx = EncodingContext("strict")
    assert ctx._lex_same(S1, (X,), (X,), GT, EMPTY_CTX) is ctx.builder.FALSE


def test_tau_gt_identical_terms_unsatisfiable():
    ctx = EncodingContext("strict")
    t = mk(MINUS, mk(S1, X), Y)
    assert ctx.tau_gt(t, t) is ctx.builder.FALSE


def test_context_pruning_kills_contradictory_branch():
    from termfilter.encoder import EMPTY_CTX
    ctx = EncodingContext("strict")
    banned = EMPTY_CTX | ctx._implied[2 * ctx._meet(MINUS).list_p + 1]
    got = ctx.tau_gt(mk(MINUS, mk(S1, X), mk(S1, Y)), mk(MINUS, X, Y), banned)
    # with minus collapsed, the same-root branch is gone; what remains must
    # not mention the list flag of minus positively
    for atom in _reachable_atoms(got):
        assert atom != ("list", MINUS)


def _implied_facts(atom, positive, atoms):
    """What the literal ``(atom, positive)`` implies in every actual
    precedence and filtering, besides itself, as ``{atom: value}``."""
    facts = {atom: positive}
    tag, fun = atom[0], atom[1]
    if tag in ("gt", "eq"):
        if positive:
            pair = set(atom[1:])
            facts.update((a, False) for a in atoms if a != atom and a[0] in ("gt", "eq")
                         and set(a[1:]) == pair)
        return facts
    positions = [a for a in atoms if a[0] in ("in", "collapse") and a[1] == fun]
    if tag == "list" and positive:
        facts.update((a, False) for a in positions if a[0] == "collapse")
    elif tag == "in" and not positive:
        facts[("collapse", fun, atom[2])] = False
    elif tag == "collapse" and positive:
        facts[("list", fun)] = False
        facts[("in", fun, atom[2])] = True
        facts.update((a, False) for a in positions if a[2] != atom[2])
    return facts


@pytest.mark.parametrize("mode", ["strict", "quasi"])
def test_every_literal_implies_exactly_its_facts(mode):
    c, g, h, f4 = Symbol("c", 0), Symbol("g", 1), Symbol("h", 2), Symbol("f4", 4)
    symbols = [h, g, c]
    ctx = EncodingContext(mode)
    for f in symbols + [f4]:
        ctx._meet(f)
    atoms = list(ctx._atoms)
    number = {atom: k for k, atom in enumerate(atoms)}
    # the arity-4 symbol, met last, is checked for its masks only: the
    # worlds range over the atoms numbered before it
    small = atoms[:number[("list", f4)]]
    usable = [a for a in small if a[0] == "usable"]
    # every actual precedence and filtering, with usability flags free
    worlds = []
    for prec in all_precedences(symbols):
        for pi in all_filterings(symbols):
            for flags in itertools.product([False, True], repeat=len(usable)):
                value = concrete_atom_value(prec, pi, dict(zip(usable, flags)))
                worlds.append([value(a) for a in small])
    for k, atom in enumerate(atoms):
        for positive in (True, False):
            facts = _implied_facts(atom, positive, atoms)
            expected = 0
            for a, v in facts.items():
                expected |= (1 if v else 2) << 2 * number[a]
            assert EMPTY_CTX | ctx._implied[2 * k + (not positive)] == expected, (atom, positive)
            for world in worlds if k < len(small) else ():
                if world[k] == positive:
                    for a, v in facts.items():
                        assert world[number[a]] == v, (atom, positive, a)


def _reachable_atoms(formula):
    from util import atoms_of
    return atoms_of(formula)


def test_sharing_on_golden_encoding():
    ctx = EncodingContext("strict")
    f = ctx.tau_gt(mk(S1, X), mk(MINUS, X, Y))
    assert dag_size(f) < tree_size(f)
    # each atom is one shared node even though the tree mentions some twice
    payloads = _reachable_atoms(f)
    assert len(payloads) == len(set(payloads))


@pytest.mark.parametrize("mode", ["strict", "quasi"])
@pytest.mark.parametrize("propagate", [True, False])
def test_encoder_matches_oracle_exhaustively(mode, propagate):
    """Evaluate tau under every concrete (precedence, filtering) assignment
    and compare with the filtered order of ``orders``."""
    c = Symbol("c", 0)
    g = Symbol("g", 1)
    h = Symbol("h", 2)
    symbols = [c, g, h]
    terms = [
        Var("x"),
        Var("y"),
        mk(c),
        mk(g, X),
        mk(g, mk(c)),
        mk(h, X, Y),
        mk(h, mk(g, X), X),
        mk(g, mk(g, X)),
        mk(h, mk(c), mk(g, Y)),
    ]
    rng = random.Random(11)
    cases = [(rng.choice(terms), rng.choice(terms)) for _ in range(12)]
    precs = list(all_precedences(symbols))
    pis = list(all_filterings(symbols))
    for s, t in cases:
        ctx = EncodingContext(mode, propagate=propagate)
        f_gt = ctx.tau_gt(s, t)
        f_ge = ctx.tau_ge(s, t)
        for prec in precs[:: 3]:
            for pi in pis[:: 5]:
                env = concrete_atom_value(prec, pi)
                assert evaluate(f_gt, env) == lpo_af_gt(prec, pi, mode, s, t), \
                    (mode, str(s), str(t), prec, pi)
                assert evaluate(f_ge, env) == lpo_af_ge(prec, pi, mode, s, t), \
                    (mode, str(s), str(t), prec, pi)


@pytest.mark.parametrize("mode", ["strict", "quasi"])
@pytest.mark.parametrize("propagate", [True, False])
@pytest.mark.parametrize("simplify", [True, False])
def test_occurrence_pruning_matches_oracle_exhaustively(mode, propagate, simplify):
    """Comparisons with a variable on one side, which the encoder answers
    through the arguments that contain the variable only, against the
    filtered order under every precedence and filtering of c, g and h."""
    c, g, h = Symbol("c", 0), Symbol("g", 1), Symbol("h", 2)
    cc = mk(c)
    terms = [
        mk(h, mk(g, X), Y),
        mk(g, mk(h, X, cc)),
        mk(h, cc, mk(g, mk(g, Y))),
        mk(h, mk(h, cc, X), mk(g, cc)),
        mk(h, mk(g, Y), mk(h, X, Y)),
    ]
    cases = [pair for t in terms for v in (X, Y) for pair in ((t, v), (v, t))]
    # the variable is met below the root, in a kept or a collapsed argument
    cases += [(terms[0], mk(g, X)), (terms[1], mk(h, Y, X)), (mk(g, X), terms[2]),
              (terms[4], mk(g, X)), (mk(h, X, Y), terms[3])]
    precs = list(all_precedences([c, g, h]))
    pis = list(all_filterings([c, g, h]))
    for s, t in cases:
        ctx = EncodingContext(mode, simplify=simplify, propagate=propagate)
        f_gt = ctx.tau_gt(s, t)
        f_ge = ctx.tau_ge(s, t)
        for prec in precs:
            for pi in pis:
                env = concrete_atom_value(prec, pi)
                assert evaluate(f_gt, env) == lpo_af_gt(prec, pi, mode, s, t), \
                    (mode, str(s), str(t), prec, pi)
                assert evaluate(f_ge, env) == lpo_af_ge(prec, pi, mode, s, t), \
                    (mode, str(s), str(t), prec, pi)


def _short_circuit_cases():
    """Per signature, comparisons that branches decide early: a TRUE
    disjunct or a FALSE conjunct below the root, after which the encoder
    builds no sibling."""
    f, g, s1, h, k = (Symbol("f", 2), Symbol("g", 2), Symbol("s", 1), Symbol("h", 2),
                      Symbol("k", 1))
    Z = Var("z")
    # quasi lex of two distinct symbols over variables, as in the rotations:
    # some argument pairs are two distinct variables (s_i >= t_j FALSE),
    # some one variable twice (s_i >= t_j TRUE, s_i > t_j not)
    rot = [(mk(f, mk(s1, X), Y), mk(g, Y, X)), (mk(g, Y, X), mk(f, mk(s1, X), Y)),
           (mk(f, X, mk(s1, Y)), mk(g, X, Y)), (mk(f, mk(s1, X), X), mk(g, X, Y))]
    # one symbol on both sides: under the guard of t's first argument,
    # position 1 of the inner lex is known kept and decides it, by a
    # "greater here" of TRUE (h(x, y) > x along a known kept path) or by an
    # "equal here" of FALSE (two distinct variables); an "equal here" of
    # TRUE (x against x) must not stop the walk
    same = [(mk(h, mk(h, X, Y), Z), mk(h, mk(h, X, Z), Y)),
            (mk(h, X, mk(k, Y)), mk(h, mk(h, Y, Z), X)),
            (mk(h, X, mk(k, Y)), mk(h, X, Y)),
            (mk(h, mk(k, X), Y), mk(h, mk(k, Y), X)),
            (mk(h, mk(h, X, Y), mk(k, Z)), mk(h, Z, mk(k, X))),
            (mk(h, mk(k, mk(h, X, Y)), Y), X)]
    # branches that are FALSE, or TRUE, under a known context while their
    # siblings are neither: x >= h(k(x), x) with k known kept, and
    # comparisons where the roots branch or one of its parts is decided
    same += [(mk(k, X), mk(k, mk(h, mk(k, X), X))),
             (mk(h, Y, mk(h, mk(k, X), Y)), mk(h, X, X)),
             (mk(h, mk(k, mk(k, X)), mk(k, mk(h, Z, Z))), mk(h, Y, Z)),
             (mk(h, mk(k, mk(k, Z)), mk(h, Y, X)), mk(k, mk(h, Z, mk(k, Y))))]
    return [([f, g, s1], rot), ([h, k], same)]


@pytest.mark.parametrize("mode", ["strict", "quasi"])
@pytest.mark.parametrize("simplify,share,propagate",
                         list(itertools.product((True, False), repeat=3)))
def test_short_circuits_match_oracle_exhaustively(mode, simplify, share, propagate):
    """Comparisons that the encoder stops building at a deciding branch
    (with ``simplify`` on) or builds in full (off), against the filtered
    order under every filtering and every precedence up to equal orders."""
    for symbols, pairs in _short_circuit_cases():
        # one precedence per weak order: ranks 1..m, each taken
        precs = [p for p in all_precedences(symbols)
                 if len({p.rank(f) for f in symbols}) == max(map(p.rank, symbols))]
        worlds = [(prec, pi, concrete_atom_value(prec, pi))
                  for prec in precs for pi in all_filterings(symbols)]
        for s, t in pairs:
            ctx = EncodingContext(mode, simplify=simplify, share=share, propagate=propagate)
            f_gt = ctx.tau_gt(s, t)
            f_ge = ctx.tau_ge(s, t)
            for prec, pi, env in worlds:
                assert evaluate(f_gt, env) == lpo_af_gt(prec, pi, mode, s, t), \
                    (mode, str(s), str(t), prec, pi)
                assert evaluate(f_ge, env) == lpo_af_ge(prec, pi, mode, s, t), \
                    (mode, str(s), str(t), prec, pi)


@pytest.mark.parametrize("mode", ["strict", "quasi"])
def test_simplification_preserves_models(mode):
    """Raw and optimized encodings agree under every concrete assignment."""
    rng = random.Random(23)
    for _ in range(25):
        symbols = random_signature(rng, 3, 2)
        s = random_term(rng, symbols, ["x", "y"], 2)
        t = random_term(rng, symbols, ["x", "y"], 2)
        opt = EncodingContext(mode)
        raw = EncodingContext(mode, simplify=False, share=False, propagate=False)
        f_opt = opt.tau_gt(s, t)
        f_raw = raw.tau_gt(s, t)
        for prec in itertools.islice(all_precedences(symbols), 0, None, 7):
            for pi in itertools.islice(all_filterings(symbols), 0, None, 11):
                env = concrete_atom_value(prec, pi)
                assert evaluate(f_opt, env) == evaluate(f_raw, env)


def test_encode_rp_formula_empty_pairs_false():
    trs = ex2()
    problem = DpProblem(Trs.of([]), trs)
    enc = encode_rp_formula(problem, "thm5", "strict")
    assert enc.formula is enc.context.builder.FALSE


def test_encode_rp_formula_structure():
    trs = ex2()
    problem = DpProblem(dependency_pairs(trs), trs)
    enc = encode_rp_formula(problem, "thm5", "strict")
    strict_atoms = [a for a in _reachable_atoms(enc.formula) if a[0] == "strict"]
    assert {a[1] for a in strict_atoms} == {0, 1, 2}
    assert [str(r) for r in usable_rules(problem.pairs, problem.rules)] == [
        "minus(x,0) -> x", "minus(s(x),s(y)) -> minus(x,y)"]


def test_identity_filtering_constraint():
    ctx = EncodingContext("strict")
    f = identity_filtering(ctx.builder, [S1, MINUS])
    atoms = set(_reachable_atoms(f))
    assert atoms == {("list", S1), ("in", S1, 1), ("list", MINUS),
                     ("in", MINUS, 1), ("in", MINUS, 2)}


def test_mode_validation():
    with pytest.raises(ValueError):
        EncodingContext("lexicographic")
    trs = ex2()
    problem = DpProblem(dependency_pairs(trs), trs)
    with pytest.raises(ValueError):
        encode_rp_formula(problem, "thm13", "strict")


def test_ground_pair_problem_satisfiable():
    # one ground pair over two constants and no rules: satisfiable, and the
    # exhaustive search over concrete orderings agrees
    a = Symbol("a", 0)
    bsym = Symbol("b", 0)
    ft = Symbol("f", 1, True)
    pair = Rule(App(ft, (App(a, ()),)), App(ft, (App(bsym, ()),)))
    problem = DpProblem(Trs.of([pair]), Trs.of([]))
    enc = encode_rp_formula(problem, "thm5", "strict")

    from termfilter.lowering import VarMap, decode_model
    from termfilter.solver import solve
    symbols = sorted({a, bsym, ft}, key=lambda f: (f.name, f.is_tuple))
    vm = VarMap(symbols, 1)
    res = solve(lowered_cnf(enc.formula, enc.context.builder, vm, "strict").cnf)
    assert res.status == "sat"
    decoded = decode_model(res.model, vm)
    assert lpo_af_gt(decoded.precedence, decoded.filtering, "strict",
                     pair.lhs, pair.rhs)

    exists = any(
        lpo_af_gt(prec, pi, "strict", pair.lhs, pair.rhs)
        for pi in all_filterings(symbols)
        for prec in all_precedences(symbols))
    assert exists


def test_tau_lex_binary_satisfied_by_known_assignment():
    # lex over <s(x),s(y)> vs <x,y> at a binary tuple symbol holds when the
    # first positions are kept and s keeps its argument
    minus_t = Symbol("minus", 2, True)
    sx, sy = mk(S1, X), mk(S1, Y)
    ctx = EncodingContext("strict")
    lex = ctx._lex_same(minus_t, (sx, sy), (X, Y), GT, EMPTY_CTX)
    from termfilter.orders import ArgumentFiltering, Keep, Precedence
    from util import concrete_atom_value
    pi = ArgumentFiltering({minus_t: Keep((1,)), S1: Keep((1,))})
    prec = Precedence({minus_t: 1, S1: 1})
    assert evaluate(lex, concrete_atom_value(prec, pi))


# ----------------------------------------------------------------------
# the memo of the quasi lexicographic comparison

def _rot_problem(k):
    from termfilter.tpdb import parse_trs
    trs = parse_trs(rot_text(k))
    return DpProblem(dependency_pairs(trs), trs)


def _equivalent_by_sat(phi, psi, symbols, mode):
    """No actual precedence and filtering tells ``phi`` and ``psi`` apart:
    their XOR, under the structural constraints, is unsatisfiable.  Both are
    rebuilt with one sharing builder first: an unshared encoding expands
    into a tree that takes the solver far longer than its DAG."""
    from termfilter.formula import FormulaBuilder
    from termfilter.lowering import VarMap
    from termfilter.solver import UNSAT, solve
    vm = VarMap(sorted(symbols, key=lambda f: f.name))
    b = FormulaBuilder()
    xor = b.not_(b.iff(_rebuilt(phi, b), _rebuilt(psi, b)))
    return solve(lowered_cnf(xor, b, vm, mode).cnf).status == UNSAT


def _rebuilt(f, b):
    """``f`` built again, node by node, with the builder ``b``."""
    from termfilter.formula import AND, ATOM, FALSE, NOT, TRUE, iter_nodes
    out = {}
    for n in iter_nodes(f):
        cs = [out[c.id] for c in n.children]
        if n.kind == TRUE:
            out[n.id] = b.TRUE
        elif n.kind == FALSE:
            out[n.id] = b.FALSE
        elif n.kind == ATOM:
            out[n.id] = b.atom(n.payload)
        elif n.kind == NOT:
            out[n.id] = b.not_(cs[0])
        elif n.kind == AND:
            out[n.id] = b.and_(cs)
        else:
            out[n.id] = b.or_(cs)
    return out[f.id]


def _quasi_cases(seed, count):
    """Inequalities between f and g of arity 3-5.  One argument on each side
    applies f or g again and the others are variables or h(variable), so the
    atoms of f, g and h in later arguments matter to earlier cells of the
    lexicographic comparison."""
    rng = random.Random(seed)
    h = Symbol("h", 1)
    names = ["x", "y", "z"]
    for case in range(count):
        f = Symbol("f", rng.randint(3, 5))
        g = Symbol("g", rng.randint(3, 5))

        def args(n):
            out = [rng.choice([Var(rng.choice(names)), mk(h, Var(rng.choice(names)))])
                   for _ in range(n)]
            sym = rng.choice([f, g])
            out[rng.randrange(n)] = mk(sym, *(Var(rng.choice(names))
                                             for _ in range(sym.arity)))
            return out

        rel = GT if case % 2 == 0 else GE
        yield mk(f, *args(f.arity)), mk(g, *args(g.arity)), rel, [f, g, h]


def _canonical(phi, table):
    """Number of ``phi``'s structure in ``table``, independent of node ids
    and hence of the order in which the nodes were built."""
    from termfilter.formula import AND, OR, iter_nodes
    ids = {}
    for n in iter_nodes(phi):
        kids = tuple(ids[c.id] for c in n.children)
        if n.kind in (AND, OR):
            kids = tuple(sorted(kids))
        ids[n.id] = table.setdefault((n.kind, n.payload, kids), len(table))
    return ids[phi.id]


def test_lex_memo_keeps_quasi_encodings_equivalent():
    for s, t, rel, symbols in _quasi_cases(5, 4):
        opt = EncodingContext("quasi")._compare((s, t), rel, EMPTY_CTX)
        raw = EncodingContext("quasi", simplify=False, share=False,
                              propagate=False)._compare((s, t), rel, EMPTY_CTX)
        assert _equivalent_by_sat(opt, raw, symbols, "quasi"), (str(s), rel, str(t))


def test_lex_memo_builds_the_same_nodes():
    # keyed on the whole context, the memo only hits where the parent built
    # the very same node; the restricted key must not change a single node
    for s, t, rel, _ in _quasi_cases(6, 8):
        restricted = EncodingContext("quasi")
        whole = EncodingContext("quasi")
        whole._mask = lambda key: -1 if len(key) == 4 else EncodingContext._mask(whole, key)
        table = {}
        assert _canonical(restricted._compare((s, t), rel, EMPTY_CTX), table) == \
            _canonical(whole._compare((s, t), rel, EMPTY_CTX), table), (str(s), rel, str(t))


# ----------------------------------------------------------------------
# the memo of τ, keyed on the context cut to what the cell can read

PAPER_SYSTEMS = [EX2_TEXT, EX13_TEXT, ACKERMANN_TEXT, REVERSE_TEXT, SHUFFLE_TEXT]


def _whole_context(monkeypatch):
    inner = EncodingContext._mask
    monkeypatch.setattr(EncodingContext, "_mask",
                        lambda self, key: -1 if len(key) == 2 else inner(self, key))


@pytest.mark.parametrize("processor", ["thm5", "thm12"])
@pytest.mark.parametrize("mode", ["strict", "quasi"])
def test_tau_memo_builds_the_same_formula(monkeypatch, mode, processor):
    # the cut is exact and the builder hash-conses, so the formula is the
    # same DAG node for node, built in the same order, with the same ids
    problems = []
    for text in PAPER_SYSTEMS:
        trs = parse_trs(text)
        problems.append(DpProblem(dependency_pairs(trs), trs))
    cut = [dump(encode_rp_formula(p, processor, mode).formula, A.describe) for p in problems]
    _whole_context(monkeypatch)
    whole = [dump(encode_rp_formula(p, processor, mode).formula, A.describe) for p in problems]
    assert cut == whole


@pytest.mark.parametrize("mode", ["strict", "quasi"])
def test_tau_memo_builds_the_same_nodes(monkeypatch, mode):
    rng = random.Random(31)
    cases = []
    for case in range(40):
        symbols = random_signature(rng, 4, 3)
        cases.append((random_term(rng, symbols, ["x", "y"], 3),
                      random_term(rng, symbols, ["x", "y"], 3), GT if case % 2 else GE))
    if mode == "quasi":
        cases += [(s, t, rel) for s, t, rel, _ in _quasi_cases(6, 8)]
    table = {}
    with monkeypatch.context() as m:
        _whole_context(m)
        whole = [_canonical(EncodingContext(mode)._compare((s, t), rel, EMPTY_CTX), table)
                 for s, t, rel in cases]
    for (s, t, rel), expected in zip(cases, whole):
        got = _canonical(EncodingContext(mode)._compare((s, t), rel, EMPTY_CTX), table)
        assert got == expected, (str(s), rel, str(t))


def test_tau_memo_hits_across_contexts(monkeypatch):
    # keyed on the whole context, the unsplit div/if problem builds 914 cells
    builds = 0
    inner = EncodingContext._build_tau

    def counted(self, *args):
        nonlocal builds
        builds += 1
        return inner(self, *args)

    monkeypatch.setattr(EncodingContext, "_build_tau", counted)
    trs = ex13()
    encode_rp_formula(DpProblem(dependency_pairs(trs), trs), "thm12", "quasi")
    assert 0 < builds <= 300


@pytest.mark.parametrize("mode", ["strict", "quasi"])
def test_collapsed_root_compares_as_its_kept_argument(mode):
    # under a context that knows f collapses onto 2, f(x, s(y)) filters to
    # s(y): its comparison is the very node of s(y)'s, on either side, and
    # no cell is opened for the unfiltered term
    f = Symbol("f", 2)
    s, kept, t = mk(f, X, mk(S1, Y)), mk(S1, Y), mk(MINUS, Y, X)
    for rel in (GT, GE):
        ctx = EncodingContext(mode)
        known = EMPTY_CTX | ctx._implied[2 * ctx._meet(f).collapses_to[1]]
        assert ctx._compare((s, t), rel, known) is ctx._compare((kept, t), rel, known)
        assert ctx._compare((t, s), rel, known) is ctx._compare((t, kept), rel, known)
        assert (s, t) not in ctx._cells and (t, s) not in ctx._cells


def test_no_build_sees_a_known_collapse_of_either_root(monkeypatch):
    # the imaging invariant, which leaves the collapse loops of _build_tau
    # no branch that decides: no CollapsesTo atom of either root is known
    # true in a build, and an ArgIn of s's root only with its ListP
    builds = 0
    inner = EncodingContext._build_tau

    def checked(self, s, t, rel, ctx):
        nonlocal builds
        builds += 1
        for u in (s, t):
            if isinstance(u, App):
                for k in self._own[u.fun].collapses_to:
                    assert not ctx >> 2 * k & 1, (str(s), rel, str(t), self._atoms[k])
        if isinstance(s, App):
            own = self._own[s.fun]
            if not ctx >> 2 * own.list_p & 1:
                for k in own.arg_in:
                    assert not ctx >> 2 * k & 1, (str(s), rel, str(t), self._atoms[k])
        return inner(self, s, t, rel, ctx)

    monkeypatch.setattr(EncodingContext, "_build_tau", checked)
    rng = random.Random(4242)
    systems = [parse_trs(text) for text in PAPER_SYSTEMS] + [random_trs(rng) for _ in range(400)]
    for trs in systems:
        for mode in ("strict", "quasi"):
            for processor in ("thm5", "thm12"):
                prove(trs, ProverConfig(mode=mode, processor=processor))
    assert builds > 40_000


@pytest.mark.parametrize("mode", ["strict", "quasi"])
def test_tower_skips_collapsed_levels(monkeypatch, mode):
    # f(s^120(x)) -> f(x): an encoder that builds every branch under a
    # collapsed s and folds all but one away makes 1,087 builds
    builds = 0
    inner = EncodingContext._build_tau

    def counted(self, *args):
        nonlocal builds
        builds += 1
        return inner(self, *args)

    monkeypatch.setattr(EncodingContext, "_build_tau", counted)
    encode_rp_formula(_depth_problem(120), "thm12", mode)
    assert 0 < builds <= 480


ROT_QUASI = [
    (3, 184, "229cf61d3fbadab55d01395c49862507cf2eaea4eb441075ee8eac34ced9bf44"),
    (4, 252, "d6301f77944f8683606cdf506fc44511727fc39fb399f50b523ebbf9e78ec52b"),
    (5, 332, "3c192efc24f77e2ef51effb103e0b8e9046baa5dfc3df02f5db6173424a7bc6d"),
    (6, 424, "d242409670e6e3466bc9228557be6045ac376d9596f6d7b1d0e67e5312712d65"),
    (7, 528, "92e835eb1a33fe53ded5c2697ad1ac32c18e7df459807c3c6d2911ed1c7f88bc"),
]


@pytest.mark.parametrize("k,size,digest", ROT_QUASI,
                         ids=[f"{k}-{size}" for k, size, _ in ROT_QUASI])
def test_rot_quasi_dag_sizes(k, size, digest):
    # the sizes, and sha256 digests of the dumped formulas, which these
    # encodings, heavy in quasi lexicographic comparisons (four-part
    # ``_compare`` keys, built by ``_build_lex_two``), pin byte for byte
    import hashlib
    enc = encode_rp_formula(_rot_problem(k), "thm12", "quasi")
    assert dag_size(enc.formula) == size
    assert hashlib.sha256(dump(enc.formula, A.describe).encode()).hexdigest() == digest


def test_lex_two_calls_grow_polynomially(monkeypatch):
    calls = 0
    inner = EncodingContext._compare

    def counted(self, key, *args):
        nonlocal calls
        calls += len(key) == 4
        return inner(self, key, *args)

    monkeypatch.setattr(EncodingContext, "_compare", counted)
    encode_rp_formula(_rot_problem(9), "thm12", "quasi")
    assert 0 < calls <= 3000


def test_rot_quasi_builds_nothing_beside_a_deciding_branch(monkeypatch):
    # rot7 quasi takes 1,423 comparisons and 1,470 n-ary builder calls; an
    # encoder that builds every sibling of a TRUE disjunct or a FALSE
    # conjunct before the builder folds it away takes 2,013 and 2,434
    from termfilter.formula import FormulaBuilder
    calls = {"_compare": 0, "_nary": 0}
    for cls, name in ((EncodingContext, "_compare"), (FormulaBuilder, "_nary")):
        def counted(self, *args, inner=getattr(cls, name), name=name):
            calls[name] += 1
            return inner(self, *args)
        monkeypatch.setattr(cls, name, counted)
    encode_rp_formula(_rot_problem(7), "thm12", "quasi")
    assert 0 < calls["_compare"] <= 1600
    assert 0 < calls["_nary"] <= 1700


# ----------------------------------------------------------------------
# atoms built once per context, and the output pinned

def _depth_problem(d):
    trs = parse_trs("(VAR x)(RULES f(" + "s(" * d + "x" + ")" * d + ") -> f(x))")
    return DpProblem(dependency_pairs(trs), trs)


@pytest.mark.parametrize("mode", ["strict", "quasi"])
@pytest.mark.parametrize("system", ["rot7", "depth120"])
def test_each_atom_built_once_per_context(monkeypatch, system, mode):
    # an encoder that asks the builder for an atom's node per literal, not
    # once per numbered atom, makes 1,290 requests for rot7 quasi, with 45
    # numbered atoms, and 272 for depth120 quasi, with 11
    problem = _rot_problem(7) if system == "rot7" else _depth_problem(120)
    built = 0

    def counted(self, payload, inner=FormulaBuilder.atom):
        nonlocal built
        built += 1
        return inner(self, payload)

    monkeypatch.setattr(FormulaBuilder, "atom", counted)
    enc = encode_rp_formula(problem, "thm12", mode)
    numbered = len(enc.context._atoms)
    assert 0 < built <= numbered + len(problem.pairs.rules)


@pytest.mark.parametrize("mode", ["strict", "quasi"])
def test_encoder_descends_at_most_two_frames_per_level(mode):
    # f(s^200(x)) -> f(x) with 2 frames per level of term depth to spare,
    # plus 50; the encoder needs 2 per level plus 10 or 11.  A third frame
    # per level (a branch helper that calls back into its body, or a
    # comprehension around a recursive call) fails here.
    problem = _depth_problem(200)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(stack_depth() + 2 * 200 + 50)
    try:
        encode_rp_formula(problem, "thm12", mode)
    finally:
        sys.setrecursionlimit(limit)


def _wide_problem(n):
    # f(s(x1), x2, ..., xn) -> f(x1, ..., xn)
    xs = [f"x{i}" for i in range(1, n + 1)]
    trs = parse_trs(f"(VAR {' '.join(xs)})(RULES f(s(x1),{','.join(xs[1:])}) -> "
                    f"f({','.join(xs)}))")
    return DpProblem(dependency_pairs(trs), trs)


@pytest.mark.parametrize("mode", ["strict", "quasi"])
def test_encoder_descends_no_frame_per_argument_position(mode):
    # f(s(x1), x2, ..., x200) -> f(x1, ..., x200) with 60 frames to spare;
    # a lexicographic comparison that recurses once per argument position
    # needs 200 more and fails here
    problem = _wide_problem(200)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(stack_depth() + 60)
    try:
        encode_rp_formula(problem, "thm12", mode)
    finally:
        sys.setrecursionlimit(limit)


@pytest.mark.parametrize("mode", ["strict", "quasi"])
def test_wide_pair_compares_each_variable_through_its_argument(monkeypatch, mode):
    # f(s(x1), x2, ..., x200) -> f(x1, ..., x200) takes 2,809 comparisons in
    # strict mode and 2,815 in quasi mode; an encoder that compares the left
    # side's every argument with each x_i takes about 123,600
    calls = 0
    inner = EncodingContext._compare

    def counted(self, *args):
        nonlocal calls
        calls += 1
        return inner(self, *args)

    monkeypatch.setattr(EncodingContext, "_compare", counted)
    encode_rp_formula(_wide_problem(200), "thm12", mode)
    assert 0 < calls <= 4000


def _count_builds(monkeypatch):
    """Count the builds of every context: the calls of both builders."""
    builds = [0]
    for name in ("_build_tau", "_build_lex_two"):
        def counted(self, *args, inner=getattr(EncodingContext, name)):
            builds[0] += 1
            return inner(self, *args)
        monkeypatch.setattr(EncodingContext, name, counted)
    return builds


def test_encoder_gives_up_within_a_clock_period_past_the_deadline(monkeypatch):
    # a clock that runs out after the 300th build; rot7 quasi makes 543
    builds = _count_builds(monkeypatch)

    class Clock:
        @staticmethod
        def monotonic():
            return math.inf if builds[0] >= 300 else -math.inf

    monkeypatch.setattr(encoder, "time", Clock)
    verdict = prove(_rot_problem(7).rules, ProverConfig(mode="quasi", timeout=60))
    assert isinstance(verdict, Timeout)
    assert 300 <= builds[0] <= 300 + DEADLINE_BUILDS


def test_encoder_without_deadline_never_reads_the_clock(monkeypatch):
    builds = _count_builds(monkeypatch)

    class Clock:
        @staticmethod
        def monotonic():
            raise AssertionError("clock read")

    monkeypatch.setattr(encoder, "time", Clock)
    encode_rp_formula(_rot_problem(7), "thm12", "quasi")
    assert builds[0] > DEADLINE_BUILDS


# per system, the digest of its formulas, each dumped with its atoms shown by
# ``atoms.describe``, under every setting of the switches, over both modes
# and both processors
ABLATION_DIGESTS = {
    "EX2": "db7b7549f30aa75072675fd4f226a35a2263e79c61ed39ec52564d0feced3d9a",
    "EX13": "fd1cfab67db7dc3057d4af56b93ad8d784e6d34619bd35abbbdb98bdaa9fd30c",
    "ACKERMANN": "e0180fd4dd748e9694fa60524c4a86cd444a2b5d69e706fcbe56c3987d55b75c",
    "REVERSE": "d9dc0caf37274dae6a62a3b713e6bc85bc4c0ab720bf5bab6de1ab9614ee062c",
    "SHUFFLE": "91a1f65e0289f6f6a2f8e841d9bf93fe893fe85f5cea97fd80fe12d064e66943",
}


# digests of the DIMACS text of the same encodings, lowered as the prover
# lowers them; under some settings Tseitin's raw clauses hold repeated
# literals and tautologies, so these also pin what ``Cnf`` drops
CNF_DIGESTS = {
    "EX2": "53f252e1c28de4696d917e3149d20cf0c3c4250c403ecfaf957d3ed3522cb4c6",
    "EX13": "db05c67dc0119dc87f70fb958111f678abb10cffbbdeda6f61bbc4660948b662",
    "ACKERMANN": "8cc90e0665a303f231d30143285265d6455f563f5f1a1553ae21b5b2c9f2a42a",
    "REVERSE": "fe283b301b09ffb02b048e7ea5b4ba3184d5ce77cbc1dc52ac25f630d0eb08ca",
    "SHUFFLE": "9753a0199561c165e18d63578ca422833799d895bd944bfc3cbbad04dbce2587",
}


# per system, the digests of the formulas and of their DIMACS text under the
# default switches, over both modes and both processors; these hold while a
# change of the encoder moves only the ablation settings
DEFAULT_DIGESTS = {
    "EX2": ("e33712a5792d5b12aee87bb65643f5480330a7d3e4b0a89fc13990c2d633a6b8",
            "296a6e9d8bf8344761fc7880599a4dd2518e15e72f7c33c1224695ba48ecea9c"),
    "EX13": ("9570d9486e680c5e0df87a99be5adfe130c9b8492906e0685eeae1beeddd5d86",
             "ab4c6a02cfe153f35f740c9987fc1b73c67742055dd1c0e00acfd3162c5c5296"),
    "ACKERMANN": ("691d580cb4efc2d998e57c919121127686cfe6d81866fcfe439eb066165b9a58",
                  "f10ef28b296202856e9c11caee82e7a992b0d6f0fa25fc7049520ad7d6fc8a47"),
    "REVERSE": ("4ca1488b4de27ed4b7573e84da358b58f9da3cd14208e5bebc30ed4cd39464b0",
                "73d736b0b675692f5aa75f194e2e027753224a8c0af9d6e785444eac23f8563f"),
    "SHUFFLE": ("d1fda2a65a358dda433c2cd198130cd59402dc99ef376b670634454c6012fb40",
                "914e0586d13f98cc8d6fadd4602ae5d909cd7e3dd6b93cefa9016405b4620b8f"),
}


# per system, the digests of the formulas and of their DIMACS text under the
# four settings with ``simplify`` off, over both modes and both processors.
# Without folding, the encoder builds every branch: a change that stops a
# disjunction or a conjunction early must leave these as they are
RAW_DIGESTS = {
    "EX2": ("3004a6d5427170b88a989931e2616c66e13fcd4ff7e50c9cd137ea599e8ebb59",
            "08bd970a961c8ce581bc7558ef337a2afec47445377c80105b9b57abcd03c918"),
    "EX13": ("3af9775595c4602bf7a552c4097db8fa551f90631418101b827b46d2ae046fe9",
             "3370357ec5eeed9b0aefdf5845dd136253865aa3157f428d07f2aff835b97b42"),
    "ACKERMANN": ("5c8bb1c5c0090e6adef0db4e70375962c99c094bce28c878bc1308d232bd27ed",
                  "9db7b6803450939b2b11ce40bd87459652c395d06fb285658dc2a9dee52cd3a9"),
    "REVERSE": ("7b9e86611c05db56b09fe867a1ed20c4eef495012eb459a58cc476731d8b3061",
                "ba089b5aec55fd2a82fe7477f25847bb7046218b0c24a41be8ebb564941f09a1"),
    "SHUFFLE": ("eeb85dc974f87e564d2851b0c18ec50c9d60928dbc5d4e09b0cf5cd0a1f1ce74",
                "1c39a12f862db719db0b8c990be800c31db5670e74b52dd37098a676f576fda9"),
}


def _pinned_digests(problem, settings):
    import hashlib
    digest = hashlib.sha256()
    cnf_digest = hashlib.sha256()
    for mode in ("strict", "quasi"):
        for processor in ("thm5", "thm12"):
            for simplify, share, propagate in settings:
                enc = encode_rp_formula(problem, processor, mode, simplify=simplify,
                                        share=share, propagate=propagate)
                digest.update(dump(enc.formula, A.describe).encode() + b"\n")
                vm = VarMap(problem_signature(problem), len(problem.pairs.rules),
                            enc.usable_symbols)
                cnf = lowered_cnf(enc.formula, enc.context.builder, vm, mode).cnf
                cnf_digest.update(write_dimacs(cnf).encode())
    return digest.hexdigest(), cnf_digest.hexdigest()


@pytest.mark.parametrize("name,text", zip(DEFAULT_DIGESTS, PAPER_SYSTEMS),
                         ids=list(DEFAULT_DIGESTS))
def test_encoder_output_pinned_under_default_switches(name, text):
    trs = parse_trs(text)
    problem = DpProblem(dependency_pairs(trs), trs)
    assert _pinned_digests(problem, [(True, True, True)]) == DEFAULT_DIGESTS[name]


@pytest.mark.parametrize("name,text", zip(ABLATION_DIGESTS, PAPER_SYSTEMS),
                         ids=list(ABLATION_DIGESTS))
def test_encoder_output_pinned_under_every_ablation(name, text):
    # digests of the formulas of the payload-based encoder: every node, id
    # and atom must come out the same under every setting of the switches
    trs = parse_trs(text)
    problem = DpProblem(dependency_pairs(trs), trs)
    assert _pinned_digests(problem, list(itertools.product((True, False), repeat=3))) == \
        (ABLATION_DIGESTS[name], CNF_DIGESTS[name])


@pytest.mark.parametrize("name,text", zip(RAW_DIGESTS, PAPER_SYSTEMS), ids=list(RAW_DIGESTS))
def test_encoder_output_pinned_without_simplification(name, text):
    trs = parse_trs(text)
    problem = DpProblem(dependency_pairs(trs), trs)
    settings = [(False, share, propagate)
                for share, propagate in itertools.product((True, False), repeat=2)]
    assert _pinned_digests(problem, settings) == RAW_DIGESTS[name]
