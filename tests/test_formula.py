import gc
import itertools
import random

import pytest

from termfilter.formula import AND, OR, FormulaBuilder, dag_size, dump, iter_nodes
from util import atoms_of, evaluate, reference_nary, tree_size


def test_constant_folding():
    b = FormulaBuilder()
    x = b.atom("x")
    assert b.and_([b.TRUE, x]) is x
    assert b.and_([b.FALSE, x]) is b.FALSE
    assert b.or_([b.FALSE, x]) is x
    assert b.or_([b.TRUE, x]) is b.TRUE
    assert b.and_([]) is b.TRUE
    assert b.or_([]) is b.FALSE
    assert b.not_(b.TRUE) is b.FALSE
    assert b.not_(b.not_(x)) is x


def _shape(n):
    return n.kind, n.id, n.payload, [c.id for c in n.children]


def _draw_children(rng, size, pairs):
    """A child list of ``(pool index, negated)`` entries.  The mixed draw
    takes up to five children with repeats; the pair draw mostly takes two:
    a node and itself, a node and its negation, or two nodes."""
    if pairs and rng.random() < 0.8:
        x = rng.randrange(size)
        drawn = [(x, False), rng.choice(((x, False), (x, True), (rng.randrange(size), False)))]
        return drawn if rng.random() < 0.5 else drawn[::-1]
    drawn = [(rng.randrange(size), False) for _ in range(rng.randrange(6))]
    if drawn and rng.random() < 0.3:
        drawn.append(rng.choice(drawn))
    return drawn


@pytest.mark.parametrize("simplify", [True, False])
def test_nary_matches_the_reference(simplify):
    # two builders make the same draws, one through ``and_``/``or_`` and one
    # through the copying reference; every result must agree in kind, id,
    # payload and children ids, under both sharing settings, and the two
    # builders must end with the same count, so that no node id drifts
    for share, pairs in itertools.product((True, False), (False, True)):
        rng = random.Random(12)
        b, r = FormulaBuilder(simplify, share), FormulaBuilder(simplify, share)
        pools = []
        for builder in (b, r):
            atoms = [builder.atom(name) for name in "pqrs"]
            pools.append([builder.TRUE, builder.FALSE] + atoms
                         + [builder.not_(a) for a in atoms])
        for _ in range(3000):
            drawn = _draw_children(rng, len(pools[0]), pairs)
            mine, theirs = ([builder.not_(pool[k]) if negated else pool[k]
                             for k, negated in drawn]
                            for builder, pool in zip((b, r), pools))
            kind = rng.choice((AND, OR))
            got = b.and_(mine) if kind == AND else b.or_(mine)
            expected = reference_nary(r, kind, theirs)
            assert _shape(got) == _shape(expected), (share, kind, drawn)
            if len(pools[0]) < 60 and got.kind in (AND, OR):
                pools[0] += [got, b.not_(got)]
                pools[1] += [expected, r.not_(expected)]
        assert b._count == r._count


def test_flattening_and_dedup():
    b = FormulaBuilder()
    x, y, z = b.atom("x"), b.atom("y"), b.atom("z")
    nested = b.and_([b.and_([x, y]), z, x])
    assert nested.kind == AND
    assert {c.id for c in nested.children} == {x.id, y.id, z.id}
    assert len(nested.children) == 3


def test_commutative_interning():
    b = FormulaBuilder()
    x, y = b.atom("x"), b.atom("y")
    assert b.and_([x, y]) is b.and_([y, x])
    assert b.or_([x, y]) is b.or_([y, x])
    assert b.iff(x, y) is b.iff(y, x)


def test_complement_collapse():
    b = FormulaBuilder()
    x = b.atom("x")
    assert b.and_([x, b.not_(x)]) is b.FALSE
    assert b.or_([x, b.not_(x)]) is b.TRUE
    assert b.iff(x, b.not_(x)) is b.FALSE


def test_implies_simplifications():
    b = FormulaBuilder()
    x, y = b.atom("x"), b.atom("y")
    assert b.implies(b.TRUE, y) is y
    assert b.implies(b.FALSE, y) is b.TRUE
    assert b.implies(x, b.TRUE) is b.TRUE
    assert b.implies(x, b.FALSE) is b.not_(x)
    assert b.implies(x, x) is b.TRUE


@pytest.mark.parametrize("simplify", [True, False])
def test_implies_is_a_disjunction(simplify):
    b = FormulaBuilder(simplify=simplify)
    a, c = b.atom("a"), b.and_([b.atom("p"), b.atom("q")])
    assert b.implies(a, c) is b.or_([b.not_(a), c])


def test_single_child_collapse():
    b = FormulaBuilder()
    x = b.atom("x")
    assert b.and_([x]) is x
    assert b.or_([x, x]) is x


def test_no_sharing_mode():
    b = FormulaBuilder(share=False)
    x1, x2 = b.atom("x"), b.atom("x")
    assert x1 is not x2
    assert x1.payload == x2.payload


def test_no_simplify_mode():
    b = FormulaBuilder(simplify=False)
    x = b.atom("x")
    node = b.and_([b.TRUE, x])
    assert node.kind == AND and len(node.children) == 2


def test_evaluate_random_against_reference():
    rng = random.Random(3)

    def reference(n, env):
        k = n.kind
        if k == "true":
            return True
        if k == "false":
            return False
        if k == "atom":
            return env[n.payload]
        vals = [reference(c, env) for c in n.children]
        if k == "not":
            return not vals[0]
        if k == "and":
            return all(vals)
        return any(vals)

    for _ in range(60):
        b = FormulaBuilder()
        names = ["p", "q", "r", "t"]
        pool = [b.atom(n) for n in names]
        for _ in range(12):
            op = rng.randrange(5)
            if op == 0:
                pool.append(b.not_(rng.choice(pool)))
            elif op == 1:
                pool.append(b.and_([rng.choice(pool) for _ in range(rng.randint(1, 3))]))
            elif op == 2:
                pool.append(b.or_([rng.choice(pool) for _ in range(rng.randint(1, 3))]))
            elif op == 3:
                pool.append(b.implies(rng.choice(pool), rng.choice(pool)))
            else:
                pool.append(b.iff(rng.choice(pool), rng.choice(pool)))
        top = pool[-1]
        for bits in itertools.product([False, True], repeat=len(names)):
            env = dict(zip(names, bits))
            assert evaluate(top, env.__getitem__) == reference(top, env)


def test_dag_smaller_than_tree_under_sharing():
    b = FormulaBuilder()
    x, y = b.atom("x"), b.atom("y")
    shared = b.and_([x, y])
    top = b.or_([b.implies(b.atom("p"), shared), b.iff(b.atom("q"), shared)])
    assert dag_size(top) < tree_size(top)
    assert sum(1 for n in iter_nodes(top) if n is shared) == 1


def test_atoms_of_and_dump_deterministic():
    b = FormulaBuilder()
    x, y = b.atom("x"), b.atom("y")
    top = b.or_([b.and_([x, y]), b.not_(x)])
    assert atoms_of(top) == ["x", "y"]
    assert dump(top) == dump(top)
    assert "root" in dump(top)


def test_nodes_of_two_builders_do_not_alias():
    # both atoms get id 2 in their own builder; keyed by id, the conjunction
    # would drop ``p`` and return ``a``'s atom
    a, b = FormulaBuilder(), FormulaBuilder()
    x, p = a.atom(1), b.atom("p")
    assert x.id == p.id
    both = b.and_([x, p])
    assert both.kind == AND and set(both.children) == {x, p}
    assert dag_size(both) == 3
    assert tree_size(both) == 3
    assert evaluate(both, {1: True, "p": False}.__getitem__) is False


def test_evaluate_leaves_no_reference_cycle():
    # the memo is freed when ``evaluate`` returns, not left for the cycle
    # collector to find during whatever runs next
    b = FormulaBuilder()
    x, y = b.atom("x"), b.atom("y")
    phi = b.and_([b.iff(x, y), b.or_([b.not_(x), y])])
    gc.collect()
    gc.disable()
    try:
        assert evaluate(phi, {"x": True, "y": True}.__getitem__)
        assert gc.collect() == 0
    finally:
        gc.enable()
