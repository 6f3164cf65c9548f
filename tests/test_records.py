"""The 16 record classes keep the contract of the frozen and mutable
dataclasses they replace: construction by position and by keyword with the
same defaults, ``Name(field=value, ...)`` as ``repr``, equality only within
one class, the hash of the tuple of fields and no assignment for the frozen
ones, and pickling.  Atoms are tagged tuples, not records: the formula
builder keeps the seven kinds apart by their tags."""

import pickle
from itertools import combinations

import pytest

from termfilter.cnf import Cnf, TseitinResult
from termfilter.dp import DpProblem, dependency_pairs
from termfilter.encoder import RpEncoding, encode_rp_formula
from termfilter.formula import FormulaBuilder
from termfilter.lowering import DecodedModel
from termfilter.orders import ArgumentFiltering, Collapse, Keep, Precedence
from termfilter.prover import (Maybe, ProofStep, ProverConfig, ReductionWitness,
                               Terminating, Timeout)
from termfilter.solver import SolveResult
from termfilter.terms import Rule, Symbol, Trs
from termfilter.tpdb import parse_trs

F, G = Symbol("f", 1), Symbol("s", 1)
TRS = parse_trs("(VAR x)(RULES f(s(x)) -> f(x))")
RULE = TRS.rules[0]
PROBLEM = DpProblem(dependency_pairs(TRS), TRS)
ENC = encode_rp_formula(PROBLEM)
PREC = Precedence({F: 2, G: 1})
PI = ArgumentFiltering({F: Keep((1,)), G: Collapse(1)})
WITNESS = ReductionWitness("strict", "thm12", PREC, PI, PROBLEM.pairs.rules, ())
STEP = ProofStep("dependency_graph", PROBLEM, (PROBLEM,))
CNF = Cnf(2, ((1, -2), (2,)))

# class, its fields in order with a value each, the defaults, frozen, pickled
RECORDS = [
    (Rule, {"lhs": RULE.lhs, "rhs": RULE.rhs}, {}, True, True),
    (Trs, {"rules": TRS.rules, "signature": TRS.signature}, {}, True, True),
    (DpProblem, {"pairs": PROBLEM.pairs, "rules": PROBLEM.rules}, {}, True, True),
    (Keep, {"positions": (1, 3)}, {"positions": ()}, True, True),
    (Collapse, {"position": 2}, {}, True, True),
    (Cnf, {"num_vars": 2, "clauses": CNF.clauses}, {}, True, False),
    (TseitinResult, {"cnf": CNF, "definitions": {3: "x"}}, {}, False, False),
    (SolveResult, {"status": "sat", "model": {1: True}}, {"model": None}, False, False),
    (RpEncoding, {"formula": ENC.formula, "context": ENC.context,
                  "symbols": ENC.symbols, "usable_symbols": ENC.usable_symbols},
     {}, True, False),
    (DecodedModel, {"precedence": PREC, "filtering": PI, "strict_pairs": (0,)},
     {}, True, False),
    (ProverConfig, {"mode": "quasi", "processor": "thm5", "timeout": 2.5,
                    "emit_dimacs": "out", "dump_formula": True},
     {"mode": "strict", "processor": "thm12", "timeout": None, "emit_dimacs": None,
      "dump_formula": False}, False, False),
    (ReductionWitness, {"mode": "strict", "processor": "thm12", "precedence": PREC,
                        "filtering": PI, "removed": PROBLEM.pairs.rules, "usable": ()},
     {}, True, False),
    (ProofStep, {"processor": "reduction_pair", "problem": PROBLEM, "results": (PROBLEM,),
                 "witness": WITNESS}, {"witness": None}, True, False),
    (Terminating, {"steps": (STEP,)}, {}, True, False),
    (Maybe, {"reason": "no ordering", "steps": (STEP,)}, {"steps": ()}, True, False),
    (Timeout, {"steps": (STEP,)}, {"steps": ()}, True, False),
]
IDS = [cls.__name__ for cls, *_ in RECORDS]


@pytest.mark.parametrize("cls, fields, defaults, frozen, pickled", RECORDS, ids=IDS)
def test_record_constructs_by_position_and_keyword(cls, fields, defaults, frozen, pickled):
    by_position = cls(*fields.values())
    by_keyword = cls(**fields)
    for name, value in fields.items():
        assert getattr(by_position, name) == value and getattr(by_keyword, name) == value
    required = [value for name, value in fields.items() if name not in defaults]
    bare = cls(*required)
    for name, value in defaults.items():
        assert getattr(bare, name) == value
    with pytest.raises(TypeError):
        cls(*fields.values(), None)


@pytest.mark.parametrize("cls, fields, defaults, frozen, pickled", RECORDS, ids=IDS)
def test_record_repr_names_its_fields(cls, fields, defaults, frozen, pickled):
    shown = ", ".join(f"{name}={value!r}" for name, value in fields.items())
    assert repr(cls(**fields)) == f"{cls.__name__}({shown})"


@pytest.mark.parametrize("cls, fields, defaults, frozen, pickled", RECORDS, ids=IDS)
def test_record_equality_is_by_fields(cls, fields, defaults, frozen, pickled):
    a, b = cls(**fields), cls(**fields)
    assert a is not b and a == b and not a != b
    assert a != tuple(fields.values()) and a != object()
    if frozen:
        assert hash(a) == hash(b) == hash(tuple(fields.values()))
    else:
        assert cls.__hash__ is None
        with pytest.raises(TypeError):
            hash(a)


def test_record_equality_is_strict_about_the_class():
    assert Terminating(()) != Timeout(())
    assert Keep((1,)) != Collapse(1)
    records = [cls(**fields) for cls, fields, *_ in RECORDS]
    for a, b in combinations(records, 2):
        assert a != b and b != a


@pytest.mark.parametrize("cls, fields, defaults, frozen, pickled", RECORDS, ids=IDS)
def test_frozen_records_refuse_assignment(cls, fields, defaults, frozen, pickled):
    record = cls(**fields)
    name, value = next(iter(fields.items()))
    if frozen:
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
    else:
        other = cls(**fields)
        setattr(other, name, None)
        assert getattr(other, name) is None and other != record


@pytest.mark.parametrize("cls, fields, defaults, frozen, pickled",
                         [r for r in RECORDS if r[4]], ids=[i for i, r in zip(IDS, RECORDS) if r[4]])
def test_records_pickle_round_trip(cls, fields, defaults, frozen, pickled):
    record = cls(**fields)
    again = pickle.loads(pickle.dumps(record))
    assert type(again) is cls and again == record


def test_builder_keeps_the_seven_kinds_of_atom_apart():
    kinds = [("gt", F, G), ("eq", F, G), ("list", F), ("in", F, 1), ("collapse", F, 1),
             ("usable", F), ("strict", 1)]
    b = FormulaBuilder()
    nodes = [b.atom(atom) for atom in kinds]
    assert len(set(nodes)) == 7
    # an equal tuple built afresh finds the node of its kind
    again = [b.atom((atom[0], *atom[1:])) for atom in kinds]
    assert all(a is n for a, n in zip(again, nodes))
