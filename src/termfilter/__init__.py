"""SAT-based termination proving for term rewrite systems."""

from .dp import DpProblem, dependency_pairs, estimate_dependency_graph, scc_decompose
from .encoder import EncodingContext, encode_rp_formula
from .orders import (ArgumentFiltering, Collapse, Keep, Precedence,
                     apply_filtering, lpo_af_ge, lpo_af_gt, lpo_ge, lpo_gt)
from .prover import (Maybe, ProverConfig, Terminating, Timeout,
                     prove, reduction_pair_processor, render_proof)
from .terms import App, Rule, Symbol, Term, Trs, Var, defined_symbols, unify
from .tpdb import ParseError, UnsupportedBlockError, parse_trs
from .usable import omega, usable_rules, usable_rules_mod_pi

__version__ = "0.1.0"

__all__ = [
    "App", "ArgumentFiltering", "Collapse", "DpProblem", "EncodingContext",
    "Keep", "Maybe", "ParseError", "Precedence", "ProverConfig", "Rule",
    "Symbol", "Term", "Terminating", "Timeout", "Trs", "UnsupportedBlockError",
    "Var", "apply_filtering", "defined_symbols", "dependency_pairs",
    "encode_rp_formula", "estimate_dependency_graph", "lpo_af_ge", "lpo_af_gt",
    "lpo_ge", "lpo_gt", "omega", "parse_trs", "prove",
    "reduction_pair_processor", "render_proof", "scc_decompose", "unify",
    "usable_rules", "usable_rules_mod_pi",
]
