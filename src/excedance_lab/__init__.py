"""Exact toolkit for excedance-type polynomials.

Core layers:

* :mod:`excedance_lab.multipoly`  exact sparse multivariate polynomials
* :mod:`excedance_lab.grammar`    context-free grammar formal derivatives
* :mod:`excedance_lab.permstats`  enumeration of permutation classes with statistics
* :mod:`excedance_lab.families`   recurrence-defined polynomial families
* :mod:`excedance_lab.shape`      symmetric decomposition and gamma-positivity verdicts
* :mod:`excedance_lab.fsaction`   the modified Foata-Strehl action on cycles
* :mod:`excedance_lab.identities` the cross-check registry behind `excedance-lab verify`
"""

from .families import family, q_bracket, springer
from .grammar import Grammar, parse_rules
from .multipoly import (
    BadInput, Context, ExponentOverflow, ParseError, Poly, as_fraction, poly_from_json,
)
from .permstats import (
    BadClassSize,
    BadGuard,
    NotInClass,
    PermObject,
    SizeExceeded,
    UnknownKind,
    UnknownStat,
    class_size,
    enumerate_class,
    gen_poly,
    marginal,
    stirling_identities,
)
from .shape import (
    CoeffSeq,
    NotSymmetric,
    PartialGamma,
    ShapeReport,
    check,
    decompose,
    gamma_expand,
    partial_gamma_expand,
    shape_report,
)
from .fsaction import CycleClassified, act, classify, parse_cycles, verify_bijection
from .identities import run_suite, run_verify

__version__ = "0.1.0"

__all__ = [
    "BadInput", "Context", "Poly", "ParseError", "ExponentOverflow", "as_fraction",
    "poly_from_json",
    "Grammar", "parse_rules",
    "BadClassSize", "BadGuard", "NotInClass", "PermObject", "SizeExceeded", "UnknownKind",
    "UnknownStat",
    "class_size",
    "enumerate_class", "gen_poly", "marginal", "stirling_identities",
    "family", "q_bracket", "springer",
    "CoeffSeq", "NotSymmetric", "PartialGamma", "ShapeReport",
    "check", "decompose", "gamma_expand", "partial_gamma_expand", "shape_report",
    "CycleClassified", "act", "classify", "parse_cycles", "verify_bijection",
    "run_suite", "run_verify",
    "__version__",
]
