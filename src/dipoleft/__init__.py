"""Exact one-loop effective actions for dipole-coupled neutral fermions.

A small computer-algebra engine: exact tensor expressions, gamma-matrix
traces (with a strictly four-dimensional g5 sector), the two one-loop
bubbles at zero external momentum, assembly and
renormalization of the two-point effective action, reduction of
multiplier-field actions, and a floating-point oracle validating every
symbolic rule.
"""

__version__ = "0.1.0"

from .algebra import (
    Coefficient,
    Epsilon,
    Expression,
    FieldSlot,
    Metric,
    Momentum,
    StructuralError,
    Term,
    canonicalize,
    contract,
    gamma,
    G5,
    substitute_dimension,
)
from .dirac import (
    FOUR_DIM,
    SYMBOLIC_DIM,
    ModelError,
    SchemeError,
    commutator,
    expand_vertex,
    sigma_tensor,
    trace,
    trace_word,
)
from .loops import (
    UnsupportedReductionError,
    cutoff_scalar_closed_form,
    cutoff_scalar_leading,
    cutoff_tensor_bracket,
    evaluate_cutoff,
    integrate,
    laurent_expand,
)
from .action import (
    AbsorbDirective,
    ActionTerm,
    DomainError,
    EffectiveAction,
    FlavorSpec,
    ModelSpec,
    NotReducibleError,
    QuantizationResult,
    RenormalizationIncompleteError,
    SlotSpec,
    assemble,
    check_quantization,
    eliminate_bf,
    normal_form,
    polarization,
    renormalize,
)
from .modelfile import Diagnostic, ModelFileError, parse_model
from .oracle import (
    SuiteReport,
    euclidean_scalar_integral,
    numeric_trace,
    randomized_equivalence_suite,
)
from .render import render_latex, render_structured, render_text, structured_to_action
