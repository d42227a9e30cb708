"""Exact one-loop effective actions for dipole-coupled neutral fermions.

A small computer-algebra engine: exact tensor expressions, gamma-matrix
traces (with a strictly four-dimensional g5 sector), the two one-loop
bubbles at zero external momentum, assembly and
renormalization of the two-point effective action, reduction of
multiplier-field actions, and a floating-point oracle validating every
symbolic rule.

The package namespace holds the library API of the README and the
exact types it returns; everything else lives in its module.
"""

__version__ = "0.1.0"

from . import action, algebra, dirac, loops, modelfile, oracle, render
from .action import assemble, check_quantization, eliminate_bf, renormalize
from .algebra import Coefficient, Expression
from .modelfile import parse_model
from .render import render_structured, render_text, structured_to_action
