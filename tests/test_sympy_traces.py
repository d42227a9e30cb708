"""Plain Dirac traces against SymPy's ``gamma_trace``, an exact oracle
independent of the engine's pairing enumeration.

Both sides are compared as metric polynomials at d = 4: a map from the
set of metric factors of a term to its rational coefficient.  SymPy has no
g5 there, so g5 traces stay with the numeric oracle.  SymPy is a test
dependency only; ``import dipoleft`` never loads it (``test_oracle``).
"""

from fractions import Fraction

import pytest
from sympy.physics.hep.gamma_matrices import GammaMatrix, LorentzIndex, gamma_trace
from sympy.tensor.tensor import TensAdd, TensMul, tensor_indices

from dipoleft.algebra import Metric, contract, gamma, substitute_dimension
from dipoleft.dirac import trace_word


def _poly_add(poly: dict, key: tuple, value: Fraction) -> None:
    poly[key] = poly.get(key, Fraction(0)) + value
    if not poly[key]:
        del poly[key]


def _metric_key(pairs) -> tuple:
    return tuple(sorted(tuple(sorted(pair)) for pair in pairs))


def _sympy_polynomial(text: str) -> dict:
    """SymPy's trace of the word, the second occurrence of a label lowered."""
    names = sorted(set(text))
    index = dict(zip(names, tensor_indices(" ".join(names), LorentzIndex)))
    seen: set[str] = set()
    product = 1
    for x in text:
        product *= GammaMatrix(-index[x] if x in seen else index[x])
        seen.add(x)
    expr = gamma_trace(product)
    expr = expr.expand() if isinstance(expr, (TensAdd, TensMul)) else expr
    poly: dict = {}
    for term in expr.args if isinstance(expr, TensAdd) else (expr,):
        if isinstance(term, TensMul):
            assert all(c == LorentzIndex.metric for c in term.components)
            labels = [i.name for i in term.get_indices()]
            pairs = zip(labels[::2], labels[1::2])
            coeff = term.coeff
        else:
            pairs, coeff = (), term
        _poly_add(poly, _metric_key(pairs), Fraction(str(coeff)))
    return poly


def _engine_polynomial(text: str) -> dict:
    """``trace_word`` of the word; a repeated label is contracted, then d = 4."""
    expr = trace_word(tuple(gamma(x) for x in text))
    if len(set(text)) < len(text):
        expr = substitute_dimension(contract(expr), 4)
    poly: dict = {}
    for term in expr.terms:
        coeff = term.coeff
        assert not (coeff.im or coeff.consts or coeff.logs or coeff.eps_power)
        assert all(isinstance(f, Metric) for f in term.factors)
        _poly_add(poly, _metric_key((f.i, f.j) for f in term.factors), coeff.re)
    return poly


@pytest.mark.parametrize(
    "text",
    ["ab", "abc", "abcd", "dbca", "abcdef", "fedcba", "cafbed", "abab", "aabb", "abcabd", "abcacb",
     "abcdefgh"],
)
def test_plain_trace_matches_sympy(text):
    assert _engine_polynomial(text) == _sympy_polynomial(text)
