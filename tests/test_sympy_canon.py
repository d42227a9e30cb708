"""Canonical forms against SymPy's Butler–Portugal ``canon_bp``, an exact
oracle independent of the engine's dummy-naming search (cf. xPerm,
arXiv:0803.0862).

Terms are the shapes of the canonicity probes in ``test_algebra``, with
their labels rewired at random or their dummies renamed.  On the engine
side eta is only a symmetric tensor (``canonicalize`` contracts nothing),
which is also how ``canon_bp`` treats the metric.  Two terms must
canonicalize equal exactly when SymPy says their difference is zero, and
a term to zero exactly when SymPy gives zero.  SymPy is a test dependency
only; ``import dipoleft`` never loads it (``test_oracle``).
"""

from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.tensor.tensor import TensorHead, TensorIndexType, TensorSymmetry, tensor_indices
from test_algebra import _canonicity_shape

from dipoleft.algebra import Coefficient, Epsilon, Expression, FieldSlot, Metric, Momentum, Term, canonicalize

L = TensorIndexType("L", dim=4)
# The named factors of the shapes: antisymmetric slots and momenta.
HEADS = {
    **{x: TensorHead(x, [L, L], TensorSymmetry.fully_symmetric(-2)) for x in ("X", "Y")},
    **{k: TensorHead(k, [L]) for k in ("k", "q")},
}

# The probe shapes without a gamma word: SymPy has no gamma letters here.
SHAPES = ["eps X Y", "eps X X", "eta eta X Y", "eps X eta Y k", "eps eps X Y X Y"]


def _head(f) -> TensorHead:
    if isinstance(f, Epsilon):
        return L.epsilon
    if isinstance(f, Metric):
        return L.metric
    return HEADS[f.slot if isinstance(f, FieldSlot) else f.name]


def _labels(f) -> tuple[str, ...]:
    if isinstance(f, Epsilon):
        return f.idx
    if isinstance(f, Momentum):
        return (f.i,)
    return (f.i, f.j)


def _rebuild(f, labels):
    if isinstance(f, Epsilon):
        return Epsilon(tuple(labels))
    if isinstance(f, Metric):
        return Metric(*labels)
    if isinstance(f, Momentum):
        return Momentum(f.name, *labels)
    return FieldSlot(f.slot, *labels)


def _to_sympy(term: Term):
    """The term as a SymPy tensor: a label's first occurrence up, its second down."""
    names = sorted({x for f in term.factors for x in _labels(f)})
    index = dict(zip(names, tensor_indices(" ".join(f"i_{x}" for x in names), L)))
    seen: set[str] = set()
    out = int(term.coeff.re)
    for f in term.factors:
        slots = []
        for x in _labels(f):
            slots.append(-index[x] if x in seen else index[x])
            seen.add(x)
        out = out * _head(f)(*slots)
    return out


def _rewired(shape: str, rnd) -> list:
    """The shape's factors with its label slots shuffled: every label keeps
    its number of occurrences, but which slots a dummy joins is drawn.  A
    wiring that puts one label twice on a factor is drawn again: it is zero
    by the factor's own convention and would make the rest of a draw moot."""
    factors, _ = _canonicity_shape(shape, "abcdefgh")
    slots = [x for f in factors for x in _labels(f)]
    while True:
        rnd.shuffle(slots)
        out, pos = [], 0
        for f in factors:
            n = len(_labels(f))
            out.append(_rebuild(f, slots[pos : pos + n]))
            pos += n
        if all(len(set(_labels(f))) == len(_labels(f)) for f in out):
            return out


def _renamed(factors: list, names: list[str], rnd) -> list:
    """The same tensor: dummies renamed and factors reordered."""
    labels = [x for f in factors for x in _labels(f)]
    dummies = sorted({x for x in labels if labels.count(x) == 2})
    mapping = dict(zip(dummies, [n for n in names if n not in labels or n in dummies]))
    out = [_rebuild(f, [mapping.get(x, x) for x in _labels(f)]) for f in factors]
    rnd.shuffle(out)
    return out


def _term(factors, sign: int = 1) -> Term:
    return Term(Coefficient.rational(sign), factors=tuple(factors))


def _engine_zero(*terms: Term) -> bool:
    return canonicalize(Expression.of(*terms)).is_zero()


def _canon_bp(expr):
    return expr if expr == 0 else expr.canon_bp()


@settings(max_examples=60, deadline=None)
@given(
    shape=st.sampled_from(SHAPES),
    rnd=st.randoms(use_true_random=False),
    renamed=st.booleans(),
    names=st.permutations(["a", "b", "c", "d", "e", "f", "g", "h", "$0", "$1"]),
    sign=st.sampled_from([1, -1]),
)
def test_canonical_form_matches_sympy_canon_bp(shape, rnd, renamed, names, sign):
    first = _term(_rewired(shape, rnd))
    second = _term(_renamed(list(first.factors), names, rnd) if renamed else _rewired(shape, rnd), sign)
    one, two = _canon_bp(_to_sympy(first)), _canon_bp(_to_sympy(second))
    assert _engine_zero(first) == (one == 0)
    assert _engine_zero(second) == (two == 0)
    equal = canonicalize(Expression.of(first)) == canonicalize(Expression.of(second))
    assert equal == (one - two == 0)
    assert _engine_zero(first, second) == (one + two == 0)
