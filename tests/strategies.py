"""Hypothesis strategies shared by the test modules."""

from hypothesis import strategies as st

from genoq.qubo import BinaryModel, IsingModel


@st.composite
def quadratic_models(draw, weights, max_n):
    """A spin or binary model with 1..max_n variables, any subset of the
    couplings, and every coefficient drawn from ``weights``."""
    n = draw(st.integers(1, max_n))
    cls = draw(st.sampled_from([IsingModel, BinaryModel]))
    h = tuple(draw(st.lists(weights, min_size=n, max_size=n)))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    J = draw(st.dictionaries(st.sampled_from(pairs), weights)) if pairs else {}
    return cls(n, h, J, draw(weights))
