"""Fornberg weights: the batched form against single stencils, polynomial
exactness, and the window helper."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blowuplab.stencils import fd_weights, stencil_window


@st.composite
def stencil_stacks(draw):
    """S sorted node sets of n <= 9 distinct nodes, an x0 in each span, and
    a derivative order m < n."""
    n = draw(st.integers(1, 9))
    m = draw(st.integers(0, n - 1))
    S = draw(st.integers(1, 5))
    gap = st.floats(0.05, 2.0)
    nodes, x0 = [], []
    for _ in range(S):
        start = draw(st.floats(-5.0, 5.0))
        x = start + np.cumsum([0.0] + draw(st.lists(gap, min_size=n - 1,
                                                    max_size=n - 1)))
        nodes.append(x)
        x0.append(draw(st.floats(float(x[0]), float(x[-1]))))
    return np.array(nodes), np.array(x0), m


@settings(max_examples=300, deadline=None)
@given(stencil_stacks())
def test_batched_weights_equal_single_stencils_bitwise(case):
    nodes, x0, m = case
    batched = fd_weights(nodes, x0, m)
    assert batched.shape == nodes.shape + (m + 1,)
    for s in range(len(nodes)):
        single = fd_weights(nodes[s], x0[s], m)
        assert single.shape == (nodes.shape[1], m + 1)
        assert np.array_equal(batched[s], single)
        assert np.array_equal(fd_weights(list(nodes[s]), float(x0[s]), m), single)


@settings(max_examples=300, deadline=None)
@given(stencil_stacks(), st.data())
def test_weights_differentiate_polynomials_exactly(case, data):
    nodes, x0, m = case
    n = nodes.shape[1]
    coef = np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)))
    W = fd_weights(nodes, x0, m)
    for s in range(len(nodes)):
        # p(x) = sum_d coef[d] (x - x0)^d, so p^(k)(x0) = k! coef[k]
        t = nodes[s] - x0[s]
        p = np.polynomial.polynomial.polyval(t, coef)
        for k in range(m + 1):
            terms = W[s, :, k] * p
            exact = math.factorial(k) * coef[k]
            # relative to the size of the terms that cancel in the sum
            scale = max(np.abs(terms).sum(), abs(exact), 1e-300)
            assert abs(terms.sum() - exact) <= 1e-9 * scale


@pytest.mark.parametrize("m", [2, 3, 5])
def test_too_few_nodes_rejected(m):
    nodes = np.linspace(0.0, 1.0, m)
    with pytest.raises(ValueError, match="need more than"):
        fd_weights(nodes, 0.5, m)
    with pytest.raises(ValueError, match="need more than"):
        fd_weights(np.stack([nodes, nodes + 1.0]), np.array([0.5, 1.5]), m)


def test_stencil_window_array_matches_scalar():
    n, width = 23, 7
    centres = np.arange(n)
    windows = stencil_window(centres, n, width)
    assert windows.shape == (n, width)
    for i in centres:
        single = stencil_window(int(i), n, width)
        assert np.array_equal(windows[i], single)
        assert single[0] >= 0 and single[-1] <= n - 1 and i in single
    with pytest.raises(ValueError, match="too small"):
        stencil_window(np.arange(5), 5, 7)
