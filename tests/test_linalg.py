import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tikhreg import (
    NotSPD,
    NotSymmetric,
    WeightSpec,
    spd_solve,
    symmetrize,
    w_inner,
    w_norm,
)


def test_spd_solve_identity():
    rhs = np.array([1.0, 2.0, 3.0])
    assert np.allclose(spd_solve(np.eye(3), rhs), rhs)


def test_spd_solve_diagonal():
    m = np.diag([2.0, 4.0])
    assert np.allclose(spd_solve(m, np.array([2.0, 8.0])), [1.0, 2.0])


def test_spd_solve_2x2_hand_elimination():
    m = np.array([[4.0, 1.0], [1.0, 3.0]])
    x = spd_solve(m, np.array([1.0, 2.0]))
    assert np.allclose(x, [1.0 / 11.0, 7.0 / 11.0], rtol=1e-14)


def test_spd_solve_rejects_indefinite():
    with pytest.raises(NotSPD):
        spd_solve(np.array([[1.0, 2.0], [2.0, 1.0]]), np.array([1.0, 1.0]))


def test_symmetrize_rejects_asymmetric():
    with pytest.raises(NotSymmetric):
        symmetrize(np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_symmetrize_averages_roundoff():
    m = np.array([[1.0, 0.5 + 1e-15], [0.5, 2.0]])
    out = symmetrize(m)
    assert np.array_equal(out, out.T)


def test_w_inner_identity_cases():
    w = WeightSpec.identity()
    assert w_inner(np.array([1.0, 1.0]), np.array([1.0, 1.0]), w) == pytest.approx(2.0)
    assert w_inner(np.array([1.0, 0.0]), np.array([0.0, 1.0]), w) == pytest.approx(0.0)


def test_w_inner_diagonal_weight():
    w = WeightSpec.explicit(np.diag([2.0, 3.0]))
    u = np.array([1.0, 2.0])
    assert w_inner(u, u, w) == pytest.approx(14.0, rel=1e-15)


def test_weightspec_explicit_rejects_asymmetric():
    with pytest.raises(NotSymmetric):
        WeightSpec.explicit(np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_weightspec_explicit_rejects_indefinite():
    with pytest.raises(NotSPD):
        WeightSpec.explicit(np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_identity_apply_is_noop(rng):
    v = rng.standard_normal(7)
    assert np.array_equal(WeightSpec.identity().apply(v), v)


_vec = arrays(np.float64, (6,), elements=st.floats(-1e6, 1e6))


@given(_vec)
@settings(max_examples=50)
def test_w_norm_matches_inner(v):
    base = np.array(
        [
            [2.0, 0.3, 0.0, 0.0, 0.0, 0.0],
            [0.3, 1.5, 0.2, 0.0, 0.0, 0.0],
            [0.0, 0.2, 1.0, 0.1, 0.0, 0.0],
            [0.0, 0.0, 0.1, 2.5, 0.0, 0.0],
            [0.0, 0.0, 0.0, 0.0, 1.2, 0.4],
            [0.0, 0.0, 0.0, 0.0, 0.4, 3.0],
        ]
    )
    w = WeightSpec.explicit(base)
    q = w_inner(v, v, w)
    assert q >= 0.0
    assert w_norm(v, w) == pytest.approx(np.sqrt(q), rel=1e-12, abs=1e-12)


@given(st.integers(2, 12), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_spd_solve_inverts_random_spd(n, seed):
    gen = np.random.Generator(np.random.Philox(key=seed))
    l = gen.standard_normal((n, n)) / np.sqrt(n)
    m = l @ l.T + 0.5 * np.eye(n)
    x = gen.standard_normal(n)
    assert np.allclose(spd_solve(m, m @ x), x, rtol=1e-9, atol=1e-9)
