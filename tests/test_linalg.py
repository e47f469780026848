import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tikhreg import (
    NotSPD,
    NotSymmetric,
    WeightSpec,
    symmetrize,
    w_norm,
)


def test_symmetrize_rejects_asymmetric():
    with pytest.raises(NotSymmetric):
        symmetrize(np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_symmetrize_averages_roundoff():
    m = np.array([[1.0, 0.5 + 1e-15], [0.5, 2.0]])
    out = symmetrize(m)
    assert np.array_equal(out, out.T)


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
    q = v @ base @ v
    assert q >= 0.0
    assert w_norm(v, w) == pytest.approx(np.sqrt(q), rel=1e-12, abs=1e-12)
