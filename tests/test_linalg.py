"""The weight check: its tolerance, the symmetrized W and the W-norm a rule reads.

What a ProblemInstance rejects as its W is tested in test_problems.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tikhreg import NotSymmetric, ProblemInstance, rule_lambda
from tikhreg.linalg import weight_factor


def test_symmetrize_rejects_asymmetric():
    # max|W| = 2, so an asymmetry of 4e-12 is twice the 1e-12 relative tolerance
    with pytest.raises(NotSymmetric):
        weight_factor(np.array([[1.0, 0.5 + 4e-12], [0.5, 2.0]]), 2)


def test_symmetrize_averages_roundoff():
    m = np.array([[1.0, 0.5 + 1e-15], [0.5, 2.0]])
    inst = ProblemInstance(n=2, a=np.eye(2), x_star=np.ones(2), y=np.ones(2), w=m, label="t")
    assert np.array_equal(inst.w, inst.w.T)
    assert np.allclose(inst.w_chol @ inst.w_chol.T, inst.w, rtol=1e-14, atol=0)
    assert m[0, 1] != m[1, 0]         # the caller's array is untouched


_vec = arrays(np.float64, (6,), elements=st.floats(-1e6, 1e6))


@given(_vec)
@settings(max_examples=50)
def test_w_norm_matches_inner(v):
    # rule_lambda reads n^{-1/2} ||x*||_W = n^{-1/2} sqrt(x*^T W x*)
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
    q = v @ base @ v
    assert q >= 0.0
    assume(q > 1e-100)                # a zero norm has no rule; a subnormal q has few digits
    inst = ProblemInstance(n=6, a=np.eye(6), x_star=v, y=v, w=base, label="t")
    # the closed form (C sigma n^{-1/2} / q)^{2 alpha/(alpha+1)} at alpha 3, C 1, sigma 1
    want = (1.0 / math.sqrt(6) / (math.sqrt(q) / math.sqrt(6))) ** 1.5
    assert rule_lambda("w", 3.0, inst, 1.0, 1.0) == pytest.approx(want, rel=1e-12)
