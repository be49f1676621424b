"""Property tests on generated inputs.

Every test runs a bounded, derandomized hypothesis search, so the suite
stays deterministic.  The input ranges are fixed where the dense factor of
the nu = 1/2 correlation is well conditioned: at most 60 points in [0, 1],
gaps of at least 1e-3 and alpha in [0.1, 20].
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from fixedgp.gp import DenseEngine, Design, GpDataset, OuEngine
from fixedgp.kernels import MaternSpec
from fixedgp.kriging import PredictionQuery, mse_breakdown

PROPERTY = settings(derandomize=True, max_examples=60, deadline=None, database=None)
MIN_GAP = 1e-3
alphas = st.floats(0.1, 20.0)


@st.composite
def designs(draw, max_n):
    """Sorted 1-d designs in [0, 1] of 1 to ``max_n`` points, gaps at least
    MIN_GAP."""
    n = draw(st.integers(1, max_n))
    gaps = np.array(draw(st.lists(st.floats(MIN_GAP, 1.0 / max_n),
                                  min_size=n - 1, max_size=n - 1)))
    span = gaps.sum()
    start = draw(st.floats(0.0, 1.0)) * (1.0 - span)
    return Design(points=start + np.concatenate([[0.0], np.cumsum(gaps)])[:, None])


@st.composite
def datasets(draw, max_n=60):
    design = draw(designs(max_n))
    x = draw(st.lists(st.floats(-10.0, 10.0, allow_subnormal=False),
                      min_size=design.n, max_size=design.n))
    assume(max(abs(v) for v in x) >= 1e-3)
    return GpDataset(design=design, x=np.array(x))


@PROPERTY
@given(data=datasets(), sigma2=st.floats(0.01, 100.0), alpha=alphas)
def test_ou_engine_matches_dense(data, sigma2, alpha):
    ou, dense = OuEngine(data), DenseEngine(data, 0.5)
    assert ou.loglik(sigma2, alpha) == pytest.approx(dense.loglik(sigma2, alpha), rel=1e-9)
    fast, full = ou.profile(alpha), dense.profile(alpha)
    assert fast.theta_tilde == pytest.approx(full.theta_tilde, rel=1e-9)
    assert fast.profile_loglik == pytest.approx(full.profile_loglik, rel=1e-9)


@PROPERTY
@given(design=designs(max_n=30), at=st.floats(0.0, 1.0), alpha=alphas, alpha0=alphas)
def test_mse_under_truth_is_at_least_the_oracle(design, at, alpha, alpha0):
    # the oracle BLUP is optimal under the truth; equality at alpha = alpha0
    # holds up to factorization round-off
    assume(np.min(np.abs(design.coords_1d - at)) >= MIN_GAP)
    truth = MaternSpec(1.0, alpha0, 0.5)
    assumed = MaternSpec.from_theta(truth.theta, alpha, 0.5)
    br = mse_breakdown(design, 0.5, assumed, truth, PredictionQuery(s_star=np.array([at])))
    assert br.mse_under_truth >= br.mse_oracle * (1.0 - 1e-12)
