"""Property tests on generated inputs.

Every test runs a bounded, derandomized hypothesis search, so the suite
stays deterministic.  The likelihood and MSE input ranges are fixed where
the dense factor of the nu = 1/2 correlation is well conditioned: at most
60 points in [0, 1], gaps of at least 1e-3 and alpha in [0.1, 20].
"""

import contextlib
import dataclasses
import io
import math
import string
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from fixedgp.cli import main, parse_config_file
from fixedgp.experiments import ExperimentConfig
from fixedgp.gp import DenseEngine, Design, GpDataset, OuEngine
from fixedgp.kernels import MaternSpec
from fixedgp.kriging import mse_breakdown

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
    br = mse_breakdown(design, 0.5, assumed, truth, np.array([[at]]))
    assert br.mse_under_truth[0] >= br.mse_oracle[0] * (1.0 - 1e-12)


# the config fields whose smallest valid value is 0; every other int field
# starts at 1, and every float field is positive and finite
ZERO_ALLOWED = {"n_burnin", "n_test_points", "n_workers", "master_seed"}
FIELDS = {f.name: f for f in dataclasses.fields(ExperimentConfig)}
CHOICES = {"d": (1, 2), "likelihood": ("ou", "dense")}


def valid_value(name):
    if name in CHOICES:
        return st.sampled_from(CHOICES[name])
    kind = type(FIELDS[name].default)
    if kind is int:
        return st.integers(0 if name in ZERO_ALLOWED else 1, 10**9)
    if kind is float:
        return st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
    if kind is tuple:
        return st.lists(st.integers(1, 10**6), min_size=1, max_size=6).map(tuple)
    return st.text(string.ascii_letters + string.digits + "_-./", min_size=1, max_size=30)


def invalid_value(name):
    if name in CHOICES:
        options = CHOICES[name]
        return (st.integers(-3, 9).filter(lambda v: v not in options) if name == "d"
                else st.text(string.ascii_lowercase, min_size=1).filter(lambda v: v not in options))
    kind = type(FIELDS[name].default)
    if kind is int:
        return st.integers(-10**9, -1 if name in ZERO_ALLOWED else 0)
    if kind is float:
        return st.floats(max_value=0.0) | st.sampled_from([math.nan, math.inf])
    return st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=6).filter(
        lambda v: min(v) < 1).map(tuple)


def config_text(values):
    """``key = value`` lines, as a user writes them."""
    def text(v):
        return ", ".join(str(x) for x in v) if isinstance(v, tuple) else repr(v).strip("'")
    return "".join(f"{k} = {text(v)}\n" for k, v in values.items())


@st.composite
def valid_configs(draw):
    return ExperimentConfig(**{name: draw(valid_value(name)) for name in FIELDS})


@PROPERTY
@given(cfg=valid_configs())
def test_config_file_round_trips(cfg):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.cfg"
        path.write_text(f"# generated\n{config_text(dataclasses.asdict(cfg))}")
        assert ExperimentConfig(**parse_config_file(path)) == cfg


@PROPERTY
@given(command=st.sampled_from(["simulate", "table1", "table2", "table3", "contour"]),
       bad=st.sampled_from(sorted(set(FIELDS) - {"output_dir"})).flatmap(
           lambda name: invalid_value(name).map(lambda v: (name, v))))
def test_out_of_range_config_value_exits_2(command, bad):
    name, value = bad
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "bad.cfg", Path(tmp) / "out"
        path.write_text(config_text({name: value}))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([command, "--config", str(path), "--out", str(out)])
        assert code == 2
        assert err.getvalue().startswith("config error:") and "Traceback" not in err.getvalue()
        assert not out.exists()
