import numpy as np
import pytest

from fixedgp.gp import DegenerateDataError

# Pass/fail lines recorded by the acceptance tests, echoed at the end of the
# run so they are visible without -s.
ACCEPTANCE_LINES = []


def record_criterion(name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    line = f"[{status}] {name}" + (f": {detail}" if detail else "")
    ACCEPTANCE_LINES.append(line)
    print(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def ou_profile_loglik(stats, n: int, alpha: float) -> float:
    """Closed-form OU profile log-likelihood for the equispaced grid s_i = i/n,
    from the statistics of :func:`fixedgp.gp.ou_stats`: the oracle the
    engines' profiles are checked against.

    Equals the dense profile log-likelihood minus the alpha-independent
    constant (n/2) log n.
    """
    if not alpha > 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    q = np.exp(-alpha / n)
    arg = stats.a1 * q * q - 2.0 * stats.a2 * q + stats.a3
    if arg <= 0.0:
        raise DegenerateDataError(f"quadratic-form argument {arg} is not positive")
    return -0.5 * n * np.log(arg) + 0.5 * np.log1p(-q * q)


@pytest.fixture
def rng():
    return np.random.default_rng(20240601)
