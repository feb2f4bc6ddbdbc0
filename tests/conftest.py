"""Shared fixtures.

The coefficient fits drive the expansion tests and the acceptance checks.
They are session-scoped here, and fit_green_coeffs also memoizes per
process, so every test sees the same fitted object.

Every test fails if it leaves a Python thread running: each worker the
package starts has stopped before the call that started it returns
(forward.side_by_side).
"""

import threading

import pytest

from fracloc.greenfn import fit_green_coeffs


@pytest.fixture(scope="session")
def coeffs_half():
    """Fitted expansion coefficients at alpha = 0.5 (the default order)."""
    return fit_green_coeffs(0.5)


@pytest.fixture(scope="session")
def coeffs_one():
    """Fitted coefficients at alpha = 1, where everything is a Gaussian."""
    return fit_green_coeffs(1.0)


@pytest.fixture(autouse=True)
def no_thread_left_running():
    before = set(threading.enumerate())
    yield
    left = [thread.name for thread in threading.enumerate() if thread not in before]
    assert not left, f"threads left running: {left}"
