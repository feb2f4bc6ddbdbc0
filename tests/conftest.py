"""Shared fixtures.

The coefficient fits drive the expansion tests and the acceptance checks.
They are session-scoped here, and fit_green_coeffs also memoizes per
process, so every test sees the same fitted object.
"""

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
