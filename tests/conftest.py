import math

import numpy as np
import pytest

from projquant.btquant import build_quadrature, standard_family


@pytest.fixture(scope="session")
def family():
    return standard_family()


@pytest.fixture(scope="session")
def quad64():
    """Shared exact rule for every level up to 64."""
    return build_quadrature(64)


@pytest.fixture(scope="session")
def quad16():
    return build_quadrature(16)


def profiles(basis) -> np.ndarray:
    """(R, m+1) radial profiles P[i, k] = c_k r_i^k (1+r_i^2)^(-m/2) of a
    SectionBasis, in log space with log c_k from the exact binomials: the
    dense reference that the regrouped assembly and the basis tests compare
    against."""
    r, m = basis.quad.radii, basis.m
    k = np.arange(basis.dim)
    log_c = 0.5 * (np.array([math.log((m + 1) * math.comb(m, j)) for j in k]) - math.log(2 * math.pi))
    return np.exp(log_c + k * np.log(r)[:, None] - 0.5 * m * np.log1p(r * r)[:, None])


def section_values(basis) -> np.ndarray:
    """(m+1, nodes) weighted sections s_k (1+|z|^2)^(-m/2) at every node of
    the basis's rule, rebuilt from the radial profiles."""
    quad = basis.quad
    theta = np.angle(quad.nodes.reshape(quad.radial_count, quad.angular_count)[0])
    k = np.arange(basis.dim)
    values = profiles(basis).T[:, :, None] * np.exp(1j * k[:, None, None] * theta)
    return values.reshape(basis.dim, -1)
