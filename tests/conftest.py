import numpy as np
import pytest

from platetx import operators
from platetx.domain import DomainConfig, build_domain
from platetx.fields import PhysParams


@pytest.fixture(scope="session")
def dom16():
    return build_domain(DomainConfig(n_cells=16))


@pytest.fixture(scope="session")
def dom8():
    return build_domain(DomainConfig(n_cells=8))


@pytest.fixture(scope="session")
def params():
    return PhysParams(rho0=0.8, rho1=2.0, rho2=1.0, beta0=1.3, beta1=1.0,
                      beta2=2.0, mu=0.7, lam=0.4)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


@pytest.fixture()
def folded(monkeypatch):
    """Every operators.ParityBasis product folded, at any basis size."""
    monkeypatch.setattr(operators, "FOLD_MIN_SIZE", 0)


def random_clamped(domain, rng):
    v = rng.standard_normal((domain.n + 1, domain.n + 1))
    v[domain.gamma1] = 0.0
    return v


def random_theta(domain, rng):
    v = rng.standard_normal((domain.n + 1, domain.n + 1))
    v[~domain.theta_free] = 0.0
    return v
