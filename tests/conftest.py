import math

import numpy as np
import pytest

from blc_lab import DistributionSpec, materialize
from blc_lab.core import _make_family

GAUSSIAN = DistributionSpec.gaussian(0.0, 1.0)
LOGISTIC = DistributionSpec.logistic(0.0, 1.0)
LAPLACE = DistributionSpec.laplace(0.0, 1.0)
UNIFORM01 = DistributionSpec.uniform(0.0, 1.0)


def mixture_spec(a, sd=1.0, shift=0.0):
    """Symmetric two-component mixture at +-a around `shift`."""
    return DistributionSpec.gaussian_mixture(
        [0.5, 0.5], [shift - a, shift + a], [sd, sd])


MIX_05 = mixture_spec(0.5)
MIX_10 = mixture_spec(1.0)
MIX_134 = mixture_spec(1.34)
MIX_30 = mixture_spec(3.0)
MIX_20 = mixture_spec(2.0)

# ten BLC measures: the three classical families, three mixture separations,
# and affine variants of each kind
AGREEMENT_CORPUS = [
    GAUSSIAN,
    DistributionSpec.gaussian(3.0, 0.7),
    LOGISTIC,
    DistributionSpec.logistic(-1.0, 0.5),
    LAPLACE,
    DistributionSpec.laplace(2.0, 2.0),
    MIX_05,
    MIX_10,
    MIX_134,
    mixture_spec(0.5, sd=0.5, shift=1.0),
]

# (bi-log-concave, log-concave) pairs for the convolution stability property
BLC_SIDE = [MIX_134, MIX_05, LOGISTIC]
LOGCONCAVE_SIDE = [GAUSSIAN, LAPLACE, DistributionSpec.uniform(-1.0, 1.0), LOGISTIC]
PROP_PAIRS = [(x, y) for x in BLC_SIDE for y in LOGCONCAVE_SIDE]


def two_bump_spec():
    """Equal-mass uniform bumps on [0,1] and [2,3], zero density between."""
    xs = np.concatenate([
        np.linspace(0.0, 1.0, 201),
        np.linspace(1.005, 1.995, 199),
        np.linspace(2.0, 3.0, 201),
    ])
    fs = np.concatenate([np.full(201, 0.5), np.zeros(199), np.full(201, 0.5)])
    return DistributionSpec.grid(xs, fs)


def tabulated_spec(spec, n, half_width=8.0, spacing="sinh"):
    """A grid spec of ``spec``'s density on n abscissas over +-half_width scales.

    ``spec`` is a Gaussian, logistic or Laplace law; the abscissas are evenly
    spaced or, with ``spacing="sinh"``, packed around its location.
    """
    loc, scale = list(spec.params.values())
    u = np.linspace(-1.0, 1.0, n)
    if spacing == "sinh":
        u = np.sinh(2.5 * u) / math.sinh(2.5)
    xs = loc + scale * half_width * u
    return DistributionSpec.grid(xs, _make_family(spec).pdf(xs))


_CACHE = {}


def grid_of(spec, n=2048, **kwargs):
    """Materialize with memoization so the suite reuses common grids."""
    key = (spec.to_json(), n, tuple(sorted(kwargs.items())))
    if key not in _CACHE:
        _CACHE[key] = materialize(spec, n_points=n, **kwargs)
    return _CACHE[key]


@pytest.fixture(scope="session")
def gauss():
    return grid_of(GAUSSIAN)


@pytest.fixture(scope="session")
def logistic():
    return grid_of(LOGISTIC)


@pytest.fixture(scope="session")
def laplace():
    return grid_of(LAPLACE)


@pytest.fixture(scope="session")
def mix134():
    return grid_of(MIX_134)


@pytest.fixture(scope="session")
def mix30():
    return grid_of(MIX_30)


@pytest.fixture(scope="session")
def uniform01():
    return grid_of(UNIFORM01)


@pytest.fixture(scope="session")
def two_bump():
    return grid_of(two_bump_spec())
