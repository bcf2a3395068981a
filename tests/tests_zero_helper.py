import numpy as np

from proxsamp import Potential, SmoothnessProfile


def make_zero(dim):
    """Flat potential: the inner conditional is the plain Gaussian."""
    return Potential(
        dim=dim,
        value=lambda x: 0.0,
        subgrad=lambda x: np.zeros(dim),
        profile=SmoothnessProfile(alpha=1.0, l_alpha=0.0, l_one=0.0),
        prox=lambda eta, y: np.asarray(y, dtype=float),
        x_min=np.zeros(dim),
        name="zero",
    )
