import numpy as np
import pytest

from pdd import Sample


def random_dataset(rng: np.random.Generator, n: int = 200, q: int = 1) -> Sample:
    """Random sample with a healthy local instrument structure.

    The placebo treatments and outcomes share latent factors, so the
    instrumented cross-moment stays well conditioned on both sides.
    """
    d = rng.uniform(-1.0, 1.0, n)
    factors = rng.standard_normal((n, q))
    Z = factors + 0.4 * rng.standard_normal((n, q))
    loading = rng.uniform(0.6, 1.4, (q, q)) * np.sign(rng.standard_normal((q, q)))
    loading += 2.0 * np.eye(q)
    W = factors @ loading + 0.4 * rng.standard_normal((n, q))
    coeffs = rng.uniform(-1.0, 1.0, q)
    jump = rng.uniform(0.5, 1.5)
    y = (
        0.4
        + 0.8 * d
        + jump * (d >= 0.0)
        + factors.sum(axis=1) * 0.7
        + W @ coeffs * 0.3
        + 0.5 * rng.standard_normal(n)
    )
    return Sample(d=d, y=y, W=W, Z=Z)


def residualize(s: np.ndarray, w: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Residuals of ``s`` from its weighted least-squares fit on ``rows``.

    An oracle that shares no code with ``pdd``: ``np.linalg.lstsq`` on the
    positively weighted rows, each scaled by the root of its weight. Rows
    with zero weight get a residual of exactly zero.
    """
    s = np.asarray(s, dtype=float)
    keep = w > 0.0
    root = np.sqrt(w[keep])
    coef, *_ = np.linalg.lstsq(rows[keep] * root[:, None], s[keep] * root, rcond=None)
    resid = np.zeros_like(s)
    resid[keep] = s[keep] - rows[keep] @ coef
    return resid


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240811)
