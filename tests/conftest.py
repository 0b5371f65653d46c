import os
import sys
from dataclasses import fields

import numpy as np
import pytest

from pdd import Sample
from pdd.estimator import _cut
from pdd.kernels import _cut_rows


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


def cut_at(sample: Sample, cutoff: float, reach: float, kernel) -> tuple:
    """``(cut, k, S)``: ``sample`` cut to the rows ``kernels._cut_rows`` keeps
    within ``reach`` (``estimator._cut``), its number ``k`` of left rows and
    its outcome stack ``S``, None where the sample is already cut.
    """
    rows, k = _cut_rows(sample.d, cutoff, reach, kernel)
    cut, S = _cut(sample, rows)
    return cut, k, S


def estimate_fields(est) -> dict:
    """Every field of a ``RobustEstimate``, and of its point estimate as
    ``point.<name>`` with vectors as lists, so two results compare by ``==``.
    """
    out = {f.name: getattr(est, f.name) for f in fields(est) if f.name != "point"}
    out.update(
        (f"point.{f.name}", np.asarray(getattr(est.point, f.name)).tolist())
        for f in fields(est.point)
    )
    return out


#: A 16-row file whose right side's Schur complement is zero but for
#: rounding: ``Z'KW`` is exactly 0, as its one nonzero placebo treatment sits
#: at ``d = 0``, where the placebo outcome is 0, and the line through that
#: outcome's two support points on the right is 0 there, so ``Z'KR (R'KR)^-1
#: R'KW`` is 0 in exact arithmetic
SCHUR_ROUNDING_CSV = (
    b"d,y,w1,z1\n1,0,0,0\n-0.5,0,0,0\n2,0,0,0\n0.0625,0,1,0\n-0.125,0,0,0\n"
    + b"0,0,0,0\n" * 10
    + b"0,0,0,2\n"
)


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


def local_linear_jump(s, d: np.ndarray, cutoff: float, h: float, kind: str) -> float:
    """The local linear discontinuity of ``s`` at ``cutoff``: the right
    side's fitted intercept minus the left side's.

    An oracle that shares no code with ``pdd``: each side's kernel weights
    are written out here, without the 1/h factor no intercept depends on,
    and each side is fitted by ``np.linalg.lstsq`` on its positively weighted
    rows of ``(1, (d - cutoff) / h)``, each row scaled by the root of its
    weight.
    """
    s, d = np.asarray(s, dtype=float), np.asarray(d, dtype=float)
    u = (d - cutoff) / h
    weight = {
        "window": lambda t: (t <= 1.0).astype(float),
        "triangle": lambda t: np.maximum(1.0 - t, 0.0),
        "gaussian": lambda t: np.exp(-0.5 * t * t),
    }[kind](np.abs(u))
    intercepts = []
    for side in (d >= cutoff, d < cutoff):
        keep = side & (weight > 0.0)
        root = np.sqrt(weight[keep])
        rows = np.column_stack([np.ones(keep.sum()), u[keep]]) * root[:, None]
        coef, *_ = np.linalg.lstsq(rows, s[keep] * root, rcond=None)
        intercepts.append(coef[0])
    return float(intercepts[0] - intercepts[1])


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240811)


@pytest.fixture
def workers(monkeypatch):
    """``workers(k)`` makes every later ``monte_carlo``, ``load_csv`` and
    ``write_csv`` call of the test split its work across k processes,
    through the one helper that counts them.
    """

    def force(count: int) -> None:
        monkeypatch.setattr(sys.modules["pdd._forked"], "workers", lambda tasks: count)

    return force


def draw_stage_dying_at(seed: int):
    """``pdd.simulate._draw_stage``, which draws each Monte Carlo
    replication, except that a child process drawing ``seed`` dies with exit
    status 9.
    """
    parent, real = os.getpid(), sys.modules["pdd.simulate"]._draw_stage

    def draw_or_die(spec, draw_seed):
        if draw_seed == seed and os.getpid() != parent:
            os._exit(9)
        return real(spec, draw_seed)

    return draw_or_die


def assert_no_children() -> None:
    """This process has no child left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
