"""Deterministic quadrature over boxes: tensor Gauss-Legendre and adaptive
Gauss-Kronrod cubature.

Both rules take a batch integrand f(points) -> values with points of shape
(N, dims), and return (value, error_estimate, evaluations). Error estimates
are heuristic: the Gauss-Legendre estimate is the delta against a half-level
run, but no less than the rounding error log2(N) eps sum |f w| of the N-node
sum (at high levels the delta alone can fall below the true error); the
adaptive estimate is the global Gauss-Kronrod error summed over all regions
of the subdivision. Results are deterministic for a fixed
(rule, level, depth, prec).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np
from scipy import integrate

from ..numerics import HPReal

RULES = ("gauss_legendre_tensor", "adaptive_gk")


@dataclass(frozen=True)
class QuadratureConfig:
    """Rule, Gauss-Legendre level, panel depth and target digits of a run.

    ``seed`` is recorded in the CLI manifest only; no rule reads it.
    """

    rule: str = "gauss_legendre_tensor"
    level: int = 64
    depth: int = 0
    seed: int = 12345
    prec: int = 15

    def __post_init__(self):
        if self.rule not in RULES:
            raise ValueError(f"unknown rule {self.rule!r}; choose from {RULES}")
        if self.level < 2:
            raise ValueError("level must be at least 2")
        if self.depth < 0:
            raise ValueError("depth must be nonnegative")


@dataclass
class QuadratureResult:
    value: HPReal
    error_estimate: HPReal
    evaluations: int


def make_result(value: float, err: float, evals: int, cfg: QuadratureConfig) -> QuadratureResult:
    return QuadratureResult(HPReal(value, cfg.prec), HPReal(abs(err), cfg.prec), evals)


def _panels(lo: float, hi: float, depth: int) -> np.ndarray:
    return np.linspace(lo, hi, 2**depth + 1)


def gl_grid(lo, hi, level: int, depth: int, dims: int):
    """Tensor nodes/weights on [lo,hi]^dims with 2^depth panels per axis."""
    x, w = np.polynomial.legendre.leggauss(level)
    edges = _panels(lo, hi, depth)
    nodes, weights = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        nodes.append(0.5 * (b - a) * x + 0.5 * (a + b))
        weights.append(0.5 * (b - a) * w)
    n1 = np.concatenate(nodes)
    w1 = np.concatenate(weights)
    grids = np.meshgrid(*([n1] * dims), indexing="ij")
    pts = np.stack([g.reshape(-1) for g in grids], axis=-1)
    wt = w1
    for _ in range(dims - 1):
        wt = np.multiply.outer(wt, w1)
    return pts, wt.reshape(-1)


def _gl_pass(f, lo, hi, level, depth, dims):
    pts, wt = gl_grid(lo, hi, level, depth, dims)
    vals = np.asarray(f(pts), dtype=np.float64)
    # fixed-order pairwise summation for bit-stable accumulation
    terms = vals * wt
    mass = float(np.abs(terms).sum())
    while len(terms) > 1:
        if len(terms) % 2:
            terms = np.concatenate([terms, [0.0]])
        terms = terms[0::2] + terms[1::2]
    return float(terms[0]), mass, len(wt)


def integrate_box(
    f: Callable, lo: float, hi: float, dims: int, cfg: QuadratureConfig
) -> Tuple[float, float, int]:
    """Integrate f over [lo, hi]^dims with the configured rule."""
    if cfg.rule == "gauss_legendre_tensor":
        coarse, _, n1 = _gl_pass(f, lo, hi, max(2, cfg.level // 2), cfg.depth, dims)
        fine, mass, n2 = _gl_pass(f, lo, hi, cfg.level, cfg.depth, dims)
        floor = math.log2(n2) * np.finfo(float).eps * mass
        return fine, max(abs(fine - coarse), floor), n1 + n2
    if cfg.rule == "adaptive_gk":
        return _adaptive(f, lo, hi, dims, cfg)
    raise ValueError(cfg.rule)


def _adaptive(f, lo, hi, dims, cfg):
    evals = 0
    tol = 10.0 ** (-min(cfg.prec, 12))

    def counted(points):
        nonlocal evals
        evals += len(points)
        return f(points)

    res = integrate.cubature(
        counted, [lo] * dims, [hi] * dims, rule="gk21", rtol=tol, atol=tol,
        max_subdivisions=10000 * (cfg.depth + 1),
    )
    if res.status != "converged" or not np.isfinite([res.estimate, res.error]).all():
        warnings.warn(
            f"adaptive_gk: status {res.status}, estimate {res.estimate}, error {res.error}",
            integrate.IntegrationWarning,
            stacklevel=3,
        )
    return float(res.estimate), float(res.error), evals

