"""Deterministic quadrature over boxes: tensor Gauss-Legendre and adaptive
Gauss-Kronrod cubature.

Both rules take a batch integrand f(points) -> values with points of shape
(N, dims), each column contiguous in memory, and return (value,
error_estimate, evaluations); evaluations is the number of rows handed to f.
With ``circle=True`` (the torus integrands over [-pi, pi]^dims) f gets the
unit-circle coordinates x_j = e^(i theta_j) instead of the angles theta_j.
The exponentials are taken once per 1-D axis node, before the tensor
product: n per axis and region for n^dims points, with the same bits as
e^(i theta) taken at each point.

Tensor Gauss-Legendre calls f once per rule: the grid at half the level and
the grid at the level are written into one (dims, N) block, go to f as one
batch, and the values are split afterwards. The Gauss-Legendre nodes and
weights on [-1, 1] are computed once per level; numpy symmetrises them, so
the depth-0 nodes on a box [-h, h] are exact mirror images of each other.
(The panels' nodes on [-pi, pi] are too at depths 1 to 3; from depth 4 the
panel edges are off by an ulp, and mirror nodes agree to rounding.) For an
integrand with a mirror symmetry on a box [-h, h], ``fold`` evaluates each
value once per mirror orbit instead of at every node of it: ``"even"`` for f
even in every coordinate (the boundary integrand), ``"central"`` for
f(-theta) = f(theta) (the torus integrands of a P with rational
coefficients). Both rules fold one way. Tensor Gauss-Legendre keeps, of each
1-D rule, the centre node of an odd rule once and the nodes beyond it with
doubled weights, and tensors them into the blocks of one orbit each
(``_blocks``): every axis for ``"even"``, so f sees 1/2^dims of the grid;
the second half of the flattened grid for ``"central"``. The adaptive rule
starts from the children of the box that stand for the orbits, the last one
for ``"even"`` and the second half for ``"central"``, with their estimates
and errors scaled by the number of children over the number kept, and so
splits on that part of the box only. Since the Gauss-Legendre sums are
correctly rounded and doubling a weight is exact, a folded total equals the
full grid's bit for bit whenever f takes bitwise equal values at mirror
nodes.

Error estimates are heuristic: the Gauss-Legendre estimate is the delta
against a half-level run, but no less than the rounding error
log2(N) eps sum |f w| of the sum over the N nodes of the full grid (at high
levels the delta alone can fall below the true error). On kinked integrands
the delta can miss the truth at any level: tensor Gauss-Legendre on the
Jensen integrand of 1+x+y misses at 6 of the levels 8 to 64.

The adaptive rule is global: it keeps a list of cubic regions, each with its
GK21 product estimate K and error |K - G|, where G is the Gauss-10 product rule
on the same 21^dims values (the Gauss nodes are the odd-indexed Kronrod nodes).
Each refinement round sorts the regions by error and halves, along every
axis, the fewest largest ones that bring the error of the rest to half the
target; all 2^dims children of a round are evaluated in one batched pass,
handed to f in chunks of about 2^15 points. It stops when the summed error is
at most tol + tol |estimate|, tol = 10^-min(prec, 12), after ``SPLIT_CAP`` =
10000 splits, or when the sum is not finite; it reads neither level nor depth.
Like tensor Gauss-Legendre it then returns what it reached: a rule stopped at
its cap reports the summed error it got to, and a non-finite value is left to
the caller (``HPReal.to_decimal`` refuses to print it). Results are
deterministic for a fixed (rule, level, depth, prec).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np
from numpy.polynomial.legendre import leggauss

from ..numerics import HPReal

RULES = ("gauss_legendre_tensor", "adaptive_gk")
FOLDS = (None, "even", "central")


@dataclass(frozen=True)
class QuadratureConfig:
    """Rule, Gauss-Legendre level, panel depth and target digits of a run.

    ``level`` and ``depth`` are read by tensor Gauss-Legendre only; the
    adaptive rule stops after ``SPLIT_CAP`` splits. ``seed`` is recorded in
    the manifest of ``reglab verify-main`` only; no rule reads it.
    """

    rule: str = "gauss_legendre_tensor"
    level: int = 64
    depth: int = 0
    seed: int = 12345
    prec: int = 15

    def __post_init__(self):
        if self.rule not in RULES:
            raise ValueError(f"unknown rule {self.rule!r}; choose from {RULES}")
        if self.level < 3:
            raise ValueError("level must be at least 3")
        if self.depth < 0:
            raise ValueError("depth must be nonnegative")


@dataclass
class QuadratureResult:
    value: HPReal
    error_estimate: HPReal
    evaluations: int


def make_result(value: float, err: float, evals: int, cfg: QuadratureConfig) -> QuadratureResult:
    return QuadratureResult(HPReal(value, cfg.prec), HPReal(abs(err), cfg.prec), evals)


@functools.lru_cache(maxsize=None)
def _legendre(level: int):
    """The Gauss-Legendre nodes and weights on [-1, 1], computed once per level and
    returned read-only. numpy symmetrises them: x[i] = -x[-1 - i] and
    w[i] = w[-1 - i] exactly, with the middle node of an odd level at 0."""
    x, w = leggauss(level)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def gl_rule(lo, hi, level: int, depth: int):
    """The 1-D Gauss-Legendre rule on [lo, hi] with 2^depth panels: nodes, weights."""
    x, w = _legendre(level)
    edges = np.linspace(lo, hi, 2**depth + 1)
    nodes = np.concatenate([0.5 * (b - a) * x + 0.5 * (a + b) for a, b in zip(edges, edges[1:])])
    weights = np.concatenate([0.5 * (b - a) * w for a, b in zip(edges, edges[1:])])
    return nodes, weights


def _outer(ws) -> np.ndarray:
    """The weights of the tensor product of 1-D rules with weights ws, first axis slowest."""
    return functools.reduce(np.multiply.outer, ws).reshape(-1)


def _grid(axes, out=None):
    """The tensor grids of R regions from their nodes per axis.

    ``axes`` holds one (R, n_j) array of nodes per axis. Returns points
    (R prod n_j, dims), region by region; within a region the first axis
    varies slowest. Each column is contiguous in memory. The points are
    written into ``out``, a C-contiguous (dims, R prod n_j) block or a
    column range of one, when it is given. Every grid is built here: the
    Gauss-Legendre grids and their folded blocks (R = 1), the adaptive
    rule's regions and the offsets of a cube's 2^dims children.
    """
    dims, count = len(axes), len(axes[0])
    shape = (count,) + tuple(a.shape[1] for a in axes)
    if out is None:
        out = np.empty((dims, math.prod(shape)), dtype=np.result_type(*axes))
    for j, a in enumerate(axes):
        out[j].reshape(shape)[...] = a.reshape((count,) + (1,) * j + (-1,) + (1,) * (dims - 1 - j))
    return out.T


def _blocks(x, w, dims, fold):
    """The tensor blocks of the grid with 1-D nodes x and weights w that f is handed.

    Each block is a list of (nodes, weights) per axis. Without ``fold`` it is
    the whole grid. A fold is built from two pieces of the 1-D rule, which is
    symmetric about 0: ``mid``, the centre node of an odd n kept once (empty
    for even n), and ``upper``, the nodes beyond it with doubled weights.
    ``"even"`` is one block of mid + upper on every axis. ``"central"`` is
    the second half of the flattened grid, points N//2 .. N-1 of N = n^dims,
    in that order: the mirror -p of point i is point N-1-i. These are the
    centre, mid on every axis, then for j = dims-1 down to 0 the points
    whose first j coordinates are mid and whose coordinate j is in upper; a
    block that holds an empty mid is empty.
    """
    if fold is None:
        return [[(x, w)] * dims]
    n = len(x)
    mid = (x[n // 2 : (n + 1) // 2], w[n // 2 : (n + 1) // 2])
    upper = (x[(n + 1) // 2 :], 2.0 * w[(n + 1) // 2 :])
    if fold == "even":
        return [[tuple(np.concatenate(pair) for pair in zip(mid, upper))] * dims]
    return [[mid] * dims] + [
        [mid] * j + [upper] + [(x, w)] * (dims - 1 - j) for j in reversed(range(dims))
    ]


def _gauss_legendre(f, lo, hi, dims, cfg, circle, fold):
    """Tensor Gauss-Legendre at cfg.level and at half the level, in one call to f."""
    rules = [gl_rule(lo, hi, L, cfg.depth) for L in (max(2, cfg.level // 2), cfg.level)]
    grids = [_blocks(np.exp(1j * x) if circle else x, w, dims, fold) for x, w in rules]
    blocks = grids[0] + grids[1]
    sizes = [math.prod(len(x) for x, _ in block) for block in blocks]
    # both grids written into one (dims, N) block, so each column is contiguous
    pts = np.empty((dims, sum(sizes)), dtype=np.complex128 if circle else np.float64)
    start = 0
    for block, size in zip(blocks, sizes):
        _grid([x[None] for x, _ in block], pts[:, start : start + size])
        start += size
    values = np.asarray(f(pts.T), dtype=np.float64)
    terms = values * np.concatenate([_outer([w for _, w in block]) for block in blocks])
    split = sum(sizes[: len(grids[0])])
    coarse, fine = terms[:split], terms[split:]
    # the correctly rounded sums (Shewchuk's exact summation), whatever the order
    total = math.fsum(fine.tolist())
    delta = abs(total - math.fsum(coarse.tolist()))
    # the rounding floor counts the full tensor grid, (level 2^depth)^dims nodes, folded or not
    floor = math.log2((cfg.level * 2**cfg.depth) ** dims) * np.finfo(float).eps * np.abs(fine).sum()
    return total, max(delta, floor), len(values)


def integrate_box(
    f: Callable,
    lo: float,
    hi: float,
    dims: int,
    cfg: QuadratureConfig,
    circle: bool = False,
    fold: str | None = None,
) -> Tuple[float, float, int]:
    """Integrate f over [lo, hi]^dims with the configured rule.

    With ``circle`` f is handed the unit-circle coordinates e^(i theta) of the
    nodes theta instead of the nodes themselves. ``fold`` states a symmetry
    of f on a box [-h, h] (``ValueError`` on any other box or fold name):
    ``"even"``, f even in every coordinate, or ``"central"``,
    f(-theta) = f(theta). Either rule then evaluates f once per mirror orbit
    of its nodes (``_blocks`` and the adaptive rule's start).
    """
    if fold not in FOLDS:
        raise ValueError(f"unknown fold {fold!r}; choose from {FOLDS}")
    if fold and lo != -hi:
        raise ValueError(f"fold={fold!r} folds only a box [-h, h]")
    if cfg.rule == "gauss_legendre_tensor":
        return _gauss_legendre(f, lo, hi, dims, cfg, circle, fold)
    return _adaptive(f, lo, hi, dims, cfg, circle, fold)


# QUADPACK qk21: the positive Kronrod-21 nodes, largest first (the last is 0),
# their weights, and the weights of the Gauss-10 nodes among them, _XGK[1::2]
_XGK = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0,
])
_WGK = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077813204167770, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
])
_WG = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
])


def gk21():
    """The 21 Kronrod nodes on [-1, 1] in increasing order, their weights, and
    the Gauss-10 weights on the same nodes (0 at the even-indexed ones)."""
    nodes = np.concatenate([-_XGK[:-1], _XGK[::-1]])
    wk = np.concatenate([_WGK[:-1], _WGK[::-1]])
    wg = np.zeros(21)
    wg[1:10:2] = _WG
    wg[11::2] = _WG[::-1]
    return nodes, wk, wg


# points per integrand call; a round's regions are passed in chunks of this size
CHUNK = 2**15
# the adaptive rule stops after this many splits
SPLIT_CAP = 10000


def _gk_regions(f, centers, half, x, wk, wg, circle, scale):
    """K and |K - G| on the cubes centers +- half, times scale, evaluated in chunks of
    whole regions.

    x holds the 21 Kronrod nodes on [-1, 1]; each region's 21 nodes per axis
    (and, with ``circle``, their e^(i theta)) are taken before the tensor product.
    """
    dims = centers.shape[1]
    per_call = max(1, CHUNK // len(wk))
    k, g = np.empty(len(centers)), np.empty(len(centers))
    for i in range(0, len(centers), per_call):
        c, h = centers[i : i + per_call], half[i : i + per_call]
        axes = h[None, :, None] * x + c.T[:, :, None]
        pts = _grid(np.exp(1j * axes) if circle else axes)
        vals = np.asarray(f(pts), dtype=np.float64).reshape(len(c), -1)
        k[i : i + per_call] = (vals * wk).sum(axis=1)
        g[i : i + per_call] = (vals * wg).sum(axis=1)
    volume = scale * half**dims
    return k * volume, np.abs(k - g) * volume


def _adaptive(f, lo, hi, dims, cfg, circle, fold):
    tol = 10.0 ** (-min(cfg.prec, 12))
    x, wk, wg = gk21()
    wk, wg = _outer([wk] * dims), _outer([wg] * dims)
    # the 2^dims children of a cube: their centers' offsets in half-widths
    corners = _grid(np.full((dims, 1, 2), [-0.5, 0.5]))

    centers = np.full((1, dims), 0.5 * (lo + hi))
    half = np.array([0.5 * (hi - lo)])
    scale = 1.0
    if fold:
        # the box's children that stand for the mirror orbits: the last one, [0, h]^dims,
        # for "even"; the second half, theta_1 >= 0, for "central"
        children = centers + half * corners
        centers = children[-1:] if fold == "even" else children[len(corners) // 2 :]
        half = np.full(len(centers), half[0] / 2)
        scale = len(corners) / len(centers)
    est, err = _gk_regions(f, centers, half, x, wk, wg, circle, scale)
    evals, splits = len(centers) * len(wk), 0
    while True:
        value, error = float(est.sum()), float(err.sum())
        target = tol + tol * abs(value)
        if error <= target or splits >= SPLIT_CAP or not math.isfinite(value + error):
            break
        order = np.argsort(-err, kind="stable")
        # split the largest regions until the error left in the others is at most target / 2
        rest = np.cumsum(err[order][::-1])[::-1]
        count = min(int(np.count_nonzero(rest > target / 2)), SPLIT_CAP - splits)
        split, keep = order[:count], order[count:]
        child_centers = (
            centers[split, None, :] + half[split, None, None] * corners
        ).reshape(-1, dims)
        child_half = np.repeat(half[split] / 2, len(corners))
        child_est, child_err = _gk_regions(
            f, child_centers, child_half, x, wk, wg, circle, scale
        )
        centers = np.concatenate([centers[keep], child_centers])
        half = np.concatenate([half[keep], child_half])
        est = np.concatenate([est[keep], child_est])
        err = np.concatenate([err[keep], child_err])
        evals += len(child_centers) * len(wk)
        splits += count
    return value, error, evals
