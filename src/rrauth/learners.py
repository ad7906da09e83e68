"""Regression engines of the paper's tree-versus-kernel comparison.

Two trainers are provided: a CART regression tree grown by exhaustive
variance-reduction splits (the `rrauth bench` model; on enrolment's frames it
predicts the per-position frame mean that `enroll` computes directly) and a
Gaussian-kernel machine (binary max-margin classifier and epsilon-insensitive
regressor) whose dual is solved by pairwise coordinate ascent with
second-order working-set selection (Fan, Chen & Lin, JMLR 6, 2005, as in
LIBSVM). Fit quality is reported as RMSE/MAE in mV plus wall-clock training
time.

The tree's split search screens every cut of a feature at once with prefix
sums of the node-centred targets and their squares, then confirms the few
cuts near the screened minimum with the exact two-pass SSE. The chosen
split, and its tie rule (on equal exact scores, lowest feature, then lowest
threshold), are those of scoring every cut exactly.

The kernel machines build their Gram matrix over the distinct rows of X
only: duplicate rows have identical kernel rows, so `rrauth bench`'s 2000
(position, amplitude) pairs need a 220 x 220 kernel, not 2000 x 2000.
Batch prediction likewise evaluates each distinct query row once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np

__all__ = [
    "DtParams",
    "DtLeaf",
    "DtSplit",
    "DtModel",
    "KernelModel",
    "FitReport",
    "train_dt",
    "predict_dt",
    "predict_curve",
    "train_svm_binary",
    "train_svr",
    "kernel_predict_batch",
    "fit_report",
]


# ---------------------------------------------------------------------------
# decision tree regression


@dataclass(frozen=True)
class DtParams:
    min_leaf_size: int = 4
    max_depth: int = 32


@dataclass(frozen=True)
class DtLeaf:
    mean: float
    count: int


@dataclass(frozen=True)
class DtSplit:
    feature: int
    threshold: float
    left: "DtNode"
    right: "DtNode"


DtNode = Union[DtLeaf, DtSplit]


@dataclass(frozen=True)
class DtModel:
    root: DtNode
    n_features: int
    params: DtParams
    y_min: float
    y_max: float


def _sse(y: np.ndarray) -> float:
    return float(np.sum((y - y.mean()) ** 2))


def _best_split(X: np.ndarray, y: np.ndarray, min_leaf: int):
    """Exhaustive scan over every feature's sorted unique midpoints.

    Returns (feature, threshold) minimizing the summed child SSE, or None if
    no split leaves both children with at least `min_leaf` samples. Equal
    computed scores go to the lowest feature index, then the lowest
    threshold.

    Every legal cut of a feature is screened in one vectorised pass from
    prefix and suffix sums of the node-centred targets and their squares.
    Only the cuts within ``1e-9 * sum((y - y.mean())**2)`` of the lowest
    screened score, far wider than the rounding error of either formula,
    are then scored exactly with the two-pass `_sse`, visited feature by
    feature and cut by cut with a strict ``<``. The exact minimum always
    survives the screen, so the choice, tie rule included, is that of
    scoring every cut exactly.
    """
    n = y.size
    yc = y - y.mean()
    screened = []
    floor = np.inf
    for f in range(X.shape[1]):
        order = np.argsort(X[:, f], kind="stable")
        xs = X[order, f]
        nl = np.nonzero(xs[1:] > xs[:-1])[0] + 1
        nl = nl[(nl >= min_leaf) & (n - nl >= min_leaf)]
        if nl.size == 0:
            continue
        yo = yc[order]
        sq = yo * yo
        left1, left2 = np.cumsum(yo)[nl - 1], np.cumsum(sq)[nl - 1]
        right1, right2 = np.cumsum(yo[::-1])[::-1][nl], np.cumsum(sq[::-1])[::-1][nl]
        score = left2 - left1 * left1 / nl + right2 - right1 * right1 / (n - nl)
        floor = min(floor, float(score.min()))
        screened.append((f, order, xs, nl, score))

    limit = floor + 1e-9 * float(np.dot(yc, yc))
    best_score = np.inf
    best = None
    for f, order, xs, nl, score in screened:
        yo = y[order]
        for i in nl[score <= limit]:
            exact = _sse(yo[:i]) + _sse(yo[i:])
            if exact < best_score:
                best_score = exact
                best = (f, float((xs[i - 1] + xs[i]) / 2.0))
    return best


def _grow(X: np.ndarray, y: np.ndarray, depth: int, params: DtParams) -> DtNode:
    n = y.size
    if n < 2 * params.min_leaf_size or depth >= params.max_depth or np.ptp(y) == 0:
        return DtLeaf(mean=float(y.mean()), count=n)
    best = _best_split(X, y, params.min_leaf_size)
    if best is None:
        return DtLeaf(mean=float(y.mean()), count=n)
    feature, threshold = best
    mask = X[:, feature] <= threshold
    return DtSplit(
        feature=feature,
        threshold=threshold,
        left=_grow(X[mask], y[mask], depth + 1, params),
        right=_grow(X[~mask], y[~mask], depth + 1, params),
    )


def _as_matrix(X) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X.reshape(-1, 1)
    return X


def train_dt(X, y, params: DtParams = DtParams()) -> DtModel:
    """Grow a greedy variance-reduction regression tree.

    Splitting stops when a node is too small to yield two legal children,
    the depth limit is reached, or the node targets are constant. Fully
    deterministic: identical inputs produce identical trees.
    """
    X = _as_matrix(X)
    y = np.asarray(y, dtype=float)
    if X.shape[0] != y.size:
        raise ValueError(f"length mismatch: {X.shape[0]} rows vs {y.size} targets")
    if y.size == 0:
        raise ValueError("empty training set")
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
        raise ValueError("training data must be finite")
    if params.min_leaf_size < 1 or params.max_depth < 0:
        raise ValueError("min_leaf_size must be >= 1 and max_depth >= 0")
    root = _grow(X, y, 0, params)
    return DtModel(root=root, n_features=X.shape[1], params=params,
                   y_min=float(y.min()), y_max=float(y.max()))


def predict_dt(model: DtModel, x) -> float:
    """Root-to-leaf traversal; left branch iff x[feature] <= threshold."""
    x = np.asarray(x, dtype=float).ravel()
    if x.size != model.n_features:
        raise ValueError(f"expected {model.n_features} features, got {x.size}")
    node = model.root
    while isinstance(node, DtSplit):
        node = node.left if x[node.feature] <= node.threshold else node.right
    return node.mean


def predict_curve(model: DtModel, length: int) -> np.ndarray:
    """Predictions at scalar positions 0..length-1 (position-only models).

    One walk over the tree hands each node a range of positions. Integer
    position p goes left iff p <= threshold, i.e. p < floor(threshold) + 1,
    so a split cuts its range there (clamped to the range; a NaN threshold
    sends every position right, as the comparison does) and each leaf
    fills its range with its mean: the values `predict_dt` gives per position.
    """
    if model.n_features != 1:
        raise ValueError("predict_curve requires a single-feature model")
    if length < 0:
        raise ValueError(f"length must be >= 0, got {length}")
    curve = np.empty(length)
    stack = [(model.root, 0, length)]
    while stack:
        node, lo, hi = stack.pop()
        if lo >= hi:
            continue
        if isinstance(node, DtLeaf):
            curve[lo:hi] = node.mean
            continue
        th = node.threshold
        cut = lo if not th >= lo else hi if th >= hi else math.floor(th) + 1
        stack.append((node.left, lo, cut))
        stack.append((node.right, cut, hi))
    return curve


# ---------------------------------------------------------------------------
# Gaussian-kernel machines


@dataclass(frozen=True, eq=False)
class KernelModel:
    """Kernel expansion f(x) = sum_i coef_i k(x, x_i) + b.

    In classification mode coef_i = y_i * a_i with duals a in [0, C] and
    sum a_i y_i = 0; in regression mode coef_i is the signed coefficient in
    [-C, C] with sum coef_i = 0. `objective_history` holds the dual objective
    after each solver sweep of len(dual) pair updates, and at the stop.
    """

    mode: str  # "classification" | "regression"
    X: np.ndarray
    y: np.ndarray
    coef: np.ndarray
    dual: np.ndarray  # a_i (classification) or the stacked box variables (regression)
    b: float
    kernel_scale: float
    C: float
    epsilon: float | None
    objective_history: tuple[float, ...] = field(default_factory=tuple)


def _gram(X: np.ndarray, scale: float) -> np.ndarray:
    sq = np.sum(X * X, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (X @ X.T)
    np.maximum(d2, 0.0, out=d2)
    np.fill_diagonal(d2, 0.0)
    return np.exp(-d2 / (2.0 * scale * scale))


def _solve_box_dual(K: np.ndarray, z: np.ndarray, c: np.ndarray, box: float,
                    idx: np.ndarray, tol: float, max_sweeps: int):
    """Maximize W(g) = c.g - 1/2 sum_mm' g_m g_m' z_m z_m' K[idx_m, idx_m']
    subject to sum z_m g_m = 0 and 0 <= g_m <= box.

    `K` holds the kernel over distinct points only; variable m sits on point
    idx_m, so duplicate rows share one kernel row and one entry of the
    expansion `fx`, which each step updates over the distinct points.

    Pairwise coordinate ascent with second-order working-set selection (Fan,
    Chen & Lin, "Working set selection using second order information",
    JMLR 6, 2005; the rule of LIBSVM). With zg = z*c - fx[idx], i is the
    maximal violator in `up`; j is the variable of `low` with
    b_ij = zg_i - zg_j > 0 that maximizes the two-variable gain b_ij^2 / a_ij,
    where a_ij = max(K_ii + K_jj - 2 K_ij, 1e-12). Each update solves the
    pair's subproblem exactly within the box, so the objective never
    decreases. Stops when the KKT violation zg_i - min_low zg drops to `tol`
    or after `max_sweeps` passes of len(g) updates; the objective is
    recorded after each pass and at the stop.

    A step moves only g_i and g_j, so the `up`/`low` index sets are kept
    incrementally as penalty arrays (0 where a variable may move that way,
    -inf/+inf where it may not) with their counts, and only entries i and j
    are refreshed after each step. Ties go to the first index.
    """
    m = z.size
    n = K.shape[0]
    gamma = np.zeros(m)
    fx = np.zeros(n)  # raw kernel expansion at each distinct point
    zc = z * c
    diag = np.diag(K)[idx]
    zg = np.empty(m)
    fx_idx = np.empty(m)
    scratch = np.empty(m)
    k_i = np.empty(m)
    quad = np.empty(m)
    row = np.empty(n)

    def directions(k: int) -> tuple[bool, bool]:
        zk, gk = z[k], gamma[k]
        return (bool((zk > 0 and gk < box) or (zk < 0 and gk > 0)),
                bool((zk < 0 and gk < box) or (zk > 0 and gk > 0)))

    up = ((z > 0) & (gamma < box)) | ((z < 0) & (gamma > 0))
    low = ((z < 0) & (gamma < box)) | ((z > 0) & (gamma > 0))
    up_pen = np.where(up, 0.0, -np.inf)
    low_pen = np.where(low, 0.0, np.inf)
    n_up, n_low = int(up.sum()), int(low.sum())
    history: list[float] = []
    converged = False
    for _ in range(max_sweeps):
        for _ in range(m):
            np.take(fx, idx, out=fx_idx)
            np.subtract(zc, fx_idx, out=zg)
            if n_up == 0 or n_low == 0:
                converged = True
                break
            i = int(np.argmax(np.add(zg, up_pen, out=scratch)))
            j = int(np.argmin(np.add(zg, low_pen, out=scratch)))
            if zg[i] - zg[j] <= tol:
                converged = True
                break
            # second-order choice of j: largest b^2 / a over low with b > 0.
            # The first-order j has b = gap > tol, so for tol >= 0 there is
            # always a candidate; otherwise that j is kept.
            xi = int(idx[i])
            np.take(K[xi], idx, out=k_i)
            np.add(diag, K[xi, xi], out=quad)
            np.multiply(k_i, 2.0, out=scratch)
            quad -= scratch
            np.maximum(quad, 1e-12, out=quad)
            b_ij = np.subtract(zg[i], zg, out=k_i)
            np.multiply(b_ij, b_ij, out=scratch)
            scratch /= quad
            np.negative(scratch, out=scratch)
            scratch[b_ij <= 0.0] = np.inf
            scratch += low_pen
            j2 = int(np.argmin(scratch))
            if scratch[j2] < np.inf:
                j = j2
            xj = int(idx[j])
            t = z[i] * b_ij[j] / quad[j]
            # keep both variables in the box; the paired move preserves sum z g
            s = z[i] * z[j]
            lo_t = max(-gamma[i], (gamma[j] - box) if s > 0 else -gamma[j])
            hi_t = min(box - gamma[i], gamma[j] if s > 0 else box - gamma[j])
            t = min(max(t, lo_t), hi_t)
            if t == 0.0:
                converged = True
                break
            gamma[i] = min(max(gamma[i] + t, 0.0), box)
            gamma[j] = min(max(gamma[j] - s * t, 0.0), box)
            for k in (i, j):
                k_up, k_low = directions(k)
                if k_up != up[k]:
                    up[k] = k_up
                    up_pen[k] = 0.0 if k_up else -np.inf
                    n_up += 1 if k_up else -1
                if k_low != low[k]:
                    low[k] = k_low
                    low_pen[k] = 0.0 if k_low else np.inf
                    n_low += 1 if k_low else -1
            np.subtract(K[xi], K[xj], out=row)
            row *= t * z[i]
            fx += row
        w = float(c @ gamma - 0.5 * np.dot(z * gamma, fx[idx]))
        history.append(w)
        if converged:
            break

    zg = zc - fx[idx]
    interior = (gamma > 1e-8 * box) & (gamma < box * (1.0 - 1e-8))
    if interior.any():
        b = float(zg[interior].mean())
    elif n_up and n_low:
        b = float((np.max(zg[up]) + np.min(zg[low])) / 2.0)
    else:
        b = float(zg.mean())
    return gamma, b, history


def train_svm_binary(X, y, C: float = 1.0, kernel_scale: float = 0.35,
                     tol: float = 1e-3, max_sweeps: int = 200) -> KernelModel:
    """Train the binary max-margin classifier on labels in {-1, +1}.

    The kernel is built over the distinct rows of X. The solver stops when
    the KKT violation is at most `tol` or after `max_sweeps` sweeps; a sweep
    is len(y) pair updates.
    """
    X = _as_matrix(X)
    y = np.asarray(y, dtype=float)
    if X.shape[0] != y.size:
        raise ValueError(f"length mismatch: {X.shape[0]} rows vs {y.size} labels")
    if y.size < 2:
        raise ValueError("need at least 2 training points")
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
        raise ValueError("training data must be finite")
    if not np.all(np.isin(y, (-1.0, 1.0))):
        raise ValueError("labels must be -1 or +1")
    if not (np.any(y > 0) and np.any(y < 0)):
        raise ValueError("both classes must be present")
    if C <= 0:
        raise ValueError(f"C must be > 0, got {C}")
    if kernel_scale <= 0:
        raise ValueError(f"kernel_scale must be > 0, got {kernel_scale}")

    U, inv = np.unique(X, axis=0, return_inverse=True)
    alpha, b, history = _solve_box_dual(_gram(U, kernel_scale), y.copy(), np.ones(y.size),
                                        C, inv, tol, max_sweeps)
    return KernelModel(mode="classification", X=X, y=y, coef=y * alpha,
                       dual=alpha, b=b, kernel_scale=kernel_scale, C=C,
                       epsilon=None, objective_history=tuple(history))


def auto_epsilon(y) -> float:
    """Insensitivity-tube width heuristic: interquartile range / 13.49."""
    y = np.asarray(y, dtype=float)
    q75, q25 = np.percentile(y, [75, 25])
    return float((q75 - q25) / 13.49)


def train_svr(X, y, C: float = 1.0, epsilon: float | None = None,
              kernel_scale: float = 0.35, tol: float = 1e-3,
              max_sweeps: int = 200) -> KernelModel:
    """Train the epsilon-insensitive kernel regressor.

    The regression dual is the same box-constrained QP as the classifier,
    doubled: one nonnegative variable per side of the tube. Both share the
    coordinate-ascent core and build the kernel over the distinct rows of X.
    The solver stops when the KKT violation is at most `tol` or after
    `max_sweeps` sweeps; a sweep is 2 * len(y) pair updates, one per dual
    variable. `epsilon=None` selects the IQR/13.49 heuristic.
    """
    X = _as_matrix(X)
    y = np.asarray(y, dtype=float)
    if X.shape[0] != y.size:
        raise ValueError(f"length mismatch: {X.shape[0]} rows vs {y.size} targets")
    if y.size < 2:
        raise ValueError("need at least 2 training points")
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
        raise ValueError("training data must be finite")
    if C <= 0:
        raise ValueError(f"C must be > 0, got {C}")
    if epsilon is None:
        epsilon = auto_epsilon(y)
    if epsilon < 0:
        raise ValueError(f"epsilon must be >= 0, got {epsilon}")
    if kernel_scale <= 0:
        raise ValueError(f"kernel_scale must be > 0, got {kernel_scale}")

    n = y.size
    U, inv = np.unique(X, axis=0, return_inverse=True)
    z = np.concatenate([np.ones(n), -np.ones(n)])
    c = np.concatenate([y - epsilon, -y - epsilon])
    gamma, b, history = _solve_box_dual(_gram(U, kernel_scale), z, c, C,
                                        np.concatenate([inv, inv]), tol, max_sweeps)
    beta = gamma[:n] - gamma[n:]
    return KernelModel(mode="regression", X=X, y=y, coef=beta, dual=gamma,
                       b=b, kernel_scale=kernel_scale, C=C, epsilon=float(epsilon),
                       objective_history=tuple(history))


def kernel_predict_batch(model: KernelModel, X) -> np.ndarray:
    """f at each row of X; each distinct row is evaluated once."""
    X, inv = np.unique(_as_matrix(X), axis=0, return_inverse=True)
    sq_m = np.sum(model.X * model.X, axis=1)
    sq_x = np.sum(X * X, axis=1)
    d2 = sq_x[:, None] + sq_m[None, :] - 2.0 * (X @ model.X.T)
    np.maximum(d2, 0.0, out=d2)
    k = np.exp(-d2 / (2.0 * model.kernel_scale ** 2))
    return (k @ model.coef + model.b)[inv]


# ---------------------------------------------------------------------------
# fit reporting


@dataclass(frozen=True)
class FitReport:
    rmse: float
    mae: float
    train_time: float

    def __post_init__(self) -> None:
        if self.rmse < 0 or self.mae < 0:
            raise ValueError("rmse and mae must be >= 0")
        if self.rmse < self.mae - 1e-12 * (1.0 + self.mae):
            raise ValueError(f"rmse {self.rmse} < mae {self.mae}")


def fit_report(pred, y, train_time: float) -> FitReport:
    """RMSE and MAE of predictions against their targets, plus training time."""
    pred = np.asarray(pred, dtype=float)
    y = np.asarray(y, dtype=float)
    if y.size == 0:
        raise ValueError("empty input")
    if pred.shape != y.shape:
        raise ValueError(f"shape mismatch: {pred.shape} predictions vs {y.shape} targets")
    err = pred - y
    return FitReport(rmse=float(np.sqrt(np.mean(err * err))),
                     mae=float(np.mean(np.abs(err))),
                     train_time=float(train_time))
