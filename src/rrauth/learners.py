"""Regression engines of the paper's tree-versus-kernel comparison.

Two trainers are provided: a CART regression tree grown by exhaustive
variance-reduction splits (the `rrauth bench` model; on enrolment's frames it
predicts the per-position frame mean that `enroll` computes directly) and a
Gaussian-kernel machine (binary max-margin classifier and epsilon-insensitive
regressor) whose dual is solved by pairwise coordinate ascent with
second-order working-set selection (Fan, Chen & Lin, JMLR 6, 2005, as in
LIBSVM) and stopped at LIBSVM's default KKT tolerance of 1e-3. Fit quality
is reported as RMSE/MAE in mV plus wall-clock training time.

The tree's split search screens every cut of a feature at once with prefix
sums of the node-centred targets and their squares, then confirms the few
cuts near the screened minimum with the exact two-pass SSE. The chosen
split, and its tie rule (on equal exact scores, lowest feature, then lowest
threshold), are those of scoring every cut exactly.

All three trainers check their data in one place, and the kernel machines
fit and predict with one Gaussian kernel. They build their Gram matrix over
the distinct rows of X only: duplicate rows have identical kernel rows, so
`rrauth bench`'s 2000 (position, amplitude) pairs need a 220 x 220 kernel,
not 2000 x 2000. Batch prediction likewise evaluates each distinct query
row once.
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
    are then scored exactly with the two-pass `_sse` of each side's sorted
    targets, visited feature by feature and cut by cut with a strict ``<``.
    Sorting makes two cuts that split the node into equal multisets score
    the same bits, so the tie rule, not the summation order, picks between
    them. The exact minimum always survives the screen, so the choice, tie
    rule included, is that of scoring every cut exactly.
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
            exact = _sse(np.sort(yo[:i])) + _sse(np.sort(yo[i:]))
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


def _training_set(X, y, min_rows: int, **positive: float):
    """X as a float matrix and y as a float vector, as every trainer checks
    them: equal lengths, at least `min_rows` rows, finite values, and each
    keyword in `positive` (the kernel machines' C and kernel_scale) > 0."""
    X = _as_matrix(X)
    y = np.asarray(y, dtype=float)
    if X.shape[0] != y.size:
        raise ValueError(f"length mismatch: {X.shape[0]} rows vs {y.size} targets")
    if y.size < min_rows:
        raise ValueError(f"empty or too small training set: {y.size} rows, need {min_rows}")
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
        raise ValueError("training data must be finite")
    for name, value in positive.items():
        if not value > 0:
            raise ValueError(f"{name} must be > 0, got {value}")
    return X, y


def train_dt(X, y, params: DtParams = DtParams()) -> DtModel:
    """Grow a greedy variance-reduction regression tree.

    Splitting stops when a node is too small to yield two legal children,
    the depth limit is reached, or the node targets are constant. Fully
    deterministic: identical inputs produce identical trees.
    """
    X, y = _training_set(X, y, 1)
    if params.min_leaf_size < 1 or params.max_depth < 0:
        raise ValueError("min_leaf_size must be >= 1 and max_depth >= 0")
    root = _grow(X, y, 0, params)
    return DtModel(root=root, n_features=X.shape[1], params=params)


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


_KKT_TOL = 1e-3  # the solver's stop on the KKT violation (LIBSVM's default)


@dataclass(frozen=True, eq=False)
class KernelModel:
    """Kernel expansion f(x) = sum_i coef_i k(x, x_i) + b.

    A classifier (`epsilon` None) has coef_i = y_i * a_i with duals a in
    [0, C] and sum a_i y_i = 0; a regressor has signed coef_i in [-C, C] with
    sum coef_i = 0. `objective_history` holds the dual objective after each
    solver sweep of len(dual) pair updates, and at the stop.
    """

    X: np.ndarray
    y: np.ndarray
    coef: np.ndarray
    dual: np.ndarray  # a_i (classification) or the stacked box variables (regression)
    b: float
    kernel_scale: float
    C: float
    epsilon: float | None
    objective_history: tuple[float, ...] = field(default_factory=tuple)


def _kernel(A: np.ndarray, B: np.ndarray, scale: float) -> np.ndarray:
    """exp(-||a - b||^2 / (2 scale^2)) for every row a of A and b of B."""
    sq_a = np.sum(A * A, axis=1)
    sq_b = np.sum(B * B, axis=1)
    d2 = sq_a[:, None] + sq_b[None, :] - 2.0 * (A @ B.T)
    np.maximum(d2, 0.0, out=d2)
    return np.exp(-d2 / (2.0 * scale * scale))


def _gram(X: np.ndarray, scale: float) -> np.ndarray:
    """The kernel between the rows of X, with k(x, x) = 1 exactly."""
    K = _kernel(X, X, scale)
    np.fill_diagonal(K, 1.0)
    return K


def _solve_box_dual(K: np.ndarray, z: np.ndarray, c: np.ndarray, box: float,
                    idx: np.ndarray, max_sweeps: int):
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
    decreases. Stops when the KKT violation zg_i - min_low zg drops to
    `_KKT_TOL` or after `max_sweeps` passes of len(g) updates; the objective
    is recorded after each pass and at the stop.

    The tolerance is positive, so the first-order j has b_ij > 0 and the
    second-order search always finds a j; and i in `up`, j in `low` may each
    move the way the pair's step takes them, so the clipped step is never 0.

    A step moves only g_i and g_j, so the `up`/`low` index sets are kept
    incrementally as penalty arrays (0 where a variable may move that way,
    -inf/+inf where it may not), and only entries i and j are refreshed after
    each step. Ties go to the first index. Neither set can empty: z is +-1
    with both signs present, box > 0 and each step keeps sum z g = 0, while
    an empty `up` (every z > 0 variable at box, every z < 0 one at 0) would
    give sum z g = n_+ * box, and an empty `low` -n_- * box.
    """
    m = z.size
    gamma = np.zeros(m)
    fx = np.zeros(K.shape[0])  # raw kernel expansion at each distinct point
    zc = z * c
    diag = np.diag(K)[idx]
    up_pen = np.where(z > 0, 0.0, -np.inf)  # at g = 0, z > 0 may rise, z < 0 may fall
    low_pen = np.where(z < 0, 0.0, np.inf)
    history: list[float] = []
    converged = False
    for _ in range(max_sweeps):
        for _ in range(m):
            zg = zc - fx[idx]
            i = int(np.argmax(zg + up_pen))
            j = int(np.argmin(zg + low_pen))
            if zg[i] - zg[j] <= _KKT_TOL:
                converged = True
                break
            # second-order choice of j: largest b^2 / a over low with b > 0
            xi = int(idx[i])
            quad = np.maximum(diag + K[xi, xi] - K[xi][idx] * 2.0, 1e-12)
            b_ij = zg[i] - zg
            gain = np.where(b_ij > 0.0, -(b_ij * b_ij / quad), np.inf) + low_pen
            j = int(np.argmin(gain))
            t = z[i] * b_ij[j] / quad[j]
            # keep both variables in the box; the paired move preserves sum z g
            s = z[i] * z[j]
            lo_t = max(-gamma[i], (gamma[j] - box) if s > 0 else -gamma[j])
            hi_t = min(box - gamma[i], gamma[j] if s > 0 else box - gamma[j])
            t = min(max(t, lo_t), hi_t)
            gamma[i] = min(max(gamma[i] + t, 0.0), box)
            gamma[j] = min(max(gamma[j] - s * t, 0.0), box)
            for k in (i, j):
                rise, fall = gamma[k] < box, gamma[k] > 0.0
                up_pen[k] = 0.0 if (rise if z[k] > 0 else fall) else -np.inf
                low_pen[k] = 0.0 if (fall if z[k] > 0 else rise) else np.inf
            fx += (K[xi] - K[idx[j]]) * (t * z[i])
        w = float(c @ gamma - 0.5 * np.dot(z * gamma, fx[idx]))
        history.append(w)
        if converged:
            break

    zg = zc - fx[idx]
    interior = (gamma > 1e-8 * box) & (gamma < box * (1.0 - 1e-8))
    if interior.any():
        b = float(zg[interior].mean())
    else:
        b = float((np.max(zg[up_pen == 0.0]) + np.min(zg[low_pen == 0.0])) / 2.0)
    return gamma, b, history


def train_svm_binary(X, y, C: float = 1.0, kernel_scale: float = 0.35,
                     max_sweeps: int = 200) -> KernelModel:
    """Train the binary max-margin classifier on labels in {-1, +1}.

    The kernel is built over the distinct rows of X. The solver stops when
    the KKT violation is at most 1e-3 or after `max_sweeps` sweeps; a sweep
    is len(y) pair updates.
    """
    X, y = _training_set(X, y, 2, C=C, kernel_scale=kernel_scale)
    if not np.all(np.isin(y, (-1.0, 1.0))):
        raise ValueError("labels must be -1 or +1")
    if not (np.any(y > 0) and np.any(y < 0)):
        raise ValueError("both classes must be present")

    U, inv = np.unique(X, axis=0, return_inverse=True)
    alpha, b, history = _solve_box_dual(_gram(U, kernel_scale), y.copy(), np.ones(y.size),
                                        C, inv, max_sweeps)
    return KernelModel(X=X, y=y, coef=y * alpha,
                       dual=alpha, b=b, kernel_scale=kernel_scale, C=C,
                       epsilon=None, objective_history=tuple(history))


def auto_epsilon(y) -> float:
    """Insensitivity-tube width heuristic: interquartile range / 13.49."""
    y = np.asarray(y, dtype=float)
    q75, q25 = np.percentile(y, [75, 25])
    return float((q75 - q25) / 13.49)


def train_svr(X, y, C: float = 1.0, epsilon: float | None = None,
              kernel_scale: float = 0.35, max_sweeps: int = 200) -> KernelModel:
    """Train the epsilon-insensitive kernel regressor.

    The regression dual is the same box-constrained QP as the classifier,
    doubled: one nonnegative variable per side of the tube. Both share the
    coordinate-ascent core and build the kernel over the distinct rows of X.
    The solver stops when the KKT violation is at most 1e-3 or after
    `max_sweeps` sweeps; a sweep is 2 * len(y) pair updates, one per dual
    variable. `epsilon=None` selects the IQR/13.49 heuristic.
    """
    X, y = _training_set(X, y, 2, C=C, kernel_scale=kernel_scale)
    if epsilon is None:
        epsilon = auto_epsilon(y)
    if not 0 <= epsilon < math.inf:
        raise ValueError(f"epsilon must be finite and >= 0, got {epsilon}")

    n = y.size
    U, inv = np.unique(X, axis=0, return_inverse=True)
    z = np.concatenate([np.ones(n), -np.ones(n)])
    c = np.concatenate([y - epsilon, -y - epsilon])
    gamma, b, history = _solve_box_dual(_gram(U, kernel_scale), z, c, C,
                                        np.concatenate([inv, inv]), max_sweeps)
    beta = gamma[:n] - gamma[n:]
    return KernelModel(X=X, y=y, coef=beta, dual=gamma,
                       b=b, kernel_scale=kernel_scale, C=C, epsilon=float(epsilon),
                       objective_history=tuple(history))


def kernel_predict_batch(model: KernelModel, X) -> np.ndarray:
    """f at each row of X; each distinct row is evaluated once."""
    X, inv = np.unique(_as_matrix(X), axis=0, return_inverse=True)
    return (_kernel(X, model.X, model.kernel_scale) @ model.coef + model.b)[inv]


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
