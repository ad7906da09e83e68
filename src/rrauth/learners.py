"""Regression engines of the paper's tree-versus-kernel comparison.

Two trainers are provided, the two models of `rrauth bench`: a CART
regression tree grown by exhaustive variance-reduction splits (on
enrolment's frames it predicts the per-position frame mean that `enroll`
computes directly) and an epsilon-insensitive Gaussian-kernel regressor
(SVR) whose dual is solved by pairwise coordinate ascent with second-order
working-set selection (Fan, Chen & Lin, JMLR 6, 2005, as in LIBSVM) and
stopped at LIBSVM's default KKT tolerance of 1e-3. `rrauth bench` fits the
paper's two presets, a fine tree (`DtParams()`) and a fine Gaussian SVR
(`cli.SVR_PRESET`), and reports each fit's RMSE/MAE in mV and its
wall-clock training time.

The tree's split search screens every cut of a feature at once with prefix
sums of the node-centred targets and their squares, then confirms the few
cuts near the screened minimum with the exact two-pass SSE. The chosen
split, and its tie rule (on equal exact scores, lowest feature, then lowest
threshold), are those of scoring every cut exactly. The rows are argsorted
stably once per feature at the root, and each split filters those orders
into its children, which keeps them stable (presorted CART, as in SLIQ:
Mehta, Agrawal & Rissanen, EDBT 1996). So every node sees the order an
argsort of its own rows would give, while its targets stay in row order for
the centring mean, the constancy test and the leaf mean: the tree is the
one that sorting and masking at each node grows.

The solver picks its working pair over the distinct points, not over the
2n dual variables: the variables of one point share its kernel expansion,
and rounding is monotone, so each point's best variable is the one with
the extreme zc, and a search over ~220 points picks the i and j of a search
over all 4000 variables of `rrauth bench` (`_solve_box_dual` says why the
choice, ties included, is the same to the bit).

Both trainers check their data in one place, and the regressor checks its
kernel parameters in one more (`_check_kernel_params`). The regressor fits
and predicts with one Gaussian kernel. It builds its Gram matrix over the
distinct rows of X only: duplicate rows have identical kernel rows, so
`rrauth bench`'s 2000 (position, amplitude) pairs need a 220 x 220 kernel,
not 2000 x 2000. Batch prediction likewise evaluates each distinct query
row once. The kernel is built in two buffers of its full size, by the same
operations in the same order as the one-line expression, so fits and
predictions are byte-equal to that expression's.
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
    "train_dt",
    "predict_dt",
    "predict_curve",
    "train_svr",
    "kernel_predict_batch",
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


def _mean(y: np.ndarray) -> np.float64:
    """`y.mean()`, which is this sum over the count, without its overhead."""
    return np.add.reduce(y) / y.size


def _sse(y: np.ndarray) -> float:
    d = y - _mean(y)
    return float(np.add.reduce(d * d))


def _threshold(a: float, b: float) -> float:
    """The cut between neighbouring sorted values a < b: their midpoint, or
    a where the midpoint rounds onto b or overflows, so that `x <= cut`
    always sends a left and b right."""
    mid = (a + b) / 2.0
    return mid if a <= mid < b else a


def _best_split(columns: np.ndarray, y: np.ndarray, yn: np.ndarray, orders, min_leaf: int):
    """Exhaustive scan over the cuts between every feature's sorted unique
    values, each at `_threshold`.

    `columns[f]` holds feature f of every row, `yn` the node's targets in
    row order and `orders[f]` the node's rows (indices into the columns and
    y) in stable order of feature f. Returns (feature, threshold) minimizing
    the summed child SSE, or None if no split leaves both children with at
    least `min_leaf` samples. Equal computed scores go to the lowest feature
    index, then the lowest threshold.

    Every legal cut of a feature is screened in one vectorised pass from
    prefix and suffix sums of the node-centred targets and their squares.
    Only the cuts within ``1e-9 * sum((y - y.mean())**2)`` of the lowest
    screened score, far wider than the rounding error of either formula,
    are then scored exactly with the two-pass `_sse` of each side's sorted
    targets, visited feature by feature and cut by cut with a strict ``<``.
    Sorting makes two cuts that split the node into equal multisets score
    the same bits, so the tie rule, not the summation order, picks between
    them. The exact minimum always survives the screen, so the choice, tie
    rule included, is that of scoring every cut exactly, and a cut that
    survives alone is the split without being scored, unless the node's sum
    of squares is within reach of overflow.

    Both scores are taken on the targets times 2**shift. With the largest
    deviation from the mean below 2**e, shift is -e, which brings that
    deviation into [1/2, 1), where it is below 1/2 (e < 0) or where a squared
    prefix sum, below 2**(2 * (e + bits of n)), could overflow; elsewhere,
    mV-scale nodes included, it is 0. Tiny deviations would otherwise square
    to scores that underflow and tie at zero, so the lowest cut would win,
    and huge ones to scores that overflow, so no cut would. A power of two
    scales every sum, product and quotient exactly, so wherever nothing
    underflows each score is the unscaled one times 4**shift, and the choice
    is the same.

    No argsort runs here. A stable argsort of the node's rows ranks them by
    value, then by row, and so does the root's stable order of every row
    filtered down to the node's rows. So `orders[f]` is that argsort mapped
    to rows, and each value below, from the centring mean of `yn` in row
    order to every prefix sum, is the one an argsort at this node gives.
    """
    n = yn.size
    mean = _mean(yn)
    yc = yn - mean
    e = math.frexp(float(np.maximum.reduce(np.abs(yc))))[1]
    shift = -e if e < 0 or 2 * (e + n.bit_length()) > 1023 else 0
    mean, yc = math.ldexp(mean, shift), np.ldexp(yc, shift)
    screened = []
    floor = np.inf
    for f, order in enumerate(orders):
        xs = columns[f][order]
        # legal cuts: a value step with at least min_leaf rows on each side
        nl = (xs[min_leaf:n - min_leaf + 1] > xs[min_leaf - 1:n - min_leaf]).nonzero()[0]
        if nl.size == 0:
            continue
        nl += min_leaf
        yo = np.ldexp(y[order], shift)
        c1 = yo - mean
        c2 = c1 * c1
        left1, left2 = c1.cumsum()[nl - 1], c2.cumsum()[nl - 1]
        right1, right2 = c1[::-1].cumsum()[::-1][nl], c2[::-1].cumsum()[::-1][nl]
        score = left2 - left1 * left1 / nl + right2 - right1 * right1 / (n - nl)
        floor = min(floor, float(score.min()))
        screened.append((f, xs, yo, nl, score))

    total = float(np.dot(yc, yc))
    limit = floor + 1e-9 * total
    cuts = [(f, xs, yo, i) for f, xs, yo, nl, score in screened
            for i in nl[score <= limit].tolist()]
    if len(cuts) == 1 and total < 1e300:
        # The exact minimum always passes the screen, so a lone cut is the
        # split: scoring it could refuse it only by overflowing, and neither
        # side's SSE exceeds `total`.
        f, xs, _, i = cuts[0]
        return f, _threshold(xs.item(i - 1), xs.item(i))
    best_score = np.inf
    best = None
    for f, xs, yo, i in cuts:
        exact = _sse(np.sort(yo[:i])) + _sse(np.sort(yo[i:]))
        if exact < best_score:
            best_score = exact
            best = (f, _threshold(xs.item(i - 1), xs.item(i)))
    return best


def _grow(columns: np.ndarray, y: np.ndarray, rows: np.ndarray, orders, depth: int,
          params: DtParams) -> DtNode:
    """The subtree of the node holding `rows` (ascending), whose rows in
    stable order of each feature f are `orders[f]`."""
    yn = y[rows]
    n = rows.size
    if (n < 2 * params.min_leaf_size or depth >= params.max_depth
            or np.maximum.reduce(yn) == np.minimum.reduce(yn)):  # constant targets
        return DtLeaf(mean=float(_mean(yn)), count=n)
    best = _best_split(columns, y, yn, orders, params.min_leaf_size)
    if best is None:
        return DtLeaf(mean=float(_mean(yn)), count=n)
    feature, threshold = best
    goes_left = columns[feature] <= threshold
    # filtering an order keeps it stable, and `rows` ascending
    left, right = ([order[side[order]] for order in [rows, *orders]]
                   for side in (goes_left, ~goes_left))
    return DtSplit(
        feature=feature,
        threshold=threshold,
        left=_grow(columns, y, left[0], left[1:], depth + 1, params),
        right=_grow(columns, y, right[0], right[1:], depth + 1, params),
    )


def _as_matrix(X) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X.reshape(-1, 1)
    return X


def _check_kernel_params(C: float, kernel_scale: float, max_sweeps: int,
                         epsilon: float) -> None:
    """The kernel regressor's parameter rule: C and kernel_scale > 0, the
    kernel's divisor 2 kernel_scale^2 > 0 too (a scale below ~1.1e-162
    squares to 0), the solver's sweep cap an integer >= 0 and epsilon
    finite and >= 0. Each test is written so that NaN fails it."""
    for name, value in (("C", C), ("kernel_scale", kernel_scale)):
        if not value > 0:
            raise ValueError(f"{name} must be > 0, got {value}")
    if not 2.0 * kernel_scale * kernel_scale > 0:
        raise ValueError(f"kernel_scale must be large enough that 2 * kernel_scale**2 "
                         f"> 0, got {kernel_scale}")
    if not (isinstance(max_sweeps, (int, np.integer)) and max_sweeps >= 0):
        raise ValueError(f"max_sweeps must be an integer >= 0, got {max_sweeps!r}")
    if not 0 <= epsilon < math.inf:
        raise ValueError(f"epsilon must be finite and >= 0, got {epsilon}")


def _training_set(X, y, min_rows: int):
    """X as a float matrix and y as a float vector, as every trainer checks
    them: equal lengths, at least `min_rows` rows and finite values."""
    X = _as_matrix(X)
    y = np.asarray(y, dtype=float)
    if X.shape[0] != y.size:
        raise ValueError(f"length mismatch: {X.shape[0]} rows vs {y.size} targets")
    if y.size < min_rows:
        raise ValueError(f"empty or too small training set: {y.size} rows, need {min_rows}")
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
        raise ValueError("training data must be finite")
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
    columns = np.ascontiguousarray(X.T)
    orders = [np.argsort(column, kind="stable") for column in columns]
    root = _grow(columns, y, np.arange(y.size), orders, 0, params)
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
    """`predict_dt` at each scalar position 0..length-1 (position-only models)."""
    if model.n_features != 1:
        raise ValueError("predict_curve requires a single-feature model")
    if length < 0:
        raise ValueError(f"length must be >= 0, got {length}")
    return np.array([predict_dt(model, p) for p in range(length)], dtype=float)


# ---------------------------------------------------------------------------
# Gaussian-kernel regression


_KKT_TOL = 1e-3  # the solver's stop on the KKT violation (LIBSVM's default)


@dataclass(frozen=True, eq=False)
class KernelModel:
    """Kernel expansion f(x) = sum_i coef_i k(x, x_i) + b of the regressor.

    The signed coef_i lie in [-C, C] with sum coef_i = 0; `dual` stacks the
    box variables of the tube's two sides, and coef is their difference.
    `objective_history` holds the dual objective after each solver sweep of
    len(dual) pair updates, and at the stop.
    """

    X: np.ndarray
    y: np.ndarray
    coef: np.ndarray
    dual: np.ndarray
    b: float
    kernel_scale: float
    C: float
    epsilon: float
    objective_history: tuple[float, ...] = field(default_factory=tuple)


def _kernel(A: np.ndarray, B: np.ndarray, scale: float) -> np.ndarray:
    """exp(-||a - b||^2 / (2 scale^2)) for every row a of A and b of B.

    Evaluated as exp(-max(|a|^2 + |b|^2 - 2 (a.b), 0) / (2 scale^2)) in two
    (rows of A) x (rows of B) buffers: the doubled product is subtracted in
    place from the outer sum of squared norms, and the clamp, negation,
    division and exp then run in place on that sum. The operations and their
    order are those of the expression, so every value, and with it every fit
    and prediction, is the same to the bit.
    """
    sq_a = np.sum(A * A, axis=1)
    sq_b = np.sum(B * B, axis=1)
    d2 = sq_a[:, None] + sq_b[None, :]
    ab = A @ B.T
    ab *= 2.0
    d2 -= ab
    np.maximum(d2, 0.0, out=d2)
    np.negative(d2, out=d2)
    with np.errstate(over="ignore"):  # a subnormal divisor sends d2 to -inf: exp gives 0
        d2 /= 2.0 * scale * scale
    return np.exp(d2, out=d2)


def _gram(X: np.ndarray, scale: float) -> np.ndarray:
    """The kernel between the rows of X, with k(x, x) = 1 exactly."""
    K = _kernel(X, X, scale)
    np.fill_diagonal(K, 1.0)
    return K


def _neighbours(zc: np.ndarray, idx: np.ndarray, rising: np.ndarray):
    """Each variable's nearest distinct zc below and above it among the
    variables of its point (-inf / +inf where there is none); `rising`
    orders the variables by point, then by zc."""
    v, p = zc[rising], idx[rising]
    m = v.size
    pos = np.arange(m)
    run = np.ones(m + 1, dtype=bool)  # where a run of one point's equal zc starts
    run[1:-1] = (p[1:] != p[:-1]) | (v[1:] != v[:-1])
    first = np.maximum.accumulate(np.where(run[:-1], pos, 0))
    last = np.minimum.accumulate(np.where(run[1:], pos, m)[::-1])[::-1]
    prev, nxt = np.maximum(first - 1, 0), np.minimum(last + 1, m - 1)
    below, above = np.empty(m), np.empty(m)
    below[rising] = np.where((first > 0) & (p[prev] == p), v[prev], -np.inf)
    above[rising] = np.where((last + 1 < m) & (p[nxt] == p), v[nxt], np.inf)
    return below, above


def _solve_box_dual(K: np.ndarray, z: np.ndarray, c: np.ndarray, box: float,
                    idx: np.ndarray, max_sweeps: int):
    """Maximize W(g) = c.g - 1/2 sum_mm' g_m g_m' z_m z_m' K[idx_m, idx_m']
    subject to sum z_m g_m = 0 and 0 <= g_m <= box.

    `K` is a `_gram` matrix over distinct points only, so its diagonal is
    exactly 1; variable m sits on point idx_m, so duplicate rows share one
    kernel row and one entry of the expansion `fx`, which each step updates
    over the distinct points.

    Pairwise coordinate ascent with second-order working-set selection (Fan,
    Chen & Lin, "Working set selection using second order information",
    JMLR 6, 2005; the rule of LIBSVM). With zg = z*c - fx[idx], i is the
    maximal violator in `up`; j is the variable of `low` with
    b_ij = zg_i - zg_j > 0 that maximizes the two-variable gain b_ij^2 / a_ij,
    where a_ij = max(K_ii + K_jj - 2 K_ij, 1e-12). Each update solves the
    pair's subproblem exactly within the box, so the objective never
    decreases. Stops when the KKT violation zg_i - min_low zg drops to
    `_KKT_TOL` or after `max_sweeps` passes of len(g) updates; the objective
    is recorded after each pass and at the stop. Ties go to the lowest
    variable index.

    The tolerance is positive, so the first-order j has b_ij > 0 and the
    second-order search always finds a j; and i in `up`, j in `low` may each
    move the way the pair's step takes them, so the clipped step is never 0.
    Neither set can empty: z is +-1 with both signs present, box > 0 and
    each step keeps sum z g = 0, while an empty `up` (every z > 0 variable
    at box, every z < 0 one at 0) would give sum z g = n_+ * box, and an
    empty `low` -n_- * box.

    Selection runs over the distinct points, not the variables. The
    variables of one point share fx_p, and rounding is monotone, so
    fl(zc - fx_p) keeps the order of zc, and fl(b * b) / a_p the order of
    b > 0. Per point, the largest zc in `up` therefore gives the point's
    largest zg, and the smallest zc in `low` its largest b and gain. Each
    point keeps those two, each with the lowest index holding it; a step
    changes the sets only at i and j, so only their points are updated, and
    a point is scanned again only when its holder leaves a set. i, the stop
    test and j are taken from these per-point arrays. Monotone rounding
    keeps order but may tie distinct values: where a second point reaches
    the best score, or the distinct zc next to the point's own (fixed, since
    zc is) reaches it too, the members of the tied points are scanned in
    index order. b is clipped at 0 before it is squared, so a point with no
    b > 0 scores 0, which only a tie at 0 can reach; the scan tests b > 0
    itself. Every step thus picks the i and j of a search over all the
    variables, and every dual, intercept and objective is the same double.
    """
    m, n = z.size, K.shape[0]
    gamma = np.zeros(m)
    fx = np.zeros(n)  # raw kernel expansion at each distinct point
    zc = z * c
    # row x holds a_xp = max((K_xx + K_pp) - 2 K_xp, 1e-12), and K_xx + K_pp = 2
    quad = K * -2.0
    quad += 2.0
    np.maximum(quad, 1e-12, out=quad)
    up, low = z > 0, z < 0  # at g = 0, z > 0 may rise, z < 0 may fall
    # each point's variables by falling zc (for `up`) and by rising zc (for
    # `low`), equal zc in index order
    ends = np.cumsum(np.bincount(idx, minlength=n))
    starts = ends - np.bincount(idx, minlength=n)
    falling, rising = np.lexsort((-zc, idx)), np.lexsort((zc, idx))
    below, above = _neighbours(zc, idx, rising)
    up_zc, up_first = np.empty(n), np.empty(n, dtype=np.intp)
    low_zc, low_first = np.empty(n), np.empty(n, dtype=np.intp)

    def rescan(p, order, allowed, best, first, empty):
        """Point p's first `allowed` variable in `order`, its zc and index
        (`empty` and 0 where it has none)."""
        mem = order[starts.item(p):ends.item(p)]
        k = mem[allowed[mem].argmax()]
        best[p], first[p] = (zc[k], k) if allowed[k] else (empty, 0)

    def scan(points, best, allowed, score):
        """The lowest index among the `allowed` variables, on the points
        scoring `best`, whose own score(zg, point) is `best`."""
        hits = []
        for p in np.flatnonzero(points == best).tolist():
            mem = np.sort(rising[starts[p]:ends[p]])
            hits.extend(mem[allowed[mem] & (score(zc[mem] - fx[p], p) == best)][:1].tolist())
        return min(hits)

    def gain_of(zg, p):
        b = top - zg
        return np.where(b > 0.0, b * b / a[p], -np.inf)

    for p in range(n):
        rescan(p, falling, up, up_zc, up_first, -np.inf)
        rescan(p, rising, low, low_zc, low_first, np.inf)
    gain = np.empty(n)
    history: list[float] = []
    converged = False
    for _ in range(max_sweeps):
        for _ in range(m):
            up_zg = up_zc - fx
            low_zg = low_zc - fx
            p = up_zg.argmax()
            top = up_zg.item(p)
            if top - low_zg.item(low_zg.argmin()) <= _KKT_TOL:
                converged = True
                break
            i = up_first.item(p)
            up_zg[p] = -np.inf
            if below.item(i) - fx.item(p) == top or up_zg.item(up_zg.argmax()) == top:
                up_zg[p] = top
                i = scan(up_zg, top, up, lambda zg, _: zg)
            # second-order choice of j: largest b^2 / a over low with b > 0
            xi = idx.item(i)
            a = quad[xi]
            b_ij = top - low_zg
            np.maximum(b_ij, 0.0, out=b_ij)
            np.multiply(b_ij, b_ij, out=b_ij)
            np.divide(b_ij, a, out=gain)
            q = gain.argmax()
            best = gain.item(q)
            j = low_first.item(q)
            b_next = top - (above.item(j) - fx.item(q))
            gain[q] = -np.inf
            if ((b_next > 0.0 and b_next * b_next / a.item(q) == best)
                    or gain.item(gain.argmax()) == best):
                gain[q] = best
                j = scan(gain, best, low, gain_of)
            xj = idx.item(j)
            zi, gi, gj = z.item(i), gamma.item(i), gamma.item(j)
            t = zi * (top - (zc.item(j) - fx.item(xj))) / a.item(xj)
            # keep both variables in the box; the paired move preserves sum z g
            s = zi * z.item(j)
            lo_t = max(-gi, (gj - box) if s > 0 else -gj)
            hi_t = min(box - gi, gj if s > 0 else box - gj)
            t = min(max(t, lo_t), hi_t)
            gi, gj = min(max(gi + t, 0.0), box), min(max(gj - s * t, 0.0), box)
            gamma[i], gamma[j] = gi, gj
            # a variable joining a set may become its point's holder; one
            # leaving it sends the point to a rescan if it held it
            for k, g, zk in ((i, gi, zi), (j, gj, zi * s)):
                rise, fall = g < box, g > 0.0
                u, lo = (rise, fall) if zk > 0 else (fall, rise)
                p, v = idx.item(k), zc.item(k)
                if up.item(k) != u:
                    up[k] = u
                    if not u:
                        if up_first.item(p) == k:
                            rescan(p, falling, up, up_zc, up_first, -np.inf)
                    elif v > up_zc.item(p) or (v == up_zc.item(p) and k < up_first.item(p)):
                        up_zc[p], up_first[p] = v, k
                if low.item(k) != lo:
                    low[k] = lo
                    if not lo:
                        if low_first.item(p) == k:
                            rescan(p, rising, low, low_zc, low_first, np.inf)
                    elif v < low_zc.item(p) or (v == low_zc.item(p) and k < low_first.item(p)):
                        low_zc[p], low_first[p] = v, k
            fx += (K[xi] - K[xj]) * (t * zi)
        w = float(c @ gamma - 0.5 * np.dot(z * gamma, fx[idx]))
        history.append(w)
        if converged:
            break

    zg = zc - fx[idx]
    interior = (gamma > 1e-8 * box) & (gamma < box * (1.0 - 1e-8))
    if interior.any():
        b = float(zg[interior].mean())
    else:
        b = float((np.max(zg[up]) + np.min(zg[low])) / 2.0)
    return gamma, b, history


def auto_epsilon(y) -> float:
    """Insensitivity-tube width heuristic: interquartile range / 13.49."""
    y = np.asarray(y, dtype=float)
    q75, q25 = np.percentile(y, [75, 25])
    return float((q75 - q25) / 13.49)


def train_svr(X, y, C: float = 1.0, epsilon: float | None = None,
              kernel_scale: float = 0.35, max_sweeps: int = 200) -> KernelModel:
    """Train the epsilon-insensitive kernel regressor.

    The dual is a box-constrained QP (`_solve_box_dual`) with one
    nonnegative variable per side of the tube (z = +1 on one side, -1 on the
    other); the kernel is built over the distinct rows of X.
    The solver stops when the KKT violation is at most 1e-3 or after
    `max_sweeps` sweeps; a sweep is 2 * len(y) pair updates, one per dual
    variable. `epsilon=None` selects the IQR/13.49 heuristic.
    """
    X, y = _training_set(X, y, 2)
    if epsilon is None:
        epsilon = auto_epsilon(y)
    _check_kernel_params(C, kernel_scale, max_sweeps, epsilon)
    # the solver's differences of c = (y - epsilon, -y - epsilon) reach this span
    top = float(np.max(np.abs(y)))
    if not math.isfinite(2.0 * (top + float(epsilon))):
        raise ValueError(f"epsilon {epsilon} with targets up to |y| = {top} gives a "
                         f"non-finite tube span 2 * (max|y| + epsilon)")

    n = y.size
    U, inv = np.unique(X, axis=0, return_inverse=True)
    z = np.concatenate([np.ones(n), -np.ones(n)])
    c = np.concatenate([y - epsilon, -y - epsilon])
    try:
        # targets, epsilon and C large enough that b^2 or the objective
        # overflows would drive the solver with inf and NaN; the inputs are
        # finite, so every NaN starts at an overflow
        with np.errstate(over="raise"):
            gamma, b, history = _solve_box_dual(_gram(U, kernel_scale), z, c, C,
                                                np.concatenate([inv, inv]), max_sweeps)
    except FloatingPointError as exc:
        raise ValueError(f"the SVR dual overflows on targets up to |y| = {top} with "
                         f"epsilon {epsilon} and C {C} ({exc})") from None
    beta = gamma[:n] - gamma[n:]
    return KernelModel(X=X, y=y, coef=beta, dual=gamma,
                       b=b, kernel_scale=kernel_scale, C=C, epsilon=float(epsilon),
                       objective_history=tuple(history))


def kernel_predict_batch(model: KernelModel, X) -> np.ndarray:
    """f at each row of X; each distinct row is evaluated once."""
    X, inv = np.unique(_as_matrix(X), axis=0, return_inverse=True)
    return (_kernel(X, model.X, model.kernel_scale) @ model.coef + model.b)[inv]
