import dataclasses
import math
import re
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rrauth import learners
from rrauth.cli import _fit_errors, _training_pairs
from rrauth.learners import (DtLeaf, DtModel, DtParams, DtSplit, KernelModel, auto_epsilon,
                             kernel_predict_batch, predict_curve, predict_dt, train_dt,
                             train_svr)

from conftest import brute_force_best_split, count_leaves, gaussian_kernel, kernel_predict


def tree_mse(model, X, y):
    preds = np.array([predict_dt(model, row) for row in np.atleast_2d(X)])
    return float(np.mean((preds - np.asarray(y)) ** 2))


class TestTrainDt:
    def test_constant_targets_single_leaf(self):
        m = train_dt(np.arange(10.0).reshape(-1, 1), np.full(10, 0.7))
        assert isinstance(m.root, DtLeaf)
        assert m.root.mean == pytest.approx(0.7)
        assert predict_dt(m, [123.0]) == m.root.mean

    def test_step_function_root_split(self):
        X = np.arange(220.0).reshape(-1, 1)
        y = (X[:, 0] >= 110).astype(float)
        m = train_dt(X, y, DtParams(min_leaf_size=1))
        assert isinstance(m.root, DtSplit)
        assert 109.0 < m.root.threshold < 110.0
        assert tree_mse(m, X, y) == 0.0

    def test_small_node_forced_leaf(self):
        # 6 samples with min_leaf_size=4 cannot split (6 < 8)
        y = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        m = train_dt(np.arange(6.0).reshape(-1, 1), y, DtParams(min_leaf_size=4))
        assert isinstance(m.root, DtLeaf)
        assert m.root.mean == pytest.approx(y.mean())
        assert m.root.count == 6

    def test_memorizes_unique_points(self):
        rng = np.random.default_rng(0)
        X = np.arange(32.0).reshape(-1, 1)
        y = rng.normal(size=32)
        m = train_dt(X, y, DtParams(min_leaf_size=1))
        for xi, yi in zip(X, y):
            assert predict_dt(m, xi) == yi

    def test_out_of_range_traversal_total(self):
        X = np.arange(20.0).reshape(-1, 1)
        y = X[:, 0] ** 2
        m = train_dt(X, y, DtParams(min_leaf_size=1))
        assert predict_dt(m, [-100.0]) == predict_dt(m, [0.0])
        assert predict_dt(m, [1e9]) == predict_dt(m, [19.0])

    def test_dimension_mismatch(self):
        m = train_dt(np.zeros((4, 2)), np.arange(4.0))
        with pytest.raises(ValueError, match="features"):
            predict_dt(m, [1.0])

    def test_empty_training_set(self):
        with pytest.raises(ValueError, match="empty"):
            train_dt(np.empty((0, 1)), np.empty(0))

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            train_dt(np.zeros((3, 1)), np.zeros(4))

    def test_deterministic_structure(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(80, 3))
        y = rng.normal(size=80)
        m1 = train_dt(X, y)
        m2 = train_dt(X, y)
        assert m1 == m2  # dataclass equality is structural

    def test_training_mse_non_increasing_with_smaller_leaves(self):
        rng = np.random.default_rng(2)
        for _ in range(3):
            X = rng.uniform(size=(150, 2))
            y = np.sin(4 * X[:, 0]) + 0.2 * rng.normal(size=150)
            mses = [tree_mse(train_dt(X, y, DtParams(min_leaf_size=k)), X, y)
                    for k in (32, 16, 8, 4, 2, 1)]
            assert all(a >= b - 1e-12 for a, b in zip(mses, mses[1:]))

    def test_piecewise_constant_prediction_count(self):
        rng = np.random.default_rng(3)
        X = np.arange(220.0).reshape(-1, 1)
        y = rng.normal(size=220)
        m = train_dt(X, y)
        curve = predict_curve(m, 220)
        assert len(np.unique(curve)) <= count_leaves(m)

    def test_leaf_sizes_respect_minimum(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(100, 2))
        y = rng.normal(size=100)
        m = train_dt(X, y, DtParams(min_leaf_size=4))

        def walk(node):
            if isinstance(node, DtLeaf):
                assert node.count >= 4
            else:
                walk(node.left)
                walk(node.right)

        walk(m.root)

    def test_predictions_within_target_range(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(60, 1))
        y = rng.normal(size=60)
        m = train_dt(X, y)
        for x in rng.normal(scale=10.0, size=(50, 1)):
            assert y.min() <= predict_dt(m, x) <= y.max()

    def test_max_depth_zero_gives_stump(self):
        X = np.arange(16.0).reshape(-1, 1)
        m = train_dt(X, X[:, 0], DtParams(min_leaf_size=1, max_depth=0))
        assert isinstance(m.root, DtLeaf)


def exact_scan_split(X, y, min_leaf):
    """Reference split search: every legal cut scored with the two-pass SSE
    of each side's sorted targets, features then cuts in ascending order,
    first strict minimum kept."""

    def sse(v):
        return float(np.sum((v - v.mean()) ** 2))

    best_score, best = np.inf, None
    for f in range(X.shape[1]):
        order = np.argsort(X[:, f], kind="stable")
        xs, yo = X[order, f], y[order]
        for i in range(1, y.size):
            if xs[i] > xs[i - 1] and min(i, y.size - i) >= min_leaf:
                score = sse(np.sort(yo[:i])) + sse(np.sort(yo[i:]))
                if score < best_score:
                    best_score, best = score, (f, (xs[i - 1] + xs[i]) / 2.0)
    return best


def assert_splits_match(model, X, y, min_leaf):
    """Every node of the tree holds, for the samples that reach it, the split
    of the reference scan, and a split the brute-force oracle agrees with.

    The oracle sums each side in sample order, the tree in sorted order, so
    when two features cut the node into the same two sets of samples the
    rounding of the oracle's sums, not the tie rule, may decide between
    them; any other disagreement with the oracle fails.
    """

    def sides(rows, f, thr):
        left = X[rows, f] <= thr
        return rows[left], rows[~left]

    def walk(node, rows, depth):
        ref = exact_scan_split(X[rows], y[rows], min_leaf)
        oracle = brute_force_best_split(X[rows], y[rows], min_leaf)
        if isinstance(node, DtLeaf):
            assert node.count == rows.size
            if (rows.size >= 2 * min_leaf and depth < model.params.max_depth
                    and np.ptp(y[rows]) > 0):
                assert ref is None and oracle is None
            return
        assert (node.feature, node.threshold) == ref
        left, right = sides(rows, node.feature, node.threshold)
        if (node.feature, node.threshold) != oracle[1:]:
            tied = {frozenset(left), frozenset(right)}
            assert tied == {frozenset(r) for r in sides(rows, *oracle[1:])}
        walk(node.left, left, depth + 1)
        walk(node.right, right, depth + 1)

    walk(model.root, np.arange(y.size), 0)


@st.composite
def duplicated_data(draw):
    """Few distinct feature values, so many cuts and features tie on
    position; generic targets, so only equal partitions tie on score."""
    n = draw(st.integers(2, 40))
    d = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = np.round(rng.uniform(size=(n, d)) * 10)
    y = rng.normal(size=n)
    return X, y, draw(st.integers(1, 5))


class TestSplitSearch:
    @settings(max_examples=200, deadline=None)
    @given(duplicated_data())
    def test_every_node_matches_exhaustive_search(self, data):
        X, y, min_leaf = data
        model = train_dt(X, y, DtParams(min_leaf_size=min_leaf))
        assert_splits_match(model, X, y, min_leaf)

    def test_identical_partitions_lowest_feature_wins(self):
        # all three features split the root into rows {0, 1, 2} | {3, 4, 5};
        # feature 1 orders the rows in reverse, which rounds its prefix-sum
        # score below feature 0's although the exact scores are equal
        x = np.arange(6.0)
        X = np.column_stack([x, 5.0 - x, 2.0 * x + 7.0])
        y = np.array([0.9, 0.1, -0.7, 4.1, 4.5, 5.2])
        model = train_dt(X, y, DtParams(min_leaf_size=3))
        assert (model.root.feature, model.root.threshold) == (0, 2.5)
        assert brute_force_best_split(X, y, 3)[1:] == (0, 2.5)
        assert_splits_match(model, X, y, 3)

    def test_cuts_within_the_screen_margin_scored_exactly(self):
        # cuts 0.5 and 2.5 both pass the screen; the -1e-12 makes 2.5's exact
        # SSE the lower one, so the first cut to pass must not be taken
        X, y = np.arange(4.0), np.array([0.0, 1.0, 1.0, -1e-12])
        params = DtParams(min_leaf_size=1, max_depth=1)
        model = train_dt(X, y, params)
        assert model.root.threshold == 2.5
        assert_same_tree(model, X, y, params)

    def test_equal_multisets_lowest_threshold_wins(self):
        # cuts 2.5 and 7.5 each split one 1.0 off the rest; in feature order
        # the 0.0 of row 26 sits at a different place in the larger side, and
        # before the sides were sorted that rounded 7.5's score below 2.5's
        X = np.array([0.0, 10.0] + [5.0] * 28).reshape(-1, 1)
        y = np.ones(30)
        y[26] = 0.0
        model = train_dt(X, y, DtParams(min_leaf_size=1))
        assert (model.root.feature, model.root.threshold) == (0, 2.5)
        assert brute_force_best_split(X, y, 1)[1:] == (0, 2.5)

    @pytest.mark.parametrize("a,b", [(1 + 2**-52, 1 + 2**-51), (1e308, 1.5e308),
                                     (-1e308, -1.5e308)])
    @pytest.mark.parametrize("scale", [1.0, 1e151])
    def test_cut_between_neighbouring_or_huge_values(self, a, b, scale):
        # the midpoint of a and b rounds onto the larger one or overflows to
        # +-inf, so the cut is the smaller one; at scale 1e151 the node's sum
        # of squares passes 1e300 and the lone cut is scored exactly
        X, y = np.array([a, b, a, b]), np.array([0.0, 1.0, 0.0, 1.0]) * scale
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = train_dt(X, y, DtParams(min_leaf_size=1, max_depth=3))
        lo, hi = sorted((a, b))
        assert model.root.threshold == lo
        assert model.root.left == DtLeaf(mean=float(y[X == lo][0]), count=2)
        assert model.root.right == DtLeaf(mean=float(y[X == hi][0]), count=2)
        # the cut is a training value, which predict_dt sends left as training did
        assert predict_dt(model, [lo]) == model.root.left.mean

    def test_node_with_subnormal_sum_of_squares_splits(self):
        # the node's sum of squares is ~2e-320, so the screen's margin
        # 1e-9 * total underflows to 0: the lowest score is the limit itself,
        # and its cut must still pass the screen
        X, y = np.arange(8.0), np.array([0.0] * 4 + [1e-160] * 4)
        model = train_dt(X, y, DtParams(min_leaf_size=1))
        assert model.root.threshold == 3.5
        assert (predict_dt(model, [0.0]), predict_dt(model, [7.0])) == (0.0, 1e-160)

    def test_node_whose_squared_deviations_underflow_splits_between_groups(self):
        # deviations of 5e-163 square to 0, so unscaled every cut scores 0
        # and the lowest one, 0.5, would win the tie
        X, y = np.arange(8.0), np.array([0.0] * 4 + [1e-162] * 4)
        model = train_dt(X, y, DtParams(min_leaf_size=1, max_depth=1))
        assert model.root.threshold == 3.5
        assert [predict_dt(model, [x]) for x in (3.0, 4.0)] == [0.0, 1e-162]

    def test_cut_at_the_midpoint_when_it_lies_between(self):
        assert learners._threshold(1.0, 2.0) == 1.5
        assert learners._threshold(-1e308, 1e308) == 0.0
        # 1 + 2**-53 rounds down onto 1.0: the midpoint is the smaller value
        assert learners._threshold(1.0, 1 + 2**-52) == 1.0


def walk_curve(model, length):
    """Reference curve: one root-to-leaf walk per position."""
    return np.array([predict_dt(model, [j]) for j in range(length)])


@st.composite
def position_trees(draw):
    """Hand-built single-feature trees whose thresholds fall below 0, on
    integers, between them and at or beyond the curve's end."""
    length = draw(st.integers(0, 30))
    threshold = st.one_of(st.integers(-3, length + 3).map(float),
                          st.floats(-5.0, length + 5.0),
                          st.sampled_from([-np.inf, np.inf, np.nan, float(length),
                                           length - 0.5, -0.5]))

    def node(depth):
        if depth == 0 or draw(st.booleans()):
            return DtLeaf(mean=draw(st.floats(-2.0, 2.0)), count=1)
        return DtSplit(feature=0, threshold=draw(threshold),
                       left=node(depth - 1), right=node(depth - 1))

    root = node(draw(st.integers(0, 6)))
    return DtModel(root=root, n_features=1, params=DtParams()), length


class TestPredictCurve:
    @settings(max_examples=300, deadline=None)
    @given(position_trees())
    def test_equals_per_position_walk(self, tree):
        model, length = tree
        curve = predict_curve(model, length)
        assert curve.dtype == np.float64 and curve.shape == (length,)
        assert curve.tobytes() == walk_curve(model, length).tobytes()

    def test_trained_tree(self):
        rng = np.random.default_rng(14)
        X = rng.integers(-4, 40, size=300).astype(float)
        model = train_dt(X.reshape(-1, 1), rng.normal(size=300), DtParams(min_leaf_size=2))
        for length in (0, 1, 36, 50):
            assert predict_curve(model, length).tobytes() == walk_curve(model, length).tobytes()

    def test_rejects_multi_feature_model_and_negative_length(self):
        two = train_dt(np.eye(4), np.arange(4.0), DtParams(min_leaf_size=1))
        with pytest.raises(ValueError, match="single-feature"):
            predict_curve(two, 4)
        one = train_dt(np.arange(4.0), np.arange(4.0), DtParams(min_leaf_size=1))
        with pytest.raises(ValueError, match="length"):
            predict_curve(one, -1)


def rebuild_masks_solve_box_dual(K, z, c, box, idx, max_sweeps):
    """Reference solver: the maximal-violating-pair loop that rebuilds the
    `up`/`low` masks over every variable at each step."""
    m = z.size
    n = K.shape[0]
    gamma = np.zeros(m)
    fx = np.zeros(n)
    history = []
    converged = False
    for _ in range(max_sweeps):
        for _ in range(m):
            zg = z * c - fx[idx]
            up = ((z > 0) & (gamma < box)) | ((z < 0) & (gamma > 0))
            low = ((z < 0) & (gamma < box)) | ((z > 0) & (gamma > 0))
            if not up.any() or not low.any():
                converged = True
                break
            i = int(np.argmax(np.where(up, zg, -np.inf)))
            j = int(np.argmin(np.where(low, zg, np.inf)))
            gap = zg[i] - zg[j]
            if gap <= learners._KKT_TOL:
                converged = True
                break
            xi, xj = int(idx[i]), int(idx[j])
            quad = max(K[xi, xi] + K[xj, xj] - 2.0 * K[xi, xj], 1e-12)
            t = z[i] * gap / quad
            s = z[i] * z[j]
            lo_t = max(-gamma[i], (gamma[j] - box) if s > 0 else -gamma[j])
            hi_t = min(box - gamma[i], gamma[j] if s > 0 else box - gamma[j])
            t = min(max(t, lo_t), hi_t)
            if t == 0.0:
                converged = True
                break
            gamma[i] = min(max(gamma[i] + t, 0.0), box)
            gamma[j] = min(max(gamma[j] - s * t, 0.0), box)
            fx += (t * z[i]) * (K[xi] - K[xj])
        w = float(c @ gamma - 0.5 * np.dot(z * gamma, fx[idx]))
        history.append(w)
        if converged:
            break

    zg = z * c - fx[idx]
    interior = (gamma > 1e-8 * box) & (gamma < box * (1.0 - 1e-8))
    if interior.any():
        b = float(zg[interior].mean())
    else:
        up = ((z > 0) & (gamma < box)) | ((z < 0) & (gamma > 0))
        low = ((z < 0) & (gamma < box)) | ((z > 0) & (gamma > 0))
        if up.any() and low.any():
            b = float((np.max(zg[up]) + np.min(zg[low])) / 2.0)
        else:
            b = float(zg.mean())
    return gamma, b, history


@st.composite
def kernel_problems(draw):
    """Small problems; some repeat rows of X, some stop after 1-3 sweeps."""
    n = draw(st.integers(2, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.normal(size=(n, draw(st.integers(1, 2))))
    if draw(st.booleans()):
        X = X[rng.integers(0, max(1, n // 3), size=n)]
    y = np.sin(2.0 * X[:, 0]) + 0.2 * rng.normal(size=n)
    labels = np.where(y > np.median(y), 1.0, -1.0)
    labels[0], labels[-1] = 1.0, -1.0
    fit = dict(C=draw(st.floats(0.05, 10.0)), kernel_scale=draw(st.floats(0.2, 2.0)),
               max_sweeps=draw(st.sampled_from([1, 2, 3, 200])))
    return X, y, labels, fit


@pytest.fixture(scope="module")
def bench_pairs(small_cohort):
    """The pairs `rrauth bench` fits at its defaults on cohort-42 `e01`."""
    _, _, record = small_cohort[0]
    X, y = _training_pairs(record, 50.0)
    keep = np.sort(np.random.default_rng(0).choice(X.shape[0], size=2000, replace=False))
    return X[keep], y[keep]


def classifier_dual(X, labels, C=1.0, kernel_scale=0.35, max_sweeps=200,
                    solve=learners._solve_box_dual):
    """The binary max-margin dual (z the +-1 labels, c = 1) solved over the
    Gram matrix of the distinct rows of X: (duals, intercept, objective history)."""
    U, inv = np.unique(np.asarray(X, dtype=float).reshape(len(labels), -1), axis=0,
                       return_inverse=True)
    return solve(learners._gram(U, kernel_scale), np.asarray(labels, dtype=float),
                 np.ones(len(labels)), C, inv, max_sweeps)


def classifier_predict(X, labels, kernel_scale, dual, Q):
    """The classifier's expansion sum_i y_i a_i k(q, x_i) + b at each row of Q."""
    alpha, b, _ = dual
    X, Q = (np.asarray(A, dtype=float).reshape(len(A), -1) for A in (X, Q))
    return learners._kernel(Q, X, kernel_scale) @ (np.asarray(labels) * alpha) + b


def kkt_gap(fx, z, c, g, box):
    """Largest KKT violation of the duals g, given the expansion fx at each
    variable's row."""
    zg = z * c - fx
    up = ((z > 0) & (g < box)) | ((z < 0) & (g > 0))
    low = ((z < 0) & (g < box)) | ((z > 0) & (g > 0))
    if not (up.any() and low.any()):
        return -np.inf
    return float(np.max(zg[up]) - np.min(zg[low]))


def assert_dual_contract(X, kernel_scale, z, c, idx, box, g, coef, h, reference, max_sweeps):
    """Duals g of the box dual with z, c on rows idx of X, their expansion
    coefficients and objective history h, against the reference loop's
    history."""
    assert np.all(g >= 0.0) and np.all(g <= box)
    assert abs(np.sum(coef)) <= 1e-9
    assert len(h) >= 1 and all(p <= q + 1e-9 for p, q in zip(h, h[1:]))
    if len(h) < max_sweeps:
        # the solver stopped on its own gap, which it tracks in a running sum
        # of kernel rows; a fresh product over every row of X (no dedup)
        # differs from it only by rounding
        fx = (learners._gram(X, kernel_scale) @ coef)[idx]
        assert kkt_gap(fx, z, c, g, box) <= learners._KKT_TOL + 1e-9
    if max_sweeps == 200:
        ref = reference[-1]
        assert h[-1] >= ref - 1e-3 * abs(ref)


def assert_solver_contract(model, reference, max_sweeps):
    n = model.y.size
    z = np.concatenate([np.ones(n), -np.ones(n)])
    c = np.concatenate([model.y - model.epsilon, -model.y - model.epsilon])
    assert_dual_contract(model.X, model.kernel_scale, z, c, np.r_[:n, :n], model.C,
                         model.dual, model.coef, model.objective_history,
                         reference and reference.objective_history, max_sweeps)


class TestSolverContract:
    """Second-order working-set selection changes the iterates of the
    maximal-violating-pair loop, so the solver is held to what a solution
    must satisfy: feasibility, a monotone objective, the KKT gap at the
    stop, and an objective no worse than the reference loop's."""

    @settings(max_examples=240, deadline=None)
    @given(kernel_problems(), st.one_of(st.none(), st.floats(0.0, 0.3)))
    def test_feasible_monotone_converged_and_near_reference(self, problem, epsilon):
        X, y, labels, fit = problem
        svr = train_svr(X, y, epsilon=epsilon, **fit)
        with mock.patch.object(learners, "_solve_box_dual", rebuild_masks_solve_box_dual):
            svr_ref = train_svr(X, y, epsilon=epsilon, **fit)
        assert_solver_contract(svr, svr_ref, fit["max_sweeps"])
        n = labels.size
        alpha, _, h = classifier_dual(X, labels, **fit)
        ref = classifier_dual(X, labels, **fit, solve=rebuild_masks_solve_box_dual)[2]
        assert_dual_contract(X, fit["kernel_scale"], labels, np.ones(n), np.arange(n), fit["C"],
                             alpha, labels * alpha, h, ref, fit["max_sweeps"])

    def test_bench_pairs(self, bench_pairs):
        # 17.816352053181078 is the reference loop's objective on these pairs
        # after its 14 sweeps at the `bench` defaults
        X, y = bench_pairs
        m = train_svr(X, y, C=1.0, kernel_scale=0.35, max_sweeps=30)
        assert_solver_contract(m, None, max_sweeps=30)
        assert m.objective_history[-1] >= 17.816352053181078 * (1.0 - 1e-3)


# ---------------------------------------------------------------------------
# Oracles: tree growth and the kernel solver as they were before the tree
# split presorted rows and the solver selected over distinct points. Their
# code is kept as it was; the trainers must match them bit for bit, compared
# in the same process, since `_kernel`'s exp differs by an ulp between
# numpy's SIMD kernels.


def oracle_sse(y: np.ndarray) -> float:
    return float(np.sum((y - y.mean()) ** 2))


def oracle_best_split(X: np.ndarray, y: np.ndarray, min_leaf: int):
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
            exact = oracle_sse(np.sort(yo[:i])) + oracle_sse(np.sort(yo[i:]))
            if exact < best_score:
                best_score = exact
                best = (f, float((xs[i - 1] + xs[i]) / 2.0))
    return best


def oracle_grow(X: np.ndarray, y: np.ndarray, depth: int, params: DtParams):
    n = y.size
    if n < 2 * params.min_leaf_size or depth >= params.max_depth or np.ptp(y) == 0:
        return DtLeaf(mean=float(y.mean()), count=n)
    best = oracle_best_split(X, y, params.min_leaf_size)
    if best is None:
        return DtLeaf(mean=float(y.mean()), count=n)
    feature, threshold = best
    mask = X[:, feature] <= threshold
    return DtSplit(
        feature=feature,
        threshold=threshold,
        left=oracle_grow(X[mask], y[mask], depth + 1, params),
        right=oracle_grow(X[~mask], y[~mask], depth + 1, params),
    )



def oracle_solve_box_dual(K: np.ndarray, z: np.ndarray, c: np.ndarray, box: float,
                           idx: np.ndarray, max_sweeps: int):
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
            if zg[i] - zg[j] <= learners._KKT_TOL:
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


def oracle_fit(train, *args, **kwargs):
    with mock.patch.object(learners, "_solve_box_dual", oracle_solve_box_dual):
        return train(*args, **kwargs)


def assert_same_fit(new, old):
    assert new.dual.tobytes() == old.dual.tobytes()
    assert new.coef.tobytes() == old.coef.tobytes()
    assert np.float64(new.b).tobytes() == np.float64(old.b).tobytes()
    assert (np.array(new.objective_history).tobytes()
            == np.array(old.objective_history).tobytes())


def assert_same_dual(new, old):
    """Two (duals, intercept, history) solutions, bit for bit."""
    assert new[0].tobytes() == old[0].tobytes()
    assert np.float64(new[1]).tobytes() == np.float64(old[1]).tobytes()
    assert np.array(new[2]).tobytes() == np.array(old[2]).tobytes()


def assert_same_tree(model, X, y, params):
    old = oracle_grow(np.asarray(X, dtype=float).reshape(len(y), -1),
                      np.asarray(y, dtype=float), 0, params)
    assert model.root == old
    assert repr(model.root) == repr(old)  # repr tells -0.0 from 0.0


@st.composite
def tie_heavy_rows(draw, max_features):
    """X from at most 8 distinct values, normal draws or a half-integer grid
    (whose equal distances give equal kernel values), and y rounded to 1-2
    decimals, in half the draws nudged by up to two ulps: points tie, and
    variables tie within a point exactly and after rounding."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, k = draw(st.integers(2, 40)), draw(st.integers(1, 8))
    values = rng.normal(size=k) if draw(st.booleans()) else rng.integers(0, 4, size=k) * 0.5
    X = values[rng.integers(0, k, size=(n, draw(st.integers(1, max_features))))]
    y = np.round(rng.normal(size=n), draw(st.integers(1, 2)))
    if draw(st.booleans()):
        y += rng.integers(-2, 3, size=n) * np.spacing(y)
    return X, y


class TestSameAsOracle:
    """The per-point solver and the presorted tree give the oracles'
    duals, coefficients, intercept, objective history and trees."""

    @settings(max_examples=300, deadline=None)
    @given(tie_heavy_rows(2), st.sampled_from([0.5, 1.0, 3.0, 10.0]), st.floats(0.2, 2.0),
           st.sampled_from([1, 2, 3, 200]), st.sampled_from([None, 0.0, 0.05]),
           st.integers(0, 2**32 - 1))
    def test_kernel_fits_bit_equal(self, rows, C, kernel_scale, max_sweeps, epsilon, seed):
        X, y = rows
        fit = dict(C=C, kernel_scale=kernel_scale, max_sweeps=max_sweeps)
        labels = np.where(np.random.default_rng(seed).random(y.size) < 0.5, 1.0, -1.0)
        labels[0], labels[-1] = 1.0, -1.0
        assert_same_fit(train_svr(X, y, epsilon=epsilon, **fit),
                        oracle_fit(train_svr, X, y, epsilon=epsilon, **fit))
        assert_same_dual(classifier_dual(X, labels, **fit),
                         classifier_dual(X, labels, **fit, solve=oracle_solve_box_dual))

    @settings(max_examples=200, deadline=None)
    @given(tie_heavy_rows(3), st.integers(1, 5), st.sampled_from([0, 1, 3, 32]))
    def test_trees_equal(self, rows, min_leaf, max_depth):
        X, y = rows
        params = DtParams(min_leaf_size=min_leaf, max_depth=max_depth)
        assert_same_tree(train_dt(X, y, params), X, y, params)

    def test_tree_where_squares_overflow(self):
        # at 1e155 the squared deviations overflow, so unscaled no cut scores
        # and the oracle grows a single leaf; a power of two changes no
        # split, so the tree is the oracle's on the targets scaled into
        # [1/2, 1), with each leaf mean scaled back
        X, y = np.arange(8.0), np.random.default_rng(1).normal(size=8) * 1e155
        params = DtParams(min_leaf_size=1)
        model = train_dt(X, y, params)
        shift = -math.frexp(np.abs(y - y.mean()).max())[1]
        old = oracle_grow(X.reshape(-1, 1), np.ldexp(y, shift), 0, params)

        def unscaled(node):
            if isinstance(node, DtLeaf):
                return DtLeaf(mean=math.ldexp(node.mean, -shift), count=node.count)
            return dataclasses.replace(node, left=unscaled(node.left),
                                       right=unscaled(node.right))

        assert isinstance(old, DtSplit)
        assert model.root == unscaled(old)
        assert repr(model.root) == repr(unscaled(old))

    @pytest.mark.parametrize("max_sweeps", [30, 200])
    def test_bench_pairs(self, bench_pairs, max_sweeps):
        # the `study` benchmark fits at 30 sweeps, `rrauth bench` at 200
        X, y = bench_pairs
        assert_same_fit(train_svr(X, y, max_sweeps=max_sweeps),
                        oracle_fit(train_svr, X, y, max_sweeps=max_sweeps))
        assert_same_tree(train_dt(X, y), X, y, DtParams())

    @pytest.mark.parametrize("X, y, fit, bound", [
        ([3.0, 3.0, 1.0, 0.0], [-0.51, -1.65, 0.17, 0.11],
         dict(C=34089625.15179791, epsilon=0.1, kernel_scale=1.0, max_sweeps=1),
         lambda C: 1e-8 * C),
        ([1.0, 1.0, 2.0, 1.0, 3.0], [0.27, -0.98, -1.11, 0.2, -0.47],
         dict(C=2.748482681169088, epsilon=0.0, kernel_scale=1.0, max_sweeps=2),
         lambda C: C * (1.0 - 1e-8)),
    ], ids=["lower", "upper"])
    def test_dual_on_an_interior_bound_is_not_interior(self, X, y, fit, bound):
        # a dual variable lands exactly on one of the bounds that mark the
        # interior, 1e-8 C and (1 - 1e-8) C; the intercept averages zg over
        # the variables strictly between them only
        X, y = np.array(X).reshape(-1, 1), np.array(y)
        m = train_svr(X, y, **fit)
        assert bound(fit["C"]) in m.dual.tolist()
        assert_same_fit(m, oracle_fit(train_svr, X, y, **fit))


class TestSelectionBoundaries:
    """Inputs on the edges of the per-point selection, each also run
    through the oracle solver."""

    @pytest.mark.parametrize("below", [False, True])
    def test_gap_at_tolerance_stops(self, below):
        # at g = 0 the gap is zc_i - zc_j = 1 - (-1) = 2 exactly
        X, labels = np.array([[0.0], [1.0]]), np.array([1.0, -1.0])
        tol = np.nextafter(2.0, 0.0) if below else 2.0
        with mock.patch.object(learners, "_KKT_TOL", tol):
            dual = classifier_dual(X, labels)
            assert_same_dual(dual, classifier_dual(X, labels, solve=oracle_solve_box_dual))
        if below:
            assert np.all(dual[0] > 0.0)
        else:
            assert np.all(dual[0] == 0.0) and dual[2] == [0.0]

    def test_zero_b_is_not_a_candidate(self):
        # with the tolerance at 0, the gap 1e-200 takes a step. Variable 1
        # has b = 0 and variable 2 b = 1e-200, whose square underflows, so
        # both would score 0 and the lower index would win: only b > 0 may
        # pair with i, and the step moves variables 0 and 2
        K = learners._gram(np.array([[0.0], [100.0], [200.0]]), 0.35)
        args = (K, np.array([1.0, -1.0, -1.0]), np.array([1e-200, -1e-200, 0.0]), 1.0,
                np.arange(3), 1)
        with mock.patch.object(learners, "_KKT_TOL", 0.0):
            gamma, b, history = learners._solve_box_dual(*args)
            old = oracle_solve_box_dual(*args)
        assert gamma.tobytes() == old[0].tobytes() and (b, history) == old[1:]
        assert gamma[0] == gamma[2] == 5e-201 and gamma[1] == 0.0

    def test_equal_zc_on_one_point_lowest_index(self):
        # variables 0 and 1 sit on one point with zc = 1: variable 0 moves
        X, y = np.array([[0.0], [0.0], [1.0]]), np.array([1.0, 1.0, -1.0])
        m = train_svr(X, y, C=0.5, epsilon=0.0, max_sweeps=1)
        assert_same_fit(m, oracle_fit(train_svr, X, y, C=0.5, epsilon=0.0, max_sweeps=1))
        assert m.dual[0] == 0.5 and m.dual[1] == 0.0

    def test_ties_across_points_lowest_index(self):
        # X = 0 and 2 are equally far from 1, so their kernel values, and
        # with them i's and j's scores, tie across points; the lower index
        # sits on the later point
        X, labels = np.array([[2.0], [0.0], [1.0]]), np.array([-1.0, -1.0, 1.0])
        fit = dict(C=10.0, kernel_scale=1.0, max_sweeps=1)
        assert_same_dual(classifier_dual(X, labels, **fit),
                         classifier_dual(X, labels, **fit, solve=oracle_solve_box_dual))

    @pytest.mark.parametrize("X, y, C, epsilon", [
        # i: 0.1 and 0.10000000000000002 on one point give one zg
        ([1.0, 0.0, 1.0, 1.0, 1.0], [0.1, 1.4, -0.2, -1.5, 0.10000000000000002], 0.5, 0.0),
        # j: the two targets near -0.02 on one point give one gain
        ([0.0] * 5, [-0.019999999999999993, -0.020000000000000007, 0.57, 1.38, -0.38], 10.0,
         0.0),
        # j again, on a point whose zc all differ: with the tube each target
        # gives two zc, so no zc repeats, and only the next distinct one shows the tie
        ([1.0, 1.0, 2.0, 1.0, 2.0], [0.7, 0.10000000000000002, -1.0, 0.1, 0.1], 1.0, 0.25),
    ], ids=["i", "j", "j-tube"])
    def test_distinct_zc_tied_by_rounding(self, X, y, C, epsilon):
        X, y = np.array(X).reshape(-1, 1), np.array(y)
        fit = dict(C=C, epsilon=epsilon, kernel_scale=0.5, max_sweeps=1)
        assert_same_fit(train_svr(X, y, **fit), oracle_fit(train_svr, X, y, **fit))


class TestDistinctRows:
    def test_gram_over_distinct_rows_expands_to_full_gram(self):
        rng = np.random.default_rng(16)
        X = rng.integers(0, 40, size=300).astype(float).reshape(-1, 1) * 0.05
        U, inv = np.unique(X, axis=0, return_inverse=True)
        assert U.shape[0] < X.shape[0]
        assert learners._gram(U, 0.35)[inv][:, inv].tobytes() == learners._gram(X, 0.35).tobytes()

    @pytest.mark.parametrize("train", ["svr", "svm"])
    def test_solver_sees_one_kernel_row_per_distinct_row(self, train):
        rng = np.random.default_rng(17)
        X = rng.normal(size=(8, 2))[rng.integers(0, 8, size=40)]
        U, inv = np.unique(X, axis=0, return_inverse=True)
        n_distinct = U.shape[0]
        if train == "svr":
            with mock.patch.object(learners, "_solve_box_dual",
                                   wraps=learners._solve_box_dual) as spy:
                train_svr(X, np.sin(X[:, 0]))
            K, z, _, _, idx = spy.call_args.args[:5]
            assert K.shape == (n_distinct, n_distinct)
            assert idx.shape == z.shape and idx.max() == n_distinct - 1
            return
        # the classification dual over the distinct rows' kernel solves as
        # over every row's (the same kernel, expanded), and as the oracle does
        labels = np.where(X[:, 0] > np.median(X[:, 0]), 1.0, -1.0)
        labels[0], labels[-1] = 1.0, -1.0
        K = learners._gram(U, 0.35)
        args = labels, np.ones(labels.size), 1.0
        dual = learners._solve_box_dual(K, *args, inv, 200)
        assert_same_dual(dual, oracle_solve_box_dual(K, *args, inv, 200))
        assert_same_dual(dual, learners._solve_box_dual(K[inv][:, inv], *args,
                                                        np.arange(labels.size), 200))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 2))
    def test_batch_prediction_with_repeated_queries(self, seed, d):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(12, d))
        m = train_svr(X, np.cos(X[:, 0]), C=2.0, kernel_scale=0.8)
        Q = np.vstack([X, rng.normal(size=(5, d))])[rng.integers(0, 17, size=40)]
        batch = kernel_predict_batch(m, Q)
        assert batch.shape == (40,)
        for q, p in zip(Q, batch):
            assert abs(p - kernel_predict(m, q)) <= 1e-12


class TestKernel:
    """The Gram matrix the kernel machines train on, against the pairwise kernel."""

    def test_self_similarity_is_one(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            X = rng.normal(size=(6, 3))
            assert np.all(np.diag(learners._gram(X, 0.35)) == 1.0)
            assert all(gaussian_kernel(x, x, 0.35) == 1.0 for x in X)

    def test_fit_and_prediction_share_the_kernel(self):
        # at this scale 2.0 * s ** 2 and 2.0 * s * s are different doubles
        s = 1.451543790965273
        X = np.random.default_rng(18).normal(size=(6, 2))
        off = ~np.eye(6, dtype=bool)
        assert learners._kernel(X, X, s)[off].tobytes() == learners._gram(X, s)[off].tobytes()

    def test_range(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            X = rng.normal(size=(5, 4))
            K = learners._gram(X, 0.35)
            assert np.all((K > 0.0) & (K <= 1.0))
            for i, j in zip(*np.triu_indices(5, 1)):
                assert abs(K[i, j] - gaussian_kernel(X[i], X[j], 0.35)) <= 1e-12


def kernel_expression(A, B, s):
    """The kernel as one expression, each step in a fresh array."""
    sq_a, sq_b = np.sum(A * A, axis=1), np.sum(B * B, axis=1)
    return np.exp(-np.maximum(sq_a[:, None] + sq_b[None, :] - 2.0 * (A @ B.T), 0.0)
                  / (2.0 * s * s))


class TestKernelInPlace:
    """`_kernel` evaluates the expression in two buffers, to the same bytes."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(1, 300),
           st.integers(1, 3000), st.floats(0.05, 3.0))
    def test_bytes_equal_to_the_expression(self, seed, d, na, nb, s):
        rng = np.random.default_rng(seed)
        # rows drawn with repeats from a small pool, so equal rows meet
        pool = rng.normal(size=(int(rng.integers(1, 50)), d)) * rng.uniform(0.1, 5.0)
        A = pool[rng.integers(0, pool.shape[0], size=na)]
        B = pool[rng.integers(0, pool.shape[0], size=nb)]
        assert learners._kernel(A, B, s).tobytes() == kernel_expression(A, B, s).tobytes()
        expected = kernel_expression(A, A, s)
        np.fill_diagonal(expected, 1.0)
        assert learners._gram(A, s).tobytes() == expected.tobytes()

    def test_least_kernel_scale_is_silent(self):
        # 2 * 1.2e-162**2 is the least subnormal: every distance but 0
        # overflows the division to -inf, and exp(-inf) is 0 without a warning
        A = np.array([[0.0], [1.0], [3.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            K = learners._kernel(A, A, 1.2e-162)
        assert K.tobytes() == np.eye(3).tobytes()

    def test_prediction_holds_two_kernel_matrices_at_most(self):
        """220 distinct queries against 2000 training rows, as `rrauth bench`
        predicts: the five full-size temporaries of the expression held 3.0
        matrices at once, the in-place kernel holds 2."""
        rng = np.random.default_rng(21)
        X = np.tile(np.arange(220.0), 10)[:2000].reshape(-1, 1)
        m = KernelModel(X=X, y=np.zeros(2000), coef=rng.normal(size=2000), dual=np.zeros(4000),
                        b=0.5, kernel_scale=0.35, C=1.0, epsilon=0.1)
        queries = np.repeat(np.arange(220.0), 3).reshape(-1, 1)
        tracemalloc.start()
        try:
            pred = kernel_predict_batch(m, queries)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert pred.shape == (660,)
        assert peak < 2.2 * 220 * 2000 * 8


TRAINERS = {"dt": (train_dt, 1), "svr": (train_svr, 2)}


def rejected_training_set(case, min_rows):
    """Four ±1 targets on four positions, made invalid in one way."""
    X, y = np.arange(4.0).reshape(-1, 1), np.array([-1.0, 1.0, -1.0, 1.0])
    if case == "mismatch":
        return X, y[:3], "length mismatch"
    if case == "too_few":
        return X[:min_rows - 1], y[:min_rows - 1], "too small"
    if case == "x_nonfinite":
        X[1, 0] = np.nan
    else:
        y[1] = np.inf
    return X, y, "must be finite"


class TestOneInputCheck:
    @pytest.mark.parametrize("case", ["mismatch", "too_few", "x_nonfinite", "y_nonfinite"])
    @pytest.mark.parametrize("trainer", sorted(TRAINERS))
    def test_bad_training_set(self, trainer, case):
        train, min_rows = TRAINERS[trainer]
        X, y, message = rejected_training_set(case, min_rows)
        with pytest.raises(ValueError, match=message):
            train(X, y)

    @pytest.mark.parametrize("kwargs", [{"C": 0.0}, {"C": -1.0},
                                        {"kernel_scale": 0.0}, {"kernel_scale": -0.35},
                                        {"C": math.nan}, {"kernel_scale": math.nan}])
    @pytest.mark.parametrize("trainer", ["svr"])
    def test_kernel_params_must_be_positive(self, trainer, kwargs):
        X, y = np.arange(4.0).reshape(-1, 1), np.array([-1.0, 1.0, -1.0, 1.0])
        (name, value), = kwargs.items()
        with pytest.raises(ValueError, match=f"{name} must be > 0, got {value}"):
            TRAINERS[trainer][0](X, y, **kwargs)

    @pytest.mark.parametrize("scale", [5e-324, 1.1e-162])
    @pytest.mark.parametrize("trainer", ["svr"])
    def test_kernel_scale_must_square_to_positive(self, trainer, scale):
        # 2 * 1.1e-162**2 rounds to 0, 2 * 1.2e-162**2 to the least subnormal
        X, y = np.arange(4.0).reshape(-1, 1), np.array([-1.0, 1.0, -1.0, 1.0])
        with pytest.raises(ValueError, match="kernel_scale must be"):
            TRAINERS[trainer][0](X, y, kernel_scale=scale)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            TRAINERS[trainer][0](X, y, kernel_scale=1.2e-162)

    @pytest.mark.parametrize("max_sweeps", [-1, 2.0, None])
    @pytest.mark.parametrize("trainer", ["svr"])
    def test_max_sweeps_must_be_a_count(self, trainer, max_sweeps):
        X, y = np.arange(4.0).reshape(-1, 1), np.array([-1.0, 1.0, -1.0, 1.0])
        with pytest.raises(ValueError, match="max_sweeps must be an integer >= 0"):
            TRAINERS[trainer][0](X, y, max_sweeps=max_sweeps)
        TRAINERS[trainer][0](X, y, max_sweeps=np.int64(0))

    @pytest.mark.parametrize("epsilon", [1e308, 1.7e308, np.finfo(float).max])
    def test_svr_epsilon_span_must_be_finite(self, epsilon):
        X, y = np.arange(4.0).reshape(-1, 1), np.array([-1.0, 1.0, -1.0, 1.0])
        with pytest.raises(ValueError, match=re.escape(f"epsilon {epsilon} with targets up to")):
            train_svr(X, y, epsilon=epsilon)

    def test_svr_epsilon_with_finite_span_fits(self):
        # every target lies inside the tube, so no dual moves
        X, y = np.arange(4.0).reshape(-1, 1), np.array([-1.0, 1.0, -1.0, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            m = train_svr(X, y, epsilon=1e307)
        assert np.all(m.dual == 0.0) and math.isfinite(m.b)
        assert all(math.isfinite(w) for w in m.objective_history)

    def test_svr_overflowing_dual_refused(self):
        # the span 4e200 is finite, but b^2 in the solver overflows
        y = [1e200, -1e200, 3e199, -2e200, 5e199, 0.0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="the SVR dual overflows on targets up to"):
                train_svr(np.arange(6.0), y, epsilon=0.0, C=1e190)

    @pytest.mark.parametrize("epsilon", [-0.1, math.nan, math.inf])
    def test_svr_epsilon_must_be_finite_and_nonnegative(self, epsilon):
        X, y = np.arange(4.0).reshape(-1, 1), np.array([-1.0, 1.0, -1.0, 1.0])
        with pytest.raises(ValueError, match="epsilon must be finite and >= 0"):
            train_svr(X, y, epsilon=epsilon)

    @pytest.mark.parametrize("params", [DtParams(min_leaf_size=0), DtParams(max_depth=-1)])
    def test_tree_params_must_be_in_range(self, params):
        with pytest.raises(ValueError, match="min_leaf_size must be >= 1 and max_depth >= 0"):
            train_dt(np.arange(4.0), np.arange(4.0), params)


class TestSvmBinary:
    """The binary max-margin dual (labels as z, c = 1), which no trainer
    wraps, solved by `_solve_box_dual` directly."""

    def test_two_point_separable(self):
        X, labels = [[0.0], [1.0]], np.array([-1.0, 1.0])
        dual = classifier_dual(X, labels, C=10.0)
        assert np.sign(classifier_predict(X, labels, 0.35, dual, X)).tolist() == [-1.0, 1.0]

    def test_dual_feasibility(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            n = 16
            X = rng.normal(size=(n, 2))
            y = np.where(X[:, 0] + 0.3 * rng.normal(size=n) > 0, 1.0, -1.0)
            if len(np.unique(y)) < 2:
                continue
            C = float(rng.uniform(0.5, 5.0))
            alpha, _, _ = classifier_dual(X, y, C=C, kernel_scale=1.0)
            assert np.all(alpha >= 0.0) and np.all(alpha <= C)
            assert abs(np.sum(alpha * y)) <= 1e-9

    def test_objective_non_decreasing(self):
        rng = np.random.default_rng(10)
        X = rng.normal(size=(30, 2))
        y = np.where(X[:, 1] > 0, 1.0, -1.0)
        _, _, h = classifier_dual(X, y, C=2.0, kernel_scale=0.8)
        assert len(h) >= 1
        assert all(a <= b + 1e-9 for a, b in zip(h, h[1:]))

    def test_separable_training_accuracy(self):
        rng = np.random.default_rng(11)
        X = np.vstack([rng.normal(-2.0, 0.3, size=(20, 2)),
                       rng.normal(2.0, 0.3, size=(20, 2))])
        y = np.array([-1.0] * 20 + [1.0] * 20)
        dual = classifier_dual(X, y, C=5.0, kernel_scale=2.0)
        assert np.all(np.sign(classifier_predict(X, y, 2.0, dual, X)) == y)


class TestSvr:
    def test_flat_targets_inside_tube(self):
        m = train_svr([[0.0], [1.0], [2.0]], [3.0, 3.0, 3.0], C=1.0, epsilon=0.5)
        assert np.array_equal(m.coef, np.zeros(3))
        assert m.b == 3.0
        assert kernel_predict(m, [0.7]) == 3.0

    def test_noiseless_sinusoid(self):
        x = np.linspace(0.0, 2.0 * np.pi, 50).reshape(-1, 1)
        y = np.sin(x[:, 0])
        m = train_svr(x, y, C=10.0, epsilon=0.01, kernel_scale=0.35, max_sweeps=500)
        rmse = float(np.sqrt(np.mean((kernel_predict_batch(m, x) - y) ** 2)))
        assert rmse <= 0.01 + 0.05

    def test_coefficients_feasible(self):
        rng = np.random.default_rng(12)
        for _ in range(5):
            X = rng.normal(size=(15, 1))
            y = rng.normal(size=15)
            C = float(rng.uniform(0.5, 3.0))
            m = train_svr(X, y, C=C, epsilon=0.1, kernel_scale=1.0)
            assert np.all(np.abs(m.coef) <= C + 1e-12)
            assert abs(np.sum(m.coef)) <= 1e-9

    def test_objective_non_decreasing(self):
        rng = np.random.default_rng(13)
        X = rng.normal(size=(20, 1))
        y = np.cos(X[:, 0])
        m = train_svr(X, y, C=2.0, epsilon=0.05, kernel_scale=0.5)
        h = m.objective_history
        assert all(a <= b + 1e-9 for a, b in zip(h, h[1:]))

    def test_bad_c(self):
        with pytest.raises(ValueError, match="C"):
            train_svr([[0.0], [1.0]], [0.0, 1.0], C=0.0)

    def test_bad_epsilon(self):
        with pytest.raises(ValueError, match="epsilon"):
            train_svr([[0.0], [1.0]], [0.0, 1.0], epsilon=-0.1)

    @pytest.mark.parametrize("X, y", [([[0.0], [np.nan], [1.0], [2.0]], [0.0, 1.0, 2.0, 3.0]),
                                      ([[0.0], [-np.inf], [1.0], [2.0]], [0.0, 1.0, 2.0, 3.0]),
                                      ([[0.0], [1.0], [2.0], [3.0]], [0.0, np.inf, 2.0, 3.0])])
    def test_nonfinite_data_rejected(self, X, y):
        with pytest.raises(ValueError, match="training data must be finite"):
            train_svr(X, y)

    def test_auto_epsilon_is_iqr_scaled(self):
        y = np.arange(101.0)
        assert auto_epsilon(y) == pytest.approx(50.0 / 13.49)


class TestFitReport:
    """`rrauth bench`'s RMSE and MAE rows."""

    def test_zero_error(self):
        y = np.arange(4.0)
        assert _fit_errors(y.copy(), y) == (0.0, 0.0)

    def test_hand_computed(self):
        y = np.array([3.0, -4.0])
        rmse, mae = _fit_errors(np.zeros(2), y)
        assert mae == pytest.approx(3.5)
        assert rmse == pytest.approx(np.sqrt(12.5), abs=1e-4)

    def test_rmse_dominates_mae(self):
        rng = np.random.default_rng(14)
        y = rng.normal(size=30)
        rmse, mae = _fit_errors(np.zeros(30), y)
        assert rmse >= mae

    def test_matches_squared_error_by_power(self):
        rng = np.random.default_rng(15)
        pred, y = rng.normal(size=(2, 500))
        err = pred - y
        rmse, mae = _fit_errors(pred, y)
        assert type(rmse) is float and type(mae) is float
        assert rmse == float(np.sqrt(np.mean(err ** 2)))
        assert mae == float(np.mean(np.abs(err)))
