import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rrauth import learners
from rrauth.cli import _training_pairs
from rrauth.learners import (DtLeaf, DtModel, DtParams, DtSplit, FitReport, auto_epsilon,
                             fit_report, kernel_predict_batch, predict_curve, predict_dt,
                             train_dt, train_svm_binary, train_svr)

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
    X, y = _training_pairs(record, 220, 50.0)
    keep = np.sort(np.random.default_rng(0).choice(X.shape[0], size=2000, replace=False))
    return X[keep], y[keep]


def kkt_gap(model):
    """Largest KKT violation of the returned duals, from a kernel over every
    row of X (no dedup) and the expansion recomputed in one product."""
    K = learners._gram(model.X, model.kernel_scale)
    fx = K @ model.coef
    if model.epsilon is not None:
        z = np.concatenate([np.ones(model.y.size), -np.ones(model.y.size)])
        c = np.concatenate([model.y - model.epsilon, -model.y - model.epsilon])
        fx = np.concatenate([fx, fx])
    else:
        z, c = model.y, np.ones(model.y.size)
    g, box = model.dual, model.C
    zg = z * c - fx
    up = ((z > 0) & (g < box)) | ((z < 0) & (g > 0))
    low = ((z < 0) & (g < box)) | ((z > 0) & (g > 0))
    if not (up.any() and low.any()):
        return -np.inf
    return float(np.max(zg[up]) - np.min(zg[low]))


def assert_solver_contract(model, reference, max_sweeps):
    g, box = model.dual, model.C
    assert np.all(g >= 0.0) and np.all(g <= box)
    balance = np.sum(model.coef) if model.epsilon is not None else np.sum(g * model.y)
    assert abs(balance) <= 1e-9
    h = model.objective_history
    assert len(h) >= 1 and all(p <= q + 1e-9 for p, q in zip(h, h[1:]))
    if len(h) < max_sweeps:
        # the solver stopped on its own gap, which it tracks in a running sum
        # of kernel rows; a fresh product differs from it only by rounding
        assert kkt_gap(model) <= learners._KKT_TOL + 1e-9
    if max_sweeps == 200:
        ref = reference.objective_history[-1]
        assert h[-1] >= ref - 1e-3 * abs(ref)


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
        svm = train_svm_binary(X, labels, **fit)
        with mock.patch.object(learners, "_solve_box_dual", rebuild_masks_solve_box_dual):
            svr_ref = train_svr(X, y, epsilon=epsilon, **fit)
            svm_ref = train_svm_binary(X, labels, **fit)
        assert_solver_contract(svr, svr_ref, fit["max_sweeps"])
        assert_solver_contract(svm, svm_ref, fit["max_sweeps"])

    def test_bench_pairs(self, bench_pairs):
        # 17.816352053181078 is the reference loop's objective on these pairs
        # after its 14 sweeps at the `bench` defaults
        X, y = bench_pairs
        m = train_svr(X, y, C=1.0, kernel_scale=0.35, max_sweeps=30)
        assert_solver_contract(m, None, max_sweeps=30)
        assert m.objective_history[-1] >= 17.816352053181078 * (1.0 - 1e-3)


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
        n_distinct = np.unique(X, axis=0).shape[0]
        labels = np.where(X[:, 0] > np.median(X[:, 0]), 1.0, -1.0)
        labels[0], labels[-1] = 1.0, -1.0
        with mock.patch.object(learners, "_solve_box_dual",
                               wraps=learners._solve_box_dual) as spy:
            if train == "svr":
                train_svr(X, np.sin(X[:, 0]))
            else:
                train_svm_binary(X, labels)
        K, z, _, _, idx = spy.call_args.args[:5]
        assert K.shape == (n_distinct, n_distinct)
        assert idx.shape == z.shape and idx.max() == n_distinct - 1

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


TRAINERS = {"dt": (train_dt, 1), "svm": (train_svm_binary, 2), "svr": (train_svr, 2)}


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
    @pytest.mark.parametrize("trainer", ["svm", "svr"])
    def test_kernel_params_must_be_positive(self, trainer, kwargs):
        X, y = np.arange(4.0).reshape(-1, 1), np.array([-1.0, 1.0, -1.0, 1.0])
        (name, value), = kwargs.items()
        with pytest.raises(ValueError, match=f"{name} must be > 0, got {value}"):
            TRAINERS[trainer][0](X, y, **kwargs)

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
    def test_two_point_separable(self):
        m = train_svm_binary([[0.0], [1.0]], [-1.0, 1.0], C=10.0)
        assert np.sign(kernel_predict(m, [0.0])) == -1.0
        assert np.sign(kernel_predict(m, [1.0])) == 1.0

    def test_dual_feasibility(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            n = 16
            X = rng.normal(size=(n, 2))
            y = np.where(X[:, 0] + 0.3 * rng.normal(size=n) > 0, 1.0, -1.0)
            if len(np.unique(y)) < 2:
                continue
            C = float(rng.uniform(0.5, 5.0))
            m = train_svm_binary(X, y, C=C, kernel_scale=1.0)
            assert np.all(m.dual >= 0.0) and np.all(m.dual <= C)
            assert abs(np.sum(m.dual * m.y)) <= 1e-9

    def test_objective_non_decreasing(self):
        rng = np.random.default_rng(10)
        X = rng.normal(size=(30, 2))
        y = np.where(X[:, 1] > 0, 1.0, -1.0)
        m = train_svm_binary(X, y, C=2.0, kernel_scale=0.8)
        h = m.objective_history
        assert len(h) >= 1
        assert all(a <= b + 1e-9 for a, b in zip(h, h[1:]))

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="both classes"):
            train_svm_binary([[0.0], [1.0]], [1.0, 1.0])

    def test_bad_labels_rejected(self):
        with pytest.raises(ValueError, match="labels"):
            train_svm_binary([[0.0], [1.0]], [0.0, 1.0])

    @pytest.mark.parametrize("X, y", [([[0.0], [np.nan], [1.0], [2.0]], [-1.0, 1.0, -1.0, 1.0]),
                                      ([[0.0], [np.inf], [1.0], [2.0]], [-1.0, 1.0, -1.0, 1.0]),
                                      ([[0.0], [1.0], [2.0], [3.0]], [-1.0, np.nan, -1.0, 1.0])])
    def test_nonfinite_data_rejected(self, X, y):
        with pytest.raises(ValueError, match="training data must be finite"):
            train_svm_binary(X, y)

    def test_separable_training_accuracy(self):
        rng = np.random.default_rng(11)
        X = np.vstack([rng.normal(-2.0, 0.3, size=(20, 2)),
                       rng.normal(2.0, 0.3, size=(20, 2))])
        y = np.array([-1.0] * 20 + [1.0] * 20)
        m = train_svm_binary(X, y, C=5.0, kernel_scale=2.0)
        preds = np.sign(kernel_predict_batch(m, X))
        assert np.all(preds == y)


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
    def test_zero_error(self):
        y = np.arange(4.0)
        rep = fit_report(y.copy(), y, 1.25)
        assert rep.rmse == 0.0 and rep.mae == 0.0
        assert rep.train_time == 1.25

    def test_hand_computed(self):
        y = np.array([3.0, -4.0])
        rep = fit_report(np.zeros(2), y, 0.0)
        assert rep.mae == pytest.approx(3.5)
        assert rep.rmse == pytest.approx(np.sqrt(12.5), abs=1e-4)

    def test_rmse_dominates_mae(self):
        rng = np.random.default_rng(14)
        y = rng.normal(size=30)
        rep = fit_report(np.zeros(30), y, 0.0)
        assert rep.rmse >= rep.mae

    def test_matches_squared_error_by_power(self):
        rng = np.random.default_rng(15)
        pred, y = rng.normal(size=(2, 500))
        err = pred - y
        rep = fit_report(pred, y, 0.0)
        assert rep.rmse == float(np.sqrt(np.mean(err ** 2)))
        assert rep.mae == float(np.mean(np.abs(err)))

    @pytest.mark.parametrize("pred,y", [([], []), ([0.0], [0.0, 1.0]),
                                        ([[0.0], [1.0]], [0.0, 1.0])])
    def test_bad_shapes(self, pred, y):
        with pytest.raises(ValueError):
            fit_report(pred, y, 0.0)

    def test_invalid_report_rejected(self):
        with pytest.raises(ValueError):
            FitReport(rmse=1.0, mae=2.0, train_time=0.0)

    def test_negative_error_rejected(self):
        with pytest.raises(ValueError, match="rmse and mae must be >= 0"):
            FitReport(rmse=-1.0, mae=0.0, train_time=0.0)
