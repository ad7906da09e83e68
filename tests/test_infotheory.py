import numpy as np
import pytest

from rrauth.beat import FrameSet, PeakList
from rrauth.infotheory import (Histogram, conditional_entropy, entropy,
                               histogram, joint_histogram, mi_from_joint,
                               mutual_information, rank_features, x_marginal)


def make_joint(counts):
    counts = np.asarray(counts, dtype=float)
    bx, by = counts.shape
    return joint_from_counts(counts, bx, by)


def joint_from_counts(counts, bx, by):
    from rrauth.infotheory import JointHistogram
    return JointHistogram(counts=np.asarray(counts, dtype=float),
                          x_edges=np.linspace(0, bx, bx + 1),
                          y_edges=np.linspace(0, by, by + 1),
                          n=int(np.sum(counts)))


class TestEntropy:
    def test_fair_coin(self):
        assert entropy(Histogram(np.array([5, 5]), np.array([0., 1., 2.]), 10)) == 1.0

    def test_degenerate(self):
        assert entropy(Histogram(np.array([7]), np.array([0., 1.]), 7)) == 0.0

    def test_hand_computed(self):
        h = Histogram(np.array([2, 1, 1]), np.array([0., 1., 2., 3.]), 4)
        assert entropy(h) == pytest.approx(1.5, abs=1e-12)

    def test_empty(self):
        with pytest.raises(ValueError):
            entropy(Histogram(np.array([0]), np.array([0., 1.]), 0))

    def test_bounded_by_log_bins(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            bins = int(rng.integers(1, 12))
            h = histogram(rng.normal(size=200), bins)
            assert entropy(h) <= np.log2(max(bins, 1)) + 1e-12


class TestConditionalEntropy:
    def test_diagonal_is_zero(self):
        j = make_joint(np.diag([3, 4, 5]))
        assert conditional_entropy(j) == pytest.approx(0.0, abs=1e-12)

    def test_independent_uniform(self):
        j = make_joint([[5, 5], [5, 5]])
        assert conditional_entropy(j) == pytest.approx(1.0, abs=1e-12)

    def test_single_cell(self):
        j = make_joint([[0, 0], [0, 9]])
        assert conditional_entropy(j) == pytest.approx(0.0, abs=1e-12)

    def test_never_exceeds_marginal_entropy(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            j = make_joint(rng.integers(0, 9, size=(4, 3)) + 0)
            if j.n == 0:
                continue
            assert -1e-12 <= conditional_entropy(j) <= entropy(x_marginal(j)) + 1e-12


class TestMutualInformation:
    def test_self_information_is_entropy(self):
        rng = np.random.default_rng(2)
        xs = rng.integers(0, 8, size=50).astype(float)
        assert mutual_information(xs, xs, 8, 8) == pytest.approx(
            entropy(histogram(xs, 8)), abs=1e-9)

    def test_independent_pairs_near_zero(self):
        rng = np.random.default_rng(3)
        xs = rng.uniform(size=10_000)
        ys = rng.uniform(size=10_000)
        assert mutual_information(xs, ys, 8, 8) <= 0.02

    def test_two_routes_agree(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            j = make_joint(rng.integers(0, 7, size=(5, 4)))
            if j.n == 0:
                continue
            direct = mi_from_joint(j)
            diff = entropy(x_marginal(j)) - conditional_entropy(j)
            assert direct == pytest.approx(diff, abs=1e-9)

    def test_symmetry(self):
        rng = np.random.default_rng(5)
        xs = rng.normal(size=400)
        ys = np.round(xs) + rng.normal(scale=0.3, size=400)
        assert mutual_information(xs, ys, 10, 10) == pytest.approx(
            mutual_information(ys, xs, 10, 10), abs=1e-9)

    def test_bounded_by_marginal_entropies(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            xs = rng.normal(size=300)
            ys = xs * 0.5 + rng.normal(size=300)
            mi = mutual_information(xs, ys, 8, 8)
            hx = entropy(histogram(xs, 8))
            hy = entropy(histogram(ys, 8))
            assert 0.0 <= mi <= min(hx, hy) + 1e-9

    def test_joint_permutation_invariance(self):
        rng = np.random.default_rng(7)
        xs = rng.normal(size=200)
        ys = rng.normal(size=200)
        perm = rng.permutation(200)
        assert mutual_information(xs, ys, 8, 8) == mutual_information(
            xs[perm], ys[perm], 8, 8)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            mutual_information([1.0, 2.0], [1.0], 4, 4)

    def test_empty(self):
        with pytest.raises(ValueError, match="empty"):
            mutual_information([], [], 4, 4)

    def test_nonnegative_clamp(self):
        # constant x: H(x) = 0, so MI must come out exactly 0, never negative
        assert mutual_information(np.ones(50), np.arange(50.0), 8, 8) == 0.0


def frameset(entity_id, matrix):
    """Frames as `frame_rr` would cut them from len(matrix) + 1 peaks."""
    return FrameSet(entity_id, PeakList(np.arange(matrix.shape[0] + 1)), matrix)


class TestRankFeatures:
    def test_discriminative_position_ranks_first(self):
        rng = np.random.default_rng(8)
        a = rng.normal(0.0, 0.01, size=(40, 64))
        b = rng.normal(0.0, 0.01, size=(40, 64))
        b[:, 10] += 0.5
        ranking = rank_features([frameset("a", a), frameset("b", b)],
                                bins=8, top_k=5)
        assert ranking.entries[0][0] == 10
        assert ranking.entries[0][1] > 0.9

    def test_k_too_large(self):
        rng = np.random.default_rng(9)
        sets = [frameset(e, rng.normal(size=(5, 16))) for e in "ab"]
        with pytest.raises(ValueError, match="top_k"):
            rank_features(sets, top_k=17)

    def test_needs_two_entities(self):
        rng = np.random.default_rng(10)
        with pytest.raises(ValueError, match="entities"):
            rank_features([frameset("a", rng.normal(size=(5, 16)))])

    def test_identical_frames_tie_break_by_position(self):
        row = np.linspace(0.0, 1.0, 16)
        a = np.tile(row, (6, 1))
        ranking = rank_features([frameset("a", a), frameset("b", a.copy())],
                                bins=8, top_k=16)
        positions = [p for p, _ in ranking.entries]
        assert positions == list(range(16))
        assert all(abs(mi) <= 1e-9 for _, mi in ranking.entries)

    def test_mi_values_sorted_descending(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(30, 32))
        b = rng.normal(size=(30, 32)) + np.linspace(0, 0.4, 32)
        ranking = rank_features([frameset("a", a), frameset("b", b)],
                                bins=8, top_k=32)
        mis = [mi for _, mi in ranking.entries]
        assert all(x >= y for x, y in zip(mis, mis[1:]))
