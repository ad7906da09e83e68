import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rrauth import infotheory
from rrauth.authcore import extract_frames
from rrauth.beat import FrameSet, PeakList
from rrauth.infotheory import mutual_information, rank_features
from rrauth.signal import MAX_POINTS

from conftest import (oracle_entropy, oracle_histogram, oracle_joint_histogram,
                      oracle_mi_from_joint, oracle_mutual_information)


def quiet_mi(xs, ys, bins_x, bins_y):
    """`mutual_information` with every warning raised as an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return mutual_information(xs, ys, bins_x, bins_y)


def test_exports_only_the_two_functions():
    assert infotheory.__all__ == ["mutual_information", "rank_features"]


class TestEntropy:
    """H(x) read as I(x;x), whose conditional term is 0."""

    def test_fair_coin(self):
        xs = np.repeat([0.0, 1.0], 5)
        assert mutual_information(xs, xs, 2, 2) == 1.0

    def test_degenerate(self):
        xs = np.full(7, 3.0)
        assert mutual_information(xs, xs, 4, 4) == 0.0

    def test_hand_computed(self):
        xs = np.array([0.0, 0.0, 1.0, 2.0])  # counts [2, 1, 1]
        assert mutual_information(xs, xs, 3, 3) == 1.5

    def test_empty(self):
        with pytest.raises(ValueError, match="cannot histogram empty input"):
            mutual_information([], [])

    def test_bounded_by_log_bins(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            bins = int(rng.integers(1, 12))
            xs = rng.normal(size=200)
            h = mutual_information(xs, xs, bins, bins)
            assert h <= np.log2(bins) + 1e-12
            assert h == pytest.approx(oracle_entropy(oracle_histogram(xs, bins)), abs=1e-9)


class TestConditionalEntropy:
    """E[H(x|Y)] read as H(x) - I(x;y)."""

    def test_diagonal_is_zero(self):
        xs = np.repeat([0.0, 1.0, 2.0], [3, 4, 5])  # the joint is diag(3, 4, 5)
        assert mutual_information(xs, xs, 3, 3) == oracle_entropy(oracle_histogram(xs, 3))

    def test_independent_uniform(self):
        xs = np.repeat([0.0, 1.0], 10)
        ys = np.tile(np.repeat([0.0, 1.0], 5), 2)  # the joint is [[5, 5], [5, 5]]
        assert mutual_information(xs, ys, 2, 2) == 0.0

    def test_empty(self):
        # an empty label column adds nothing, silently: the middle of 3 y bins
        # is empty, and 2 y bins hold the same columns without it
        xs = np.array([0.0, 1.0, 0.0, 1.0, 1.0])
        ys = np.array([0.0, 0.0, 2.0, 2.0, 2.0])
        assert quiet_mi(xs, ys, 2, 3) == quiet_mi(xs, ys, 2, 2) == oracle_mutual_information(
            xs, ys, 2, 3)
        assert quiet_mi(xs, ys, 2, 3) > 0.0

    def test_single_cell(self):
        xs = np.full(9, 1.0)
        assert mutual_information(xs, xs.copy(), 2, 2) == 0.0

    def test_never_exceeds_marginal_entropy(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            xs = rng.integers(0, 4, size=30).astype(float)
            ys = rng.integers(0, 3, size=30).astype(float)
            mi = mutual_information(xs, ys, 4, 3)
            assert 0.0 <= mi <= oracle_entropy(oracle_histogram(xs, 4)) + 1e-12


class TestJointHistogram:
    """The refusals of the joint binning."""

    @pytest.mark.parametrize("bins_x,bins_y", [(0, 4), (4, 0), (-1, 4)])
    def test_bins_below_one_rejected(self, bins_x, bins_y):
        xs = np.arange(10.0)
        with pytest.raises(ValueError, match="bins must be >= 1"):
            mutual_information(xs, xs, bins_x, bins_y)

    def test_empty_histogram_rejected(self):
        # emptiness is checked before the bin counts
        with pytest.raises(ValueError, match="cannot histogram empty input"):
            mutual_information([], [], 0, 0)

    def test_histogram_bins_below_one_rejected(self):
        with pytest.raises(ValueError, match="bins must be >= 1, got 0"):
            mutual_information([1.0, 2.0], [1.0, 2.0], 0, 4)

    def test_one_bin_accepted(self):
        xs = np.arange(10.0)
        assert quiet_mi(xs, xs, 1, 1) == 0.0
        assert quiet_mi(xs, xs, 1, 10) == 0.0

    @pytest.mark.parametrize("bins_x,bins_y", [(MAX_POINTS, 4), (4, MAX_POINTS),
                                               (MAX_POINTS + 1, 4)])
    def test_bins_at_max_points_rejected(self, bins_x, bins_y):
        xs = np.arange(10.0)
        with pytest.raises(ValueError, match=f"bins must be < {MAX_POINTS}"):
            mutual_information(xs, xs, bins_x, bins_y)

    def test_check_order(self):
        with pytest.raises(ValueError, match="length mismatch"):
            mutual_information([], [1.0], 0, 0)
        with pytest.raises(ValueError, match="bins must be >= 1"):
            mutual_information([1.0], [1.0], 0, MAX_POINTS)
        with pytest.raises(ValueError, match="bins must be < "):
            mutual_information([math.nan], [1.0], MAX_POINTS, 4)


class TestNonFiniteInput:
    """NaN, an infinity or a range whose width overflows is refused before
    any binning, without a warning."""

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("side", ["xs", "ys"])
    def test_non_finite_value_rejected(self, bad, side):
        good = np.arange(5.0)
        bent = good.copy()
        bent[2] = bad
        xs, ys = (bent, good) if side == "xs" else (good, bent)
        with pytest.raises(ValueError, match="must be finite"):
            quiet_mi(xs, ys, 4, 4)

    @pytest.mark.parametrize("values", [[1e308, -1e308, 0.0], [-1.7e308, 1.7e308],
                                        [math.inf, math.inf], [math.nan] * 3])
    def test_unbinnable_range_rejected(self, values):
        ys = np.zeros(len(values))
        with pytest.raises(ValueError, match="finite range width"):
            quiet_mi(values, ys, 4, 2)

    def test_widest_finite_range_accepted(self):
        top = np.finfo(float).max
        xs = np.array([-top / 2, 0.0, top / 2, top / 2])
        ys = np.array([0.0, 0.0, 1.0, 1.0])
        assert quiet_mi(xs, ys, 4, 2) == oracle_mutual_information(xs, ys, 4, 2) == 1.0


class TestMutualInformation:
    def test_self_information_is_entropy(self):
        rng = np.random.default_rng(2)
        xs = rng.integers(0, 8, size=50).astype(float)
        assert mutual_information(xs, xs, 8, 8) == pytest.approx(
            oracle_entropy(oracle_histogram(xs, 8)), abs=1e-9)

    def test_independent_pairs_near_zero(self):
        rng = np.random.default_rng(3)
        xs = rng.uniform(size=10_000)
        ys = rng.uniform(size=10_000)
        assert mutual_information(xs, ys, 8, 8) <= 0.02

    def test_two_routes_agree(self):
        # H(y) - E[H(y|X)] and the direct double sum over the same joint
        rng = np.random.default_rng(4)
        for _ in range(20):
            xs = rng.integers(0, 7, size=40).astype(float)
            ys = rng.integers(0, 5, size=40).astype(float)
            direct = oracle_mi_from_joint(oracle_joint_histogram(xs, ys, 5, 4))
            assert mutual_information(xs, ys, 5, 4) == pytest.approx(direct, abs=1e-9)

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
            hx = oracle_entropy(oracle_histogram(xs, 8))
            hy = oracle_entropy(oracle_histogram(ys, 8))
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

    def test_direct_form_empty(self):
        # a joint with an empty row, an empty column and empty cells agrees
        # with the direct form, which skips the empty cells
        xs = np.array([0.0, 0.0, 1.0, 3.0, 3.0, 3.0])
        ys = np.array([0.0, 0.0, 1.0, 3.0, 0.0, 3.0])
        mi = quiet_mi(xs, ys, 4, 4)
        assert mi == pytest.approx(oracle_mi_from_joint(oracle_joint_histogram(xs, ys, 4, 4)),
                                   abs=1e-12)
        assert mi > 0.5

    def test_nonnegative_clamp(self):
        # constant x: its one row's H(y|X=x) is H(y), so MI must come out
        # exactly 0, never negative
        assert mutual_information(np.ones(50), np.arange(50.0), 8, 8) == 0.0
        # one count in each cell of a 5 x 3 table: H(y) - E[H(y|X)] rounds to
        # -2**-52, which the clamp lifts to 0
        xs, ys = np.tile(np.arange(5.0), 3), np.repeat(np.arange(3.0), 5)
        assert mutual_information(xs, ys, 5, 3) == 0.0


@st.composite
def mi_inputs(draw):
    """Normal draws, a few distinct values or labels, so bins fill, empty
    and tie on their edges, with 1-40 x bins and 1-12 y bins."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 60))
    columns = []
    for _ in range(2):
        kind = draw(st.sampled_from(["normal", "few", "labels"]))
        if kind == "normal":
            columns.append(rng.normal(scale=draw(st.sampled_from([1e-3, 1.0, 1e6])), size=n))
        elif kind == "few":
            k = draw(st.integers(1, 5))
            columns.append(rng.normal(size=k)[rng.integers(0, k, size=n)])
        else:
            columns.append(rng.integers(0, draw(st.integers(1, 6)), size=n).astype(float))
    return columns[0], columns[1], draw(st.integers(1, 40)), draw(st.integers(1, 12))


class TestSameAsOracle:
    """`mutual_information` gives the oracle pipeline's bits."""

    @settings(max_examples=300, deadline=None)
    @given(mi_inputs())
    def test_bit_equal(self, inputs):
        xs, ys, bins_x, bins_y = inputs
        got = quiet_mi(xs, ys, bins_x, bins_y)
        want = oracle_mutual_information(xs, ys, bins_x, bins_y)
        assert type(got) is float
        assert got.hex() == want.hex()

    @pytest.mark.parametrize("bins", [5, 8, 16, 32])
    def test_pinned_cohort_ranking(self, small_cohort, bins):
        sets = [extract_frames(rec, 50.0) for _, enrolled, rec in small_cohort if enrolled]
        ranking = rank_features(sets, bins=bins, top_k=220)
        pooled = np.vstack([s.values for s in sets])
        labels = np.repeat(np.arange(len(sets)), [len(s) for s in sets])
        want = [oracle_mutual_information(pooled[:, j], labels, bins, len(sets))
                for j in range(220)]
        assert sorted(p for p, _ in ranking) == list(range(220))
        for position, mi in ranking:
            assert type(position) is int and type(mi) is float
            assert mi.hex() == want[position].hex()


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
        assert isinstance(ranking, tuple) and len(ranking) == 5
        assert ranking[0][0] == 10
        assert ranking[0][1] > 0.9

    def test_k_too_large(self):
        rng = np.random.default_rng(9)
        sets = [frameset(e, rng.normal(size=(5, 16))) for e in "ab"]
        with pytest.raises(ValueError, match="top_k"):
            rank_features(sets, top_k=17)

    def test_k_bounds(self):
        rng = np.random.default_rng(13)
        sets = [frameset(e, rng.normal(size=(5, 16))) for e in "ab"]
        with pytest.raises(ValueError, match=r"top_k must be in \[1, 16\], got 0"):
            rank_features(sets, top_k=0)
        assert len(rank_features(sets, top_k=1)) == 1
        assert len(rank_features(sets, top_k=16)) == 16

    def test_needs_a_frame_set(self):
        with pytest.raises(ValueError, match="at least one frame set"):
            rank_features([])

    def test_frame_lengths_must_agree(self):
        rng = np.random.default_rng(12)
        sets = [frameset("a", rng.normal(size=(5, 16))), frameset("b", rng.normal(size=(5, 8)))]
        with pytest.raises(ValueError, match="share the frame length"):
            rank_features(sets)

    def test_sets_without_frames(self):
        sets = [frameset(e, np.empty((0, 16))) for e in "ab"]
        with pytest.raises(ValueError, match="contain no frames"):
            rank_features(sets, top_k=4)

    def test_needs_two_entities(self):
        rng = np.random.default_rng(10)
        with pytest.raises(ValueError, match="entities"):
            rank_features([frameset("a", rng.normal(size=(5, 16)))])

    def test_identical_frames_tie_break_by_position(self):
        row = np.linspace(0.0, 1.0, 16)
        a = np.tile(row, (6, 1))
        ranking = rank_features([frameset("a", a), frameset("b", a.copy())],
                                bins=8, top_k=16)
        positions = [p for p, _ in ranking]
        assert positions == list(range(16))
        assert all(abs(mi) <= 1e-9 for _, mi in ranking)

    def test_mi_values_sorted_descending(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(30, 32))
        b = rng.normal(size=(30, 32)) + np.linspace(0, 0.4, 32)
        ranking = rank_features([frameset("a", a), frameset("b", b)],
                                bins=8, top_k=32)
        mis = [mi for _, mi in ranking]
        assert all(x >= y for x, y in zip(mis, mis[1:]))
