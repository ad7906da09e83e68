from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rrauth import evalx
from rrauth.authcore import KNOWN, REJECTED, ReferenceDb, decide, score_frames
from rrauth.evalx import (ConfusionMatrix, accuracy, auto_grid, confusion_csv,
                          format_confusion, overall_performance, run_trials,
                          sweep_csv, sweep_ucl)


def table2():
    return ConfusionMatrix(kk_correct=72, kk_wrong=0, ku=3, uk=16, uu=9)


def table3():
    return ConfusionMatrix(kk_correct=79, kk_wrong=0, ku=3, uk=1, uu=9,
                           rejected=8)


class TestConfusionMatrix:
    def test_counts(self):
        cm = table3()
        assert cm.accepted == 92
        assert cm.total == 100

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ConfusionMatrix(kk_correct=-1)

    def test_csv_shape(self):
        text = confusion_csv(table3())
        header, row, _ = text.split("\n")
        assert header == "kk_correct,kk_wrong,ku,uk,uu,rejected,N"
        assert row == "79,0,3,1,9,8,100"

    def test_text_table_cells_sum_to_total(self):
        cm = table3()
        text = format_confusion(cm)
        lines = text.splitlines()
        kk, ku = (int(v) for v in lines[1].split()[2:])
        uk, uu = (int(v) for v in lines[2].split()[2:])
        rejected = int(lines[3].split(":")[1])
        assert kk + ku + uk + uu + rejected == cm.total


class TestAccuracy:
    def test_first_experiment(self):
        chi, degenerate = accuracy(table2())
        assert not degenerate
        assert chi == pytest.approx(0.81)

    def test_second_experiment(self):
        chi, _ = accuracy(table3())
        assert chi == pytest.approx(88 / 92, abs=1e-9)

    def test_degenerate_denominator(self):
        chi, degenerate = accuracy(ConfusionMatrix(rejected=10))
        assert chi == 0.0 and degenerate


class TestOverallPerformance:
    def test_published_tuples(self):
        assert overall_performance(100, 100, 0.81) == pytest.approx(0.81)
        assert overall_performance(92, 100, 88 / 92) == pytest.approx(0.88, abs=5e-3)
        assert overall_performance(61, 70, 0.95) == pytest.approx(0.8279, abs=5e-4)

    def test_nothing_accepted(self):
        assert overall_performance(0, 50, 1.0) == 0.0

    def test_accepted_exceeds_total(self):
        with pytest.raises(ValueError):
            overall_performance(11, 10, 0.5)

    def test_chi_out_of_range(self):
        with pytest.raises(ValueError):
            overall_performance(5, 10, 1.5)

    def test_total_below_one(self):
        with pytest.raises(ValueError, match="total must be >= 1, got 0"):
            overall_performance(0, 0, 1.0)

    def test_bounds(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            total = int(rng.integers(1, 200))
            accepted = int(rng.integers(0, total + 1))
            chi = float(rng.uniform())
            op = overall_performance(accepted, total, chi)
            assert 0.0 <= op <= min(accepted / total, chi) + 1e-12


def drawn_indices(seed, pool_size, n):
    """The pool index each of the n trials draws, in trial order."""
    return np.random.default_rng(seed).integers(0, pool_size, size=n).tolist()


class TestRunTrials:
    def test_enrolled_only_pool_with_open_gate(self, small_db, small_pool):
        enrolled_pool = [(r, t) for r, t in small_pool if t is not None]
        cm, decisions = run_trials(small_db, enrolled_pool, n=40, gate_ucl=np.inf,
                                   seed=5)
        assert cm.ku == 0 and cm.uu == 0 and cm.rejected == 0
        assert cm.total == 40
        assert set(decisions) == set(drawn_indices(5, len(enrolled_pool), 40))

    def test_unknown_subject_accepted_as_known_is_ku(self, small_db, small_pool):
        unknown_pool = [(r, t) for r, t in small_pool if t is None]
        cm, decisions = run_trials(small_db, unknown_pool, n=10, gate_ucl=np.inf, seed=0,
                                   apr_min=0.0, id_margin=1e9)
        assert cm == ConfusionMatrix(ku=10)
        assert decisions and all(d.kind == KNOWN for d in decisions.values())

    def test_deterministic(self, small_db, small_pool):
        cm1, d1 = run_trials(small_db, small_pool, n=25, gate_ucl=0.002, seed=9)
        cm2, d2 = run_trials(small_db, small_pool, n=25, gate_ucl=0.002, seed=9)
        assert cm1 == cm2
        assert {pi: vars(d) for pi, d in d1.items()} == {pi: vars(d) for pi, d in d2.items()}

    def test_one_decision_per_drawn_record(self, small_db, small_pool):
        # 10,000 trials on a small pool hold one decision per drawn record,
        # not one per trial
        cm, decisions = run_trials(small_db, small_pool, n=10_000, gate_ucl=0.002, seed=4)
        assert cm.total == 10_000
        assert len(decisions) <= len(small_pool)
        assert set(decisions) == set(drawn_indices(4, len(small_pool), 10_000))
        for pi, dec in decisions.items():
            fresh = decide(small_db, score_frames(small_db, small_pool[pi][0]), 0.002)
            assert vars(dec) == vars(fresh)

    def test_matrix_conservation(self, small_db, small_pool):
        cm, _ = run_trials(small_db, small_pool, n=37, gate_ucl=0.001, seed=2)
        assert (cm.kk_correct + cm.kk_wrong + cm.ku + cm.uk + cm.uu
                + cm.rejected) == 37

    def test_unknown_truth_must_be_none_or_enrolled(self, small_db, small_pool):
        bad_pool = [(small_pool[0][0], "ghost")]
        with pytest.raises(ValueError, match="ghost"):
            run_trials(small_db, bad_pool, n=5, gate_ucl=0.01, seed=0)

    def test_empty_pool(self, small_db):
        with pytest.raises(ValueError, match="pool"):
            run_trials(small_db, [], n=5, gate_ucl=0.01, seed=0)

    def test_bad_n(self, small_db, small_pool):
        with pytest.raises(ValueError, match="n must be"):
            run_trials(small_db, small_pool, n=0, gate_ucl=0.01, seed=0)

    def test_most_trials(self, small_db, small_pool, monkeypatch):
        with pytest.raises(ValueError, match=r"n must be <= 17592186044416, got 17592186044417"):
            run_trials(small_db, small_pool, n=2**44 + 1, gate_ucl=0.01, seed=0)
        monkeypatch.setattr(evalx, "_MAX_TRIALS", 50)
        assert run_trials(small_db, small_pool, n=50, gate_ucl=0.01, seed=0)[0].total == 50
        with pytest.raises(ValueError, match="n must be <= 50, got 51"):
            run_trials(small_db, small_pool, n=51, gate_ucl=0.01, seed=0)

    @pytest.mark.parametrize("block", [1, 7, 40, 41])
    def test_block_size_changes_nothing(self, small_db, small_pool, monkeypatch, block):
        # 40 trials make one block at the default size, and 40, 6, 1 and 1
        # blocks at these sizes
        cm, decisions = run_trials(small_db, small_pool, n=40, gate_ucl=0.002, seed=6)
        monkeypatch.setattr(evalx, "_DRAW_BLOCK", block)
        cm_b, decisions_b = run_trials(small_db, small_pool, n=40, gate_ucl=0.002, seed=6)
        assert cm_b == cm
        assert {pi: vars(d) for pi, d in decisions_b.items()} == {
            pi: vars(d) for pi, d in decisions.items()}

    def test_empty_db(self, small_pool):
        with pytest.raises(ValueError, match="reference database is empty"):
            run_trials(ReferenceDb(), small_pool, n=5, gate_ucl=0.01, seed=0)


@pytest.mark.parametrize("k", [1, 2, 3, 50, 2**31 + 1, 2**32 - 1, 2**32, 2**32 + 1, 2**40 + 3,
                               2**63 - 1])
@pytest.mark.parametrize("block", [1, 2, 3, 7, 64])
def test_blocked_draws_are_one_stream(k, block):
    """`_trials` draws in blocks: consecutive `integers` calls of any sizes
    give the stream of one call, below and above 2**32 values, whose draws
    take half and whole 64-bit words, and at every block edge."""
    for n in (block - 1, block, block + 1, 3 * block, 3 * block + 1):
        rng = np.random.default_rng(2**40 + 11)
        parts = [rng.integers(0, k, size=min(block, n - s)) for s in range(0, n, block)]
        whole = np.random.default_rng(2**40 + 11).integers(0, k, size=n)
        assert np.concatenate(parts or [whole[:0]]).tobytes() == whole.tobytes()


class TestSweep:
    def test_single_point_is_argmax(self, small_db, small_pool):
        points, best = sweep_ucl(small_db, small_pool, [0.002], n=20, seed=3)
        assert len(points) == 1
        assert best == points[0]

    def test_below_min_mse_accepts_nothing(self, small_db, small_pool):
        points, _ = sweep_ucl(small_db, small_pool, [1e-15], n=20, seed=3)
        assert points[0].accepted == 0
        assert points[0].op == 0.0

    def test_accepted_non_decreasing_in_ucl(self, small_db, small_pool):
        grid = auto_grid(small_db, points=12)
        points, _ = sweep_ucl(small_db, small_pool, grid, n=50, seed=11)
        phis = [p.accepted for p in points]
        assert all(a <= b for a, b in zip(phis, phis[1:]))

    def test_op_identity_per_point(self, small_db, small_pool):
        points, _ = sweep_ucl(small_db, small_pool, auto_grid(small_db, points=6),
                              n=30, seed=4)
        for p in points:
            assert p.op == pytest.approx((p.accepted / p.n_trials) * p.accuracy,
                                         abs=1e-12)

    def test_argmax_dominates(self, small_db, small_pool):
        points, best = sweep_ucl(small_db, small_pool, auto_grid(small_db, points=8),
                                 n=30, seed=6)
        assert all(best.op >= p.op for p in points)
        first_max = min(p.ucl for p in points if p.op == best.op)
        assert best.ucl == first_max  # ties toward the smaller UCL

    def test_auto_grid_needs_a_point(self, small_db):
        with pytest.raises(ValueError, match="points must be >= 1, got 0"):
            auto_grid(small_db, points=0)

    def test_auto_grid_of_one_point(self, small_db):
        assert auto_grid(small_db, points=1).tolist() == [0.5 * small_db.median_ucl()]

    def test_empty_grid(self, small_db, small_pool):
        with pytest.raises(ValueError, match="grid"):
            sweep_ucl(small_db, small_pool, [], n=10, seed=0)

    def test_non_increasing_grid(self, small_db, small_pool):
        with pytest.raises(ValueError, match="increasing"):
            sweep_ucl(small_db, small_pool, [0.002, 0.001], n=10, seed=0)

    def test_repeated_gate_refused(self, small_db, small_pool):
        with pytest.raises(ValueError, match="strictly increasing"):
            sweep_ucl(small_db, small_pool, [0.001, 0.002, 0.002], n=10, seed=0)

    def test_csv_replayable(self, small_db, small_pool):
        grid = auto_grid(small_db, points=5)
        p1, _ = sweep_ucl(small_db, small_pool, grid, n=15, seed=8)
        p2, _ = sweep_ucl(small_db, small_pool, grid, n=15, seed=8)
        assert sweep_csv(p1) == sweep_csv(p2)
        assert sweep_csv(p1).splitlines()[0] == "ucl,phi,N,accuracy,op"


class TestDecideReuse:
    @pytest.fixture
    def decide_calls(self, monkeypatch):
        calls = []
        real = evalx.decide

        def counting(db, scored, gate_ucl, **kw):
            calls.append((id(scored), gate_ucl))
            return real(db, scored, gate_ucl, **kw)

        monkeypatch.setattr(evalx, "decide", counting)
        return calls

    def test_run_trials_decides_each_drawn_record_once(self, small_db, small_pool,
                                                       decide_calls):
        cm, decisions = run_trials(small_db, small_pool, n=60, gate_ucl=0.003, seed=1)
        assert set(decisions) == set(drawn_indices(1, len(small_pool), 60))
        assert len(decide_calls) == len(decisions) < 60
        assert len(set(decide_calls)) == len(decide_calls)
        assert cm.total == 60

    def test_sweep_reuses_decisions_and_matches_run_trials(self, small_db, small_pool,
                                                           decide_calls):
        grid = auto_grid(small_db, points=7)
        points, _ = sweep_ucl(small_db, small_pool, grid, n=45, seed=2)
        assert len(decide_calls) <= len(grid) * len(set(drawn_indices(2, len(small_pool), 45)))
        for ucl, point in zip(grid.tolist(), points):
            cm, _ = run_trials(small_db, small_pool, n=45, gate_ucl=ucl, seed=2)
            chi, _ = accuracy(cm)
            assert point == evalx.SweepPoint(
                ucl=ucl, accepted=cm.accepted, n_trials=cm.total, accuracy=chi,
                op=overall_performance(cm.accepted, cm.total, chi))


    @staticmethod
    def boundary_grid(db, pool):
        """Gates on frame best-MSE values (the `<=` boundary) and one ulp to
        either side, so neighbouring gates often pass the same frames."""
        best = [score_frames(db, rec).mse.min(axis=1) for rec, _ in pool]
        values = np.unique(np.concatenate(best))
        on = values[:: max(values.size // 8, 1)]
        grid = np.unique(np.concatenate([np.nextafter(on, -np.inf), on,
                                         np.nextafter(on, np.inf)]))
        return best, grid

    def test_gates_on_best_mse_values(self, small_db, small_pool, decide_calls):
        best, grid = self.boundary_grid(small_db, small_pool)
        points, _ = sweep_ucl(small_db, small_pool, grid, n=30, seed=3)
        drawn = set(drawn_indices(3, len(small_pool), 30))
        passing = {(pi, int(np.sum(best[pi] <= g))) for pi in drawn for g in grid.tolist()}
        assert len(decide_calls) == len(passing) < len(drawn) * grid.size
        for ucl, point in zip(grid.tolist(), points):
            cm, _ = run_trials(small_db, small_pool, n=30, gate_ucl=ucl, seed=3)
            chi, _ = accuracy(cm)
            assert point == evalx.SweepPoint(
                ucl=ucl, accepted=cm.accepted, n_trials=cm.total, accuracy=chi,
                op=overall_performance(cm.accepted, cm.total, chi))

    @pytest.mark.parametrize("block", [1, 2, 7])
    def test_gate_block_size_changes_nothing(self, small_db, small_pool, monkeypatch,
                                             decide_calls, block):
        # a record's last count and decision carry over from one block of
        # gates to the next, so the sweep makes the same `decide` calls
        _, grid = self.boundary_grid(small_db, small_pool)
        points, _ = sweep_ucl(small_db, small_pool, grid, n=30, seed=3)
        calls = list(decide_calls)
        monkeypatch.setattr(evalx, "_GATE_BLOCK", block)
        assert sweep_ucl(small_db, small_pool, grid, n=30, seed=3)[0] == points
        assert [gate for _, gate in decide_calls[len(calls):]] == [gate for _, gate in calls]

    def test_reused_decision_is_the_gates_own(self, small_db, small_pool):
        # a reused decision must equal a fresh one at its gate, field by field
        _, grid = self.boundary_grid(small_db, small_pool)
        scored = [score_frames(small_db, rec) for rec, _ in small_pool]
        per_gate = evalx._trials(small_db, small_pool, grid.tolist(), 30, 3,
                                 evalx.DEFAULT_TEST_WINDOW_S, evalx.DEFAULT_APR_MIN,
                                 evalx.DEFAULT_ID_MARGIN)
        for ucl, (_, decided) in zip(grid.tolist(), per_gate):
            for pi, dec in decided.items():
                assert vars(dec) == vars(decide(small_db, scored[pi], ucl))

    def test_nan_gate_fails_before_scoring(self, small_db, small_pool, monkeypatch):
        # an all-passing count repeats at a NaN gate, so reuse would skip
        # `decide`'s own NaN check
        def no_scoring(*args, **kw):
            raise AssertionError("scored a probe")

        monkeypatch.setattr(evalx, "score_frames", no_scoring)
        with pytest.raises(ValueError, match="NaN"):
            sweep_ucl(small_db, small_pool, [1.0, np.nan], n=5)
        with pytest.raises(ValueError, match="NaN"):
            sweep_ucl(small_db, small_pool, [np.nan], n=5)


def recount(draws, decisions, pool):
    """The confusion matrix counted trial by trial: trial t is decided by
    `decisions[draws[t]]` against its record's truth."""
    cells = {f.name: 0 for f in fields(ConfusionMatrix)}
    for pi in draws:
        dec, truth = decisions[pi], pool[pi][1]
        if dec.kind == REJECTED:
            cells["rejected"] += 1
        elif dec.kind == KNOWN and truth is None:
            cells["ku"] += 1
        elif dec.kind == KNOWN:
            cells["kk_correct" if dec.entity_id == truth else "kk_wrong"] += 1
        else:
            cells["uu" if truth is None else "uk"] += 1
    return ConfusionMatrix(**cells)


# gates as multiples of the median training UCL, from a closed gate (0) to an
# open one (inf)
gate_factors = st.one_of(st.just(np.inf), st.floats(0.0, 3.0))


class TestTrialEngine:
    """The draws are made once and each drawn record decided once per gate;
    the results must be those of judging every trial on its own."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 200), factor=gate_factors)
    def test_matrix_is_recount_of_outcomes(self, small_db, small_pool, seed, n, factor):
        gate = factor * small_db.median_ucl()
        cm, decisions = run_trials(small_db, small_pool, n=n, gate_ucl=gate, seed=seed)
        draws = drawn_indices(seed, len(small_pool), n)
        assert set(decisions) == set(draws)
        assert cm == recount(draws, decisions, small_pool)
        assert all(type(getattr(cm, f.name)) is int for f in fields(cm))
        assert type(accuracy(cm)[0]) is float

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 200),
           factors=st.lists(gate_factors, min_size=1, max_size=5))
    def test_sweep_point_is_run_trials_at_its_gate(self, small_db, small_pool, seed, n,
                                                  factors):
        grid = sorted({f * small_db.median_ucl() for f in factors})
        points, best = sweep_ucl(small_db, small_pool, grid, n=n, seed=seed)
        assert [p.ucl for p in points] == grid
        for point in points:
            cm, _ = run_trials(small_db, small_pool, n=n, gate_ucl=point.ucl, seed=seed)
            chi, _ = accuracy(cm)
            assert point == evalx.SweepPoint(
                ucl=point.ucl, accepted=cm.accepted, n_trials=cm.total, accuracy=chi,
                op=overall_performance(cm.accepted, cm.total, chi))
        assert best == next(p for p in points if p.op == max(q.op for q in points))
