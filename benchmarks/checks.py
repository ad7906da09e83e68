"""Output checks for the benchmark workloads.

Each check recomputes a result apart from the program, or tests a property
the method must have, and raises CheckFailed with the reason when the
program's output disagrees. The workloads count an operation whose check
fails as a failed operation.
"""

from __future__ import annotations

import numpy as np

from rrauth.authcore import KNOWN, REJECTED, UNKNOWN

PEAK_TOL_S = 0.010     # a true R counts as found if a peak lies within 10 ms
PEAK_MIN_HITS = 0.99   # share of true R that must be found (acceptance test 09)
EXACT = 1e-12          # mV or mV^2: only summation-order differences allowed
REL = 1e-9             # relative tolerance for recomputed means and limits


class CheckFailed(Exception):
    """A program output disagrees with its independent recomputation."""


def near(ref: np.ndarray, points: np.ndarray, fs: float) -> np.ndarray:
    """For each index in `points`, whether sorted `ref` has one within 10 ms."""
    if ref.size == 0:
        return np.zeros(points.size, dtype=bool)
    pos = np.searchsorted(ref, points)
    left = ref[np.maximum(pos - 1, 0)]
    right = ref[np.minimum(pos, ref.size - 1)]
    nearest = np.minimum(np.abs(points - left), np.abs(right - points))
    return nearest <= int(round(PEAK_TOL_S * fs))


def check_peaks(peaks: np.ndarray, truth: np.ndarray, fs: float) -> None:
    hits = float(np.mean(near(peaks, truth, fs))) if truth.size else 1.0
    if hits < PEAK_MIN_HITS:
        raise CheckFailed(f"peaks: {hits:.1%} of {truth.size} true R within "
                          f"{PEAK_TOL_S * 1e3:.0f} ms (need {PEAK_MIN_HITS:.0%})")


def check_reference(entry, frames: np.ndarray) -> None:
    """Curve = per-position mean of the frames; MSEs and UCL recomputed."""
    if frames.shape[0] != entry.stats.mses.size:
        raise CheckFailed(f"reference: {entry.stats.mses.size} MSEs for "
                          f"{frames.shape[0]} frames")
    mean_frame = frames.mean(axis=0)
    gap = float(np.max(np.abs(entry.curve - mean_frame)))
    if gap > EXACT:
        raise CheckFailed(f"reference: curve differs from the per-position frame "
                          f"mean by {gap:.3g} mV")
    mses = np.mean((frames - entry.curve) ** 2, axis=1)
    if not np.allclose(entry.stats.mses, mses, rtol=REL, atol=0.0):
        raise CheckFailed("reference: stored MSEs differ from the recomputed ones")
    ucl = float(mses.mean() + 3.0 * mses.std(ddof=1))
    if not np.isclose(entry.stats.ucl, ucl, rtol=REL, atol=0.0):
        raise CheckFailed(f"reference: UCL {entry.stats.ucl!r} != mean + 3 sd = {ucl!r}")


def check_same_db(expected, actual) -> None:
    """Every entity comes back with the same curve, MSEs and UCL."""
    if sorted(expected.entries) != sorted(actual.entries):
        raise CheckFailed("database: entity ids differ after the round trip")
    for eid, want in expected.entries.items():
        got = actual.entries[eid]
        if float(np.max(np.abs(want.curve - got.curve))) > EXACT:
            raise CheckFailed(f"database: curve of {eid!r} changed in the round trip")
        if not np.array_equal(want.stats.mses, got.stats.mses):
            raise CheckFailed(f"database: MSEs of {eid!r} changed in the round trip")
        if want.stats.ucl != got.stats.ucl:
            raise CheckFailed(f"database: UCL of {eid!r} changed in the round trip")


def expected_decision(db, frames: np.ndarray, gate_ucl: float, apr_min: float,
                      id_margin: float) -> dict:
    """The gate / APR / argmin / margin rule, applied to a numpy MSE table."""
    ids = sorted(db.entries)
    curves = np.stack([db.entries[e].curve for e in ids])
    table = np.mean((frames[:, None, :] - curves[None, :, :]) ** 2, axis=2)
    passing = table.min(axis=1) <= gate_ucl
    apr = float(passing.sum() / frames.shape[0])
    if apr < apr_min or not passing.any():
        return {"kind": REJECTED, "apr": apr}
    scores = table[passing].mean(axis=0)
    k = int(np.argmin(scores))  # ids are sorted, so ties go to the smaller id
    best = float(scores[k])
    kind = KNOWN if best <= id_margin * db.entries[ids[k]].stats.ucl else UNKNOWN
    return {"kind": kind, "apr": apr, "entity_id": ids[k] if kind == KNOWN else None,
            "score": best, "scores": dict(zip(ids, scores.tolist()))}


def check_decision(decision, want: dict, truth: str | None) -> None:
    """Decision equals the recomputed rule and never misnames a subject."""
    if decision.kind != want["kind"] or decision.apr != want["apr"]:
        raise CheckFailed(f"decision: {decision.kind} apr={decision.apr!r}, rule gives "
                          f"{want['kind']} apr={want['apr']!r}")
    if want["kind"] != REJECTED:
        if decision.entity_id != want["entity_id"]:
            raise CheckFailed(f"decision: entity {decision.entity_id!r}, rule gives "
                              f"{want['entity_id']!r}")
        if not np.isclose(decision.score, want["score"], rtol=REL, atol=0.0):
            raise CheckFailed(f"decision: score {decision.score!r} != {want['score']!r}")
        got = np.array([decision.scores[e] for e in sorted(want["scores"])])
        ref = np.array([want["scores"][e] for e in sorted(want["scores"])])
        if sorted(decision.scores) != sorted(want["scores"]) or \
                not np.allclose(got, ref, rtol=REL, atol=0.0):
            raise CheckFailed("decision: per-entity scores differ from the MSE table")
    if decision.kind == KNOWN and decision.entity_id != truth:
        who = "unknown subject" if truth is None else f"probe of {truth!r}"
        raise CheckFailed(f"decision: {who} identified as {decision.entity_id!r}")


def check_sweep(points, best) -> None:
    """Accepted count never falls along the grid; op and best recomputed."""
    for a, b in zip(points, points[1:]):
        if b.accepted < a.accepted:
            raise CheckFailed(f"sweep: accepted falls from {a.accepted} to {b.accepted} "
                              f"between ucl={a.ucl!r} and ucl={b.ucl!r}")
    for p in points:
        op = p.accepted / p.n_trials * p.accuracy
        if not np.isclose(p.op, op, rtol=REL, atol=0.0):
            raise CheckFailed(f"sweep: op {p.op!r} != accepted/total x accuracy = {op!r}")
    first_best = max(points, key=lambda p: p.op)  # max() keeps the first maximum
    if best != first_best:
        raise CheckFailed(f"sweep: best is ucl={best.ucl!r}, first largest op is at "
                          f"ucl={first_best.ucl!r}")


def check_sweep_point(point, cm, accuracy: float) -> None:
    """A sweep point equals run_trials at the same gate and seed."""
    if (point.accepted, point.n_trials) != (cm.accepted, cm.total) or \
            point.accuracy != accuracy:
        raise CheckFailed(f"sweep: point at ucl={point.ucl!r} has accepted={point.accepted} "
                          f"N={point.n_trials} accuracy={point.accuracy!r}; run_trials gives "
                          f"{cm.accepted}, {cm.total}, {accuracy!r}")


def check_svr(model, predictions: np.ndarray, y: np.ndarray) -> None:
    """Duals in their box, coefficients balanced, objective non-decreasing,
    and a fit better than predicting the mean."""
    C = model.C
    if np.any(model.dual < 0.0) or np.any(model.dual > C):
        raise CheckFailed(f"svr: duals span [{model.dual.min()!r}, {model.dual.max()!r}], "
                          f"outside [0, {C}]")
    if abs(float(np.sum(model.coef))) > 1e-9 * max(1.0, C * model.coef.size):
        raise CheckFailed(f"svr: signed coefficients sum to {float(np.sum(model.coef))!r}")
    h = model.objective_history
    if any(q < p - 1e-9 * max(1.0, abs(p)) for p, q in zip(h, h[1:])):
        raise CheckFailed("svr: dual objective decreases between sweeps")
    check_beats_mean("svr", predictions, y)


def check_beats_mean(name: str, predictions: np.ndarray, y: np.ndarray) -> None:
    rmse = float(np.sqrt(np.mean((predictions - y) ** 2)))
    base = float(np.sqrt(np.mean((y - y.mean()) ** 2)))
    if not rmse < base:
        raise CheckFailed(f"{name}: RMSE {rmse!r} is not below the mean predictor's {base!r}")
