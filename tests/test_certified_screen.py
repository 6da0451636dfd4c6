"""The certified screens behind divbs's and k-means++'s picks.

select_divbs scores every row in float32, gives each row an interval that
must hold the exact score and its float64 evaluation, and re-scores in
float64 only the rows whose interval reaches the leader's.  Its picks must
therefore equal those of reference_divbs_direct, which scores every row in
float64, at any scale and whatever the BLAS thread count.

select_kmeanspp estimates each row's squared distance to a new pick from
one BLAS product and recomputes directly only the rows whose distance the
bound cannot keep at or above their current d2.  Its picks must therefore
equal those of reference_kmeanspp, which recomputes every row, bit for bit.
"""
import json
import math
import os
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divbs import linalg, selectors
from divbs.linalg import FeatureMatrix
from divbs.selectors import (
    SelectionConfig,
    _DistanceScreen,
    _Float32Screen,
    select_divbs,
    select_kmeanspp,
)

from reference_selectors import reference_divbs_direct, reference_kmeanspp

SRC = Path(__file__).resolve().parents[1] / "src"


def screen_of(X):
    return _Float32Screen(X, np.einsum("ij,ij->i", X, X))


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 40),
    d=st.integers(1, 24),
    rank=st.integers(1, 24),
    duplicates=st.integers(0, 6),
    twins=st.integers(0, 6),
    scale=st.integers(-20, 120),
    budget=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
)
def test_divbs_matches_float64_reference(n, d, rank, duplicates, twins, scale, budget, seed):
    """Random shapes and ranks, exact duplicate rows (ties settled by the
    lowest index) and twins that differ by ~1e-9 relative (too close for
    float32 to order), scaled by up to 2^120, where float32 products of
    unscaled rows overflow."""
    rng = np.random.default_rng(seed)
    rank = min(rank, n, d)
    X = rng.standard_normal((n, rank)) @ rng.standard_normal((rank, d))
    for _ in range(duplicates):
        X[rng.integers(n)] = X[rng.integers(n)]
    for _ in range(twins):
        X[rng.integers(n)] = X[rng.integers(n)] * (1.0 + 2.0**-30 * rng.standard_normal(d))
    fm = FeatureMatrix(X * 2.0**scale)
    cfg = SelectionConfig(budget=min(budget, n), pad_policy="none")
    assert select_divbs(fm, cfg).indices == reference_divbs_direct(fm, cfg)[0]


def test_rows_that_underflow_in_float32_are_picked_exactly():
    """Rows of norm ~1e25 and ~1e-25 in disjoint coordinates.  Once the big
    rows are taken the small ones compete; in float32 they are all zero, so
    the certificate must send every one of them to the float64 re-score."""
    rng = np.random.default_rng(120)
    X = np.zeros((11, 12))
    big = [4, 5, 6]
    small = [0, 1, 2, 3, 7, 8, 9, 10]
    X[big, :6] = 1e25 * rng.standard_normal((3, 6))
    X[small, 6:] = 1e-25 * rng.standard_normal((8, 6))
    assert not screen_of(X).X32[small].any()
    fm = FeatureMatrix(X)
    cfg = SelectionConfig(budget=9, eps=0.0, pad_policy="none")
    result = select_divbs(fm, cfg)
    assert result.indices == reference_divbs_direct(fm, cfg)[0]
    assert sorted(result.indices[:3]) == big
    assert len(set(result.indices[3:]) & set(small)) == 6


def test_every_row_is_a_candidate_when_float32_cannot_bound(monkeypatch):
    """Once d u >= 1 kappa is +inf: every alive row is re-scored in float64.
    Raising u to 1/2 reaches that case at small D."""
    monkeypatch.setattr(selectors, "_U32", 0.5)
    rng = np.random.default_rng(123)
    for _ in range(20):
        n, d = int(rng.integers(2, 30)), int(rng.integers(2, 12))
        fm = FeatureMatrix(rng.standard_normal((n, d)))
        assert np.isinf(screen_of(fm.values).kx_max)
        cfg = SelectionConfig(budget=int(rng.integers(1, n + 1)), pad_policy="none")
        assert select_divbs(fm, cfg).indices == reference_divbs_direct(fm, cfg)[0]


def test_every_row_is_a_candidate_without_runtime_warnings(monkeypatch):
    """With kappa = +inf the window bound is -inf.  Dead rows (score -inf)
    must stay out of it: -inf + inf would warn "invalid value"."""
    monkeypatch.setattr(selectors, "_U32", 0.5)
    rng = np.random.default_rng(124)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for _ in range(20):
            n, d = int(rng.integers(2, 30)), int(rng.integers(2, 12))
            fm = FeatureMatrix(rng.standard_normal((n, d)))
            cfg = SelectionConfig(budget=int(rng.integers(1, n + 1)), pad_policy="none")
            assert select_divbs(fm, cfg).indices == reference_divbs_direct(fm, cfg)[0]
            screen = screen_of(fm.values)
            screen.retire(np.arange(0, n, 2))
            assert screen.best(rng.standard_normal(d))[0] % 2 == 1


def test_rejected_duplicate_never_leads_again():
    """Row 1 duplicates row 0 exactly.  Once row 0 is picked, row 1 leads
    with the same float32 score, OrthonormalBasis.extend rejects it, and the
    kernel retires it.  From then on the screen must never return it, even
    for running vectors under which its float32 score is the largest."""
    rng = np.random.default_rng(127)
    X = rng.standard_normal((30, 8))
    X[1] = X[0]
    screen = screen_of(X)
    basis = linalg.OrthonormalBasis(8)
    running = X[0] + 0.01 * rng.standard_normal(8)
    assert screen.best(running)[0] == 0
    assert basis.extend(X[0]) is not None
    screen.retire(0)
    assert screen.best(running)[0] == 1
    assert basis.extend(X[1]) is None
    screen.retire(1)
    for _ in range(20):
        s = screen.scores(running)[0]
        assert s[1] == s.max()
        assert screen.best(running)[0] not in (0, 1)
        running = X[0] + 0.01 * rng.standard_normal(8)


def test_kernel_retires_rejected_duplicates(monkeypatch):
    """Rows 1-3 are exact duplicates of the first pick, +-(B, B), and row 4 is
    tiny.  After the first pick the duplicates' float64 scores are rounding
    noise, still far above row 4's, so each leads once and
    OrthonormalBasis.extend rejects it; a duplicate the screen returned twice
    would stall the kernel."""
    B, tiny = 1e12, 1e-6
    X = np.array([[B, B], [B, B], [-B, -B], [-B, -B], [0.0, tiny]])
    leaders, rejected = [], []
    extend, best = linalg.OrthonormalBasis.extend, selectors._Float32Screen.best

    def recording_extend(basis, v):
        e = extend(basis, v)
        if e is None:
            rejected.append(leaders[-1])
        return e

    def recording_best(screen, running):
        assert len(leaders) < 10, "the screen keeps returning rejected rows"
        exact = np.abs((X * running).sum(axis=1))
        assert all(exact[k] == exact.max() for k in rejected)
        lead, score = best(screen, running)
        leaders.append(lead)
        return lead, score

    monkeypatch.setattr(linalg.OrthonormalBasis, "extend", recording_extend)
    monkeypatch.setattr(selectors._Float32Screen, "best", recording_best)
    fm = FeatureMatrix(X)
    cfg = SelectionConfig(budget=2, pad_policy="none")
    assert select_divbs(fm, cfg).indices == reference_divbs_direct(fm, cfg)[0] == [0, 4]
    assert leaders == [0, 1, 2, 3, 4]
    assert rejected == [1, 2, 3]


def test_screen_with_every_row_dead_returns_none():
    """With every row retired best returns (None, None); a live row whose
    score is 0 (running = 0) still leads."""
    rng = np.random.default_rng(125)
    X = rng.standard_normal((7, 5))
    screen = screen_of(X)
    screen.retire(np.arange(6))
    assert screen.best(rng.standard_normal(5))[0] == 6
    screen.retire(6)
    assert screen.best(rng.standard_normal(5)) == (None, None)
    assert screen_of(X).best(np.zeros(5))[0] is not None


def test_reused_screen_matches_fresh_screens():
    """One screen's reused buffers carry nothing from one call to the next:
    best on a screen that has answered other running vectors before equals
    best on a fresh screen with the same dead rows, bit for bit."""
    rng = np.random.default_rng(126)
    for scale in (1.0, 2.0**-60, 2.0**90):
        X = scale * rng.standard_normal((60, 9))
        X[7] = X[3]  # a tie, settled by the lowest index
        reused = screen_of(X)
        dead = []
        for step in range(40):
            running = rng.standard_normal(9) * 2.0 ** int(rng.integers(-30, 30))
            fresh = screen_of(X)
            fresh.retire(np.asarray(dead, dtype=int))
            got, want = reused.best(running), fresh.best(running)
            assert got[0] == want[0] and float(got[1]).hex() == float(want[1]).hex()
            if step % 3 == 0:
                reused.retire(got[0])
                dead.append(got[0])


def cancellation_rows(scale):
    """Rows nearly orthogonal to running: |x . running| ~ 1e-7 ||x|| ||running||."""
    rng = np.random.default_rng(121)
    running = rng.standard_normal(64)
    unit = running / np.linalg.norm(running)
    Y = rng.standard_normal((100, 64))
    X = Y - np.outer(Y @ unit, unit) + 1e-7 * np.outer(rng.standard_normal(100), unit)
    return X * scale, running * scale


def rounding_rows():
    """D = 1 rows and a running value that sit just above a float32 rounding
    midpoint, so both round up by almost u and the product rounds up too:
    the error reaches 99.8 % of the bound for row 0."""
    def above_midpoint(k):
        return 1.0 + k * 2.0**-23 + 2.0**-24 * (1.0 - 2.0**-20)

    X = np.array([[above_midpoint(k)] for k in (2522, 0, 1, 77, 4095, 2**22)])
    return X, np.array([above_midpoint(4981)])


def opposed_rows():
    """Two D = 2 rows, one per coordinate, whose float32 errors push in
    opposite directions.  Row 0's entry and running[0] sit just above a
    float32 rounding midpoint, and so does the product of their float32
    values (2113 * 1985 = 2^22 + 1 in the last places): its score rounds up
    three times.  Row 1's entry, running[1] and product (2045 * 2051 =
    2^22 - 9) sit just below one and round down three times.  Zeros make
    the float32 score a single rounded product, whatever the BLAS."""
    ulp, off = 2.0**-23, 2.0**-24 * (1.0 - 2.0**-20)
    X = np.array([[1.0 + 2113 * ulp - off, 0.0], [0.0, 1.0 + 2045 * ulp + off]])
    return X, np.array([1.0 + 1985 * ulp - off, 1.0 + 2051 * ulp + off])


def underflow_rows():
    """Two rows whose float32 entries and products are subnormal, beside a
    unit row that scores 0 and keeps sx = 1.  Row 0's entry rounds up and
    row 1's rounds down, both to 513 subnormal units; the products with
    r32 then round to 257 and 256 units.  So float32 puts row 0 first by
    one unit, ~1e4 times both rows' relative bounds kx_i nrs, although
    row 1 wins exactly: only the underflow term a32 covers it."""
    unit = 2.0**-149  # the smallest float32 subnormal
    X = np.array(
        [
            [(512.5 + 2.0**-10) * unit, 0.0, 0.0],
            [0.0, (513.5 - 2.0**-10) * unit, 0.0],
            [0.0, 0.0, 1.0],
        ]
    )
    return X, np.array([256.6 / 256.5, 256.4 / 256.5, 0.0])


@pytest.mark.parametrize(
    "X,running",
    [
        cancellation_rows(1.0),
        cancellation_rows(2.0**100),
        rounding_rows(),
        opposed_rows(),
        underflow_rows(),
    ],
    ids=["cancellation", "cancellation-2^100", "rounding", "opposed", "underflow"],
)
def test_screen_bound_encloses_scores(X, running):
    """|s_i - scale |x_i . running|| <= bound_i, for the exact score (rational
    arithmetic) and for its float64 evaluation."""
    screen = screen_of(X)
    s, nrs, a, scale = screen.scores(running)
    bound = screen.kx * nrs + a
    exact = [abs(sum(Fraction(x) * Fraction(r) for x, r in zip(row, running))) for row in X]
    for si, e, b in zip(s, exact, bound):
        assert abs(Fraction(float(si)) - Fraction(scale) * e) <= Fraction(b)
    evaluated = np.abs((X * running).sum(axis=1))
    assert np.all(np.abs(s - scale * evaluated) <= bound)


def test_best_rescores_a_winner_that_float32_puts_below_the_leader():
    """Row 1 wins exactly, yet its float32 score trails row 0's by more than
    row 1's own bound: only with the leader's bound kx_lead nrs in the
    window's floor is row 1 re-scored and picked."""
    X, running = opposed_rows()
    screen = screen_of(X)
    s, nrs, a, _ = screen.scores(running)
    assert float(s[0]) - float(s[1]) > screen.kx[1] * nrs + 2.0 * a
    exact = [abs(sum(Fraction(x) * Fraction(r) for x, r in zip(row, running))) for row in X]
    assert exact[1] > exact[0]
    assert screen.best(running) == (1, float(abs(X[1] @ running)))


def test_best_rescores_a_winner_whose_float32_score_underflows():
    """On a platform that flushes float32 subnormals to zero the two rows
    tie in float32 instead, and only the pick is checked."""
    X, running = underflow_rows()
    exact = [abs(sum(Fraction(x) * Fraction(r) for x, r in zip(row, running))) for row in X]
    assert max(range(3), key=exact.__getitem__) == 1
    assert screen_of(X).best(running) == (1, float(abs(X[1] @ running)))


_PICKS = """
import json
import numpy as np
from divbs.linalg import FeatureMatrix
from divbs.selectors import SelectionConfig, select_divbs, select_kmeanspp
rng = np.random.default_rng(122)
out = []
for n, d, budget in [(1470, 404, 147), (600, 300, 200)]:
    fm, cfg = FeatureMatrix(rng.standard_normal((n, d))), SelectionConfig(budget=budget)
    r = select_divbs(fm, cfg)
    out.append([r.indices, [s.hex() for s in r.step_scores], select_kmeanspp(fm, cfg).indices])
print(json.dumps(out))
"""


def test_picks_independent_of_blas_threads():
    """Divbs indices and step scores, and k-means++ indices, are bitwise equal
    with one BLAS thread and with the default thread count."""
    thread_vars = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
    env = {k: v for k, v in os.environ.items() if k not in thread_vars}
    env["PYTHONPATH"] = str(SRC)

    def picks(extra):
        proc = subprocess.run(
            [sys.executable, "-c", _PICKS],
            env={**env, **extra},
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        return json.loads(proc.stdout)

    assert picks({"OPENBLAS_NUM_THREADS": "1"}) == picks({})


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(2, 40),
    d=st.integers(1, 24),
    integer=st.booleans(),
    offset=st.sampled_from([0.0, 1e3]),
    factor=st.sampled_from([1e-6, 1e-3, 1.0, 1e3, 1e6]),
    exponent=st.integers(-560, 505),
    duplicates=st.integers(0, 8),
    budget=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
)
def test_kmeanspp_matches_reference(
    n, d, integer, offset, factor, exponent, duplicates, budget, seed
):
    """Gaussian or small-integer rows (exact distance ties), offset by +1e3
    (||x||^2 - 2 x . c + ||c||^2 cancels) or not, with duplicated rows,
    scaled so that the largest entry is 2^exponent: from 2^-560, where
    every square underflows, to 2^505, where the distance sum nears 2^1022."""
    rng = np.random.default_rng(seed)
    X = rng.integers(-2, 3, (n, d)).astype(float) if integer else rng.standard_normal((n, d))
    X = (X + offset) * factor
    for _ in range(duplicates):
        X[rng.integers(n)] = X[rng.integers(n)]
    top = float(np.abs(X).max())
    if top > 0.0:
        X *= 2.0 ** (exponent - math.frexp(top)[1])  # exact: a power of two
    fm = FeatureMatrix(X)
    cfg = SelectionConfig(budget=min(budget, n), pad_policy="none", seed=seed % 1000)
    assert select_kmeanspp(fm, cfg).indices == reference_kmeanspp(fm, cfg)


def _exact_distances(X, c):
    return [sum((Fraction(a) - Fraction(b)) ** 2 for a, b in zip(row, c)) for row in X]


@pytest.mark.parametrize(
    "scale,offset",
    [(1.0, 0.0), (1.0, 1e3), (2.0**-560, 0.0), (2.0**-530, 1.0), (2.0**480, 0.0), (1e-6, 1e3)],
    ids=["plain", "offset", "underflow", "subnormal", "2^480", "tiny-offset"],
)
def test_distance_screen_recomputes_every_row_that_can_move(scale, offset):
    """Against exact rational distances T_i = ||x_i - c||^2: every row whose
    T_i or whose direct float distance fl(sum((x_i - c)^2)) lies below its d2
    must be recomputed.  Each d2_i is set within a few ulp, or a few parts
    in 1e13, of T_i on either side, where rounding decides the comparison."""
    rng = np.random.default_rng(128)
    for trial in range(12):
        n, d = 60, int(rng.integers(1, 40))
        X = (rng.standard_normal((n, d)) + offset) * scale
        X[3] = X[4]  # a row at distance 0 from the pick
        idx = 4
        screen = _DistanceScreen(X)
        exact = _exact_distances(X, X[idx])
        direct = np.sum((X - X[idx]) ** 2, axis=1)
        d2 = np.array([float(t) for t in exact])
        for i, k in enumerate(rng.integers(-3, 4, n)):
            for _ in range(abs(int(k))):
                d2[i] = np.nextafter(d2[i], math.copysign(math.inf, k))
        d2[::3] *= 1.0 + rng.integers(-5, 6, n)[::3] * 1e-13
        d2 = np.maximum(d2, 0.0)
        rows = set(screen.uncertified(d2, idx).tolist())
        for i in range(n):
            if exact[i] < Fraction(d2[i]) or direct[i] < d2[i]:
                assert i in rows, (trial, i)
    # a NaN fails the test, so it certifies nothing
    assert screen.uncertified(np.full(n, np.nan), idx).size == n


def test_kmeanspp_recomputes_every_row_when_the_bound_is_not_small(monkeypatch):
    """With (d + 4) u >= 0.1 the screen certifies nothing: every row gets the
    direct distance.  Raising u to 0.05 reaches that case at any D."""
    monkeypatch.setattr(selectors, "_U64", 0.05)
    rng = np.random.default_rng(129)
    for _ in range(20):
        n, d = int(rng.integers(2, 30)), int(rng.integers(1, 12))
        fm = FeatureMatrix(rng.standard_normal((n, d)))
        screen = _DistanceScreen(fm.values)
        assert screen.uncertified(np.zeros(n), 0).tolist() == list(range(n))
        cfg = SelectionConfig(budget=int(rng.integers(1, n + 1)), pad_policy="none", seed=3)
        assert select_kmeanspp(fm, cfg).indices == reference_kmeanspp(fm, cfg)


def assert_moving_rows_uncertified(screen, X, idx, d2):
    """Every row whose exact distance T_i or direct float distance to row idx
    lies below its d2_i is among screen.uncertified(d2, idx)."""
    rows = set(screen.uncertified(d2, idx).tolist())
    exact = _exact_distances(X, X[idx])
    direct = np.sum((X - X[idx]) ** 2, axis=1)
    for i in range(len(X)):
        if exact[i] < Fraction(d2[i]) or direct[i] < d2[i]:
            assert i in rows, i
    return rows


def rounded_down_rows():
    """Two D = 1 rows whose entries and float32 product sit just below a
    float32 rounding midpoint (2045 * 2051 = 2^22 - 9 in the last places), so
    the product rounds down three times and est_0 exceeds the exact
    ||x_0 - x_1||^2 by 99.97 % of the float32 product term kappa32 S_0."""
    ulp, off = 2.0**-23, 2.0**-24 * (1.0 - 2.0**-20)
    return np.array([[1.0 + 2045 * ulp + off], [1.0 + 2051 * ulp + off]])


def test_distance_screen_bound_is_nearly_reached():
    """The float32 error of row 0's estimate nearly reaches kappa32 S_0, so a
    d2_0 anywhere between the exact distance and the estimate must be
    recomputed: a bound any smaller would certify some of them."""
    X = rounded_down_rows()
    screen = _DistanceScreen(X)
    screen.uncertified(np.zeros(2), 1)
    exact = _exact_distances(X, X[1])[0]
    kappa32 = selectors._float32_error(1)[0]
    excess = Fraction(float(screen.est[0])) - exact
    assert excess >= Fraction(0.999 * kappa32) * (Fraction(X[0, 0]) ** 2 + Fraction(X[1, 0]) ** 2)
    for t in np.linspace(0.0, 1.0, 41):
        d2 = np.array([float(exact + Fraction(t) * excess), 0.0])
        assert 0 in assert_moving_rows_uncertified(screen, X, 1, d2), t


def tiny_rows():
    """A unit row, which keeps sx = 1, beside rows 1 and 2 of norm ~2^-80,
    whose float32 product 1.5 * 2^-160 underflows to 0.  So est_1 =
    n2_1 + n2_2 = 3.25 * 2^-160, 13 times the exact distance 0.25 * 2^-160,
    and only the underflow term a covers the difference."""
    return np.array([[1.0, 0.0], [0.0, 1.5 * 2.0**-80], [0.0, 2.0**-80]])


def test_distance_screen_covers_float32_products_that_underflow():
    X = tiny_rows()
    screen = _DistanceScreen(X)
    screen.uncertified(np.zeros(3), 2)
    assert screen.p[1] == 0.0 and screen.est[1] == 3.25 * 2.0**-160
    for t in (0.3, 1.0, 2.0, 3.0):
        d2 = np.array([2.0, t * 2.0**-160, 0.0])
        assert 1 in assert_moving_rows_uncertified(screen, X, 2, d2), t


def test_distance_screen_certifies_nothing_when_float32_cannot_bound(monkeypatch):
    """With the float32 kappa at 0.1 or more the screen certifies nothing:
    every row gets the direct distance.  Raising u32 to 0.05 reaches that
    case at any D, while the float64 bound stays small."""
    monkeypatch.setattr(selectors, "_U32", 0.05)
    rng = np.random.default_rng(130)
    for _ in range(20):
        n, d = int(rng.integers(2, 30)), int(rng.integers(1, 12))
        fm = FeatureMatrix(rng.standard_normal((n, d)))
        assert selectors._float32_error(d)[0] >= 0.1
        screen = _DistanceScreen(fm.values)
        assert screen.uncertified(np.zeros(n), 0).tolist() == list(range(n))
        cfg = SelectionConfig(budget=int(rng.integers(1, n + 1)), pad_policy="none", seed=5)
        assert select_kmeanspp(fm, cfg).indices == reference_kmeanspp(fm, cfg)


def flush32(values):
    """values as float32, with every subnormal flushed to zero."""
    values = np.asarray(values, np.float32)
    return np.where(np.abs(values) < np.float32(selectors._TINY32), np.float32(0.0), values)


class FlushingRows(np.ndarray):
    """A float32 matrix whose np.dot with a vector behaves as on a platform
    that flushes float32 subnormals to zero: every subnormal vector entry,
    product and partial sum is read or stored as zero (entries of the matrix
    itself are flushed when it is made)."""

    def __array_function__(self, func, types, args, kwargs):
        if func is not np.dot:
            return super().__array_function__(func, types, args, kwargs)
        rows, vec, out = np.asarray(args[0]), flush32(args[1]), kwargs["out"]
        for i, row in enumerate(rows):
            total = np.float32(0.0)
            for x, r in zip(row, vec):
                total = flush32(total + flush32(x * r))[()]
            out[i] = total
        return out


def flushing_screen(X):
    """screen_of(X), with X32 cast and multiplied as a flush-to-zero platform would."""
    screen = screen_of(X)
    screen.X32 = flush32(screen.X32).view(FlushingRows)
    return screen


def flushing_distance_screen(X):
    """_DistanceScreen(X), with X32 cast and multiplied as a flush-to-zero
    platform would."""
    screen = _DistanceScreen(X)
    screen.X32 = flush32(screen.X32).view(FlushingRows)
    return screen


def test_flushed_float32_distances_still_recompute_every_row_that_can_move():
    """Rows 1 and 2 of norm ~2^-65 beside a unit row (sx = 1): their float32
    product 1.5 * 2^-130 is subnormal, so a platform that flushes it
    computes est_1 = n2_1 + n2_2, 13 times the exact distance.  Then
    random rows at scales down to 2^-75, whose float32 entries, products
    and partial sums are flushed.  Every d2 between the exact distance and
    the estimate must be recomputed; only the underflow term a covers it."""
    X = np.array([[1.0, 0.0], [0.0, 1.5 * 2.0**-65], [0.0, 2.0**-65]])
    screen = flushing_distance_screen(X)
    screen.uncertified(np.zeros(3), 2)
    assert screen.p[1] == 0.0 and screen.est[1] == 3.25 * 2.0**-130
    for t in (0.3, 1.0, 2.0, 3.0):
        d2 = np.array([2.0, t * 2.0**-130, 0.0])
        assert 1 in assert_moving_rows_uncertified(screen, X, 2, d2), t
    rng = np.random.default_rng(134)
    for trial in range(8):
        n, d = 16, int(rng.integers(1, 7))
        X = rng.standard_normal((n, d)) * 2.0 ** rng.integers(-75, -55, (n, 1)).astype(float)
        X[0] = np.eye(1, d)[0]
        X[3] = X[4]
        idx = int(rng.integers(1, n))
        screen = flushing_distance_screen(X)
        exact = np.array([float(t) for t in _exact_distances(X, X[idx])])
        for factor in (1.0 - 2.0**-20, 1.0, 1.5, 4.0):
            assert_moving_rows_uncertified(screen, X, idx, exact * factor)


def flushed_f64_scores(rows, running):
    """_f64_scores as a platform that flushes float64 subnormals to zero would
    evaluate it: every subnormal product and partial sum becomes zero."""
    out = []
    for row in rows:
        total = 0.0
        for x, r in zip(row.tolist(), running.tolist()):
            product = x * r
            total += product if abs(product) >= selectors._TINY64 else 0.0
            total = total if abs(total) >= selectors._TINY64 else 0.0
        out.append(abs(total))
    return np.array(out)


def exact_scores(X, running):
    return [abs(sum(Fraction(x) * Fraction(r) for x, r in zip(row, running))) for row in X]


def test_flushed_float32_scores_still_rescore_the_exact_winner():
    """With float32 flush-to-zero, row 1 keeps only its normal product
    (1.2 tiny32) and loses its flushed entry's -0.594 tiny32; row 2 loses both
    of its terms and scores 0.  So float32 puts row 1 first by 1.2 tiny32,
    ~1e6 times both rows' relative bounds kx_i nrs, although row 2 wins
    exactly: only the underflow term a32 covers the flushes."""
    tiny = selectors._TINY32
    X = np.array(
        [[0.0, 0.0, 1.0], [2.0 * tiny, -0.99 * tiny, 0.0], [0.99 * tiny / 0.6, 0.99 * tiny, 0.0]]
    )
    running = np.array([0.6, 0.6, 0.0])
    screen = flushing_screen(X)
    s, nrs, a, scale = screen.scores(running)
    assert scale == 1.0 and s[2] == 0.0 < s[1]
    assert float(s[1]) - float(s[2]) > 1e6 * (screen.kx[1] + screen.kx[2]) * nrs
    exact = exact_scores(X, running)
    assert max(range(3), key=exact.__getitem__) == 2
    assert screen.best(running) == (2, float(abs(X[2] @ running)))


def test_flushed_float64_rescore_is_enclosed_and_picked(monkeypatch):
    """Rows ~2^-522 against a running sum ~2^-500, scaled up by sx sr =
    2^999, so their float32 scores are exact to ~2^-24.  Row 1's two products
    lie just below tiny64, row 2's one product just above: exactly row 1 leads
    by a factor of ~2, but a float64 re-score that flushes subnormals gives
    row 1 zero.  The pick is the row with the largest float64 score as
    evaluated, so row 2 must be re-scored; the float32 gap is ~230 times both
    rows' kx_i nrs, and only the float64 underflow term a64 covers it."""
    monkeypatch.setattr(selectors, "_f64_scores", flushed_f64_scores)
    low, high = (1.0 - 2.0**-8) * 2.0**-522, (1.0 + 2.0**-8) * 2.0**-522
    X = np.array([[2.0**-500, 0.0, 0.0], [0.0, low, low], [0.0, high, 0.0]])
    running = np.array([0.0, 2.0**-500, 2.0**-500])
    screen = screen_of(X)
    s, nrs, a, scale = screen.scores(running)
    assert scale == 2.0**999
    exact = exact_scores(X, running)
    assert exact[1] > exact[2] > 0 and float(s[1]) > float(s[2])
    assert float(s[1]) - float(s[2]) > 200 * (screen.kx[1] + screen.kx[2]) * nrs
    evaluated = flushed_f64_scores(X, running)
    assert evaluated[1] == 0.0 < evaluated[2]
    assert np.all(np.abs(s - scale * evaluated) <= screen.kx * nrs + a)
    assert screen.best(running) == (2, evaluated[2])


def edge_scores(screen, running, low, high):
    """Scores that the interval of screen.scores allows at its edges: row
    `high` at the top of its interval, row `low` at the bottom, every other
    row as computed.  Each edge is rounded to float32 inward."""
    s, nrs, a, scale = screen.scores(running)
    s = s.copy()
    bound = [Fraction(b) for b in screen.kx * nrs + a]
    exact = [Fraction(scale) * e for e in exact_scores(screen.X, running)]
    for row, sign in ((high, 1), (low, -1)):
        edge = exact[row] + sign * bound[row]
        value = np.float32(edge)
        while sign * (Fraction(float(value)) - edge) > 0:
            value = np.nextafter(value, np.float32(-sign * np.inf))
        s[row] = value
    return s, nrs, a, scale


def test_best_keeps_a_winner_at_the_far_edge_of_both_intervals():
    """best may trust no more than scores promises: s_i within kx_i nrs + a
    of the scaled float64 score.  Rows 0 and 1 are ~2^-110, beside a unit row
    that scores 0, so a (~15 tiny32) dominates their bounds.  Row 1 wins by
    2^-20 relative, yet with row 0's score at the top of its interval and
    row 1's at the bottom, row 0 leads by almost both bounds: the window's
    floor must take a once for each of the two rows."""
    t = 2.0**-110
    X = np.array([[t, 0.0, 0.0], [0.0, t * (1.0 + 2.0**-20), 0.0], [0.0, 0.0, 1.0]])
    running = np.array([0.6, 0.6, 0.0])
    screen = screen_of(X)
    s, nrs, a, scale = edge_scores(screen, running, low=1, high=0)
    assert float(s[0]) - float(s[1]) > (screen.kx[0] + screen.kx[1]) * nrs + a
    screen.scores = lambda running: (s.copy(), nrs, a, scale)
    assert screen.best(running) == (1, float(abs(X[1] @ running)))
