"""Metric hand cases and invariants."""

import math
import re
import tracemalloc

import numpy as np
import pytest

from vqdiff import metrics
from vqdiff.metrics import (
    MCD_DB_FACTOR,
    PitchTrack,
    load_pitch_track,
    mcd,
    pitch_errors,
    save_pitch_track,
    ssim,
)


def track(voiced, f0):
    return PitchTrack(f0=np.asarray(f0, dtype=float), voiced=np.asarray(voiced, dtype=bool))


def _default_constants(ref, constants):
    if constants is None:
        data_range = float(np.max(ref) - np.min(ref)) or 1.0
        constants = ((0.01 * data_range) ** 2, (0.03 * data_range) ** 2)
    return constants


def _ssim_separable(ref, syn, window, constants=None):
    """``ssim``'s arithmetic in one block over the whole array: inputs centred
    on the reference mean, window sums as running sums over columns, then
    rows. The row-blocked form must equal it bit for bit."""
    a = np.ascontiguousarray(ref, dtype=float)
    b = np.ascontiguousarray(syn, dtype=float)
    c1, c2 = _default_constants(a, constants)
    shift = a.mean()
    x, y = a - shift, b - shift

    def window_means(f):
        cols, rows = f.shape[1] - window + 1, f.shape[0] - window + 1
        across = f[:, :cols].copy()
        for j in range(1, window):
            across += f[:, j : j + cols]
        sums = across[:rows].copy()
        for i in range(1, window):
            sums += across[i : i + rows]
        return sums / (window * window)

    mu_x, mu_y, xx, yy, xy = (window_means(f) for f in (x, y, x * x, y * y, x * y))
    mu_a, mu_b = mu_x + shift, mu_y + shift
    num = (2.0 * mu_a * mu_b + c1) * (2.0 * (xy - mu_x * mu_y) + c2)
    den = (mu_a**2 + mu_b**2 + c1) * ((xx - mu_x**2) + (yy - mu_y**2) + c2)
    return float((num / den).mean())


def _ssim_reference(ref, syn, window, constants=None):
    """``ssim`` in one pass over the whole sliding-window view, as it was
    written before the separable form: one-pass window means, uncentred."""
    a = np.asarray(ref, dtype=float)
    b = np.asarray(syn, dtype=float)
    c1, c2 = _default_constants(a, constants)
    wa = np.lib.stride_tricks.sliding_window_view(a, (window, window))
    wb = np.lib.stride_tricks.sliding_window_view(b, (window, window))
    mu_a = wa.mean(axis=(-2, -1))
    mu_b = wb.mean(axis=(-2, -1))
    var_a = (wa**2).mean(axis=(-2, -1)) - mu_a**2
    var_b = (wb**2).mean(axis=(-2, -1)) - mu_b**2
    cov = (wa * wb).mean(axis=(-2, -1)) - mu_a * mu_b
    num = (2.0 * mu_a * mu_b + c1) * (2.0 * cov + c2)
    den = (mu_a**2 + mu_b**2 + c1) * (var_a + var_b + c2)
    return float((num / den).mean())


def _ssim_brute_force(ref, syn, window, constants=None):
    """Independent SSIM: a plain loop over windows that forms each window's
    mean, variance and covariance from explicit (centred) sums."""
    a = [[float(v) for v in row] for row in ref]
    b = [[float(v) for v in row] for row in syn]
    if constants is None:
        values = [v for row in a for v in row]
        data_range = (max(values) - min(values)) or 1.0
        constants = ((0.01 * data_range) ** 2, (0.03 * data_range) ** 2)
    c1, c2 = constants
    n = window * window
    scores = []
    for i in range(len(a) - window + 1):
        for j in range(len(a[0]) - window + 1):
            xs = [a[i + di][j + dj] for di in range(window) for dj in range(window)]
            ys = [b[i + di][j + dj] for di in range(window) for dj in range(window)]
            mx, my = sum(xs) / n, sum(ys) / n
            vx = sum((x - mx) ** 2 for x in xs) / n
            vy = sum((y - my) ** 2 for y in ys) / n
            cxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / n
            scores.append(
                (2 * mx * my + c1) * (2 * cxy + c2) / ((mx * mx + my * my + c1) * (vx + vy + c2))
            )
    return sum(scores) / len(scores)


def assert_same_ssim(got, ref, syn, window, constants=None):
    """``got`` is the separable form's value bit for bit, and within rounding
    of the one-pass form."""
    assert got == _ssim_separable(ref, syn, window, constants)
    assert abs(got - _ssim_reference(ref, syn, window, constants)) <= 1e-13


def ssim_with(ref, syn, window, constants):
    """``ssim``; with explicit ``constants``, the mean SSIM map that ``ssim``
    computes once it has derived its own."""
    if constants is None:
        return ssim(ref, syn, window=window)
    return metrics._ssim(np.asarray(ref, float), np.asarray(syn, float), window, *constants)


def ssim_pair(shape, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=shape) * 2.0 + 0.5
    return a, a + rng.normal(size=shape)


class TestMcd:
    def test_identical_inputs(self):
        x = np.random.default_rng(0).normal(size=(10, 24))
        assert mcd(x, x) == 0.0

    def test_three_four_five(self):
        ref = np.array([[0.0, 0.0]])
        syn = np.array([[3.0, 4.0]])
        assert mcd(ref, syn) == pytest.approx(5.0, abs=1e-12)

    def test_frame_average(self):
        ref = np.zeros((2, 2))
        syn = np.array([[3.0, 4.0], [0.0, 0.0]])
        assert mcd(ref, syn) == pytest.approx(2.5, abs=1e-12)

    def test_db_scaling_flag(self):
        ref = np.array([[0.0, 0.0]])
        syn = np.array([[3.0, 4.0]])
        assert mcd(ref, syn, scale_db=True) == pytest.approx(5.0 * MCD_DB_FACTOR)
        assert MCD_DB_FACTOR == pytest.approx(10.0 * math.sqrt(2.0) / math.log(10.0))

    def test_symmetric_nonnegative(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(6, 5))
        b = rng.normal(size=(6, 5))
        assert mcd(a, b) == pytest.approx(mcd(b, a))
        assert mcd(a, b) > 0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            mcd(np.zeros((3, 2)), np.zeros((2, 3)))
        with pytest.raises(ValueError, match="2-D"):
            mcd(np.zeros(3), np.zeros(3))


class TestSsim:
    def test_self_similarity(self):
        x = np.random.default_rng(2).normal(size=(12, 9))
        assert ssim(x, x) == pytest.approx(1.0, abs=1e-9)

    def test_one_by_one_window_hand_case(self):
        a = np.full((3, 3), 1.0)
        b = np.full((3, 3), 1.5)
        got = ssim(a, b, window=1)
        # a constant reference gives L = 1, so C1 = 1e-4; the contrast factor cancels
        assert got == pytest.approx(3.0001 / 3.2501, rel=1e-12)

    def test_anticorrelated_patches_negative(self):
        # checkerboard: every even-sided window is standardized (zero
        # mean, unit variance), so the negative covariance drives the sign;
        # L = 2 gives C2 = 0.06^2, and the luminance factor is C1 / C1
        i, j = np.indices((10, 10))
        a = np.where((i + j) % 2 == 0, 1.0, -1.0)
        c2 = 0.06**2
        assert ssim(a, -a, window=2) == pytest.approx((c2 - 2.0) / (c2 + 2.0), rel=1e-12)

    def test_symmetric_with_explicit_constants(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(9, 9))
        b = rng.normal(size=(9, 9))
        assert ssim_with(a, b, 7, (0.1, 0.2)) == pytest.approx(ssim_with(b, a, 7, (0.1, 0.2)))

    def test_bounded(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            a = rng.normal(size=(8, 8))
            b = rng.normal(size=(8, 8))
            assert -1.0 <= ssim(a, b) <= 1.0

    def test_window_validation(self):
        x = np.zeros((4, 6))
        with pytest.raises(ValueError, match="window"):
            ssim(x, x, window=5)
        with pytest.raises(ValueError, match="window"):
            ssim(x, x, window=0)

    def test_constant_reference_uses_unit_range(self):
        x = np.ones((5, 5))
        assert ssim(x, x, window=3) == pytest.approx(1.0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            ssim(np.zeros((4, 4)), np.zeros((5, 4)))


class TestSsimBlocked:
    @pytest.mark.parametrize("shape, window", [
        ((7, 19), 7),    # one output row
        ((23, 5), 5),    # one output column
        ((6, 6), 6),     # one window
        ((13, 9), 1),
        ((13, 9), 9),    # window = min(shape)
        ((40, 32), 7),
        ((300, 32), 7),
        ((64, 41), 12),  # windows past the 8-wide unrolled sums
    ])
    @pytest.mark.parametrize("constants", [None, (0.05, 0.4)])
    def test_equals_unblocked_reference(self, shape, window, constants):
        a, b = ssim_pair(shape, seed=shape[0] * 100 + window)
        assert_same_ssim(ssim_with(a, b, window, constants), a, b, window, constants)

    @pytest.mark.parametrize("shape, window", [((30, 11), 3), ((40, 17), 7), ((10, 4), 1)])
    @pytest.mark.parametrize("block_values, block_rows", [
        (1, None), (7, None), (None, 2), (None, 3), (None, 7),
    ])
    def test_block_edges(self, monkeypatch, shape, window, block_values, block_rows):
        # 1 and 7 window values give one-row blocks; block_rows sets blocks of
        # that many rows, and 3 leaves a one-row last block in each shape
        if block_rows is not None:
            block_values = block_rows * (shape[1] - window + 1) * window * window
        assert block_rows != 3 or (shape[0] - window + 1) % 3 == 1
        monkeypatch.setattr(metrics, "_SSIM_BLOCK_VALUES", block_values)
        a, b = ssim_pair(shape, seed=window)
        for constants in (None, (0.05, 0.4)):
            assert_same_ssim(ssim_with(a, b, window, constants), a, b, window, constants)

    def test_memory_layout_does_not_change_the_value(self):
        a, b = ssim_pair((300, 32), seed=3)
        for fa, fb in [
            (np.asfortranarray(a), np.asfortranarray(b)),
            (a[::-1].copy()[::-1], b[::-1].copy()[::-1]),
            (np.repeat(a, 2, axis=1)[:, ::2], np.repeat(b, 2, axis=1)[:, ::2]),
        ]:
            assert_same_ssim(ssim(fa, fb), a, b, 7)

    @pytest.mark.parametrize("shape", [(6, 5), (7, 7), (9, 6), (12, 10)])
    @pytest.mark.parametrize("window", [1, 2, 3, 5])
    @pytest.mark.parametrize("constants", [None, (0.05, 0.4), (1e-4, 9e-4)])
    def test_matches_brute_force_oracle(self, shape, window, constants):
        a, b = ssim_pair(shape, seed=shape[0] * 10 + window)
        got = ssim_with(a, b, window, constants)
        assert got == pytest.approx(_ssim_brute_force(a, b, window, constants), abs=1e-12)

    @pytest.mark.parametrize("shape, window, seed", [((12, 10), 3, 1), ((16, 16), 5, 2), ((9, 7), 2, 3)])
    @pytest.mark.parametrize("constants", [None, (0.05, 0.4)])
    def test_offset_inputs_do_not_cancel(self, shape, window, seed, constants):
        # unit noise on a 1e6 offset: the uncentred one-pass form
        # (_ssim_reference) was 1.3e-6 to 5.3e-5 away from the oracle here
        rng = np.random.default_rng(seed)
        a = rng.normal(size=shape) + 1e6
        b = a + rng.normal(size=shape)
        got = ssim_with(a, b, window, constants)
        assert got == pytest.approx(_ssim_brute_force(a, b, window, constants), abs=1e-12)

    def test_peak_memory_does_not_grow_with_input(self):
        a, b = ssim_pair((4096, 32), seed=8)
        was_tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            ssim(a, b, window=7)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not was_tracing:
                tracemalloc.stop()
        # the unblocked form peaked at 43.8 MiB here, the blocked one at 3.2 MiB
        assert peak < 8 * 2**20


class TestTinyInputs:
    """Inputs too small to square are scaled up by a power of two, exactly."""

    SCALE = 2.0**-600

    @pytest.mark.parametrize("window", [1, 3, 7])
    def test_ssim_does_not_change(self, recwarn, window):
        a, b = ssim_pair((30, 12), seed=window)
        assert ssim(a * self.SCALE, b * self.SCALE, window) == ssim(a, b, window)
        assert len(recwarn) == 0

    @pytest.mark.parametrize("scale_db", [False, True])
    def test_mcd_scales_back(self, recwarn, scale_db):
        a, b = ssim_pair((30, 12), seed=9)
        assert mcd(a * self.SCALE, b * self.SCALE, scale_db) == self.SCALE * mcd(a, b, scale_db)
        assert len(recwarn) == 0

    def test_constant_reference_keeps_unit_range(self, recwarn):
        # L = 1 does not scale with the inputs, so they are not scaled either
        a = np.full((5, 5), 1e-200)
        b = a + 1e-200 * np.random.default_rng(6).normal(size=a.shape)
        assert ssim(a, b, window=3) == pytest.approx(1.0, abs=1e-12)
        assert len(recwarn) == 0


class TestPowerOfTwoScaling:
    """Inputs scaled by 2^j, out of range either way: MCD scales by 2^j and
    SSIM does not move, exactly."""

    @staticmethod
    def unit_pair(seed):
        # largest magnitude in [0.5, 1), so scaling by 2^j keeps every bit
        a, b = ssim_pair((30, 12), seed=seed)
        e = -math.frexp(max(np.abs(a).max(), np.abs(b).max()))[1]
        return np.ldexp(a, e), np.ldexp(b, e)

    @pytest.mark.parametrize("j", [530, -530, 700, -700])
    @pytest.mark.parametrize("window", [1, 3, 7])
    def test_ssim_does_not_change(self, recwarn, j, window):
        a, b = self.unit_pair(window)
        assert ssim(np.ldexp(a, j), np.ldexp(b, j), window) == ssim(a, b, window)
        assert len(recwarn) == 0

    @pytest.mark.parametrize("j", [530, -530, 700, -700])
    @pytest.mark.parametrize("scale_db", [False, True])
    def test_mcd_scales(self, recwarn, j, scale_db):
        a, b = self.unit_pair(9)
        assert mcd(np.ldexp(a, j), np.ldexp(b, j), scale_db) == math.ldexp(mcd(a, b, scale_db), j)
        assert len(recwarn) == 0

    def test_mcd_above_the_float_maximum_is_refused(self):
        a = np.full((4, 6), 1e308)
        with pytest.raises(ValueError, match="take the MCD out of the float range"):
            mcd(a, -a)

    def test_reference_flattened_by_the_scaling_is_refused(self):
        # syn at 1e300 scales ref at 1e-300 to zeros, so its L is lost: an SSIM
        # with L = 1 would read 0.96, and constants of 0 leave 0/0 windows
        a = np.random.default_rng(7).normal(size=(6, 6)) * 1e-300
        b = np.zeros((6, 6))
        b[0, 0] = 1e300
        with pytest.raises(ValueError, match="take the SSIM out of the float range"):
            ssim(a, b, window=2)

    def test_constant_reference_whose_squares_overflow_is_refused(self):
        # L = 1 does not scale, so the inputs are not scaled and mu^2 overflows
        a = np.full((5, 5), 1e200)
        with pytest.raises(ValueError, match="take the SSIM out of the float range"):
            ssim(a, a * 1.5, window=3)


class TestPitchErrors:
    def test_identical_tracks(self):
        t = track([1, 0, 1], [100.0, 0.0, 220.0])
        assert pitch_errors(t, t) == {"gpe": 0.0, "vde": 0.0, "ffe": 0.0}

    def test_four_frame_hand_case(self):
        ref = track([1, 1, 0, 1], [100.0, 150.0, 0.0, 200.0])
        syn = track([1, 0, 0, 1], [130.0, 0.0, 0.0, 202.0])
        got = pitch_errors(ref, syn)
        assert got["vde"] == 0.25
        assert got["gpe"] == 0.5
        assert got["ffe"] == 0.5

    def test_all_unvoiced(self):
        t = track([0, 0], [0.0, 0.0])
        got = pitch_errors(t, t)
        assert got["gpe"] is None
        assert got["vde"] == 0.0
        assert got["ffe"] == 0.0

    def test_threshold_is_strict(self):
        ref = track([1], [100.0])
        syn = track([1], [120.0])
        assert pitch_errors(ref, syn)["gpe"] == 0.0
        assert pitch_errors(ref, syn, gpe_threshold=0.19)["gpe"] == 1.0

    def test_scale_invariance(self):
        rng = np.random.default_rng(6)
        voiced_r = rng.random(30) < 0.7
        voiced_s = rng.random(30) < 0.7
        f0_r = np.where(voiced_r, rng.uniform(80, 300, 30), 0.0)
        f0_s = np.where(voiced_s, rng.uniform(80, 300, 30), 0.0)
        ref, syn = track(voiced_r, f0_r), track(voiced_s, f0_s)
        scaled = pitch_errors(track(voiced_r, f0_r * 3.7), track(voiced_s, f0_s * 3.7))
        assert pitch_errors(ref, syn) == scaled

    def test_ffe_decomposition(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(1, 40))
            voiced_r = rng.random(n) < 0.6
            voiced_s = rng.random(n) < 0.6
            ref = track(voiced_r, np.where(voiced_r, rng.uniform(60, 400, n), 0.0))
            syn = track(voiced_s, np.where(voiced_s, rng.uniform(60, 400, n), 0.0))
            got = pitch_errors(ref, syn)
            n_both = int(np.count_nonzero(voiced_r & voiced_s))
            if got["gpe"] is None:
                assert n_both == 0
                assert got["ffe"] == got["vde"]
            else:
                expect = got["vde"] + got["gpe"] * n_both / n
                assert got["ffe"] == pytest.approx(expect, abs=1e-12)
            assert got["ffe"] >= got["vde"]

    def test_validation(self):
        with pytest.raises(ValueError, match="f0 > 0"):
            track([1], [0.0])
        with pytest.raises(ValueError, match="length"):
            pitch_errors(track([1], [100.0]), track([1, 1], [100.0, 100.0]))
        with pytest.raises(ValueError, match="threshold"):
            pitch_errors(track([1], [100.0]), track([1], [100.0]), gpe_threshold=0.0)

    @pytest.mark.parametrize("threshold", [math.nan, math.inf, -0.2])
    def test_threshold_must_be_finite_and_positive(self, threshold):
        with pytest.raises(ValueError, match="gpe_threshold"):
            pitch_errors(track([1], [100.0]), track([1], [150.0]), gpe_threshold=threshold)


class TestPitchCsv:
    def test_round_trip(self, tmp_path):
        t = track([1, 0, 1, 1], [110.25, 0.0, 95.5, 330.0])
        path = tmp_path / "pitch.csv"
        save_pitch_track(path, t)
        assert (tmp_path / "pitch.csv").read_text().splitlines()[0] == "frame,f0,voiced"
        back = load_pitch_track(path)
        np.testing.assert_array_equal(back.f0, t.f0)
        np.testing.assert_array_equal(back.voiced, t.voiced)

    def test_rows_sorted_by_frame(self, tmp_path):
        path = tmp_path / "pitch.csv"
        path.write_text("frame,f0,voiced\n2,300,1\n0,100,1\n1,0,0\n")
        back = load_pitch_track(path)
        np.testing.assert_array_equal(back.f0, [100.0, 0.0, 300.0])

    @pytest.mark.parametrize("text, row", [
        ("0,100,1\ninf,120,1\n", 2),                 # infinite frame
        ("0,100,inf\n1,120,1\n", 1),                 # a bad first row is no header
        ("frame,f0,voiced\n0,nan,1\n1,0,0\n", None),  # checked by PitchTrack
        ("frame,f0,voiced\n0,100,1\n1.5,100,1\n", 3),  # fractional frame
        ("frame,f0,voiced\n0,100,2\n", 2),
        ("frame,f0,voiced\n0,100,-1\n", 2),
        ("frame,f0,voiced\n0,100,0.5\n", 2),
        ("frame,f0,voiced\nframe,f0,voiced\n0,100,1\n", 2),  # a second header
    ])
    def test_bad_row_rejected(self, tmp_path, text, row):
        path = tmp_path / "pitch.csv"
        path.write_text(text)
        match = "f0 must be finite" if row is None else f"pitch row {row}"
        with pytest.raises(ValueError, match=match):
            load_pitch_track(path)

    def test_integral_float_frame_and_voiced_accepted(self, tmp_path):
        path = tmp_path / "pitch.csv"
        path.write_text("\n1.0,0,0.0\n0,100,1.0\n")
        back = load_pitch_track(path)
        np.testing.assert_array_equal(back.f0, [100.0, 0.0])
        np.testing.assert_array_equal(back.voiced, [True, False])

    @pytest.mark.parametrize("frames, bad, expected", [
        ([0, 0, 7], 0, 1),   # a repeat
        ([0, 2], 2, 1),      # a gap
        ([1, 2, 3], 1, 0),   # not starting at 0
        ([-1, 0], -1, 0),
        ([2, 0, 1, 1], 1, 2),
    ])
    def test_frames_must_run_from_zero_once_each(self, tmp_path, frames, bad, expected):
        path = tmp_path / "pitch.csv"
        path.write_text("frame,f0,voiced\n" + "".join(f"{f},100,1\n" for f in frames))
        n = len(frames) - 1
        match = f"must be 0..{n} with no repeat or gap: got frame {bad} where frame {expected} belongs"
        with pytest.raises(ValueError, match=re.escape(match)):
            load_pitch_track(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "pitch.csv"
        path.write_text("frame,f0,voiced\n")
        with pytest.raises(ValueError, match="no pitch frames"):
            load_pitch_track(path)
