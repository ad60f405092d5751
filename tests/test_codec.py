"""Quantizer behaviour: nearest-code selection, residual chains, grouped
splits, Lloyd fitting, and file round trips."""

import json
import math
import warnings

import numpy as np
import pytest

from vqdiff.codec import (
    CodecModel,
    FitConfig,
    _kmeanspp_init,
    _lloyd_step,
    _nearest,
    dequantize,
    fit_codebooks,
    load_codec,
    load_features,
    quantize,
    reconstruction_report,
    save_codec,
    save_features,
)
from vqdiff.errors import FittingError
from vqdiff.tokens import TokenGrid


# The straightforward implementations the fast path replaced.  The fast
# path must reproduce them bit for bit: same labels, centroids, inertia
# and generator draws.


def nearest_reference(X, book, chunk=4096):
    out = np.empty(len(X), dtype=np.int64)
    c2 = (book**2).sum(axis=1)
    for lo in range(0, len(X), chunk):
        block = X[lo : lo + chunk]
        d2 = (block**2).sum(axis=1)[:, None] - 2.0 * block @ book.T + c2[None, :]
        out[lo : lo + chunk] = np.argmin(d2, axis=1)
    return out


def lloyd_step_reference(X, centroids):
    labels = nearest_reference(X, centroids)
    point_d2 = ((X - centroids[labels]) ** 2).sum(axis=1)
    k = len(centroids)
    new = np.zeros_like(centroids)
    counts = np.bincount(labels, minlength=k)
    np.add.at(new, labels, X)
    nonempty = counts > 0
    new[nonempty] /= counts[nonempty][:, None]
    empty = np.nonzero(~nonempty)[0]
    if empty.size:
        order = np.argsort(-point_d2, kind="stable")
        new[empty] = X[order[: empty.size]]
    return new, float(point_d2.sum())


def kmeanspp_reference(X, k, rng):
    n = len(X)
    centroids = np.empty((k, X.shape[1]))
    centroids[0] = X[rng.integers(n)]
    d2 = ((X - centroids[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        centroids[j] = X[rng.choice(n, p=d2 / d2.sum())]
        d2 = np.minimum(d2, ((X - centroids[j]) ** 2).sum(axis=1))
    return centroids


def near_tie_frames(book, n, rng):
    """Midpoints between codes and their nearest neighbours: exact ties in
    real arithmetic, so the label follows the rounding of the distance
    expansion, which changes with its operation order."""
    gaps = ((book[:, None, :] - book[None, :, :]) ** 2).sum(axis=2)
    np.fill_diagonal(gaps, np.inf)
    i = rng.integers(len(book), size=n)
    return 0.5 * (book[i] + book[gaps.argmin(axis=1)[i]])


class FixedDraws(np.random.Generator):
    """A generator whose ``integers`` returns 0 and whose ``random`` returns
    preset values; ``choice`` draws through ``random`` as well."""

    def __init__(self, uniforms):
        super().__init__(np.random.PCG64(0))
        self.uniforms = list(uniforms)

    def integers(self, *args, **kwargs):
        return 0

    def random(self, size=None, dtype=np.float64, out=None):
        u = self.uniforms.pop(0)
        return u if size is None else np.full(size, u)


def vq_model(codes):
    book = np.asarray(codes, dtype=float)
    return CodecModel(kind="VQ", G=1, R=1, Kp=len(book), codebooks=[book])


def decaying_model(kind, G, R, Kp, d, seed=0, scale=0.05):
    """Random codebooks whose residual levels shrink geometrically, so a
    greedy chain provably recovers any sum of one code per book."""
    rng = np.random.default_rng(seed)
    dp = d // G
    books = [
        rng.normal(size=(Kp, dp)) * scale ** (b // G)
        for b in range(G * R)
    ]
    return CodecModel(kind=kind, G=G, R=R, Kp=Kp, codebooks=books)


class TestQuantizeHandCases:
    def test_nearest_code(self):
        model = vq_model([[0.0, 0.0], [1.0, 1.0]])
        grid, recon = quantize([[0.2, 0.1], [0.9, 0.8]], model)
        assert grid.data.tolist() == [[0, 1]]
        np.testing.assert_array_equal(recon, [[0.0, 0.0], [1.0, 1.0]])

    def test_tie_goes_to_lowest_index(self):
        model = vq_model([[0.0, 0.0], [1.0, 1.0]])
        grid, _ = quantize([[0.5, 0.5]], model)
        assert grid.data[0, 0] == 0

    def test_exact_hit_zero_error(self):
        codes = [[2.0, -1.0], [0.0, 3.0], [5.0, 5.0]]
        model = vq_model(codes)
        grid, recon = quantize(codes, model)
        assert grid.data.tolist() == [[0, 1, 2]]
        np.testing.assert_array_equal(recon, codes)

    def test_rvq_residual_chain(self):
        model = CodecModel(
            kind="RVQ", G=1, R=2, Kp=2,
            codebooks=[np.array([[0.0], [10.0]]), np.array([[-1.0], [1.0]])],
        )
        grid, recon = quantize([[10.6]], model)
        assert grid.data.tolist() == [[1], [1]]
        np.testing.assert_array_equal(recon, [[11.0]])

    def test_gvq_groups_are_contiguous_splits(self):
        model = CodecModel(
            kind="GVQ", G=2, R=1, Kp=2,
            codebooks=[np.array([[0.0], [1.0]]), np.array([[5.0], [9.0]])],
        )
        grid, recon = quantize([[0.9, 5.2]], model)
        assert grid.data.tolist() == [[1], [0]]
        np.testing.assert_array_equal(recon, [[1.0, 5.0]])

    def test_grvq_books_are_level_major(self):
        # book index r*G + g: truncating to depth 2 must keep the coarse
        # level of BOTH groups, not both levels of group 0.
        coarse = 10.0 * np.eye(1)
        model = CodecModel(
            kind="GRVQ", G=2, R=2, Kp=2,
            codebooks=[
                np.array([[0.0], [10.0]]),   # level 0, group 0
                np.array([[0.0], [20.0]]),   # level 0, group 1
                np.array([[-1.0], [1.0]]),   # level 1, group 0
                np.array([[-2.0], [2.0]]),   # level 1, group 1
            ],
        )
        grid, recon = quantize([[10.6, 18.5]], model, active_books=2)
        assert grid.data.tolist() == [[1], [1]]
        np.testing.assert_array_equal(recon, [[10.0, 20.0]])
        full_grid, full_recon = quantize([[10.6, 18.5]], model)
        assert full_grid.data.tolist() == [[1], [1], [1], [0]]
        np.testing.assert_array_equal(full_recon, [[11.0, 18.0]])


class TestQuantizeContracts:
    def test_partial_depth_rejected_for_flat_kinds(self):
        gvq = CodecModel(
            kind="GVQ", G=2, R=1, Kp=2,
            codebooks=[np.zeros((2, 1)), np.zeros((2, 1))],
        )
        with pytest.raises(ValueError, match="partial depth"):
            quantize([[0.0, 0.0]], gvq, active_books=1)

    def test_active_books_range(self):
        model = decaying_model("RVQ", 1, 3, 4, 2)
        with pytest.raises(ValueError, match="active_books"):
            quantize(np.zeros((1, 2)), model, active_books=4)
        with pytest.raises(ValueError, match="active_books"):
            quantize(np.zeros((1, 2)), model, active_books=0)

    def test_dim_mismatch(self):
        model = vq_model([[0.0, 0.0], [1.0, 1.0]])
        with pytest.raises(ValueError, match="dim"):
            quantize([[1.0, 2.0, 3.0]], model)

    def test_dequantize_rejects_mask(self):
        model = vq_model([[0.0], [1.0]])
        grid = TokenGrid(data=np.array([[2]]), K=2)  # 2 == mask id
        with pytest.raises(ValueError, match="mask"):
            dequantize(grid, model)

    def test_dequantize_rejects_k_mismatch(self):
        model = vq_model([[0.0], [1.0]])
        grid = TokenGrid(data=np.array([[0]]), K=3)
        with pytest.raises(ValueError, match="K"):
            dequantize(grid, model)

    def test_dequantize_partial_grid(self):
        model = decaying_model("RVQ", 1, 3, 4, 2, seed=5)
        X = np.random.default_rng(1).normal(size=(6, 2))
        grid, recon = quantize(X, model, active_books=2)
        assert grid.N_q == 2
        np.testing.assert_array_equal(dequantize(grid, model), recon)


class TestRoundTrips:
    @pytest.mark.parametrize(
        "kind,G,R", [("VQ", 1, 1), ("RVQ", 1, 3), ("GVQ", 2, 1), ("GRVQ", 2, 2)]
    )
    def test_dequantize_matches_reconstruction(self, kind, G, R):
        model = decaying_model(kind, G, R, 5, 4, seed=9)
        X = np.random.default_rng(2).normal(size=(20, 4))
        grid, recon = quantize(X, model)
        np.testing.assert_array_equal(dequantize(grid, model), recon)

    @pytest.mark.parametrize(
        "kind,G,R", [("VQ", 1, 1), ("RVQ", 1, 4), ("GVQ", 2, 1), ("GRVQ", 2, 2)]
    )
    def test_codebook_points_encode_exactly(self, kind, G, R):
        model = decaying_model(kind, G, R, 6, 4, seed=3)
        rng = np.random.default_rng(4)
        tokens = TokenGrid(data=rng.integers(0, 6, size=(G * R, 11)), K=6)
        X = dequantize(tokens, model)
        grid, recon = quantize(X, model)
        np.testing.assert_array_equal(grid.data, tokens.data)
        np.testing.assert_array_equal(recon, X)

    def test_save_load_round_trip(self, tmp_path):
        model = decaying_model("GRVQ", 2, 2, 4, 6, seed=7)
        path = tmp_path / "codec.json"
        save_codec(path, model)
        back = load_codec(path)
        assert (back.kind, back.G, back.R, back.Kp) == ("GRVQ", 2, 2, 4)
        for a, b in zip(model.codebooks, back.codebooks):
            np.testing.assert_array_equal(a, b)

    def test_feature_csv_round_trip(self, tmp_path):
        X = np.random.default_rng(0).normal(size=(7, 3))
        path = tmp_path / "feats.csv"
        save_features(path, X)
        np.testing.assert_array_equal(load_features(path), X)


def report_reference(X, model):
    """``reconstruction_report`` as it was before the one-pass decode: one
    full ``dequantize`` of the first d rows per depth d."""
    grid, _ = quantize(X, model)
    first = model.N_q if model.kind in ("VQ", "GVQ") else 1
    return [
        float(np.mean((X - dequantize(grid.with_data(grid.data[:d]), model)) ** 2))
        for d in range(first, model.N_q + 1)
    ]


class TestDepthReport:
    @pytest.mark.parametrize("kind,G,R", [("VQ", 1, 1), ("RVQ", 1, 4), ("GVQ", 3, 1),
                                          ("GRVQ", 2, 3)])
    def test_equals_per_depth_dequantize(self, kind, G, R):
        rng = np.random.default_rng(15)
        X = rng.normal(size=(500, 6)) * 3.0 + 1.0
        decaying = decaying_model(kind, G, R, Kp=16, d=6, seed=4, scale=0.5)
        fitted = fit_codebooks(X, FitConfig(kind=kind, Kp=8, G=G, R=R, iters=5, seed=2))
        for model in (decaying, fitted):
            got = reconstruction_report(X, model)
            assert np.array(got).tobytes() == np.array(report_reference(X, model)).tobytes()

    def test_truncated_chain_equals_per_depth_dequantize(self):
        rng = np.random.default_rng(16)
        X = rng.normal(size=(400, 4))
        full = fit_codebooks(X, FitConfig(kind="RVQ", Kp=8, R=4, iters=5, seed=1))
        for R in (1, 2, 3):
            model = CodecModel(kind="RVQ", G=1, R=R, Kp=8, codebooks=full.codebooks[:R])
            got = reconstruction_report(X, model)
            assert len(got) == R
            assert got == report_reference(X, model)
            assert got == reconstruction_report(X, full)[:R]

    def test_rvq_mse_non_increasing(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(300, 4))
        model = fit_codebooks(X, FitConfig(kind="RVQ", Kp=8, R=4, iters=30, seed=0))
        mses = reconstruction_report(X, model)
        assert len(mses) == 4
        assert all(b <= a + 1e-12 for a, b in zip(mses, mses[1:]))

    def test_grvq_mse_non_increasing(self):
        rng = np.random.default_rng(12)
        X = rng.normal(size=(300, 6))
        model = fit_codebooks(
            X, FitConfig(kind="GRVQ", Kp=8, G=2, R=3, iters=30, seed=0)
        )
        mses = reconstruction_report(X, model)
        assert len(mses) == 6
        assert all(b <= a + 1e-12 for a, b in zip(mses, mses[1:]))

    @pytest.mark.parametrize("kind,G,R", [("VQ", 1, 1), ("RVQ", 1, 4), ("GVQ", 2, 1),
                                          ("GRVQ", 2, 3)])
    def test_matches_per_depth_quantize(self, kind, G, R):
        # the report scores depth d from the first d rows of one full-depth
        # encoding; re-quantizing at every depth gives the same bytes
        rng = np.random.default_rng(14)
        X = rng.normal(size=(400, 6))
        model = decaying_model(kind, G, R, Kp=16, d=6, seed=3, scale=0.5)
        depths = [model.N_q] if kind in ("VQ", "GVQ") else range(1, model.N_q + 1)
        expected = [
            float(np.mean((X - quantize(X, model, active_books=d)[1]) ** 2)) for d in depths
        ]
        got = reconstruction_report(X, model)
        assert np.array(got).tobytes() == np.array(expected).tobytes()

    def test_flat_kinds_report_single_entry(self):
        rng = np.random.default_rng(13)
        X = rng.normal(size=(50, 4))
        model = fit_codebooks(X, FitConfig(kind="GVQ", Kp=4, G=2, iters=20, seed=0))
        mses = reconstruction_report(X, model)
        assert len(mses) == 1


class TestFitting:
    def test_separable_clusters_recovered_exactly(self):
        centers = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
        X = np.repeat(centers, 20, axis=0)
        model = fit_codebooks(X, FitConfig(kind="VQ", Kp=3, iters=10, seed=1))
        assert reconstruction_report(X, model) == [0.0]
        got = set(map(tuple, model.codebooks[0].tolist()))
        assert got == set(map(tuple, centers.tolist()))

    def test_noisy_clusters_low_mse(self):
        rng = np.random.default_rng(21)
        centers = rng.normal(size=(4, 3)) * 10.0
        X = np.repeat(centers, 50, axis=0) + rng.normal(size=(200, 3)) * 0.05
        model = fit_codebooks(X, FitConfig(kind="VQ", Kp=4, iters=50, seed=2))
        assert reconstruction_report(X, model)[0] < 0.1

    def test_inertia_trace_non_increasing(self):
        rng = np.random.default_rng(22)
        X = rng.normal(size=(400, 5))
        model = fit_codebooks(X, FitConfig(kind="RVQ", Kp=16, R=3, iters=40, seed=3))
        assert model.inertia_traces is not None
        assert len(model.inertia_traces) == 3
        for trace in model.inertia_traces:
            assert len(trace) >= 1
            assert all(b <= a + 1e-9 for a, b in zip(trace, trace[1:]))

    def test_too_few_distinct_frames(self):
        X = np.tile([[1.0, 2.0]], (50, 1))
        with pytest.raises(FittingError, match="distinct"):
            fit_codebooks(X, FitConfig(kind="VQ", Kp=2, iters=5, seed=0))

    def test_residual_level_can_run_out_of_distinct_points(self):
        # frames sit exactly on two codebook points, so the first level
        # leaves an all-zero residual and a second level cannot be fitted
        X = np.array([[0.0], [4.0]] * 10)
        with pytest.raises(FittingError, match="distinct"):
            fit_codebooks(X, FitConfig(kind="RVQ", Kp=2, R=2, iters=5, seed=0))

    def test_deterministic_under_seed(self):
        rng = np.random.default_rng(23)
        X = rng.normal(size=(200, 4))
        cfg = FitConfig(kind="GRVQ", Kp=8, G=2, R=2, iters=25, seed=77)
        a = fit_codebooks(X, cfg)
        b = fit_codebooks(X, cfg)
        for ba, bb in zip(a.codebooks, b.codebooks):
            np.testing.assert_array_equal(ba, bb)
        c = fit_codebooks(X, FitConfig(kind="GRVQ", Kp=8, G=2, R=2, iters=25, seed=78))
        assert any(
            not np.array_equal(ba, bc) for ba, bc in zip(a.codebooks, c.codebooks)
        )

    def test_group_fit_uses_own_columns(self):
        # group 0 clusters at {0, 10}, group 1 at {-5, 5}; a grouped fit
        # must recover both splits with zero error
        rng = np.random.default_rng(24)
        g0 = rng.choice([0.0, 10.0], size=(100, 1))
        g1 = rng.choice([-5.0, 5.0], size=(100, 1))
        X = np.hstack([g0, g1])
        model = fit_codebooks(X, FitConfig(kind="GVQ", Kp=2, G=2, iters=20, seed=4))
        assert reconstruction_report(X, model) == [0.0]

    def test_dim_not_divisible_by_groups(self):
        X = np.random.default_rng(0).normal(size=(30, 5))
        with pytest.raises(ValueError, match="divisible"):
            fit_codebooks(X, FitConfig(kind="GVQ", Kp=2, G=2, iters=5, seed=0))


class TestQuantizerDropout:
    def test_dropout_only_for_rvq(self):
        X = np.random.default_rng(0).normal(size=(50, 2))
        with pytest.raises(ValueError, match="dropout"):
            fit_codebooks(X, FitConfig(kind="VQ", Kp=2, iters=5, seed=0, dropout=True))

    def test_dropout_fit_is_deterministic_and_complete(self):
        rng = np.random.default_rng(31)
        X = rng.normal(size=(250, 3))
        cfg = FitConfig(kind="RVQ", Kp=6, R=3, iters=60, seed=9, dropout=True)
        a = fit_codebooks(X, cfg)
        b = fit_codebooks(X, cfg)
        assert len(a.codebooks) == 3
        for ba, bb in zip(a.codebooks, b.codebooks):
            np.testing.assert_array_equal(ba, bb)
        # shallower levels train on more iterations than deeper ones
        lens = [len(t) for t in a.inertia_traces]
        assert lens[0] >= lens[1] >= lens[2] >= 1
        assert lens[0] <= cfg.iters

    def test_dropout_differs_from_plain_fit(self):
        rng = np.random.default_rng(32)
        X = rng.normal(size=(250, 3))
        plain = fit_codebooks(X, FitConfig(kind="RVQ", Kp=6, R=3, iters=60, seed=9))
        dropped = fit_codebooks(
            X, FitConfig(kind="RVQ", Kp=6, R=3, iters=60, seed=9, dropout=True)
        )
        assert any(
            not np.array_equal(a, b)
            for a, b in zip(plain.codebooks, dropped.codebooks)
        )


class TestLloydStep:
    def test_empty_cluster_reseeded_from_farthest_point(self):
        X = np.array([[0.0], [0.0], [0.0], [10.0]])
        centroids = np.array([[0.0], [100.0]])
        new, inertia = _lloyd_step(X, centroids)
        np.testing.assert_array_equal(new, [[2.5], [10.0]])
        assert inertia == pytest.approx(100.0)


class TestFastPathOracles:
    @pytest.mark.parametrize("n", [300, 1024, 2500])
    def test_nearest_exact_ties_match_brute_force(self, n):
        # integer coordinates make every distance exact, so the expansion
        # and the broadcast difference agree and ties are real ties
        rng = np.random.default_rng(n)
        book = rng.integers(-3, 4, size=(256, 4)).astype(float)
        book[128:] = book[:128]  # duplicate codes: the lower index wins
        X = rng.integers(-4, 5, size=(n, 4)).astype(float)
        brute = np.argmin(((X[:, None, :] - book[None, :, :]) ** 2).sum(axis=2), axis=1)
        got = _nearest(X, book)
        np.testing.assert_array_equal(got, brute)
        assert got.max() < 128

    def test_nearest_non_contiguous_group_slice(self):
        rng = np.random.default_rng(41)
        full = rng.integers(-4, 5, size=(2500, 12)).astype(float)
        cols = full[:, 4:8]  # a GVQ group: a strided view
        assert not cols.flags.c_contiguous
        book = rng.integers(-3, 4, size=(256, 4)).astype(float)
        brute = np.argmin(((cols[:, None, :] - book[None, :, :]) ** 2).sum(axis=2), axis=1)
        np.testing.assert_array_equal(_nearest(cols, book), brute)

    @pytest.mark.parametrize("n", [300, 2500])
    def test_nearest_reproduces_reference_rounding(self, n):
        rng = np.random.default_rng(42)
        book = rng.normal(size=(256, 8))
        X = near_tie_frames(book, n, rng)
        ref = nearest_reference(X, book)
        np.testing.assert_array_equal(_nearest(X, book), ref)
        # the same frames as a GVQ column slice
        wide = np.hstack([rng.normal(size=(n, 3)), X, rng.normal(size=(n, 2))])
        np.testing.assert_array_equal(_nearest(wide[:, 3:11], book), ref)

    def test_lloyd_step_matches_add_at_reference(self):
        rng = np.random.default_rng(43)
        X = rng.normal(size=(3000, 6)) * 4.0
        centroids = kmeanspp_reference(X, 64, np.random.default_rng(1))
        for _ in range(3):
            new, inertia = _lloyd_step(X, centroids)
            ref_new, ref_inertia = lloyd_step_reference(X, centroids)
            np.testing.assert_array_equal(new, ref_new)
            assert inertia == ref_inertia
            centroids = new

    def test_lloyd_step_empty_clusters_match_reference(self):
        rng = np.random.default_rng(44)
        X = rng.normal(size=(500, 3))
        centroids = np.vstack([X[:20], 1e3 + rng.normal(size=(5, 3))])
        new, inertia = _lloyd_step(X, centroids)
        ref_new, ref_inertia = lloyd_step_reference(X, centroids)
        assert not np.isin(np.arange(20, 25), _nearest(X, centroids)).any()
        np.testing.assert_array_equal(new, ref_new)
        assert inertia == ref_inertia

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_kmeanspp_matches_choice_reference(self, seed):
        data = np.random.default_rng(45)
        X = np.repeat(data.normal(size=(300, 5)), 3, axis=0)  # zero-mass repeats
        rng_new, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
        got = _kmeanspp_init(X, 40, rng_new)
        np.testing.assert_array_equal(got, kmeanspp_reference(X, 40, rng_ref))
        # both consumed the same stream
        assert rng_new.random() == rng_ref.random()

    def test_kmeanspp_draw_skips_zero_mass_frames(self):
        # centroid 0 is frame 0, so d2 = [0, 0, 1, 4] and the CDF is
        # [0, 0, .2, 1]: a uniform equal to a CDF value goes past it
        X = np.array([[0.0], [0.0], [1.0], [2.0]])
        for u, want in ((0.0, 1.0), (0.2, 2.0)):
            got = _kmeanspp_init(X, 2, FixedDraws([u]))
            ref = kmeanspp_reference(X, 2, FixedDraws([u]))
            assert got[1, 0] == ref[1, 0] == want


def clustered_frames(rng, n, d, clusters):
    centres = rng.normal(size=(clusters, d)) * 3.0
    return centres[rng.integers(clusters, size=n)] + rng.normal(size=(n, d))


def near_duplicate_frames(rng):
    # 50 points, each repeated 20 times 1e-9 apart along the first axis
    X = np.repeat(rng.normal(size=(50, 8)), 20, axis=0)
    X[:, 0] += 1e-9 * np.tile(np.arange(20), 50)
    return X


def subnormal_grid_frames(rng):
    grid = np.unique(rng.integers(-12, 13, size=(300, 4)), axis=0)
    return grid.astype(float) * 2.0**-538


# Inputs where the screen's bound is loose, tight or not finite; each
# frame set is distinct, so the reference's draw is defined throughout.
SCREEN_CASES = {
    "clustered-2000x16": (lambda rng: clustered_frames(rng, 2000, 16, 40), 64),
    "offset-1e6": (lambda rng: 1e6 + rng.normal(size=(600, 6)), 50),
    "near-duplicates-1e-9": (near_duplicate_frames, 80),
    "column-scales-1e-8-to-1e8": (lambda rng: rng.normal(size=(800, 9)) * np.logspace(-8, 8, 9), 60),
    "scale-1e-150": (lambda rng: 1e-150 * rng.normal(size=(500, 5)), 40),
    # squares of multiples of 2**-538 are subnormal and round to quarter
    # steps of the smallest one, so the bound rests on its absolute floor
    "subnormal-squares": (subnormal_grid_frames, 80),
}


class TestScreenedSeeding:
    """``_kmeanspp_init`` skips the exact distance of frames its bound rules
    out; the centroids and the generator state must still match the plain
    ``rng.choice`` reference bit for bit."""

    @staticmethod
    def assert_matches_reference(X, k, seed):
        rng_new, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
        got = _kmeanspp_init(X, k, rng_new)
        np.testing.assert_array_equal(got, kmeanspp_reference(X, k, rng_ref))
        assert rng_new.random() == rng_ref.random()

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("name", sorted(SCREEN_CASES))
    def test_matches_reference(self, name, seed):
        make, k = SCREEN_CASES[name]
        X = make(np.random.default_rng(46))
        assert len(np.unique(X, axis=0)) == len(X)
        self.assert_matches_reference(X, k, seed)

    def test_group_column_slice_matches_reference(self):
        wide = clustered_frames(np.random.default_rng(47), 1500, 12, 30)
        cols = wide[:, 4:8]
        assert not cols.flags.c_contiguous
        self.assert_matches_reference(cols, 48, 3)

    def test_overflowing_norms_fall_back_to_exact_distances(self):
        # |x|^2 overflows for every frame but no difference does, so every
        # bound is inf or NaN and each pass takes the exact path, silently
        X = 1e155 * (1.0 + 1e-3 * np.random.default_rng(48).normal(size=(400, 6)))
        with np.errstate(over="ignore"):
            assert np.isinf(np.einsum("ij,ij->i", X, X)).all()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            self.assert_matches_reference(X, 30, 5)

    def test_fit_matches_reference_assembly(self):
        # RVQ with Kp=32 and R=2 built from the reference seeding, Lloyd
        # step and assignment, in the order `_fit_residual_chain` runs them
        X = clustered_frames(np.random.default_rng(49), 2000, 16, 40)
        model = fit_codebooks(X, FitConfig(kind="RVQ", Kp=32, R=2, iters=6, seed=9))
        rng = np.random.default_rng(9)
        residual = X.copy()
        for r in range(2):
            centroids = kmeanspp_reference(residual, 32, rng)
            trace = []
            for _ in range(6):
                new, inertia = lloyd_step_reference(residual, centroids)
                trace.append(inertia)
                if np.array_equal(new, centroids):
                    break
                centroids = new
            np.testing.assert_array_equal(model.codebooks[r], centroids)
            assert model.inertia_traces[r] == trace
            residual = residual - centroids[nearest_reference(residual, centroids)]


class TestSaveFeaturesBlocks:
    @staticmethod
    def one_string(X):
        return "\n".join(",".join(repr(v) for v in row) for row in X.tolist()) + "\n"

    # 3 columns: 6 values are 2-row blocks, 9 values 3-row blocks (7 rows
    # end on a one-row block), 2 values one row each, 1000 one block
    @pytest.mark.parametrize("values", [1, 2, 6, 9, 1000])
    def test_blocks_write_the_one_string_bytes(self, tmp_path, monkeypatch, values):
        monkeypatch.setattr("vqdiff.codec._CSV_BLOCK_VALUES", values)
        X = np.random.default_rng(50).normal(size=(7, 3)) * np.array([1e-300, 1.0, 1e300])
        path = tmp_path / "feats.csv"
        save_features(path, X)
        assert path.read_bytes() == self.one_string(X).encode()
        np.testing.assert_array_equal(load_features(path), X)


class TestOverflowGuard:
    def test_huge_features_raise_naming_overflow(self):
        # the books fit on the frames scaled into range, but scaling the
        # inertia back by 2^-2e leaves the float range
        X = np.random.default_rng(0).normal(size=(50, 2)) * 1e200
        for kind, R in (("VQ", 1), ("RVQ", 2)):
            with pytest.raises(ValueError, match="leaves the float range"):
                fit_codebooks(X, FitConfig(kind=kind, Kp=4, R=R, iters=5, seed=0))

    def test_distinct_frames_whose_distances_underflow_raise_naming_underflow(self):
        # the frame at 1.0 keeps the frames in range, so nothing is scaled; the
        # other 19 lie 1e-170 apart, so their squared distances underflow and
        # k-means++ sees a zero sum after two picks
        X = np.r_[1.0, np.arange(1.0, 20.0) * 1e-170][:, None]
        with pytest.raises(FittingError, match="underflow"):
            fit_codebooks(X, FitConfig(kind="VQ", Kp=4, iters=5, seed=0))


class TestScaleEquivariance:
    """Scaling the frames by 2^j scales the books and the reconstruction by
    2^j and the inertias by 2^2j, and leaves the codes as they are."""

    EXPONENTS = [530, -530, 700, -700]
    CONFIGS = {
        "RVQ": FitConfig(kind="RVQ", Kp=8, R=2, iters=6, seed=3),
        "RVQ-dropout": FitConfig(kind="RVQ", Kp=8, R=2, iters=8, seed=3, dropout=True),
        "GRVQ": FitConfig(kind="GRVQ", Kp=8, G=2, R=2, iters=6, seed=3),
    }

    @staticmethod
    def frames():
        X = clustered_frames(np.random.default_rng(60), 400, 4, 12)
        X = np.ldexp(X, -math.frexp(np.abs(X).max())[1])
        assert 0.5 <= np.abs(X).max() < 1.0
        return X

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    @pytest.mark.parametrize("j", EXPONENTS)
    def test_fit_scales_or_names_the_overflow(self, name, j):
        X, config = self.frames(), self.CONFIGS[name]
        base = fit_codebooks(X, config)
        largest = max(max(trace) for trace in base.inertia_traces)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if math.frexp(largest)[1] + 2 * j > 1024:  # 2^2j times it overflows
                with pytest.raises(ValueError, match="leaves the float range"):
                    fit_codebooks(np.ldexp(X, j), config)
                return
            scaled = fit_codebooks(np.ldexp(X, j), config)
        for got, book in zip(scaled.codebooks, base.codebooks):
            np.testing.assert_array_equal(got, np.ldexp(book, j))
        assert scaled.inertia_traces == [
            [math.ldexp(v, 2 * j) for v in trace] for trace in base.inertia_traces
        ]

    @pytest.mark.parametrize("j", EXPONENTS)
    def test_codes_and_reconstruction_scale(self, j):
        X = self.frames()
        base = fit_codebooks(X, self.CONFIGS["GRVQ"])
        model = CodecModel(kind="GRVQ", G=2, R=2, Kp=8,
                           codebooks=[np.ldexp(b, j) for b in base.codebooks])
        grid, recon = quantize(X, base)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scaled_grid, scaled_recon = quantize(np.ldexp(X, j), model)
            report = reconstruction_report(np.ldexp(X, j), model) if j < 0 else None
        np.testing.assert_array_equal(scaled_grid.data, grid.data)
        np.testing.assert_array_equal(scaled_recon, np.ldexp(recon, j))
        if report is not None:  # above, the squared errors leave the float range
            assert report == [math.ldexp(v, 2 * j) for v in reconstruction_report(X, base)]


@pytest.mark.parametrize(
    "kind, G, R, field",
    [("VQ", 2, 3, "G"), ("VQ", 1, 3, "R"), ("RVQ", 2, 2, "G"), ("GVQ", 2, 2, "R")],
)
def test_fit_rejects_groups_or_depth_the_kind_forbids(kind, G, R, field):
    X = np.random.default_rng(0).normal(size=(40, 4))
    with pytest.raises(ValueError, match=f"{kind} requires.*{field}=1"):
        fit_codebooks(X, FitConfig(kind=kind, Kp=2, G=G, R=R, iters=2, seed=0))


class TestLoadCodecSchema:
    def write(self, tmp_path, payload):
        path = tmp_path / "codec.json"
        path.write_text(json.dumps(payload))
        return path

    def good_payload(self):
        return {"kind": "RVQ", "G": 1, "R": 2, "Kp": 2,
                "codebooks": [[[0.0, 1.0], [1.0, 0.0]], [[0.5, 0.5], [0.0, 0.0]]]}

    def test_good_payload_loads(self, tmp_path):
        model = load_codec(self.write(tmp_path, self.good_payload()))
        assert model.N_q == 2 and model.dp == 2

    @pytest.mark.parametrize("name", ["kind", "G", "R", "Kp", "codebooks"])
    def test_missing_field_named(self, tmp_path, name):
        payload = self.good_payload()
        del payload[name]
        with pytest.raises(ValueError, match=f"no '{name}' field"):
            load_codec(self.write(tmp_path, payload))

    def test_non_object_payload(self, tmp_path):
        with pytest.raises(ValueError, match="JSON object"):
            load_codec(self.write(tmp_path, [self.good_payload()]))

    def test_ragged_codebook_entry(self, tmp_path):
        payload = self.good_payload()
        payload["codebooks"][1] = [[0.5, 0.5], [0.0]]
        with pytest.raises(ValueError, match="'codebooks'.*entry 1"):
            load_codec(self.write(tmp_path, payload))

    def test_non_numeric_codebook_entry(self, tmp_path):
        payload = self.good_payload()
        payload["codebooks"][0] = [["a", "b"], [1.0, 0.0]]
        with pytest.raises(ValueError, match="'codebooks'.*entry 0"):
            load_codec(self.write(tmp_path, payload))

    def test_codebooks_not_a_list(self, tmp_path):
        payload = self.good_payload()
        payload["codebooks"] = 3
        with pytest.raises(ValueError, match="'codebooks'"):
            load_codec(self.write(tmp_path, payload))

    def test_non_integer_size_named(self, tmp_path):
        payload = self.good_payload()
        payload["Kp"] = "many"
        with pytest.raises(ValueError, match="'Kp'"):
            load_codec(self.write(tmp_path, payload))

    @pytest.mark.parametrize("name,value", [("Kp", 2.7), ("G", True), ("R", "2")])
    def test_integer_lookalike_named(self, tmp_path, name, value):
        # int() would read 2.7 as 2, True as 1 and "2" as 2
        payload = self.good_payload()
        payload[name] = value
        with pytest.raises(ValueError, match=f"'{name}'.*integer"):
            load_codec(self.write(tmp_path, payload))


class TestModelValidation:
    def test_kind_shape_constraints(self):
        with pytest.raises(ValueError, match="kind"):
            CodecModel(kind="XQ", G=1, R=1, Kp=2, codebooks=[np.zeros((2, 1))])
        with pytest.raises(ValueError, match="RVQ requires"):
            CodecModel(kind="RVQ", G=2, R=2, Kp=2, codebooks=[np.zeros((2, 1))] * 4)
        with pytest.raises(ValueError, match="codebooks"):
            CodecModel(kind="GRVQ", G=2, R=2, Kp=2, codebooks=[np.zeros((2, 1))] * 3)
        with pytest.raises(ValueError, match="shape"):
            CodecModel(
                kind="GVQ", G=2, R=1, Kp=2,
                codebooks=[np.zeros((2, 1)), np.zeros((3, 1))],
            )

    def test_reference_configurations_constructible(self):
        cfgs = [
            ("VQ", 1, 1, 512, 256),
            ("RVQ", 1, 12, 1024, 256),
            ("GVQ", 4, 1, 1024, 256),
            ("GRVQ", 2, 2, 1024, 256),
        ]
        for kind, G, R, Kp, d in cfgs:
            model = decaying_model(kind, G, R, Kp, d, seed=0)
            assert model.N_q == G * R
            assert model.d == d
