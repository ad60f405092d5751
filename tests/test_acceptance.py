"""Acceptance gate: one test per release criterion, each printing a
single PASS/FAIL line (run with ``pytest tests/test_acceptance.py -s`` to
see them).  Every check compares the library against an independent
oracle (explicit matrix products, enumerated Bayes posteriors, closed
forms, hand arithmetic) at a pinned tolerance."""

import math
import time

import numpy as np
import pytest
import scipy.stats

from vqdiff.auxiliary import club_mi, info_nce, recall_at_k
from vqdiff.cli import run
from vqdiff.codec import CodecModel, FitConfig, dequantize, fit_codebooks, quantize, reconstruction_report
from vqdiff.diffusion import (
    TabularDenoiser,
    TrainConfig,
    bayes_oracle_denoiser,
    cfg_combine,
    corrupt,
    sample,
    vlb_loss,
)
from vqdiff.metrics import PitchTrack, mcd, pitch_errors, ssim
from vqdiff.schedules import improved_schedule, linear_schedule, random_schedule, save_schedule
from vqdiff.tokens import TokenGrid, save_token_file
from vqdiff.transitions import (
    brute_force_cumulative,
    build_transition_matrix,
    marginal_xt_given_x0,
    stationary_dist,
    true_posterior,
)


def report(num: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] {num:02d} {name}: {status} ({detail})")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_01_closed_form_equals_matrix_product():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(50):
        K = int(rng.integers(2, 6))
        T = int(rng.integers(2, 9))
        table = random_schedule(rng, T, K)
        for t in range(T + 1):
            product = brute_force_cumulative(t, table)
            for x0 in range(K):
                closed = marginal_xt_given_x0(x0, t, table)
                worst = max(worst, float(np.max(np.abs(closed - product[:, x0]))))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 10.0
    report(1, "closed-form vs matrix product", ok,
           f"50 schedules, max |delta|={worst:.2e} <= 1e-12, {elapsed:.2f}s < 10s")


def test_criterion_02_exhaustive_posterior():
    start = time.perf_counter()
    rng = np.random.default_rng(102)
    worst = 0.0
    worst_sum = 0.0
    checked = 0
    for K in (2, 3, 4):
        for T in (2, 4, 6):
            for table in (random_schedule(rng, T, K), linear_schedule(T, K)):
                for t in range(1, T + 1):
                    a, b, g = (float(c) for c in table.stepwise(t))
                    step = build_transition_matrix(a, b, g, K)
                    for x0 in range(K):
                        prev = brute_force_cumulative(t - 1, table)[:, x0]
                        for x_t in range(K + 1):
                            joint = step[x_t, :] * prev
                            total = joint.sum()
                            if total <= 0.0:
                                continue
                            got = true_posterior(x_t, x0, t, table)
                            worst = max(worst, float(np.max(np.abs(got - joint / total))))
                            worst_sum = max(worst_sum, abs(float(got.sum()) - 1.0))
                            checked += 1
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and worst_sum <= 1e-12 and elapsed < 10.0
    report(2, "exhaustive Bayes posterior", ok,
           f"{checked} posteriors, max |delta|={worst:.2e} <= 1e-12, "
           f"max |row sum - 1|={worst_sum:.2e}, {elapsed:.2f}s < 10s")


def test_criterion_03_stationary_endpoint_and_chi_square():
    start = time.perf_counter()
    table = linear_schedule(100, 512)
    stat = stationary_dist(table)
    expected = np.full(513, 0.1 / 512)
    expected[512] = 0.9
    stat_dev = float(np.max(np.abs(stat - expected)))

    n = 50_000
    x0 = TokenGrid(data=np.full((1, n), 7, dtype=np.int64), K=512)
    noisy = corrupt(x0, 100, table, np.random.default_rng(103))
    counts = np.bincount(noisy.data.reshape(-1), minlength=513)
    p_value = float(scipy.stats.chisquare(counts, expected * n).pvalue)
    elapsed = time.perf_counter() - start
    ok = stat_dev <= 1e-12 and p_value > 0.01 and elapsed < 30.0
    report(3, "stationary endpoint", ok,
           f"max |p(x_T) - [0.1/512,...,0.9]|={stat_dev:.2e}, chi^2 p={p_value:.3f} > 0.01 "
           f"on {n} draws, {elapsed:.2f}s < 30s")


def test_criterion_04_bayes_recovery_total_variation():
    start = time.perf_counter()
    K, L, T = 4, 3, 10
    table = linear_schedule(T, K)
    rng = np.random.default_rng(104)
    support = []
    seen = set()
    while len(support) < 8:
        data = rng.integers(0, K, size=(1, L))
        key = data.tobytes()
        if key not in seen:
            seen.add(key)
            support.append(TokenGrid(data=data, K=K))
    probs = rng.dirichlet(np.ones(8) * 4.0)
    denoiser = bayes_oracle_denoiser(support, probs, table)

    n = 20_000
    index = {g.data.tobytes(): i for i, g in enumerate(support)}
    counts = np.zeros(9)
    for i in range(n):
        out = sample(denoiser, None, table, rng=np.random.default_rng([104, i]))
        counts[index.get(out.data.tobytes(), 8)] += 1
    tv = 0.5 * (np.abs(counts[:8] / n - probs).sum() + counts[8] / n)
    elapsed = time.perf_counter() - start
    ok = tv < 0.05 and elapsed < 120.0
    report(4, "end-to-end Bayes recovery", ok,
           f"K={K} L={L} T={T}, TV={tv:.4f} < 0.05 over {n} chains, {elapsed:.1f}s < 120s")


def test_criterion_05_vlb_sanity():
    rng = np.random.default_rng(105)

    # (a) nonnegative for mismatched model/table combinations
    min_seen = np.inf
    for _ in range(10):
        K = int(rng.integers(2, 5))
        T = int(rng.integers(2, 6))
        L = int(rng.integers(1, 4))
        table = random_schedule(rng, T, K)
        x0 = TokenGrid(data=rng.integers(0, K, size=(1, L)), K=K)
        den = TabularDenoiser(K, (1, L), T, cond_labels=[],
                              weights=rng.normal(size=(1, T + 1, 1, L, K + 1, K)))
        min_seen = min(min_seen, vlb_loss(den, x0, None, table, rng, num_t_samples=4))
    nonneg_ok = min_seen >= 0.0

    # (b) single-point data + Bayes denoiser + exact endpoint -> ~0
    table = linear_schedule(10, 4)
    x0 = TokenGrid(data=np.array([[2, 0]]), K=4)
    bayes = bayes_oracle_denoiser([x0], [1.0], table)
    exact_zero = vlb_loss(bayes, x0, None, table, rng, num_t_samples=20)
    zero_ok = abs(exact_zero) < 1e-9

    # (c) Monte-Carlo estimate vs exhaustive enumeration (K=3, T=3, L=1)
    K, T = 3, 3
    table = random_schedule(np.random.default_rng(1050), T, K)
    x0_val = 1
    x0 = TokenGrid(data=np.array([[x0_val]]), K=K)
    den = TabularDenoiser(K, (1, 1), T, cond_labels=[],
                          weights=np.random.default_rng(1051).normal(size=(1, T + 1, 1, 1, K + 1, K)))

    marg_T = marginal_xt_given_x0(x0_val, T, table)
    stat = stationary_dist(table)
    live = marg_T > 0
    prior = float((marg_T[live] * np.log(marg_T[live] / stat[live])).sum())

    mean_s = 0.0
    mean_s2 = 0.0
    for t in range(1, T + 1):
        probs_xt = marginal_xt_given_x0(x0_val, t, table)
        for x_t in range(K + 1):
            if probs_xt[x_t] <= 0.0:
                continue
            target = true_posterior(x_t, x0_val, t, table)
            p0 = den.predict(TokenGrid(data=np.array([[x_t]]), K=K), t, None)[0, 0]
            model = np.zeros(K + 1)
            mass = 0.0
            for v in range(K):
                if marginal_xt_given_x0(v, t, table)[x_t] > 0.0:
                    model += p0[v] * true_posterior(x_t, v, t, table)
                    mass += p0[v]
            model /= mass
            support = target > 0
            kl = float((target[support] * np.log(target[support] / model[support])).sum())
            weight = probs_xt[x_t] / T
            summand = T * kl
            mean_s += weight * summand
            mean_s2 += weight * summand**2
    exact = prior + mean_s
    var_s = mean_s2 - mean_s**2

    n = 5000
    est = vlb_loss(den, x0, None, table, np.random.default_rng(1052), num_t_samples=n)
    sigma = math.sqrt(var_s / n)
    mc_ok = abs(est - exact) <= 3.0 * sigma + 1e-12

    ok = nonneg_ok and zero_ok and mc_ok
    report(5, "VLB sanity", ok,
           f"min={min_seen:.3e} >= 0; point-mass vlb={exact_zero:.2e} < 1e-9; "
           f"|MC - exact|={abs(est - exact):.2e} <= 3 sigma={3 * sigma:.2e}")


def test_criterion_06_guidance_identities():
    rng = np.random.default_rng(106)
    worst_zero = 0.0
    worst_equal = 0.0
    for _ in range(20):
        K = int(rng.integers(2, 8))
        p_c = rng.dirichlet(np.ones(K))
        p_u = rng.dirichlet(np.ones(K))
        g0 = cfg_combine(np.log(p_c), np.log(p_u), 0.0)
        worst_zero = max(worst_zero, float(np.max(np.abs(g0 - p_c))))
        for lam in (0.5, 1.0, 7.0):
            ge = cfg_combine(np.log(p_c), np.log(p_c), lam)
            worst_equal = max(worst_equal, float(np.max(np.abs(ge - p_c))))
    hand = cfg_combine(np.log([0.8, 0.2]), np.log([0.5, 0.5]), 1.0)
    hand_dev = float(np.max(np.abs(hand - np.array([16.0 / 17.0, 1.0 / 17.0]))))
    null_prob = TrainConfig().null_cond_prob
    ok = worst_zero <= 1e-12 and worst_equal <= 1e-12 and hand_dev <= 1e-3 and null_prob == 0.10
    report(6, "guidance identities", ok,
           f"lambda=0 max|delta|={worst_zero:.2e}, p_c=p_u max|delta|={worst_equal:.2e} <= 1e-12; "
           f"hand case |delta|={hand_dev:.2e} <= 1e-3; null-cond prob={null_prob}")


def test_criterion_07_improved_schedule_and_easy_first():
    T, K, N_q = 100, 512, 8
    table = improved_schedule(T, K, N_q)
    simplex_dev = 0.0
    monotone_ok = True
    for t in range(T + 1):
        for q in range(N_q):
            ab, bb, gb = table.cumulative(t, q)
            simplex_dev = max(simplex_dev, abs(ab + K * bb + gb - 1.0))
            if q and gb < table.cumulative(t, q - 1)[2]:
                monotone_ok = False
    strictly = all(
        table.cumulative(1, q + 1)[2] > table.cumulative(1, q)[2] for q in range(N_q - 1)
    )

    # easy-first: shared uniform draws across layers make the per-layer
    # comparison deterministic (stepwise gamma is monotone in the layer)
    sim_T, sim_K, sim_Nq, n = 50, 16, 6, 10_000
    sim = improved_schedule(sim_T, sim_K, sim_Nq)
    u = np.random.default_rng(107).random((n, sim_T))
    means = []
    for q in range(sim_Nq):
        gammas = np.array([sim.stepwise(t, q)[2] for t in range(1, sim_T + 1)])
        masked = u < gammas[None, :]
        first = np.where(masked.any(axis=1), masked.argmax(axis=1) + 1, sim_T + 1)
        means.append(float(first.mean()))
    easy_first = all(b <= a + 1e-12 for a, b in zip(means, means[1:])) and means[0] > means[-1]
    ok = simplex_dev <= 1e-12 and monotone_ok and strictly and easy_first
    report(7, "per-codebook schedule, easy first", ok,
           f"max |simplex - 1|={simplex_dev:.2e} <= 1e-12; gamma_bar non-decreasing in layer; "
           f"mean first-mask step {means[0]:.2f} -> {means[-1]:.2f} non-increasing over {n} trajectories")


def _decaying_model(kind, G, R, Kp, d, seed):
    rng = np.random.default_rng(seed)
    dp = d // G
    books = [rng.normal(size=(Kp, dp)) * 0.05 ** (b // G) for b in range(G * R)]
    return CodecModel(kind=kind, G=G, R=R, Kp=Kp, codebooks=books)


def test_criterion_08_codec_properties():
    rng = np.random.default_rng(108)

    # nearest-code optimality against a direct distance oracle
    frames = rng.normal(size=(10_000, 8))
    book = rng.normal(size=(64, 8))
    model = CodecModel(kind="VQ", G=1, R=1, Kp=64, codebooks=[book])
    tokens, _ = quantize(frames, model)
    d2 = ((frames[:, None, :] - book[None, :, :]) ** 2).sum(axis=2)
    chosen = d2[np.arange(10_000), tokens.data[0]]
    optimal = float(np.max(chosen - d2.min(axis=1)))
    nn_ok = optimal <= 1e-9 and np.array_equal(tokens.data[0], d2.argmin(axis=1))

    # fitted residual chains: depth report and inertia monotone
    X = rng.normal(size=(400, 6))
    depth_ok = True
    inertia_ok = True
    for kind, G, R in (("RVQ", 1, 4), ("GRVQ", 2, 2)):
        fitted = fit_codebooks(X, FitConfig(kind=kind, Kp=8, G=G, R=R, iters=30, seed=108))
        mses = reconstruction_report(X, fitted)
        depth_ok &= all(b <= a + 1e-12 for a, b in zip(mses, mses[1:]))
        for trace in fitted.inertia_traces:
            inertia_ok &= all(b <= a + 1e-9 for a, b in zip(trace, trace[1:]))

    # reference configurations: constructible, exact round trip on codebook points
    round_ok = True
    for kind, G, R, Kp, d in (
        ("VQ", 1, 1, 512, 256),
        ("RVQ", 1, 12, 1024, 256),
        ("GVQ", 4, 1, 1024, 256),
        ("GRVQ", 2, 2, 1024, 256),
    ):
        ref = _decaying_model(kind, G, R, Kp, d, seed=1080)
        grid = TokenGrid(data=rng.integers(0, Kp, size=(G * R, 40)), K=Kp)
        points = dequantize(grid, ref)
        back, recon = quantize(points, ref)
        round_ok &= np.array_equal(back.data, grid.data) and np.array_equal(recon, points)

    ok = nn_ok and depth_ok and inertia_ok and round_ok
    report(8, "codec properties", ok,
           f"nearest-code slack={optimal:.2e} on 10^4 frames; depth MSE non-increasing; "
           f"inertia non-increasing; 512x256 / RVQ-12 / GVQ-4 / GRVQ-4 round-trip exact")


def test_criterion_09_metrics():
    hand_mcd = mcd(np.array([[0.0, 0.0]]), np.array([[3.0, 4.0]]))
    x = np.random.default_rng(109).normal(size=(12, 10))
    self_ssim = ssim(x, x)
    ref = PitchTrack(f0=np.array([100.0, 150.0, 0.0, 200.0]),
                     voiced=np.array([True, True, False, True]))
    syn = PitchTrack(f0=np.array([130.0, 0.0, 0.0, 202.0]),
                     voiced=np.array([True, False, False, True]))
    hand_pitch = pitch_errors(ref, syn)
    hand_ok = (hand_pitch["vde"] == 0.25 and hand_pitch["gpe"] == 0.5
               and hand_pitch["ffe"] == 0.5)

    rng = np.random.default_rng(1090)
    decomposition_ok = True
    for _ in range(1000):
        n = int(rng.integers(1, 30))
        va = rng.random(n) < 0.6
        vb = rng.random(n) < 0.6
        a = PitchTrack(f0=np.where(va, rng.uniform(60, 400, n), 0.0), voiced=va)
        b = PitchTrack(f0=np.where(vb, rng.uniform(60, 400, n), 0.0), voiced=vb)
        got = pitch_errors(a, b)
        n_both = int(np.count_nonzero(va & vb))
        expected = got["vde"] + (0.0 if got["gpe"] is None else got["gpe"] * n_both / n)
        decomposition_ok &= abs(got["ffe"] - expected) <= 1e-12

    ok = (abs(hand_mcd - 5.0) <= 1e-12 and abs(self_ssim - 1.0) <= 1e-9
          and hand_ok and decomposition_ok)
    report(9, "metrics", ok,
           f"mcd(3,4)={hand_mcd}; ssim(x,x)-1={self_ssim - 1.0:.2e}; "
           f"pitch hand case vde=0.25 gpe=0.5 ffe=0.5; FFE decomposition on 1000 pairs")


def test_criterion_10_auxiliary_losses():
    start = time.perf_counter()
    uniform_dev = max(
        abs(info_nce(np.full((n, n), 0.3), 1.0) - math.log(n)) for n in (2, 5, 17)
    )
    rng = np.random.default_rng(110)
    recall_full = recall_at_k(rng.normal(size=(9, 9)), 9)

    x = rng.normal(size=10_000)
    y_ind = rng.normal(size=10_000)
    independent = club_mi(x, y_ind)
    rho = 0.9
    y_cor = rho * x + math.sqrt(1 - rho**2) * rng.normal(size=10_000)
    correlated = club_mi(x, y_cor)
    elapsed = time.perf_counter() - start
    ok = (uniform_dev <= 1e-9 and recall_full == 100.0
          and abs(independent) < 0.05 and correlated >= 0.780 and elapsed < 60.0)
    report(10, "auxiliary losses", ok,
           f"uniform InfoNCE |delta|={uniform_dev:.2e} <= 1e-9; R@N={recall_full}; "
           f"CLUB independent={independent:.4f} (<0.05), rho=0.9 -> {correlated:.3f} >= 0.780; "
           f"{elapsed:.1f}s < 60s")


def test_criterion_11_cli_determinism(tmp_path, capsys):
    sched = tmp_path / "sched.json"
    save_schedule(sched, linear_schedule(6, 3))
    tokens = tmp_path / "tokens.json"
    save_token_file(
        tokens,
        [TokenGrid(data=np.array([[0, 2]]), K=3), TokenGrid(data=np.array([[1, 1]]), K=3)],
        labels=[0, 1],
    )
    feats = tmp_path / "feats.csv"
    rng = np.random.default_rng(111)
    X = np.repeat(rng.normal(size=(4, 2)) * 5, 20, axis=0) + rng.normal(size=(80, 2)) * 0.1
    feats.write_text("\n".join(",".join(repr(v) for v in row) for row in X.tolist()) + "\n")

    den = tmp_path / "den.json"
    commands = {
        "train": ["diffuse", "train", "--tokens", str(tokens), "--schedule", str(sched),
                  "--epochs", "4", "--seed", "3", "--out", str(den)],
        "corrupt": ["diffuse", "corrupt", "--tokens", str(tokens), "--schedule", str(sched),
                    "--t", "3", "--seed", "5", "--out", str(tmp_path / "noisy.json")],
        "sample": ["diffuse", "sample", "--denoiser", str(den), "--schedule", str(sched),
                   "--count", "5", "--seed", "7", "--cond", "0", "--lambda", "0.5",
                   "--out", str(tmp_path / "samples.json")],
        "fit": ["codec", "fit", "--features", str(feats), "--kind", "RVQ", "--Kp", "4",
                "--R", "2", "--iters", "20", "--seed", "9", "--dropout",
                "--out", str(tmp_path / "codec.json")],
        "selftest": ["selftest", "--seed", "1"],
    }
    failures = []
    for name, argv in commands.items():
        runs = []
        for _ in range(2):
            code = run(argv)
            stdout = capsys.readouterr().out
            out_flag = argv[argv.index("--out") + 1] if "--out" in argv else None
            blob = open(out_flag, "rb").read() if out_flag else b""
            runs.append((code, stdout, blob))
            if code != 0:
                failures.append(f"{name} exited {code}")
                break
        if len(runs) == 2 and runs[0] != runs[1]:
            failures.append(f"{name} not reproducible")
    ok = not failures
    report(11, "CLI determinism", ok,
           "train/corrupt/sample/fit/selftest byte-identical under fixed seeds"
           if ok else "; ".join(failures))
