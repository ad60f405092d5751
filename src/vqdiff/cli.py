"""Command-line surface for schedules, diffusion, codecs, metrics and
auxiliary losses.

Conventions: structured artifacts are JSON, matrices and pitch tracks are
CSV.  Exit codes: 0 success, 1 domain error, 2 usage error.  All error
text goes to stderr with the prefix ``error:``.  Every output file is
written atomically, so a failing command never leaves a partial file.
Stochastic commands take ``--seed`` and are bit-reproducible; ``diffuse
sample`` derives one stream per chain from (seed, chain index), so the
result does not depend on how chains would be scheduled.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import __version__
from .auxiliary import club_mi, contrastive_ranking_loss, info_nce, recall_at_k
from .codec import (
    FitConfig,
    dequantize,
    fit_codebooks,
    load_codec,
    load_features,
    quantize,
    reconstruction_report,
    save_codec,
    save_features,
)
from .diffusion import (
    bayes_oracle_denoiser,
    corrupt,
    load_denoiser,
    sample,
    save_denoiser,
    train_denoiser,
    TrainConfig,
    vlb_loss,
)
from .errors import VqdiffError
from .metrics import (
    DEFAULT_GPE_THRESHOLD,
    DEFAULT_SSIM_WINDOW,
    load_pitch_track,
    mcd,
    pitch_errors,
    ssim,
)
from .schedules import (
    format_table,
    improved_schedule,
    linear_schedule,
    load_schedule,
    random_schedule,
    save_schedule,
)
from .tokens import TokenGrid, load_token_file, save_token_file
from .transitions import (
    brute_force_cumulative,
    build_transition_matrix,
    marginal_xt_given_x0,
    true_posterior,
)


class _Parser(argparse.ArgumentParser):
    """argparse with the stable ``error:`` diagnostic prefix."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(2)


def _fmt(x: float) -> str:
    return repr(float(x))


# ---------------------------------------------------------------- schedule


def _cmd_schedule_inspect(args) -> int:
    if args.kind == "linear":
        table = linear_schedule(args.T, args.K)
    else:
        if args.n_q is None:
            raise ValueError("--n-q is required for the improved schedule")
        table = improved_schedule(args.T, args.K, args.n_q)
    print(format_table(table))
    if args.out:
        save_schedule(args.out, table)
    return 0


# -------------------------------------------------------------- transitions


def _check_schedule_against_products(table) -> float:
    """Max |closed form - explicit matrix product| over all (x0, t)."""
    worst = 0.0
    for t in range(table.T + 1):
        product = brute_force_cumulative(t, table)
        for x0 in range(table.K):
            closed = marginal_xt_given_x0(x0, t, table)
            one = np.zeros(table.K + 1)
            one[x0] = 1.0
            worst = max(worst, float(np.max(np.abs(closed - product @ one))))
    if worst > 1e-12:
        raise VqdiffError(
            f"closed-form marginals deviate from matrix products by {worst:.3e}"
        )
    return worst


def _cmd_transitions_check(args) -> int:
    rng = np.random.default_rng(args.seed)
    worst = 0.0
    for i in range(args.schedules):
        table = random_schedule(rng, args.T, args.K)
        worst = max(worst, _check_schedule_against_products(table))
    worst = max(worst, _check_schedule_against_products(linear_schedule(args.T, args.K)))
    print(
        f"transitions check: {args.schedules} random + 1 linear schedule(s) "
        f"(K={args.K}, T={args.T}) max |closed-form - product| = {worst:.3e} PASS"
    )
    return 0


# ------------------------------------------------------------------ diffuse


def _cmd_diffuse_corrupt(args) -> int:
    table = load_schedule(args.schedule)
    grids, labels = load_token_file(args.tokens)
    rng = np.random.default_rng(args.seed)
    noisy = [corrupt(g, args.t, table, rng) for g in grids]
    save_token_file(args.out, noisy, labels)
    print(f"corrupted {len(noisy)} grid(s) at t={args.t} -> {args.out}")
    return 0


def _load_schedule_and_denoiser(args):
    table = load_schedule(args.schedule)
    denoiser = load_denoiser(args.denoiser)
    if denoiser.T != table.T:
        raise ValueError(f"denoiser trained for T={denoiser.T}, schedule has T={table.T}")
    return table, denoiser


def _cmd_diffuse_sample(args) -> int:
    table, denoiser = _load_schedule_and_denoiser(args)
    grids = []
    for chain in range(args.count):
        rng = np.random.default_rng([args.seed, chain])
        grids.append(
            sample(
                denoiser,
                args.cond,
                table,
                stride=args.stride,
                rng=rng,
                guidance_scale=args.guidance_scale,
                guidance_mode=args.guidance_mode,
            )
        )
    labels = None if args.cond is None else [args.cond] * len(grids)
    save_token_file(args.out, grids, labels)
    print(f"sampled {len(grids)} grid(s) -> {args.out}")
    return 0


def _cmd_diffuse_train(args) -> int:
    table = load_schedule(args.schedule)
    grids, labels = load_token_file(args.tokens)
    if labels is None:
        dataset = list(grids)
    else:
        dataset = list(zip(grids, labels))
    config = TrainConfig(
        epochs=args.epochs, lr=args.lr, null_cond_prob=args.null_cond_prob
    )
    denoiser, trace = train_denoiser(
        dataset, table, config, np.random.default_rng(args.seed)
    )
    save_denoiser(args.out, denoiser)
    for i, loss in enumerate(trace, start=1):
        print(f"epoch {i}: kl={_fmt(loss)}")
    print(f"trained denoiser on {len(dataset)} grid(s) -> {args.out}")
    return 0


def _cmd_diffuse_vlb(args) -> int:
    table, denoiser = _load_schedule_and_denoiser(args)
    grids, labels = load_token_file(args.tokens)
    rng = np.random.default_rng(args.seed)
    values = []
    for i, grid in enumerate(grids):
        cond = None if labels is None else labels[i]
        value = vlb_loss(denoiser, grid, cond, table, rng, num_t_samples=args.samples)
        values.append(value)
        print(f"grid {i}: vlb={_fmt(value)}")
    print(f"mean vlb={_fmt(np.mean(values))}")
    return 0


# -------------------------------------------------------------------- codec


def _cmd_codec_fit(args) -> int:
    X = load_features(args.features)
    config = FitConfig(
        kind=args.kind,
        Kp=args.Kp,
        G=args.G,
        R=args.R,
        iters=args.iters,
        seed=args.seed,
        dropout=args.dropout,
    )
    model = fit_codebooks(X, config)
    save_codec(args.out, model)
    finals = ", ".join(f"{tr[-1]:.6g}" for tr in model.inertia_traces)
    print(f"fitted {model.kind} ({model.N_q} book(s) of {model.Kp}) -> {args.out}")
    print(f"final inertia per book: {finals}")
    return 0


def _cmd_codec_encode(args) -> int:
    X = load_features(args.features)
    model = load_codec(args.codec)
    grid, recon = quantize(X, model, active_books=args.active)
    save_token_file(args.out, [grid])
    if args.recon:
        save_features(args.recon, recon)
    mse = float(np.mean((X - recon) ** 2))
    print(f"encoded {X.shape[0]} frame(s) with {grid.N_q} book(s); mse={_fmt(mse)}")
    return 0


def _cmd_codec_decode(args) -> int:
    model = load_codec(args.codec)
    grids, _ = load_token_file(args.tokens)
    if len(grids) != 1:
        raise ValueError(f"decode expects a token file with 1 grid, got {len(grids)}")
    recon = dequantize(grids[0], model)
    save_features(args.out, recon)
    print(f"decoded {recon.shape[0]} frame(s) -> {args.out}")
    return 0


def _cmd_codec_report(args) -> int:
    X = load_features(args.features)
    model = load_codec(args.codec)
    mses = reconstruction_report(X, model)
    # the report covers the deepest len(mses) depths, ending at every book
    for depth, mse in enumerate(mses, start=model.N_q - len(mses) + 1):
        print(f"depth {depth}: mse={_fmt(mse)}")
    return 0


# ------------------------------------------------------------------ metrics


def _cmd_metrics_mcd(args) -> int:
    value = mcd(load_features(args.ref), load_features(args.syn), scale_db=args.scale_db)
    print(f"mcd={_fmt(value)}")
    return 0


def _cmd_metrics_ssim(args) -> int:
    value = ssim(load_features(args.ref), load_features(args.syn), window=args.window)
    print(f"ssim={_fmt(value)}")
    return 0


def _cmd_metrics_pitch(args) -> int:
    result = pitch_errors(
        load_pitch_track(args.ref), load_pitch_track(args.syn), gpe_threshold=args.threshold
    )
    gpe = "none" if result["gpe"] is None else _fmt(result["gpe"])
    print(f"gpe={gpe} vde={_fmt(result['vde'])} ffe={_fmt(result['ffe'])}")
    return 0


# ---------------------------------------------------------------------- aux


def _cmd_aux_infonce(args) -> int:
    print(f"infonce={_fmt(info_nce(load_features(args.input), temperature=args.tau))}")
    return 0


def _cmd_aux_rank_loss(args) -> int:
    value = contrastive_ranking_loss(load_features(args.input), margin=args.margin)
    print(f"rank_loss={_fmt(value)}")
    return 0


def _cmd_aux_recall(args) -> int:
    value = recall_at_k(load_features(args.input), args.k)
    print(f"recall@{args.k}={_fmt(value)}")
    return 0


def _cmd_aux_club(args) -> int:
    data = load_features(args.input)
    dim_x = args.dim_x if args.dim_x is not None else data.shape[1] // 2
    if not 1 <= dim_x < data.shape[1]:
        raise ValueError(
            f"--dim-x must split the {data.shape[1]} columns into two non-empty "
            f"blocks, got {dim_x}"
        )
    print(f"club_mi={_fmt(club_mi(data[:, :dim_x], data[:, dim_x:]))}")
    return 0


# ----------------------------------------------------------------- selftest


def _selftest_transitions(rng) -> str:
    worst = 0.0
    for _ in range(10):
        K = int(rng.integers(2, 5))
        T = int(rng.integers(2, 7))
        worst = max(worst, _check_schedule_against_products(random_schedule(rng, T, K)))
    return f"max |closed-form - product| = {worst:.3e} over 10 random schedules"


def _selftest_posterior(rng) -> str:
    """Exhaustive Bayes check through explicit matrices at K=3, T=4."""
    K, T = 3, 4
    table = random_schedule(rng, T, K)
    worst = 0.0
    for t in range(1, T + 1):
        step = build_transition_matrix(
            *(float(c) for c in table.stepwise(t)), K
        )
        for x0 in range(K):
            prev = marginal_xt_given_x0(x0, t - 1, table)
            for x_t in range(K + 1):
                joint = step[x_t, :] * prev
                total = joint.sum()
                if total <= 0.0:
                    continue
                expect = joint / total
                got = true_posterior(x_t, x0, t, table)
                if abs(got.sum() - 1.0) > 1e-12:
                    raise VqdiffError("posterior row does not sum to 1")
                worst = max(worst, float(np.max(np.abs(got - expect))))
    if worst > 1e-12:
        raise VqdiffError(f"posterior deviates from enumerated Bayes by {worst:.3e}")
    return f"exhaustive posterior (K={K}, T={T}) max deviation = {worst:.3e}"


def _selftest_bayes_recovery(rng) -> str:
    """Sampling with the exact-Bayes denoiser reproduces a toy target."""
    K, L, T = 3, 2, 6
    table = linear_schedule(T, K)
    support = [
        TokenGrid(data=np.array([[0, 2]]), K=K),
        TokenGrid(data=np.array([[1, 1]]), K=K),
    ]
    probs = [0.7, 0.3]
    denoiser = bayes_oracle_denoiser(support, probs, table)
    n = 3000
    base = int(rng.integers(2**32))
    counts = {0: 0, 1: 0, "other": 0}
    for i in range(n):
        out = sample(denoiser, None, table, rng=np.random.default_rng([base, i]))
        for j, g in enumerate(support):
            if np.array_equal(out.data, g.data):
                counts[j] += 1
                break
        else:
            counts["other"] += 1
    tv = 0.5 * (
        abs(counts[0] / n - probs[0])
        + abs(counts[1] / n - probs[1])
        + counts["other"] / n
    )
    if tv >= 0.1:
        raise VqdiffError(f"Bayes recovery TV distance {tv:.4f} >= 0.1")
    return f"Bayes recovery over {n} chains: TV = {tv:.4f} < 0.1"


def _cmd_selftest(args) -> int:
    rng = np.random.default_rng(args.seed)
    suites = [
        ("transitions", _selftest_transitions),
        ("posterior", _selftest_posterior),
        ("bayes-recovery", _selftest_bayes_recovery),
    ]
    for name, fn in suites:
        detail = fn(rng)
        print(f"{name}: PASS ({detail})")
    return 0


# ------------------------------------------------------------------ parser


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="vqdiff", description=__doc__)
    parser.add_argument("--version", action="version", version=f"vqdiff {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    # schedule
    p_sched = sub.add_parser("schedule", help="noise schedule tools")
    sched_sub = p_sched.add_subparsers(dest="subcommand", required=True)
    p = sched_sub.add_parser("inspect", help="print a schedule table")
    p.add_argument("--kind", choices=("linear", "improved"), default="linear")
    p.add_argument("--T", type=int, required=True)
    p.add_argument("--K", type=int, required=True)
    p.add_argument("--n-q", type=int, default=None, help="codebook count (improved)")
    p.add_argument("--out", default=None, help="also write the schedule as JSON")
    p.set_defaults(func=_cmd_schedule_inspect)

    # transitions
    p_trans = sub.add_parser("transitions", help="transition-matrix oracles")
    trans_sub = p_trans.add_subparsers(dest="subcommand", required=True)
    p = trans_sub.add_parser("check", help="closed form vs explicit matrix products")
    p.add_argument("--K", type=int, required=True)
    p.add_argument("--T", type=int, required=True)
    p.add_argument("--schedules", type=int, default=5, help="random schedules to draw")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_transitions_check)

    # diffuse
    p_diff = sub.add_parser("diffuse", help="forward corruption and reverse sampling")
    diff_sub = p_diff.add_subparsers(dest="subcommand", required=True)

    p = diff_sub.add_parser("corrupt", help="apply the forward process at step t")
    p.add_argument("--tokens", required=True)
    p.add_argument("--schedule", required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_diffuse_corrupt)

    p = diff_sub.add_parser("sample", help="run the reverse process")
    p.add_argument("--denoiser", required=True)
    p.add_argument("--schedule", required=True)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cond", type=int, default=None, help="condition label")
    p.add_argument("--lambda", dest="guidance_scale", type=float, default=0.0,
                   help="guidance scale")
    p.add_argument("--guidance-mode", choices=("log", "prob"), default="log")
    p.add_argument("--stride", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_diffuse_sample)

    p = diff_sub.add_parser("train", help="fit the tabular denoiser")
    p.add_argument("--tokens", required=True)
    p.add_argument("--schedule", required=True)
    p.add_argument("--epochs", type=int, default=30)
    p.add_argument("--lr", type=float, default=1.0)
    p.add_argument("--null-cond-prob", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_diffuse_train)

    p = diff_sub.add_parser("vlb", help="variational bound of grids under a denoiser")
    p.add_argument("--denoiser", required=True)
    p.add_argument("--tokens", required=True)
    p.add_argument("--schedule", required=True)
    p.add_argument("--samples", type=int, default=8, help="t draws per grid")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_diffuse_vlb)

    # codec
    p_codec = sub.add_parser("codec", help="vector-quantization codecs")
    codec_sub = p_codec.add_subparsers(dest="subcommand", required=True)

    p = codec_sub.add_parser("fit", help="fit codebooks with Lloyd's algorithm")
    p.add_argument("--features", required=True)
    p.add_argument("--kind", choices=("VQ", "RVQ", "GVQ", "GRVQ"), required=True)
    p.add_argument("--Kp", type=int, required=True, help="codes per book")
    p.add_argument("--G", type=int, default=1, help="groups")
    p.add_argument("--R", type=int, default=1, help="residual depth")
    p.add_argument("--iters", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dropout", action="store_true", help="variable-depth fitting (RVQ)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_codec_fit)

    p = codec_sub.add_parser("encode", help="quantize features to tokens")
    p.add_argument("--features", required=True)
    p.add_argument("--codec", required=True)
    p.add_argument("--active", type=int, default=None, help="books to use (RVQ/GRVQ)")
    p.add_argument("--out", required=True)
    p.add_argument("--recon", default=None, help="also write the reconstruction CSV")
    p.set_defaults(func=_cmd_codec_encode)

    p = codec_sub.add_parser("decode", help="reconstruct features from tokens")
    p.add_argument("--tokens", required=True)
    p.add_argument("--codec", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_codec_decode)

    p = codec_sub.add_parser("report", help="per-depth reconstruction error")
    p.add_argument("--features", required=True)
    p.add_argument("--codec", required=True)
    p.set_defaults(func=_cmd_codec_report)

    # metrics
    p_met = sub.add_parser("metrics", help="objective evaluation metrics")
    met_sub = p_met.add_subparsers(dest="subcommand", required=True)

    p = met_sub.add_parser("mcd", help="mel-cepstral distortion")
    p.add_argument("--ref", required=True)
    p.add_argument("--syn", required=True)
    p.add_argument("--scale-db", action="store_true")
    p.set_defaults(func=_cmd_metrics_mcd)

    p = met_sub.add_parser("ssim", help="structural similarity")
    p.add_argument("--ref", required=True)
    p.add_argument("--syn", required=True)
    p.add_argument("--window", type=int, default=DEFAULT_SSIM_WINDOW)
    p.set_defaults(func=_cmd_metrics_ssim)

    p = met_sub.add_parser("pitch", help="GPE/VDE/FFE pitch errors")
    p.add_argument("--ref", required=True)
    p.add_argument("--syn", required=True)
    p.add_argument("--threshold", type=float, default=DEFAULT_GPE_THRESHOLD)
    p.set_defaults(func=_cmd_metrics_pitch)

    # aux
    p_aux = sub.add_parser("aux", help="contrastive losses and MI diagnostics")
    aux_sub = p_aux.add_subparsers(dest="subcommand", required=True)

    p = aux_sub.add_parser("infonce", help="symmetric InfoNCE loss")
    p.add_argument("--input", required=True, help="similarity matrix CSV")
    p.add_argument("--tau", type=float, default=1.0)
    p.set_defaults(func=_cmd_aux_infonce)

    p = aux_sub.add_parser("rank-loss", help="bidirectional margin ranking loss")
    p.add_argument("--input", required=True, help="similarity matrix CSV")
    p.add_argument("--margin", type=float, default=0.2)
    p.set_defaults(func=_cmd_aux_rank_loss)

    p = aux_sub.add_parser("recall", help="retrieval recall at rank k")
    p.add_argument("--input", required=True, help="similarity matrix CSV")
    p.add_argument("--k", type=int, default=1)
    p.set_defaults(func=_cmd_aux_recall)

    p = aux_sub.add_parser("club", help="CLUB mutual-information upper bound")
    p.add_argument("--input", required=True, help="CSV of x columns then y columns")
    p.add_argument("--dim-x", type=int, default=None,
                   help="columns belonging to x (default: half)")
    p.set_defaults(func=_cmd_aux_club)

    # selftest
    p = sub.add_parser("selftest", help="run the brute-force oracle suites")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_selftest)

    return parser


def run(argv=None) -> int:
    """Execute one CLI invocation; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse signals usage errors/help this way
        code = exc.code
        return int(code) if code is not None else 0
    try:
        return args.func(args)
    except (VqdiffError, ValueError, OSError) as exc:  # JSON decode errors are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
