"""Command-line surface for schedules, diffusion, codecs, metrics and
auxiliary losses.

Conventions: structured artifacts are JSON, matrices and pitch tracks are
CSV.  Exit codes: 0 success, 1 domain error, 2 usage error.  All error
text goes to stderr with the prefix ``error:``.  Every output file is
written atomically, so a failing command never leaves a partial file.
Stochastic commands take ``--seed`` and are bit-reproducible; ``diffuse
sample`` derives one stream per chain from (seed, chain index) for one
``sample_chains`` call, so the result does not depend on how chains would be scheduled.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import __version__
from .auxiliary import club_mi, contrastive_ranking_loss, info_nce, recall_at_k
from .codec import (
    FitConfig,
    _depths,
    _mse,
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
    sample_chains,
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
from .tokens import TokenGrid, _at_least, load_token_file, save_token_file
from .transitions import (
    brute_force_cumulative,
    build_transition_matrix,
    marginal_xt_given_x0,
    true_posterior,
)


# the text of ``vqdiff --help``, kept apart from the module docstring; argparse reflows it
_DESCRIPTION = (
    "Command-line surface for schedules, diffusion, codecs, metrics and auxiliary losses.  "
    "Conventions: structured artifacts are JSON, matrices and pitch tracks are CSV.  Exit "
    "codes: 0 success, 1 domain error, 2 usage error.  All error text goes to stderr with the "
    "prefix ``error:``.  Every output file is written atomically, so a failing command never "
    "leaves a partial file.  Stochastic commands take ``--seed`` and are bit-reproducible; "
    "``diffuse sample`` derives one stream per chain from (seed, chain index), so the result "
    "does not depend on how chains would be scheduled."
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


def _cmd_schedule_inspect(args) -> None:
    if args.kind == "linear":
        if args.n_q is not None:
            raise ValueError("--n-q applies only to the improved schedule")
        table = linear_schedule(args.T, args.K)
    else:
        if args.n_q is None:
            raise ValueError("--n-q is required for the improved schedule")
        table = improved_schedule(args.T, args.K, args.n_q)
    print(format_table(table))
    if args.out:
        save_schedule(args.out, table)


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


def _cmd_transitions_check(args) -> None:
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


# ------------------------------------------------------------------ diffuse


def _cmd_diffuse_corrupt(args) -> None:
    table = load_schedule(args.schedule)
    grids, labels = load_token_file(args.tokens)
    rng = np.random.default_rng(args.seed)
    noisy = [corrupt(g, args.t, table, rng) for g in grids]
    save_token_file(args.out, noisy, labels)
    print(f"corrupted {len(noisy)} grid(s) at t={args.t} -> {args.out}")


def _cmd_diffuse_sample(args) -> None:
    table, denoiser = load_schedule(args.schedule), load_denoiser(args.denoiser)
    rngs = [np.random.default_rng([args.seed, i]) for i in range(args.count)]
    grids = sample_chains(denoiser, args.cond, table, rngs, stride=args.stride,
                          guidance_scale=args.guidance_scale, guidance_mode=args.guidance_mode)
    labels = None if args.cond is None else [args.cond] * len(grids)
    save_token_file(args.out, grids, labels)
    print(f"sampled {len(grids)} grid(s) -> {args.out}")


def _cmd_diffuse_train(args) -> None:
    table = load_schedule(args.schedule)
    grids, labels = load_token_file(args.tokens)
    dataset = list(zip(grids, labels or [None] * len(grids)))
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


def _cmd_diffuse_vlb(args) -> None:
    table, denoiser = load_schedule(args.schedule), load_denoiser(args.denoiser)
    grids, labels = load_token_file(args.tokens)
    rng = np.random.default_rng(args.seed)
    values = []
    for i, (grid, cond) in enumerate(zip(grids, labels or [None] * len(grids))):
        value = vlb_loss(denoiser, grid, cond, table, rng, num_t_samples=args.samples)
        values.append(value)
        print(f"grid {i}: vlb={_fmt(value)}")
    print(f"mean vlb={_fmt(np.mean(values))}")


# -------------------------------------------------------------------- codec


def _cmd_codec_fit(args) -> None:
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


def _cmd_codec_encode(args) -> None:
    X = load_features(args.features)
    model = load_codec(args.codec)
    grid, recon = quantize(X, model, active_books=args.active)
    mse = _mse(X, recon)
    save_token_file(args.out, [grid])
    if args.recon:
        save_features(args.recon, recon)
    print(f"encoded {X.shape[0]} frame(s) with {grid.N_q} book(s); mse={_fmt(mse)}")


def _cmd_codec_decode(args) -> None:
    model = load_codec(args.codec)
    grids, _ = load_token_file(args.tokens)
    if len(grids) != 1:
        raise ValueError(f"decode expects a token file with 1 grid, got {len(grids)}")
    recon = dequantize(grids[0], model)
    save_features(args.out, recon)
    print(f"decoded {recon.shape[0]} frame(s) -> {args.out}")


def _cmd_codec_report(args) -> None:
    X = load_features(args.features)
    model = load_codec(args.codec)
    mses = reconstruction_report(X, model)
    for depth, mse in zip(_depths(model), mses):
        print(f"depth {depth}: mse={_fmt(mse)}")


# ------------------------------------------------------------------ metrics


def _cmd_metrics_mcd(args) -> None:
    value = mcd(load_features(args.ref), load_features(args.syn), scale_db=args.scale_db)
    print(f"mcd={_fmt(value)}")


def _cmd_metrics_ssim(args) -> None:
    value = ssim(load_features(args.ref), load_features(args.syn), window=args.window)
    print(f"ssim={_fmt(value)}")


def _cmd_metrics_pitch(args) -> None:
    result = pitch_errors(
        load_pitch_track(args.ref), load_pitch_track(args.syn), gpe_threshold=args.threshold
    )
    gpe = "none" if result["gpe"] is None else _fmt(result["gpe"])
    print(f"gpe={gpe} vde={_fmt(result['vde'])} ffe={_fmt(result['ffe'])}")


# ---------------------------------------------------------------------- aux


def _cmd_aux_infonce(args) -> None:
    print(f"infonce={_fmt(info_nce(load_features(args.input), temperature=args.tau))}")


def _cmd_aux_rank_loss(args) -> None:
    value = contrastive_ranking_loss(load_features(args.input), margin=args.margin)
    print(f"rank_loss={_fmt(value)}")


def _cmd_aux_recall(args) -> None:
    value = recall_at_k(load_features(args.input), args.k)
    print(f"recall@{args.k}={_fmt(value)}")


def _cmd_aux_club(args) -> None:
    data = load_features(args.input)
    dim_x = args.dim_x if args.dim_x is not None else data.shape[1] // 2
    if not 1 <= dim_x < data.shape[1]:
        raise ValueError(
            f"--dim-x must split the {data.shape[1]} columns into two non-empty "
            f"blocks, got {dim_x}"
        )
    print(f"club_mi={_fmt(club_mi(data[:, :dim_x], data[:, dim_x:]))}")


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
    n, seed = 3000, int(rng.integers(2**32))
    rngs = [np.random.default_rng([seed, i]) for i in range(n)]
    outs = sample_chains(denoiser, None, table, rngs)
    hits = [sum(np.array_equal(out.data, g.data) for out in outs) for g in support]
    # a grid outside the support has target probability 0
    tv = 0.5 * (abs(hits[0] / n - probs[0]) + abs(hits[1] / n - probs[1]) + (n - sum(hits)) / n)
    if tv >= 0.1:
        raise VqdiffError(f"Bayes recovery TV distance {tv:.4f} >= 0.1")
    return f"Bayes recovery over {n} chains: TV = {tv:.4f} < 0.1"


def _cmd_selftest(args) -> None:
    rng = np.random.default_rng(args.seed)
    suites = [
        ("transitions", _selftest_transitions),
        ("posterior", _selftest_posterior),
        ("bayes-recovery", _selftest_bayes_recovery),
    ]
    for name, fn in suites:
        detail = fn(rng)
        print(f"{name}: PASS ({detail})")


# ------------------------------------------------------------------ parser


# Flags that several commands share, each defined once as (flag, options[, least value]).
_T = ("--T", dict(type=int, required=True), 1)
_K = ("--K", dict(type=int, required=True), 2)
_SEED = ("--seed", dict(type=int, default=0), 0)
_OUT = ("--out", dict(required=True))
_TOKENS = ("--tokens", dict(required=True))
_SCHEDULE = ("--schedule", dict(required=True))
_DENOISER = ("--denoiser", dict(required=True))
_FEATURES = ("--features", dict(required=True))
_CODEC = ("--codec", dict(required=True))
_REF = ("--ref", dict(required=True))
_SYN = ("--syn", dict(required=True))
_SIMILARITY = ("--input", dict(required=True, help="similarity matrix CSV"))


def _group(sub, name: str, help: str):
    """Add the command group ``name``; returns the action its subcommands join."""
    return sub.add_parser(name, help=help).add_subparsers(dest="subcommand", required=True)


def _command(sub, name: str, help: str, func, *flags) -> None:
    """Add the subcommand ``name``, run by ``func``, with ``flags`` in --help order."""
    p, bounds = sub.add_parser(name, help=help), []
    for flag, options, *least in flags:
        dest = p.add_argument(flag, **options).dest
        bounds += [(flag, dest, low) for low in least]
    p.set_defaults(func=func, bounds=bounds)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="vqdiff", description=_DESCRIPTION)
    parser.add_argument("--version", action="version", version=f"vqdiff {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    group = _group(sub, "schedule", "noise schedule tools")
    _command(group, "inspect", "print a schedule table", _cmd_schedule_inspect,
             ("--kind", dict(choices=("linear", "improved"), default="linear")), _T, _K,
             ("--n-q", dict(type=int, default=None, help="codebook count (improved)"), 1),
             ("--out", dict(default=None, help="also write the schedule as JSON")))

    group = _group(sub, "transitions", "transition-matrix oracles")
    _command(group, "check", "closed form vs explicit matrix products", _cmd_transitions_check,
             _K, _T,
             ("--schedules", dict(type=int, default=5, help="random schedules to draw"), 0), _SEED)

    group = _group(sub, "diffuse", "forward corruption and reverse sampling")
    _command(group, "corrupt", "apply the forward process at step t", _cmd_diffuse_corrupt,
             _TOKENS, _SCHEDULE, ("--t", dict(type=int, required=True), 0), _SEED, _OUT)
    _command(group, "sample", "run the reverse process", _cmd_diffuse_sample,
             _DENOISER, _SCHEDULE, ("--count", dict(type=int, default=1), 1), _SEED,
             ("--cond", dict(type=int, default=None, help="condition label")),
             ("--lambda", dict(dest="guidance_scale", type=float, default=0.0,
                               help="guidance scale")),
             ("--guidance-mode", dict(choices=("log", "prob"), default="log")),
             ("--stride", dict(type=int, default=1), 1), _OUT)
    _command(group, "train", "fit the tabular denoiser", _cmd_diffuse_train,
             _TOKENS, _SCHEDULE, ("--epochs", dict(type=int, default=30), 1),
             ("--lr", dict(type=float, default=1.0)),
             ("--null-cond-prob", dict(type=float, default=0.1)), _SEED, _OUT)
    _command(group, "vlb", "variational bound of grids under a denoiser", _cmd_diffuse_vlb,
             _DENOISER, _TOKENS, _SCHEDULE,
             ("--samples", dict(type=int, default=8, help="t draws per grid"), 1), _SEED)

    group = _group(sub, "codec", "vector-quantization codecs")
    _command(group, "fit", "fit codebooks with Lloyd's algorithm", _cmd_codec_fit,
             _FEATURES, ("--kind", dict(choices=("VQ", "RVQ", "GVQ", "GRVQ"), required=True)),
             ("--Kp", dict(type=int, required=True, help="codes per book"), 2),
             ("--G", dict(type=int, default=1, help="groups"), 1),
             ("--R", dict(type=int, default=1, help="residual depth"), 1),
             ("--iters", dict(type=int, default=50), 1), _SEED,
             ("--dropout", dict(action="store_true", help="variable-depth fitting (RVQ)")), _OUT)
    _command(group, "encode", "quantize features to tokens", _cmd_codec_encode,
             _FEATURES, _CODEC,
             ("--active", dict(type=int, default=None, help="books to use (RVQ/GRVQ)"), 1), _OUT,
             ("--recon", dict(default=None, help="also write the reconstruction CSV")))
    _command(group, "decode", "reconstruct features from tokens", _cmd_codec_decode,
             _TOKENS, _CODEC, _OUT)
    _command(group, "report", "per-depth reconstruction error", _cmd_codec_report,
             _FEATURES, _CODEC)

    group = _group(sub, "metrics", "objective evaluation metrics")
    _command(group, "mcd", "mel-cepstral distortion", _cmd_metrics_mcd,
             _REF, _SYN, ("--scale-db", dict(action="store_true")))
    _command(group, "ssim", "structural similarity", _cmd_metrics_ssim,
             _REF, _SYN, ("--window", dict(type=int, default=DEFAULT_SSIM_WINDOW), 1))
    _command(group, "pitch", "GPE/VDE/FFE pitch errors", _cmd_metrics_pitch,
             _REF, _SYN, ("--threshold", dict(type=float, default=DEFAULT_GPE_THRESHOLD)))

    group = _group(sub, "aux", "contrastive losses and MI diagnostics")
    _command(group, "infonce", "symmetric InfoNCE loss", _cmd_aux_infonce,
             _SIMILARITY, ("--tau", dict(type=float, default=1.0)))
    _command(group, "rank-loss", "bidirectional margin ranking loss", _cmd_aux_rank_loss,
             _SIMILARITY, ("--margin", dict(type=float, default=0.2)))
    _command(group, "recall", "retrieval recall at rank k", _cmd_aux_recall,
             _SIMILARITY, ("--k", dict(type=int, default=1), 1))
    _command(group, "club", "CLUB mutual-information upper bound", _cmd_aux_club,
             ("--input", dict(required=True, help="CSV of x columns then y columns")),
             ("--dim-x", dict(type=int, default=None,
                              help="columns belonging to x (default: half)")))

    _command(sub, "selftest", "run the brute-force oracle suites", _cmd_selftest, _SEED)
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
        for flag, dest, least in args.bounds:  # every integer flag, before any file is read
            if getattr(args, dest) is not None:
                _at_least(flag, getattr(args, dest), least)
        args.func(args)
    except (VqdiffError, ValueError, OSError) as exc:  # JSON decode errors are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
