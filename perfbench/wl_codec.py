"""codec: residual VQ fitting, encoding and evaluation; no diffusion code.

Features: 16384 x 32 frames from 128 Gaussian clusters (centres ~ N(0, 9),
unit noise), written once as the CSV features file the ``codec`` commands
read.  Set-up is ``load_features`` of that file.  A job mirrors the CLI
path ``codec fit`` (RVQ, Kp=256, R=4, 10 Lloyd iterations) with
``save_codec``, ENCODES runs of ``codec encode`` (``load_codec``, one
``quantize`` of the whole file, ``save_token_file``), as when a fitted
codec encodes a set of files, then ``codec decode`` (``load_token_file``,
``dequantize``), ``codec report``, and the MCD and SSIM of the
reconstruction.  k-means++ seeding, Lloyd assign/update and BLAS distance
products dominate, so sampler and training changes predict no change
here, and codec changes predict none on the other two workloads.
"""

from __future__ import annotations

import os
import time
import types

import numpy as np
from vqdiff import (
    FitConfig,
    dequantize,
    fit_codebooks,
    load_codec,
    load_features,
    load_token_file,
    mcd,
    quantize,
    reconstruction_report,
    save_codec,
    save_features,
    save_token_file,
    ssim,
)

from harness import job_seed, median, sha256

NAME = "codec"
WHY = (
    "RVQ fit (Kp=256, R=4, 10 iters) on 16k x 32 clustered frames, 8 whole-file encodes, "
    "decode, report, MCD, SSIM, codec JSON; k-means++, Lloyd and BLAS dominate, no diffusion code"
)
FRAMES, DIMS, CLUSTERS = 16384, 32, 128
KP, R, ITERS = 256, 4, 10
ENCODES = 8  # whole-file encodes per job, enough for a latency percentile
MIN_JOBS = 1  # the determinism digest covers job 0
PREFIX_FRAMES = 1000
FIT1_PROBES = 3

# Untraced runs scale their times to reference speed (harness.Reference),
# with kernels like k-means++ passes over the frames, the BLAS distance
# blocks of assignment and the text parsing of load_features; a burst
# after every call.
REFERENCE = ("array_passes", "distances", "parse")
REFERENCE_EVERY_S = 0.0

ITEM = "codec.quantize"
TAIL_PCT = 90.0
ITEM_UNITS = FRAMES
ITEM_NOUN = f"encode of the whole {FRAMES}-frame file"
MODEL = "codec.fit_codebooks"
ALIASES = {"items_per_s": "encode_frames_per_s", "item_ms_p50": "quantize_ms_p50",
           "item_ms_tail": "quantize_ms_{tail}", "model_s": "codec_fit_s"}
IO = (
    "codec.save_codec",
    "codec.load_codec",
    "tokens.save_token_file",
    "tokens.load_token_file",
)
EVAL = ("codec.reconstruction_report", "metrics.mcd", "metrics.ssim")


def config(seed: int, iters: int = ITERS) -> FitConfig:
    return FitConfig(kind="RVQ", Kp=KP, R=R, iters=iters, seed=seed)


def inputs(seed: int, tmpdir: str) -> dict:
    """The features file every ``codec`` command reads."""
    rng = np.random.default_rng(seed)
    centres = rng.normal(0.0, 3.0, size=(CLUSTERS, DIMS))
    X = centres[rng.integers(0, CLUSTERS, size=FRAMES)] + rng.normal(size=(FRAMES, DIMS))
    path = os.path.join(tmpdir, "features.csv")
    save_features(path, X)
    return {"tmpdir": tmpdir, "features": path}


def setup(seed: int, files: dict):
    """Load the features as the ``codec`` commands do."""
    return types.SimpleNamespace(
        seed=seed,
        tmpdir=files["tmpdir"],
        X=load_features(files["features"]),
        json_bytes=[],
        file_bytes=[],
        lloyd_iters=[],
        mse=[],
        digests={},
        first=None,
    )


def job(ctx, rec, j: int):
    X = ctx.X
    model = rec.call(MODEL, fit_codebooks, X, config(job_seed(ctx.seed, j)))
    path = os.path.join(ctx.tmpdir, f"codec-{j}.json")
    rec.call(IO[0], save_codec, path, model)
    tok_path = os.path.join(ctx.tmpdir, f"tokens-{j}.json")
    encodes = []
    for _ in range(ENCODES):
        loaded = rec.call(IO[1], load_codec, path)
        grid, recon = rec.call(ITEM, quantize, X, loaded)
        rec.call(IO[2], save_token_file, tok_path, [grid])
        encodes.append(grid)
    back, _ = rec.call(IO[3], load_token_file, tok_path)
    decoded = rec.call("codec.dequantize", dequantize, back[0], loaded)
    mses = rec.call(EVAL[0], reconstruction_report, X, loaded)
    m = rec.call(EVAL[1], mcd, X, recon)
    s = rec.call(EVAL[2], ssim, X, recon)
    return model, loaded, path, encodes, recon, back, tok_path, decoded, mses, m, s


def check_job(ctx, rec, j: int, out) -> None:
    model, loaded, path, encodes, recon, back, tok_path, decoded, mses, m, s = out
    grid = encodes[-1]
    ctx.json_bytes.append(os.path.getsize(path))
    ctx.file_bytes.append(os.path.getsize(tok_path))
    os.remove(path)
    os.remove(tok_path)
    rec.check("repeated encodes identical",
              all(np.array_equal(g.data, grid.data) for g in encodes), f"job {j}")
    rec.check("codec JSON round trip exact",
              (loaded.kind, loaded.G, loaded.R, loaded.Kp) == (model.kind, model.G, model.R, model.Kp)
              and all(np.array_equal(a, b) for a, b in zip(model.codebooks, loaded.codebooks)),
              f"job {j}")
    rec.check("inertia non-increasing per book",
              all(b <= a * (1 + 1e-9) for tr in model.inertia_traces for a, b in zip(tr, tr[1:])),
              f"job {j}")
    rec.check("token file round trip exact",
              len(back) == 1 and np.array_equal(back[0].data, grid.data), f"job {j}")
    rec.check("dequantize(quantize(X)) equals the reconstruction",
              np.array_equal(decoded, recon), f"job {j}")
    rec.check("reconstruction MSE non-increasing in depth",
              len(mses) == R and all(b <= a + 1e-12 for a, b in zip(mses, mses[1:])),
              f"job {j}: {mses}")
    rec.check("MCD and SSIM finite", np.isfinite(m) and np.isfinite(s), f"job {j}")
    ctx.lloyd_iters.append(sum(len(tr) for tr in model.inertia_traces))
    ctx.mse.append(mses[-1])
    if j == 0:
        ctx.first = types.SimpleNamespace(model=loaded, grid=grid)
        ctx.digests = {
            "job0_codebooks": sha256(*model.codebooks),
            "job0_tokens": sha256(grid.data),
        }


def finish(ctx, rec) -> dict:
    # a frame's tokens must not depend on how many frames were encoded
    # with it: encode the first frames alone and compare
    head, _ = quantize(ctx.X[:PREFIX_FRAMES], ctx.first.model)
    rec.check("frame tokens independent of batch size",
              np.array_equal(head.data, ctx.first.grid.data[:, :PREFIX_FRAMES]))
    return {"digests": ctx.digests, "mse_full_depth": ctx.mse}


def named_metrics(rec, ctx) -> dict:
    return {
        "codec_eval_s": (median(rec.per_job(EVAL)), "s"),
        "codec_mse": (median(ctx.mse), "mse"),
    }


def probes(ctx) -> dict:
    """``fit_codebooks(iters=1)``: k-means++ seeding plus one Lloyd step per
    book; the median of FIT1_PROBES calls."""
    times = []
    for _ in range(FIT1_PROBES):
        t0 = time.perf_counter()
        fit_codebooks(ctx.X, config(job_seed(ctx.seed, 0), iters=1))
        times.append(time.perf_counter() - t0)
    return {"codec.fit_iters1.s": median(times)}


def layer_metrics(summary: dict, probe: dict, ctx) -> dict:
    def mean(name, scale):
        s = summary[name]
        return s["total_ns"] / s["count"] * scale

    fit_s = mean(MODEL, 1e-9)
    fit1_s = probe["codec.fit_iters1.s"]
    iters = float(np.mean(ctx.lloyd_iters))
    # one assignment pass per Lloyd step plus one per book for the residual
    passes = iters + R
    io = summary[IO[0]]["total_ns"] + summary[IO[1]]["total_ns"] / ENCODES
    return {
        "codec.fit.s": (fit_s, "s"),
        "codec.fit_iters1.s": (fit1_s, "s"),
        "codec.lloyd.iters": (iters, "count"),
        "codec.lloyd.ms_per_iter": ((fit_s - fit1_s) / (iters - R) * 1e3, "ms"),
        "codec.assign.gflop": (passes * 2.0 * FRAMES * KP * DIMS / 1e9, "GFLOP"),
        "codec.quantize.ms": (mean(ITEM, 1e-6), "ms"),
        "codec.dequantize.ms": (mean("codec.dequantize", 1e-6), "ms"),
        "codec.report.ms": (mean(EVAL[0], 1e-6), "ms"),
        "codec.io.ms": (io / summary[IO[0]]["count"] / 1e6, "ms"),
        "codec.json.bytes": (sum(ctx.json_bytes) / len(ctx.json_bytes), "bytes"),
        "codec.mse": (float(np.mean(ctx.mse)), "mse"),
        "metrics.mcd.ms": (mean(EVAL[1], 1e-6), "ms"),
        "metrics.ssim.ms": (mean(EVAL[2], 1e-6), "ms"),
    }
