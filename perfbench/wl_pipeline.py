"""pipeline: the CLI path ``diffuse train`` -> denoiser file -> ``diffuse
sample`` (guided) -> token file -> ``diffuse vlb``.

Data: a two-class token dataset, 32 grids per class, each drawn from its
class prototype with 20% of tokens replaced uniformly, written once as the
token file ``diffuse train`` reads; set-up is ``load_token_file`` of it and
the schedule construction.  K=16, 4x32 grids,
the per-codebook ("improved") schedule with T=20.  Sampling is guided
(lambda=0.5, log mode), so every step makes two ``predict`` calls over
128 positions and array work and ``cfg_combine`` dominate, not call
overhead.  It is the only workload with the training gradient, the
per-codebook schedule and JSON denoiser I/O.

Job j stands for CLI invocations with ``--seed s_j``, s_j drawn from
SeedSequence([seed, j]): train (5 epochs = 320 SGD steps), save and load
the denoiser, sample 32 chains per class with ``default_rng([s_j, i])``,
save and load them as a token file, then the VLB of 16 dataset grids
with 8 t-draws each.
"""

from __future__ import annotations

import os
import types

import numpy as np
from vqdiff import (
    TokenGrid,
    TrainConfig,
    cfg_combine,
    corrupt,
    improved_schedule,
    load_denoiser,
    load_token_file,
    reverse_step,
    sample,
    save_denoiser,
    save_token_file,
    train_denoiser,
    vlb_loss,
)

from harness import (
    Tracer,
    TracedDenoiser,
    TracedGenerator,
    job_seed,
    median,
    probe_rng,
    self_us,
    sha256,
)

NAME = "pipeline"
WHY = (
    "CLI train -> save/load denoiser -> guided sample -> token file -> vlb at K=16, 4x32, "
    "improved schedule; array work, cfg_combine, training gradient and JSON I/O dominate"
)
K, N_Q, L, T = 16, 4, 32, 20
PER_CLASS = 32
TOKEN_NOISE = 0.2
CONFIG = TrainConfig(epochs=5, lr=1.0, null_cond_prob=0.1)
GUIDANCE = 0.5
CHAINS_PER_CLASS = 32
VLB_GRIDS = 16
VLB_T_SAMPLES = 8
MIN_JOBS = 1  # the determinism digest covers job 0
PREFIX_CHAINS = 4
PROBE_CALLS = 200

# Untraced runs scale their times to reference speed (harness.Reference),
# with kernels that slow down the way sampling and training do; at most one
# burst per REFERENCE_EVERY_S seconds.
REFERENCE = ("python", "small_arrays")
REFERENCE_EVERY_S = 0.02

ITEM = "diffusion.sample"
TAIL_PCT = 90.0
ITEM_UNITS = 1
ITEM_NOUN = "guided chain"
MODEL = "diffusion.train_denoiser"
ALIASES = {"items_per_s": "chains_per_s", "item_ms_p50": "chain_ms_p50",
           "item_ms_tail": "chain_ms_{tail}"}
IO = (
    "diffusion.save_denoiser",
    "diffusion.load_denoiser",
    "tokens.save_token_file",
    "tokens.load_token_file",
)


def inputs(seed: int, tmpdir: str) -> dict:
    """The training token file ``diffuse train`` and ``diffuse vlb`` read."""
    rng = np.random.default_rng(seed)
    protos = rng.integers(0, K, size=(2, N_Q, L))
    grids, labels = [], []
    for label in (0, 1):
        for _ in range(PER_CLASS):
            noisy = rng.random((N_Q, L)) < TOKEN_NOISE
            data = np.where(noisy, rng.integers(0, K, size=(N_Q, L)), protos[label])
            grids.append(TokenGrid(data=data, K=K))
            labels.append(label)
    path = os.path.join(tmpdir, "dataset.json")
    save_token_file(path, grids, labels)
    return {"tmpdir": tmpdir, "dataset": path}


def setup(seed: int, files: dict):
    """Load the dataset as ``diffuse train`` does and build the schedule."""
    grids, labels = load_token_file(files["dataset"])
    dataset = list(zip(grids, labels))
    half = VLB_GRIDS // 2
    return types.SimpleNamespace(
        seed=seed,
        tmpdir=files["tmpdir"],
        table=improved_schedule(T, K, N_Q, L=L),
        dataset=dataset,
        vlb_set=dataset[:half] + dataset[-half:],
        json_bytes=[],
        file_bytes=[],
        digests={},
        first=None,
    )


def _steps() -> int:
    return CONFIG.epochs * 2 * PER_CLASS


def job(ctx, rec, j: int):
    s = job_seed(ctx.seed, j)
    rng = rec.generator(rec.aside("bench.default_rng", np.random.default_rng, s))
    den, trace = rec.call(MODEL, train_denoiser, ctx.dataset, ctx.table, CONFIG, rng)
    den_path = os.path.join(ctx.tmpdir, f"denoiser-{j}.json")
    rec.call(IO[0], save_denoiser, den_path, den)
    loaded = rec.call(IO[1], load_denoiser, den_path)
    model = rec.denoiser(loaded)
    grids, labels = [], []
    for label in (0, 1):
        for c in range(CHAINS_PER_CLASS):
            i = label * CHAINS_PER_CLASS + c
            rng = rec.generator(rec.aside("bench.default_rng", np.random.default_rng, [s, i]))
            grids.append(rec.call(ITEM, sample, model, label, ctx.table, rng=rng,
                                  guidance_scale=GUIDANCE, guidance_mode="log"))
            labels.append(label)
    tok_path = os.path.join(ctx.tmpdir, f"chains-{j}.json")
    rec.call(IO[2], save_token_file, tok_path, grids, labels)
    back = rec.call(IO[3], load_token_file, tok_path)
    rng = rec.generator(rec.aside("bench.default_rng", np.random.default_rng, s))
    vlbs = [rec.call("diffusion.vlb_loss", vlb_loss, model, g, c, ctx.table, rng,
                     num_t_samples=VLB_T_SAMPLES) for g, c in ctx.vlb_set]
    return s, den, trace, loaded, den_path, grids, labels, back, tok_path, vlbs


def check_job(ctx, rec, j: int, out) -> None:
    s, den, trace, loaded, den_path, grids, labels, back, tok_path, vlbs = out
    ctx.json_bytes.append(os.path.getsize(den_path))
    ctx.file_bytes.append(os.path.getsize(tok_path))
    os.remove(den_path)
    os.remove(tok_path)
    rec.check("loss trace finite", len(trace) == CONFIG.epochs and np.all(np.isfinite(trace)),
              f"job {j}: {trace}")
    same = (
        (loaded.K, loaded.grid_shape, loaded.T, loaded.cond_labels)
        == (den.K, den.grid_shape, den.T, den.cond_labels)
        and loaded.weights.dtype == den.weights.dtype
        and np.array_equal(loaded.weights, den.weights)
    )
    rec.check("denoiser JSON round trip bit-equal", same, f"job {j}")
    bad = sum(int(g.contains_mask() or g.data.min() < 0 or g.data.max() >= K
                  or g.data.shape != (N_Q, L)) for g in grids)
    rec.check("sampled grids mask-free and in [0, K)", bad == 0,
              f"{bad} of {len(grids)} in job {j}", count=bad)
    back_grids, back_labels = back
    rec.check("token file round trip exact",
              back_labels == labels and len(back_grids) == len(grids)
              and all(np.array_equal(a.data, b.data) for a, b in zip(grids, back_grids)),
              f"job {j}")
    v = np.asarray(vlbs)
    rec.check("VLB finite and >= 0", np.all(np.isfinite(v)) and np.all(v >= 0.0),
              f"job {j}: min {v.min()}")
    if j == 0:
        ctx.first = types.SimpleNamespace(seed=s, den=loaded, grids=grids)
        ctx.digests = {
            "job0_weights": sha256(den.weights),
            "job0_chains": sha256(*(g.data for g in grids)),
            "job0_vlb": sha256(v),
        }


def finish(ctx, rec) -> dict:
    # chain i of job 0 must not depend on how many chains ran
    first = ctx.first
    again = [sample(first.den, 0, ctx.table, rng=np.random.default_rng([first.seed, i]),
                    guidance_scale=GUIDANCE, guidance_mode="log")
             for i in range(PREFIX_CHAINS)]
    rec.check("chain prefix independent of chain count",
              all(np.array_equal(a.data, b.data) for a, b in zip(again, first.grids)))
    return {"digests": ctx.digests}


def named_metrics(rec, ctx) -> dict:
    return {
        "train_steps_per_s": (_steps() / median(rec.durations(MODEL)), "1/s"),
        "denoiser_save_s": (median(rec.durations(IO[0])), "s"),
        "denoiser_load_s": (median(rec.durations(IO[1])), "s"),
        "vlb_ms_p50": (median(rec.durations("diffusion.vlb_loss")) * 1e3, "ms"),
    }


def probes(ctx) -> dict:
    """Public-call probes at this workload's (4, 32, 16) shape."""
    den = ctx.first.den
    rng = probe_rng(ctx.seed)
    tracer = Tracer()
    tden = TracedDenoiser(den, tracer)
    trng = TracedGenerator(rng, tracer)
    step_us, combine_us, corrupt_us = [], [], []
    for c in range(PROBE_CALLS):
        t = 1 + c % T
        x0, label = ctx.dataset[c % len(ctx.dataset)]
        corrupt_us.append(self_us(tracer, "diffusion.corrupt", corrupt, x0, t, ctx.table, rng))
        x_t = corrupt(x0, t, ctx.table, rng)
        step_us.append(self_us(tracer, "diffusion.reverse_step", reverse_step, x_t, t, tden,
                               label, ctx.table, GUIDANCE, trng, guidance_mode="log"))
        lp_c = np.log(den.predict(x_t, t, label))
        lp_u = np.log(den.predict(x_t, t, None))
        combine_us.append(self_us(tracer, "diffusion.cfg_combine", cfg_combine,
                                  lp_c, lp_u, GUIDANCE, mode="log"))
    return {
        "diffusion.guided.reverse_step.self_us": median(step_us),
        "diffusion.cfg_combine.us": median(combine_us),
        "diffusion.corrupt.us": median(corrupt_us),
    }


def layer_metrics(summary: dict, probe: dict, ctx) -> dict:
    chain = summary[ITEM]
    n = chain["count"]
    predict = chain["children"].get("diffusion.predict", [0, 0])
    draws = chain["children"].get("rng", [0, 0])
    train = summary[MODEL]
    steps = train["count"] * _steps()
    vlb = summary["diffusion.vlb_loss"]
    save, load = summary[IO[0]], summary[IO[1]]
    weights = ctx.first.den.weights
    out = {
        "diffusion.guided.sample.self_ms": (chain["self_ns"] / n / 1e6, "ms"),
        "diffusion.guided.predict.ms": (predict[1] / n / 1e6, "ms"),
        "diffusion.guided.predict.calls": (predict[0] / n, "count"),
        "diffusion.guided.rng.ms": (draws[1] / n / 1e6, "ms"),
        "diffusion.guided.rng.calls": (draws[0] / n, "count"),
        "diffusion.train.self_ms": (train["self_ns"] / steps / 1e6, "ms"),
        "diffusion.train.rng.calls": (train["children"].get("rng", [0, 0])[0] / steps, "count"),
        "diffusion.vlb.ms": (vlb["total_ns"] / vlb["count"] / 1e6, "ms"),
        "diffusion.vlb.self_ms": (vlb["self_ns"] / vlb["count"] / 1e6, "ms"),
        "diffusion.vlb.predict.calls": (
            vlb["children"].get("diffusion.predict", [0, 0])[0] / vlb["count"], "count"),
        "diffusion.denoiser.save_s": (save["total_ns"] / save["count"] / 1e9, "s"),
        "diffusion.denoiser.load_s": (load["total_ns"] / load["count"] / 1e9, "s"),
        "diffusion.denoiser_json.bytes": (sum(ctx.json_bytes) / len(ctx.json_bytes), "bytes"),
        "diffusion.denoiser.weight_bytes": (float(weights.nbytes), "bytes"),
    }
    out.update((k, (v, "us")) for k, v in probe.items())
    return out
