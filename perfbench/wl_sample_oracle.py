"""sample-oracle: Bayes-oracle sampling at acceptance criterion 04's shape.

K=4, one 1x3 grid, T=10, linear schedule, an 8-grid support with
Dirichlet(4) weights, many independent unguided chains.  The arrays are
tiny, so per-call overhead dominates: ``predict``, contract validation,
the reverse kernel and per-chain random draws.  It runs no training,
guidance, JSON denoiser or codec code, which makes it the bypass workload
for changes to those.

A job mirrors ``vqdiff diffuse sample --count 64``: build the denoiser,
draw chains i = 64j .. 64j+63 with ``np.random.default_rng([seed, i])``,
write them to a token file and read it back.
"""

from __future__ import annotations

import os
import types

import numpy as np
from vqdiff import (
    TokenGrid,
    bayes_oracle_denoiser,
    corrupt,
    linear_schedule,
    load_token_file,
    reverse_step,
    sample,
    save_token_file,
)

from harness import (
    Tracer,
    TracedDenoiser,
    TracedGenerator,
    median,
    probe_rng,
    self_us,
    sha256,
    tail,
)

NAME = "sample-oracle"
WHY = (
    "tiny 1x3 grids, so per-call overhead in predict, validation, reverse kernel and "
    "per-chain RNG dominates; runs no training, guidance, JSON or codec code"
)
K, L, T = 4, 3, 10
SUPPORT = 8
CHAINS_PER_JOB = 64
MIN_JOBS = 16  # 1024 chains, enough for the TV check to catch a bias of 0.1
DIGEST_JOBS = 4  # the determinism digest covers the chains of these jobs
PREFIX_CHAINS = 16
# The TV acceptance criterion 04 allows at 20 000 chains, where sampling
# noise is below 0.01: the bound the repository's tests put on the
# sampler's own bias.
SAMPLER_BIAS = 0.05
TV_SIMULATIONS = 2000
PROBE_CALLS = 400

# Untraced runs scale their times to reference speed (harness.Reference),
# with kernels that slow down the way tiny-array sampling does; at most one
# burst per REFERENCE_EVERY_S seconds.
REFERENCE = ("python", "small_arrays")
REFERENCE_EVERY_S = 0.05

ITEM = "diffusion.sample"
# p90, not the p99 the issue names: over five 30 s runs the p99 spread
# 24 % scaled and 44 % wall-clock; it is kept in the record.
TAIL_PCT = 90.0
ITEM_UNITS = 1
ITEM_NOUN = "chain"
MODEL = "diffusion.bayes_oracle_denoiser"
ALIASES = {"items_per_s": "chains_per_s", "item_ms_p50": "chain_ms_p50",
           "item_ms_tail": "chain_ms_{tail}"}
IO = ("tokens.save_token_file", "tokens.load_token_file")


def inputs(seed: int, tmpdir: str) -> dict:
    """The oracle's support and Dirichlet weights, made in memory."""
    rng = np.random.default_rng(seed)
    support: list[TokenGrid] = []
    seen: set[bytes] = set()
    while len(support) < SUPPORT:
        data = rng.integers(0, K, size=(1, L))
        if data.tobytes() not in seen:
            seen.add(data.tobytes())
            support.append(TokenGrid(data=data, K=K))
    return {"tmpdir": tmpdir, "support": support,
            "probs": rng.dirichlet(np.full(SUPPORT, 4.0))}


def setup(seed: int, files: dict):
    """Build the schedule; the oracle itself is built in every job."""
    support = files["support"]
    return types.SimpleNamespace(
        seed=seed,
        tmpdir=files["tmpdir"],
        table=linear_schedule(T, K),
        support=support,
        probs=files["probs"],
        index={g.data.tobytes(): i for i, g in enumerate(support)},
        counts=np.zeros(SUPPORT + 1, dtype=np.int64),
        prefix=[],
        digest=[],
        file_bytes=[],
    )


def job(ctx, rec, j: int):
    den = rec.denoiser(rec.call(MODEL, bayes_oracle_denoiser, ctx.support, ctx.probs, ctx.table))
    grids = []
    for i in range(j * CHAINS_PER_JOB, (j + 1) * CHAINS_PER_JOB):
        rng = rec.generator(rec.aside("bench.default_rng", np.random.default_rng, [ctx.seed, i]))
        grids.append(rec.call(ITEM, sample, den, None, ctx.table, rng=rng))
    path = os.path.join(ctx.tmpdir, f"chains-{j}.json")
    rec.call(IO[0], save_token_file, path, grids)
    back, labels = rec.call(IO[1], load_token_file, path)
    return grids, back, labels, path


def check_job(ctx, rec, j: int, out) -> None:
    grids, back, labels, path = out
    ctx.file_bytes.append(os.path.getsize(path))
    os.remove(path)
    bad = 0
    for g in grids:
        ctx.counts[ctx.index.get(g.data.tobytes(), SUPPORT)] += 1
        bad += int(g.contains_mask() or g.data.shape != (1, L) or g.data.max() >= K)
    # Chains outside the support are not failures: reverse steps draw the
    # positions independently, so even the exact oracle puts a few percent
    # of chains there.  They count against the TV check in ``finish``.
    rec.check("chains mask-free 1x3 grids in [0, K)", bad == 0,
              f"{bad} of {len(grids)} chains in job {j}", count=bad)
    same = labels is None and len(back) == len(grids) and all(
        np.array_equal(a.data, b.data) and a.K == b.K for a, b in zip(grids, back))
    rec.check("token file round trip exact", same, f"job {j}")
    if j < DIGEST_JOBS:
        ctx.digest.extend(g.data for g in grids)
    if len(ctx.prefix) < PREFIX_CHAINS:
        ctx.prefix.extend(grids[: PREFIX_CHAINS - len(ctx.prefix)])


def tv_tolerance(probs: np.ndarray, n: int, rng: np.random.Generator) -> float:
    """Allowed total variation after n chains.

    SAMPLER_BIAS allows for the bias of factorized reverse steps: the
    sampler draws positions independently given x_t, so even the exact
    oracle leaves a few hundredths of TV on correlated supports.  To it
    is added the mean plus three standard deviations of the TV between
    n multinomial draws from the oracle weights and those weights,
    simulated TV_SIMULATIONS times.
    """
    counts = rng.multinomial(n, probs, size=TV_SIMULATIONS)
    tv = 0.5 * np.abs(counts / n - probs).sum(axis=1)
    return SAMPLER_BIAS + float(tv.mean() + 3.0 * tv.std())


def finish(ctx, rec) -> dict:
    n = int(ctx.counts.sum())
    tv = 0.5 * (np.abs(ctx.counts[:SUPPORT] / n - ctx.probs).sum() + ctx.counts[SUPPORT] / n)
    tol = tv_tolerance(ctx.probs, n, probe_rng(ctx.seed))
    rec.check("total variation to the oracle weights", tv < tol, f"TV={tv:.4f} >= {tol:.4f}")
    # chain i must not depend on how many chains ran: redraw the first
    # chains as a short run of their own and compare bytes
    den = bayes_oracle_denoiser(ctx.support, ctx.probs, ctx.table)
    again = [sample(den, None, ctx.table, rng=np.random.default_rng([ctx.seed, i]))
             for i in range(len(ctx.prefix))]
    rec.check("chain prefix independent of chain count",
              all(np.array_equal(a.data, b.data) for a, b in zip(again, ctx.prefix)))
    return {
        "chains": n,
        "outside_support_share": float(ctx.counts[SUPPORT] / n),
        "tv": float(tv),
        "tv_tolerance": tol,
        "digests": {f"chains_0_{DIGEST_JOBS * CHAINS_PER_JOB - 1}": sha256(*ctx.digest)},
    }


def named_metrics(rec, ctx) -> dict:
    label, p99 = tail(rec.durations(ITEM), 99.0)
    return {f"chain_ms_{label}_wall": (p99 * 1e3, "ms")}


def probes(ctx) -> dict:
    """``reverse_step`` at this workload's shape, minus its predict and rng spans."""
    den = bayes_oracle_denoiser(ctx.support, ctx.probs, ctx.table)
    rng = probe_rng(ctx.seed)
    tracer = Tracer()
    tden = TracedDenoiser(den, tracer)
    trng = TracedGenerator(rng, tracer)
    out = []
    for c in range(PROBE_CALLS):
        t = 1 + c % T
        x_t = corrupt(ctx.support[c % SUPPORT], t, ctx.table, rng)
        out.append(self_us(tracer, "diffusion.reverse_step", reverse_step,
                           x_t, t, tden, None, ctx.table, rng=trng))
    return {"diffusion.reverse_step.self_us": median(out)}


def layer_metrics(summary: dict, probe: dict, ctx) -> dict:
    """Per chain: sampler self time, predict and rng time and calls."""
    s = summary[ITEM]
    n = s["count"]
    kids = s["children"]
    predict = kids.get("diffusion.predict", [0, 0])
    draws = kids.get("rng", [0, 0])
    return {
        "diffusion.sample.self_ms": (s["self_ns"] / n / 1e6, "ms"),
        "diffusion.predict.ms": (predict[1] / n / 1e6, "ms"),
        "diffusion.predict.calls": (predict[0] / n, "count"),
        "diffusion.rng.ms": (draws[1] / n / 1e6, "ms"),
        "diffusion.rng.calls": (draws[0] / n, "count"),
        "diffusion.reverse_step.self_us": (probe["diffusion.reverse_step.self_us"], "us"),
    }
