"""vqdiff benchmark: one workload per process, end-to-end or traced.

    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  Human-readable lines come first; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics`` (every end-to-end metric with ``--trace 0``, every per-layer
metric with ``--trace 1``).  A fuller record, with run context, checks,
determinism digests and (traced) the spans, is written under
``perfbench/results/``.  Exit code 0 means every operation and check
passed; 1 means some failed; 2 means the benchmark could not run.
"""

from __future__ import annotations

import os
import sys

# Cap BLAS threads at the CPUs this process may use, before NumPy loads.
NPROC = len(os.sched_getaffinity(0))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = str(NPROC)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import tempfile  # noqa: E402


def _import_package():
    """Import vqdiff from this checkout's ``src`` and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "vqdiff", "__init__.py")):
        print(f"error: no vqdiff package under {SRC}; run from a source checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import vqdiff

    if os.path.dirname(os.path.dirname(os.path.abspath(vqdiff.__file__))) != SRC:
        print(f"error: vqdiff imported from {vqdiff.__file__}, not from {SRC}", file=sys.stderr)
        sys.exit(2)


def _git_sha() -> str:
    """HEAD's commit from ``.git`` files; the checkout may not be a repository."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = os.path.join(ROOT, ".git", name)
        if os.path.isfile(loose):
            with open(loose, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == name:
                    return parts[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _context(args, np, scipy, vqdiff) -> dict:
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "run_seconds": args.seconds,
        "trace": args.trace,
        "nproc": NPROC,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_thread_cap": {v: os.environ[v] for v in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "vqdiff": vqdiff.__version__,
        "git_sha": _git_sha(),
        "machine": platform.machine(),
    }


# Job-level times are means: on a shared machine the per-job distribution
# mixes quiet and busy periods, and over 30 s windows of one long run the
# mean moved about half as much as the median did.  model_s is a median:
# sample-oracle builds its model in 0.2 ms, and one stall among a run's
# builds moved the mean by 26 % between runs.  The item median and
# io_s (file writes whose time the reference bursts do not track) spread
# across runs by more than the largest allowed bound, so they are recorded
# without one.  Every time in END_TO_END is scaled to reference speed
# (harness.Reference); the record keeps the wall-clock figures beside them.
END_TO_END = ("setup_s", "job_s", "items_per_s", "item_ms_tail", "model_s", "peak_rss_mb")


def _mean(values) -> float:
    return sum(values) / len(values)


def _figures(workload, rec, harness, scaled: bool) -> tuple[str, dict]:
    items = rec.durations(workload.ITEM, scaled=scaled)
    tail_label, tail_value = harness.tail(items, workload.TAIL_PCT)
    return tail_label, {
        "setup_s": (harness.median(rec.durations("setup", scaled=scaled)), "s"),
        "job_s": (_mean(rec.per_job(scaled=scaled)), "s"),
        "items_per_s": (len(items) * workload.ITEM_UNITS / sum(items), "1/s"),
        "item_ms_p50": (harness.median(items) * 1e3, "ms"),
        "item_ms_tail": (tail_value * 1e3, "ms"),
        "model_s": (harness.median(rec.durations(workload.MODEL, scaled=scaled)), "s"),
        "io_s": (_mean(rec.per_job(workload.IO, scaled=scaled)), "s"),
    }


def _end_to_end(workload, rec, ctx, jobs, harness) -> tuple[dict, dict]:
    tail_label, scaled = _figures(workload, rec, harness, scaled=True)
    _, wall = _figures(workload, rec, harness, scaled=False)
    rss = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB")
    metrics = {k: scaled.get(k, rss) for k in END_TO_END}
    # the figures the issue names per workload, in wall-clock time
    named = {workload.ALIASES.get(k, k).format(tail=tail_label) + "_wall": v
             for k, v in wall.items()}
    named.update(workload.named_metrics(rec, ctx))
    named["error_rate"] = (rec.failed / max(rec.attempted, 1), "ratio")
    named["reference_slowdown"] = (harness.median(rec.bursts) / rec.reference.nominal_s, "ratio")
    named.update((k + "_scaled", v) for k, v in scaled.items() if k not in metrics)
    detail = {
        "item": workload.ITEM_NOUN,
        "item_units": workload.ITEM_UNITS,
        "item_ms_tail_percentile": tail_label,
        "jobs": len(jobs),
        "items": len(rec.durations(workload.ITEM)),
        "setup_runs": len(rec.durations("setup")),
        "reference_bursts": len(rec.bursts),
        "named": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
    }
    return metrics, detail


def _per_layer(workload, rec, ctx, tracer, jobs, harness, others) -> tuple[dict, dict]:
    summary = harness.span_summary(tracer.spans)
    layers = workload.layer_metrics(summary, workload.probes(ctx), ctx)
    for other, (o_summary, o_probe, o_ctx) in others.items():
        layers.update(other.layer_metrics(o_summary, o_probe, o_ctx))

    save = summary["tokens.save_token_file"]
    load = summary["tokens.load_token_file"]
    layers["tokens.save.ms"] = (save["total_ns"] / save["count"] / 1e6, "ms")
    layers["tokens.load.ms"] = (load["total_ns"] / load["count"] / 1e6, "ms")
    layers["tokens.file.bytes"] = (sum(ctx.file_bytes) / len(ctx.file_bytes), "bytes")

    ok, covered, detail = harness.self_check(tracer.spans)
    rec.check("trace self-check", ok, detail)
    untraced = rec.durations(workload.ITEM)
    traced = rec.durations(workload.ITEM, traced=True)
    rate_off = len(untraced) * workload.ITEM_UNITS / sum(untraced)
    rate_on = len(traced) * workload.ITEM_UNITS / sum(traced)
    layers["trace.coverage_pct"] = (100.0 * covered, "%")
    layers["trace.overhead_pct"] = (100.0 * (rate_off - rate_on) / rate_off, "%")
    extra = {
        "items_per_s_untraced": rate_off,
        "items_per_s_traced": rate_on,
        "traced_minus_untraced_items_per_s": rate_on - rate_off,
        "traced_jobs": sum(on for _, on, _ in jobs),
        "untraced_jobs": sum(not on for _, on, _ in jobs),
        "spans": len(tracer.spans),
    }
    return layers, extra


def _other_workloads(workload, seed, tmpdir, rec, record, workloads, harness) -> dict:
    """A short traced pass (``MIN_JOBS`` jobs) of every other workload, for
    the per-layer metrics of layers this workload does not run.  Its checks
    count in this run and its record goes under ``record["passes"]``."""
    others = {}
    for other in workloads.ALL:
        if other is workload:
            continue
        o_ctx = other.setup(seed, other.inputs(seed, tmpdir))
        o_rec = harness.Recorder()
        _, o_tracer = harness.run_jobs(other, o_ctx, o_rec, 0.0, True, other.MIN_JOBS)
        record.setdefault("passes", {})[other.NAME] = other.finish(o_ctx, o_rec)
        others[other] = (harness.span_summary(o_tracer.spans), other.probes(o_ctx), o_ctx)
        rec.attempted += o_rec.attempted
        rec.failed += o_rec.failed
        rec.failures += [f"{other.NAME} pass: {f}" for f in o_rec.failures]
        rec.checks.update((f"{other.NAME} pass: {k}", v) for k, v in o_rec.checks.items())
    return others


def main(argv=None) -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BY_NAME))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    import numpy as np
    import scipy

    import harness

    vqdiff = sys.modules["vqdiff"]
    workload = workloads.BY_NAME[args.workload]
    context = _context(args, np, scipy, vqdiff)
    os.makedirs(RESULTS, exist_ok=True)
    tmpdir = tempfile.mkdtemp(prefix="run-", dir=RESULTS)
    # untraced runs scale their times to reference speed; traced runs
    # report wall-clock layer times
    reference = None if args.trace else harness.Reference(workload.REFERENCE,
                                                          workload.REFERENCE_EVERY_S)
    rec = harness.Recorder(reference)

    def set_up():
        made = rec.aside("setup", workload.setup, args.seed, files)
        rec.burst()
        return made

    try:
        # Input files are made once, untimed.  Set-up, the library work a
        # user's commands repeat before the jobs, is timed before the loop
        # and again after every job, so its median sees the same mix of
        # quiet and busy host periods as the jobs do.
        files = workload.inputs(args.seed, tmpdir)
        rec.burst()
        ctx = set_up()
        # a traced run needs an untraced job too, for the overhead figure
        min_jobs = max(workload.MIN_JOBS, 2 if args.trace else 1)
        jobs, tracer = harness.run_jobs(workload, ctx, rec, args.seconds, bool(args.trace),
                                        min_jobs, between=set_up)
        while len(rec.durations("setup")) < workloads.SETUP_REPEATS:
            set_up()
        record = workload.finish(ctx, rec)
        if args.trace:
            others = _other_workloads(workload, args.seed, tmpdir, rec, record, workloads,
                                      harness)
            metrics, extra = _per_layer(workload, rec, ctx, tracer, jobs, harness, others)
            trace_path = os.path.join(RESULTS, f"{args.workload}-s{args.seed}-spans.json")
            with open(trace_path, "w", encoding="utf-8") as fh:
                json.dump(tracer.dump(), fh)
            extra["spans_file"] = os.path.relpath(trace_path, ROOT)
        else:
            metrics, extra = _end_to_end(workload, rec, ctx, jobs, harness)
    except Exception:  # report the failure as a result instead of a traceback alone
        rec.error("benchmark")
        metrics, extra, record = {}, {}, {}
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)

    correct = rec.failed == 0 and all(rec.checks.values()) and bool(metrics)
    result = {
        "correct": correct,
        "attempted": max(rec.attempted, 1),
        "failed": rec.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    full = {
        "context": context,
        "result": result,
        "detail": extra,
        "checks": rec.checks,
        "failures": rec.failures,
        "record": record,
    }
    out_path = os.path.join(
        RESULTS, f"{args.workload}-s{args.seed}-t{args.trace}.json")
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(full, fh, indent=2, default=float)

    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    for name, entry in extra.get("named", {}).items():
        print(f"  {name} = {entry['value']:.6g} {entry['unit']}")
    for name, ok in rec.checks.items():
        print(f"check {'PASS' if ok else 'FAIL'}: {name}")
    for failure in rec.failures:
        print(f"failure: {failure.splitlines()[0]}")
    for name, digest in record.get("digests", {}).items():
        print(f"sha256 {name} = {digest}")
    print(f"context: {json.dumps(context, sort_keys=True)}")
    print(f"full record: {os.path.relpath(out_path, ROOT)}")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    _import_package()
    sys.exit(main())
