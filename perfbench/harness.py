"""Shared machinery: in-memory spans, callback wrappers, the job loop and
summary statistics.

Spans are recorded only from benchmark-owned code: around each public
library call a workload makes, and inside the two objects the benchmark
hands to the library (a wrapping ``Denoiser`` and a wrapping random
generator).  Nothing inside the package is patched.
"""

from __future__ import annotations

import hashlib
import io
import math
import sys
import time
import traceback

import numpy as np
from vqdiff import Denoiser

perf_ns = time.perf_counter_ns

# Fallback tail percentiles, tried from the highest down, for runs too
# short to have ten samples beyond a workload's own tail percentile.
TAIL_LADDER = (99.0, 90.0, 75.0, 50.0)

# Largest share of a traced job's wall time that may fall outside its
# direct child spans before the trace self-check fails.
MAX_UNCOVERED_SHARE = 0.05


# Reference bursts whose median scales a call: one burst's time varies by
# 10-20 % on its own, and the machine's speed holds for seconds.
SCALE_WINDOW = 8


class Reference:
    """A fixed burst of benchmark-owned work that calls no vqdiff code.

    The shared machines this benchmark runs on change speed by 1.3-1.5x,
    switching within a second and staying slow or fast for minutes, so a
    wall-clock time depends on when it was taken.  Untraced runs time a
    burst after library calls (at most one per ``every_s``) and scale each
    call's wall time by ``nominal_s / burst time``, the burst time being
    the median of the SCALE_WINDOW bursts around the call: seconds at the
    speed the machine had when ``NOMINAL_S`` was measured.  Each
    workload names the kernels that slow down the way its calls do.
    """

    # Near the median kernel times between the workloads' calls on a 2-core
    # Intel Xeon VM (Python 3.11, NumPy 2.4, OpenBLAS at 2 threads).
    # Constants: changing one rescales the scaled times that use it.
    NOMINAL_S = {"python": 2.0e-3, "small_arrays": 2.6e-3, "array_passes": 5.3e-3,
                 "distances": 2.4e-3, "parse": 3.1e-3}

    def __init__(self, kernels: tuple[str, ...], every_s: float):
        rng = np.random.default_rng(20230131)
        self._a = rng.random((128, 16))
        self._x = rng.random((16384, 32))
        self._c = rng.random((256, 32))
        rows = rng.random((128, 32)).tolist()
        self._csv = "\n".join(",".join(repr(v) for v in row) for row in rows)
        self._keys = list(range(64))
        self._fns = [getattr(self, "_" + k) for k in kernels]
        self.kernels = kernels
        self.nominal_s = sum(self.NOMINAL_S[k] for k in kernels)
        self.every_ns = int(every_s * 1e9)

    def _python(self):
        keys, acc = self._keys, {}
        for i in range(8000):
            k = keys[i & 63]
            acc[k] = acc.get(k, 0) + i * 3 % 7
        return acc

    def _small_arrays(self):
        a = x = self._a
        for _ in range(40):
            y = np.log(x + 1e-3)
            y -= y.max(axis=1, keepdims=True)
            e = np.exp(y)
            e /= e.sum(axis=1, keepdims=True)
            x = (np.cumsum(e, axis=1) + a) * 0.5
        return x

    def _array_passes(self):
        x = self._x
        d2 = ((x - x[0]) ** 2).sum(axis=1)
        for j in range(1, 2):
            d2 = np.minimum(d2, ((x - x[j]) ** 2).sum(axis=1))
        return d2

    def _distances(self):
        x, c = self._x[:1024], self._c
        d2 = (x**2).sum(axis=1)[:, None] - 2.0 * x @ c.T + (c**2).sum(axis=1)
        return np.argmin(d2, axis=1)

    def _parse(self):
        return np.loadtxt(io.StringIO(self._csv), delimiter=",", ndmin=2)

    def burst(self) -> float:
        start = perf_ns()
        for fn in self._fns:
            fn()
        return (perf_ns() - start) * 1e-9


class Tracer:
    """Spans as [name, start_ns, end_ns, parent index or -1], kept in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        self.spans.append([name, perf_ns(), 0, parent])
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = perf_ns()
        self._stack.pop()

    def dump(self) -> dict:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        return {
            "names": names,
            "columns": ["name", "start_ns", "end_ns", "parent"],
            "spans": [[index[s[0]], s[1], s[2], s[3]] for s in self.spans],
        }


class TracedDenoiser(Denoiser):
    """Delegates ``predict`` to a real denoiser inside a ``diffusion.predict`` span."""

    def __init__(self, inner, tracer: Tracer):
        self._inner = inner
        self._tracer = tracer
        self.K = inner.K
        self.grid_shape = inner.grid_shape
        self.layout = inner.layout

    def predict(self, x_t, t, cond=None):
        idx = self._tracer.begin("diffusion.predict")
        try:
            return self._inner.predict(x_t, t, cond)
        finally:
            self._tracer.end(idx)


class TracedGenerator:
    """Delegates every draw to a real ``np.random.Generator`` inside an ``rng`` span.

    The draws reach the wrapped generator unchanged and in order, so the
    sampled bytes are those of an untraced run with the same seed.
    """

    def __init__(self, inner: np.random.Generator, tracer: Tracer):
        self._inner = inner
        self._tracer = tracer

    def _draw(self, method, *args, **kwargs):
        idx = self._tracer.begin("rng")
        try:
            return method(*args, **kwargs)
        finally:
            self._tracer.end(idx)

    def __getattr__(self, name):
        attr = getattr(self._inner, name)
        if not callable(attr):
            return attr
        return lambda *args, **kwargs: self._draw(attr, *args, **kwargs)


class Recorder:
    """Times public calls for one workload; adds spans while a tracer is set.

    Every call's duration is kept with the number of the job that made
    it (-1 outside jobs) and the index of the last reference burst before
    it, in ``times`` for untraced jobs and ``traced_times`` for traced
    ones, so end-to-end figures never include tracing overhead.  With a
    ``reference`` set, a burst follows each ``call`` once ``every_s`` has
    passed since the last one.
    """

    def __init__(self, reference: Reference | None = None) -> None:
        self.tracer: Tracer | None = None
        self.reference = reference
        self.bursts: list[float] = []
        self._last_burst_ns = 0
        self.job = -1
        self.times: dict[str, list[tuple[int, float, int]]] = {}
        self.traced_times: dict[str, list[tuple[int, float, int]]] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.checks: dict[str, bool] = {}

    def burst(self) -> None:
        """Time one reference burst now, if a reference is set."""
        if self.reference is not None:
            self.bursts.append(self.reference.burst())
            self._last_burst_ns = perf_ns()

    def call(self, name: str, fn, *args, **kwargs):
        """One library operation: counted as attempted, timed, and traced."""
        self.attempted += 1
        try:
            return self.aside(name, fn, *args, **kwargs)
        finally:
            ref = self.reference
            if ref is not None and perf_ns() - self._last_burst_ns >= ref.every_ns:
                self.burst()

    def aside(self, name: str, fn, *args, **kwargs):
        """Benchmark-side work inside a job (such as building a chain's
        generator): timed and traced so the job stays covered, not counted."""
        tracer = self.tracer
        idx = tracer.begin(name) if tracer is not None else -1
        start = perf_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = (perf_ns() - start) * 1e-9
            if idx >= 0:
                tracer.end(idx)
            times = self.traced_times if idx >= 0 else self.times
            times.setdefault(name, []).append((self.job, elapsed, len(self.bursts) - 1))

    def _scale(self, b: int) -> float:
        """Nominal over measured reference time around a call made after
        burst ``b``: the median of the SCALE_WINDOW bursts centred on the
        call, half before and half after it (1.0 without bursts)."""
        if b < 0 or not self.bursts:
            return 1.0
        half = SCALE_WINDOW // 2
        around = self.bursts[max(b + 1 - half, 0) : b + 1 + half]
        return self.reference.nominal_s / median(around)

    def durations(self, name: str, traced: bool = False, scaled: bool = False) -> list[float]:
        """Seconds per call of ``name``, wall or scaled to reference speed."""
        entries = (self.traced_times if traced else self.times).get(name, [])
        if scaled:
            return [t * self._scale(b) for _, t, b in entries]
        return [t for _, t, _ in entries]

    def per_job(self, names=None, scaled: bool = False) -> list[float]:
        """Per untraced job: total seconds spent in calls named in ``names``
        (all timed calls and steps when None)."""
        total: dict[int, float] = {}
        for name in self.times if names is None else names:
            for j, t, b in self.times.get(name, []):
                if j >= 0:
                    total[j] = total.get(j, 0.0) + (t * self._scale(b) if scaled else t)
        return list(total.values())

    def denoiser(self, den):
        return den if self.tracer is None else TracedDenoiser(den, self.tracer)

    def generator(self, rng):
        return rng if self.tracer is None else TracedGenerator(rng, self.tracer)

    def check(self, name: str, ok: bool, detail: str = "", count: int = 1) -> None:
        """Record a correctness check; a failure counts ``count`` failed operations."""
        ok = bool(ok)
        self.checks[name] = self.checks.get(name, True) and ok
        if not ok:
            self.failed += count
            self.failures.append(f"{name}: {detail}" if detail else name)

    def error(self, where: str) -> None:
        self.failed += 1
        self.failures.append(f"{where}: {traceback.format_exc(limit=3).strip()}")
        traceback.print_exc(file=sys.stderr)


def sha256(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str((a.dtype.str, a.shape)).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def median(values) -> float:
    return float(np.median(np.asarray(values, dtype=float)))


def tail(values, q: float) -> tuple[str, float]:
    """The q-th percentile if at least ten samples lie beyond it, otherwise
    the highest lower percentile of TAIL_LADDER that has ten; with its label."""
    n = len(values)
    for p in (q,) + tuple(x for x in TAIL_LADDER if x < q):
        if n * (100.0 - p) / 100.0 >= 10.0:
            return f"p{p:g}".replace(".", "_"), float(np.percentile(np.asarray(values, float), p))
    return "max", float(max(values))


def span_summary(spans: list[list]) -> dict:
    """Per span name: count, total and self nanoseconds, and child totals.

    Self time is a span's duration minus its direct children's durations;
    spans nest strictly because every workload runs in one thread.
    """
    child_ns = [0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    out: dict[str, dict] = {}
    for i, (name, start, end, parent) in enumerate(spans):
        entry = out.setdefault(name, {"count": 0, "total_ns": 0, "self_ns": 0, "children": {}})
        dur = end - start
        entry["count"] += 1
        entry["total_ns"] += dur
        entry["self_ns"] += dur - child_ns[i]
        if parent >= 0:
            pname = spans[parent][0]
            kids = out.setdefault(
                pname, {"count": 0, "total_ns": 0, "self_ns": 0, "children": {}}
            )["children"]
            k = kids.setdefault(name, [0, 0])
            k[0] += 1
            k[1] += dur
    return out


def self_check(spans: list[list]) -> tuple[bool, float, str]:
    """Children never exceed their parent, and direct children of ``job``
    spans cover all but MAX_UNCOVERED_SHARE of the jobs' wall time.

    Returns (ok, covered share of job time, detail).
    """
    child_ns = [0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_ns[parent] += end - start
            pstart, pend = spans[parent][1], spans[parent][2]
            if start < pstart or end > pend:
                return False, math.nan, f"span {name} escapes its parent {spans[parent][0]}"
    job_ns = 0
    covered_ns = 0
    for i, (name, start, end, parent) in enumerate(spans):
        if child_ns[i] > end - start:
            return False, math.nan, f"children of {name} exceed it"
        if name == "job":
            job_ns += end - start
            covered_ns += child_ns[i]
    if job_ns == 0:
        return False, math.nan, "no job spans"
    covered = covered_ns / job_ns
    ok = covered >= 1.0 - MAX_UNCOVERED_SHARE
    return ok, covered, f"job time covered by child spans: {covered:.2%}"


def job_seed(seed: int, j: int) -> int:
    """The ``--seed`` job j passes to the CLI commands it stands for."""
    return int(np.random.SeedSequence([seed, j]).generate_state(1)[0])


def probe_rng(seed: int) -> np.random.Generator:
    """A stream for probe inputs that no job uses (jobs seed with two integers)."""
    return np.random.default_rng([seed, 0, 1])


def self_us(tracer: Tracer, name: str, fn, *args, **kwargs) -> float:
    """Call ``fn`` inside a span and return that span's self time in microseconds."""
    idx = tracer.begin(name)
    try:
        fn(*args, **kwargs)
    finally:
        tracer.end(idx)
    _, start, end, _ = tracer.spans[idx]
    kids = sum(e - s for _, s, e, p in tracer.spans[idx + 1 :] if p == idx)
    return (end - start - kids) / 1e3


def run_jobs(workload, ctx, rec: Recorder, seconds: float, traced: bool, min_jobs: int,
             between=None):
    """Closed loop: one job after another until ``seconds`` have passed and
    at least ``min_jobs`` ran; ``between`` runs after each job's checks.

    With ``traced``, even-numbered jobs are traced and odd-numbered ones
    are not, so one process measures both and the difference is the
    tracing overhead.  Returns [(job number, traced, seconds)] and the
    tracer.
    """
    tracer = Tracer() if traced else None
    jobs = []
    start = time.perf_counter()
    j = 0
    while j < min_jobs or time.perf_counter() - start < seconds:
        on = traced and j % 2 == 0
        rec.tracer = tracer if on else None
        rec.job = j
        idx = tracer.begin("job") if on else -1
        t0 = perf_ns()
        try:
            out = workload.job(ctx, rec, j)
        except Exception:  # a failing job is counted and the loop goes on
            rec.error(f"job {j}")
            out = None
        finally:
            elapsed = (perf_ns() - t0) * 1e-9
            if idx >= 0:
                tracer.end(idx)
            rec.tracer = None
        jobs.append((j, on, elapsed))
        if out is not None:
            try:
                workload.check_job(ctx, rec, j, out)
            except Exception:
                rec.error(f"checks of job {j}")
        if between is not None:
            between()
        j += 1
    rec.job = -1
    return jobs, tracer
