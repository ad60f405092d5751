"""Noise schedules for mask+uniform categorical diffusion.

A schedule over ``T`` steps and a ``K``-token alphabet (plus mask id ``K``)
is stored as cumulative coefficients only: ``alpha_bar`` (probability of
still carrying the original token), ``beta_bar`` (per-category uniform
mass) and ``gamma_bar`` (mask mass), each indexed by step ``t in 0..T``.
The kernel taking step ``s`` to step ``t`` stays in the mask+uniform family,
and its coefficients follow from the cumulatives by the quotient rules

    alpha = alpha_bar[t] / alpha_bar[s]
    1 - gamma = (1 - gamma_bar[t]) / (1 - gamma_bar[s])
    beta = (1 - alpha - gamma) / K

(``ScheduleTable.segment``); the single step ``t-1 -> t`` is the case
``s = t-1`` (``ScheduleTable.stepwise``).

Two constructions are provided: a linear ramp shared by every position,
and a per-codebook variant that masks later (residual) codebooks earlier
so that reverse generation recovers coarse content first.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ScheduleError, SizeGuardError
from .tokens import _at_least, _field, _index, _integer, _load_object, _numbers, atomic_write_text

SIMPLEX_ATOL = 1e-12

_ARRAYS = ("alpha_bar", "beta_bar", "gamma_bar")
_KINDS = ("linear", "improved", "custom")
_MAX_SCHEDULE_BYTES = 2**28  # float64 cumulative arrays of one constructed schedule


def _check_unit_interval(name: str, a: np.ndarray) -> None:
    if not np.all((a >= -SIMPLEX_ATOL) & (a <= 1 + SIMPLEX_ATOL)):  # NaN fails too
        raise ScheduleError(f"{name} has entries outside [0, 1]")


def _check_shapes(T: int, arrays: dict) -> None:
    shape = arrays["alpha_bar"].shape
    if shape[:1] != (T + 1,) or len(shape) > 2 or 0 in shape:
        raise ScheduleError(
            f"alpha_bar must have shape (T+1,) or (T+1, n_layers) with T+1={T + 1}, got {shape}"
        )
    for name, a in arrays.items():
        if a.shape != shape:
            raise ScheduleError(f"{name} must have the shape of alpha_bar, {shape}")


def _check_args(T: int, K: int, N_q: int = 1) -> None:
    """T, K and N_q of a schedule to construct, and the size of its arrays, before allocating."""
    for name, value, low in (("T", T, 1), ("K", K, 2), ("N_q", N_q, 1)):
        _at_least(name, value, low)
    n_bytes = 3 * 8 * (T + 1) * N_q
    if n_bytes > _MAX_SCHEDULE_BYTES:
        raise SizeGuardError(f"a schedule with T={T} and N_q={N_q} needs {n_bytes} bytes of "
                             f"cumulative arrays, above the {_MAX_SCHEDULE_BYTES}-byte limit")


def _quotients(ab_s, gb_s, ab_t, gb_t):
    """alpha and gamma of the kernel taking cumulative step s to step t.

    A layer with nothing left to keep (ab_s = 0) or to mask (gb_s = 1) gets
    0; adding and multiplying by the masks gives that elementwise without
    division warnings.
    """
    kept, unmasked = ab_s > 0, gb_s < 1
    alpha = ab_t / (ab_s + ~kept) * kept
    gamma = (1.0 - (1.0 - gb_t) / (1.0 - gb_s + ~unmasked)) * unmasked
    return alpha, gamma


@dataclass(frozen=True)
class ScheduleTable:
    """Mask+uniform schedule, shared by every grid row or one per codebook.

    The cumulative arrays ``alpha_bar``, ``beta_bar``, ``gamma_bar`` all
    have shape (T+1,) for a schedule shared by every codebook row, or
    (T+1, n_layers) for one column per codebook row.  ``t=0`` is the
    identity, except for the ``improved`` kind.  Per-step coefficients are
    derived from them by ``segment``/``stepwise``.  ``kind`` is ``linear``,
    ``improved`` or ``custom``.  The three arrays are read-only views of one
    (3, T+1, n_layers) array, ``_coeffs``, in which a shared schedule has one
    layer.  ``cached`` keeps values derived from the table alone, such as
    reverse-kernel coefficients, with this instance.
    """

    T: int
    K: int
    alpha_bar: np.ndarray
    beta_bar: np.ndarray
    gamma_bar: np.ndarray
    kind: str = "custom"
    _coeffs: np.ndarray = field(init=False, repr=False, compare=False)
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        for name, low in (("T", 1), ("K", 2)):  # ints that json writes, before the shapes use T
            _at_least(name, getattr(self, name), low, ScheduleError)
            object.__setattr__(self, name, int(getattr(self, name)))
        arrays = [np.asarray(getattr(self, name), dtype=np.float64) for name in _ARRAYS]
        _check_shapes(self.T, dict(zip(_ARRAYS, arrays)))
        coeffs = np.stack(arrays).reshape(3, len(arrays[0]), -1)
        coeffs.flags.writeable = False
        object.__setattr__(self, "_coeffs", coeffs)
        for name, a in zip(_ARRAYS, coeffs):
            object.__setattr__(self, name, a.reshape(arrays[0].shape))
        self.validate()

    def cached(self, key, build):
        """``build()``, computed on the first call with ``key`` and kept.

        The table is immutable, so anything computed from it alone stays
        valid; callers store read-only arrays.
        """
        value = self._cache.get(key)
        if value is None:
            value = self._cache[key] = build()
        return value

    @property
    def n_layers(self) -> int:
        return self._coeffs.shape[2]

    def _column(self, layer: int) -> int:
        """The column of ``_coeffs`` that ``layer`` reads: a shared table's one, else its own."""
        _at_least("layer", layer, 0)
        if self.alpha_bar.ndim == 2:
            _index("layer", layer, 0, self.n_layers - 1)
        return layer if self.alpha_bar.ndim == 2 else 0

    def cumulative(self, t: int, layer: int = 0):
        """(alpha_bar, beta_bar, gamma_bar) of ``layer`` at step ``t``; a shared
        schedule has the same coefficients on every layer."""
        _index("t", t, 0, self.T)
        return tuple(self._coeffs[:, t, self._column(layer)])

    def stepwise(self, t: int, layer: int = 0):
        """(alpha, beta, gamma) of ``layer`` for the single step ``t-1 -> t``; requires t >= 1.

        The values of ``segment(t - 1, t)``, except that a uniform mass
        below ``SIMPLEX_ATOL`` is quotient noise and reads 0, so pure-mask
        steps stay exactly pure.
        """
        _index("t", t, 1, self.T)
        alpha, beta, gamma = np.reshape(self.segment(t - 1, t), (3, -1))[:, self._column(layer)]
        return alpha, (beta if beta >= SIMPLEX_ATOL else 0.0), gamma

    def segment(self, s: int, t: int):
        """(alpha, beta, gamma) of the composite kernel taking step s to step t > s.

        The product of mask+uniform matrices stays in the family, with the
        composite coefficients given by the same quotient rules as single
        steps.  Each value is shaped like ``alpha_bar[t]``: one entry per
        layer for a per-codebook schedule.  ``s`` and ``t`` may be arrays of
        steps, one pair per entry, and every pair must be in range.
        """
        integers = all(np.asarray(v).dtype.kind in "iu" for v in (s, t))
        if not (integers and np.all((0 <= s) & (s < t) & (t <= self.T))):
            raise ValueError(f"need 0 <= s < t <= {self.T}, got s={s}, t={t}")
        alpha, gamma = _quotients(
            self.alpha_bar[s], self.gamma_bar[s], self.alpha_bar[t], self.gamma_bar[t]
        )
        beta = np.maximum(0.0, 1.0 - alpha - gamma) / self.K
        return alpha, beta, gamma

    def validate(self) -> None:
        if self.kind not in _KINDS:
            raise ScheduleError(f"kind must be one of {_KINDS}, got {self.kind!r}")
        for name in ("alpha_bar", "beta_bar", "gamma_bar"):
            _check_unit_interval(name, getattr(self, name))
        closure = self.alpha_bar + self.K * self.beta_bar + self.gamma_bar
        if np.max(np.abs(closure - 1.0)) > SIMPLEX_ATOL:
            raise ScheduleError("alpha_bar + K*beta_bar + gamma_bar must equal 1")
        # the improved schedule's offset leaves mask mass at t=0
        if self.kind != "improved" and not (
            np.all(self.alpha_bar[0] == 1.0)
            and np.all(self.gamma_bar[0] == 0.0)
            and np.all(self.beta_bar[0] == 0.0)
        ):
            raise ScheduleError("step 0 must be the identity (alpha_bar=1, others 0)")
        if np.any(np.diff(self.alpha_bar, axis=0) > SIMPLEX_ATOL):
            raise ScheduleError("alpha_bar must be non-increasing in t")
        if np.any(np.diff(self.gamma_bar, axis=0) < -SIMPLEX_ATOL):
            raise ScheduleError("gamma_bar must be non-decreasing in t")
        # later codebooks must never be less masked than earlier ones
        if np.any(np.diff(self.gamma_bar.reshape(self.T + 1, -1), axis=1) < -SIMPLEX_ATOL):
            raise ScheduleError("gamma_bar must be non-decreasing in the layer index")
        gb_s = self.gamma_bar[:-1]
        alpha, gamma = _quotients(self.alpha_bar[:-1], gb_s, self.alpha_bar[1:], self.gamma_bar[1:])
        # gamma_bar near 1 is rounded by up to eps/4, so the mask quotient is off by up to
        # about (eps/2)/(1 - gamma_bar[s]): twice that is allowed
        slack = np.finfo(float).eps / (1.0 - gb_s + (gb_s >= 1))
        if np.any((1.0 - alpha - gamma + slack) / self.K < -1e-9):
            raise ScheduleError("cumulative tables imply a negative uniform mass")

    def to_json_dict(self) -> dict:
        return {
            "T": self.T,
            "K": self.K,
            "kind": self.kind,
            "N_q": self.n_layers,
            "alpha_bar": self.alpha_bar.tolist(),
            "gamma_bar": self.gamma_bar.tolist(),
            "beta_bar": self.beta_bar.tolist(),
        }


def _cumulative(alpha_bar, gamma_bar, K: int, kind: str = "custom") -> ScheduleTable:
    """The table of cumulative alpha_bar and gamma_bar; the rest is uniform mass, K*beta_bar."""
    _at_least("K", K, 2)  # before anything divides by K
    beta_bar = (1.0 - alpha_bar - gamma_bar) / K
    return ScheduleTable(len(alpha_bar) - 1, K, alpha_bar, beta_bar, gamma_bar, kind=kind)


def linear_schedule(T: int, K: int) -> ScheduleTable:
    """Linear ramp: mask mass grows to 0.9, total uniform mass to 0.1.

    At step t the cumulative coefficients are gamma_bar = 0.9*t/T,
    K*beta_bar = 0.1*t/T and alpha_bar = 1 - t/T, so the process ends in
    the fixed distribution (0.1/K, ..., 0.1/K, 0.9).
    """
    _check_args(T, K)
    frac = np.arange(T + 1) / T
    return _cumulative(1.0 - frac, 0.9 * frac, K, "linear")


# ``L`` is checked but unused: perfbench/wl_pipeline.py:116 passes it
def improved_schedule(T: int, K: int, N_q: int, *, L: int = 1) -> ScheduleTable:
    """Per-codebook schedule that masks later (residual) layers earlier.

    Layer ``q`` of ``N_q`` uses

        alpha_bar[t][q] = 1 - t/T - exp(q / (2*N_q)) / (2*T)
        gamma_bar[t][q] = t/T + exp(q / (2*N_q)) / (2*T)

    which makes the uniform component identically zero (a pure-mask
    process).  The raw alpha_bar dips below 0 at t=T; it is clamped to
    [0, 1] and gamma_bar recomputed as the simplex residual, so every
    layer ends fully masked.  Note the offset term makes step 0 carry a
    small amount of mask mass already; forward corruption at t=0 is
    defined as the identity regardless (see ``diffusion.corrupt``).
    """
    _check_args(T, K, N_q)
    _at_least("L", L, 1)

    t = (np.arange(T + 1) / T)[:, None]
    q = np.arange(N_q)[None, :]
    offset = np.exp(q / (2.0 * N_q)) / (2.0 * T)
    alpha_bar = np.clip(1.0 - t - offset, 0.0, 1.0)
    return _cumulative(alpha_bar, 1.0 - alpha_bar, K, "improved")  # no uniform mass


def from_cumulative(alpha_bar, gamma_bar, K: int) -> ScheduleTable:
    """Build a table from cumulative alpha_bar/gamma_bar arrays (length T+1)."""
    alpha_bar = np.asarray(alpha_bar, dtype=np.float64)
    gamma_bar = np.asarray(gamma_bar, dtype=np.float64)
    if alpha_bar.shape != gamma_bar.shape or alpha_bar.ndim != 1 or len(alpha_bar) < 2:
        raise ValueError("alpha_bar and gamma_bar must be 1-D arrays of equal length >= 2")
    return _cumulative(alpha_bar, gamma_bar, K)


def from_stepwise(alpha, beta, gamma, K: int) -> ScheduleTable:
    """Build a table from per-step coefficients (arrays of length T, steps 1..T).

    Each step must satisfy alpha + K*beta + gamma = 1 within 1e-9.
    """
    alpha = np.asarray(alpha, dtype=np.float64)
    beta = np.asarray(beta, dtype=np.float64)
    gamma = np.asarray(gamma, dtype=np.float64)
    if not (alpha.shape == beta.shape == gamma.shape) or alpha.ndim != 1 or len(alpha) < 1:
        raise ValueError("alpha, beta, gamma must be 1-D arrays of equal length >= 1")
    if np.max(np.abs(alpha + K * beta + gamma - 1.0)) > 1e-9:
        raise ValueError("each step must satisfy alpha + K*beta + gamma = 1")
    if np.any(alpha < 0) or np.any(beta < 0) or np.any(gamma < 0):
        raise ValueError("stepwise coefficients must be nonnegative")
    alpha_bar = np.cumprod(np.concatenate([[1.0], alpha]))
    return _cumulative(alpha_bar, 1.0 - np.cumprod(np.concatenate([[1.0], 1.0 - gamma])), K)


def random_schedule(rng: np.random.Generator, T: int, K: int) -> ScheduleTable:
    """Random valid schedule from random per-step simplex coefficients.

    Draws alpha ~ U[0.5, 1) for all T steps, then the split of the rest
    between mask and uniform mass; the oracle checks use it.
    """
    _check_args(T, K)
    alpha = rng.uniform(0.5, 1.0, size=T)
    rest = 1.0 - alpha
    split = rng.uniform(0.0, 1.0, size=T)
    gamma = rest * split
    beta = rest * (1.0 - split) / K
    return from_stepwise(alpha, beta, gamma, K)


def schedule_from_json_dict(payload: dict) -> ScheduleTable:
    kind = _field(payload, "kind", str, "schedule", ScheduleError, "linear")
    T = _field(payload, "T", _integer, "schedule", ScheduleError)
    K = _field(payload, "K", _integer, "schedule", ScheduleError)
    cum = {name: _field(payload, name, _numbers, "schedule", ScheduleError) for name in _ARRAYS}
    N_q = None  # required for improved; elsewhere optional, as in token files
    if kind == "improved" or "N_q" in payload:
        N_q = _field(payload, "N_q", _integer, "schedule", ScheduleError)
    if kind == "improved" and cum["alpha_bar"].shape != (T + 1, N_q):
        raise ScheduleError(
            f"N_q={N_q} needs alpha_bar of shape (T+1, N_q) = {(T + 1, N_q)}, "
            f"got {cum['alpha_bar'].shape}"
        )
    table = ScheduleTable(T, K, **cum, kind=kind)  # checks the shapes
    if N_q is not None and N_q != table.n_layers:
        raise ScheduleError(f"schedule field 'N_q' is {N_q}, but the arrays have "
                            f"N_q={table.n_layers}")
    return table


def load_schedule(path) -> ScheduleTable:
    return schedule_from_json_dict(_load_object(path, "schedule", ScheduleError))


def save_schedule(path, table: ScheduleTable) -> None:
    atomic_write_text(path, json.dumps(table.to_json_dict()))


def format_table(table: ScheduleTable) -> str:
    """Human-readable per-step listing used by the CLI."""
    per_layer = table.alpha_bar.ndim == 2
    head = f"kind={table.kind} T={table.T} K={table.K}"
    cols = f"{'alpha_bar':>12} {'K*beta_bar':>12} {'gamma_bar':>12}"
    if per_layer:
        head += f" N_q={table.n_layers}"
        cols = f"{'layer':>5} {cols}"
    lines = [head, f"{'t':>5} {cols}"]
    for t in range(table.T + 1):
        for q in range(table.n_layers):
            ab, bb, gb = table.cumulative(t, q)
            layer = f"{q:>5} " if per_layer else ""
            lines.append(f"{t:>5} {layer}{ab:>12.6f} {table.K * bb:>12.6f} {gb:>12.6f}")
    return "\n".join(lines)
