"""Objective evaluation metrics: mel-cepstral distortion, SSIM, and the
GPE/VDE/FFE pitch-error family.

All functions compare frame-aligned inputs: equal shapes are a
precondition, never fixed up by warping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tokens import atomic_write_text

# conventional mel-cepstrum order for speech evaluation
DEFAULT_CEPSTRAL_COEFFS = 24

# 10*sqrt(2)/ln(10): converts the plain frame-averaged Euclidean form to dB
MCD_DB_FACTOR = 10.0 * math.sqrt(2.0) / math.log(10.0)

DEFAULT_GPE_THRESHOLD = 0.2
DEFAULT_SSIM_WINDOW = 7

# scaling every input by one power of two is exact, so inputs whose largest
# magnitude lies outside this range are scaled into [0.5, 1): no square or
# product of four input-sized factors then overflows or reaches the subnormals
_RANGE = (2.0**-128, 2.0**128)

# window values per row block of ``ssim`` (one output row at least); no
# float64 temporary of a block holds more values than its windows do
_SSIM_BLOCK_VALUES = 1 << 18


def _as_matrix(x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 2 or arr.size == 0:
        raise ValueError(f"{name} must be a non-empty 2-D matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    return arr


def _into_range(*arrays: np.ndarray) -> tuple:
    """(e, ``arrays`` times 2^e), with e the exponent that brings their largest
    magnitude into [0.5, 1) when it is positive and outside ``_RANGE``, else 0
    (and the arrays themselves)."""
    largest = max(max(a.max(), -a.min()) for a in arrays)
    low, high = _RANGE
    e = -math.frexp(largest)[1] if largest > 0.0 and not low <= largest <= high else 0
    return e, [np.ldexp(a, e) for a in arrays] if e else arrays


def mcd(ref, syn, scale_db: bool = False) -> float:
    """Frame-averaged Euclidean distance over cepstral coefficients.

    Computed in the plain unscaled form; ``scale_db`` applies the
    conventional 10*sqrt(2)/ln(10) factor for comparison with tools that
    report dB.  Inputs out of range are scaled by ``_into_range``, and the
    result back; an MCD above the float maximum raises ``ValueError``.
    """
    a = _as_matrix(ref, "ref")
    b = _as_matrix(syn, "syn")
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: ref {a.shape} vs syn {b.shape}")
    exponent, (a, b) = _into_range(a, b)
    value = np.sqrt(((a - b) ** 2).sum(axis=1)).mean() * (MCD_DB_FACTOR if scale_db else 1.0)
    try:
        return math.ldexp(float(value), -exponent)
    except OverflowError:
        raise ValueError("ref and syn take the MCD out of the float range") from None


def _window_sums(f: np.ndarray, window: int) -> np.ndarray:
    """Sum of ``f`` over every ``window`` x ``window`` patch, as a running sum:
    ``window`` shifted column slices, then ``window`` shifted row slices of
    that, each added in order."""
    cols = f.shape[1] - window + 1
    rows = f.shape[0] - window + 1
    col_sums = f[:, :cols].copy()
    for j in range(1, window):
        col_sums += f[:, j : j + cols]
    sums = col_sums[:rows].copy()
    for i in range(1, window):
        sums += col_sums[i : i + rows]
    return sums


def ssim(ref, syn, window: int = DEFAULT_SSIM_WINDOW) -> float:
    """Mean local structural similarity over unweighted sliding windows.

    The constants are C1=(0.01*L)^2, C2=(0.03*L)^2 with L the dynamic range
    (max - min) of the reference; a constant reference has zero range, so L
    falls back to 1 to keep the constants positive.  The constants scale with
    that range, so inputs out of range are scaled by ``_into_range``,
    which leaves SSIM unchanged.  A constant reference keeps L = 1 unscaled,
    and raises ``ValueError`` when its squares leave the float range, as does
    a reference that the scaling flattens to a constant.
    """
    a = _as_matrix(ref, "ref")
    b = _as_matrix(syn, "syn")
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: ref {a.shape} vs syn {b.shape}")
    window = int(window)
    if window < 1 or window > min(a.shape):
        raise ValueError(
            f"window must be in 1..{min(a.shape)} for shape {a.shape}, got {window}"
        )
    if a.max() == a.min():
        data_range = 1.0
    else:
        a, b = _into_range(a, b)[1]
        data_range = float(a.max() - a.min())  # 0.0 if the scaling flattened a
    try:  # an overflow anywhere, even one that leaves the mean finite, or a 0/0 is refused
        with np.errstate(over="raise", invalid="raise"):
            return _ssim(a, b, window, (0.01 * data_range) ** 2, (0.03 * data_range) ** 2)
    except FloatingPointError:
        raise ValueError("ref and syn take the SSIM out of the float range") from None


def _ssim(a: np.ndarray, b: np.ndarray, window: int, c1: float, c2: float) -> float:
    """The mean SSIM map of ``a`` against ``b`` under the constants C1 and C2."""
    # C order fixes the summation order of the reference mean and of the
    # final mean, so the result does not depend on the inputs' memory layout
    a = np.ascontiguousarray(a)
    b = np.ascontiguousarray(b)
    # centring both inputs on the reference mean keeps E[x^2] - mu^2 from
    # cancelling when the data sit far from zero; variance and covariance do
    # not change under the shift, and it is added back for the luminance term
    shift = a.mean()
    n = window * window
    ssim_map = np.empty((a.shape[0] - window + 1, a.shape[1] - window + 1))
    # each output row is computed on its own from its window's input rows,
    # so blocks of rows with a window - 1 halo bound every temporary and
    # leave every bit of the map unchanged
    step = max(1, _SSIM_BLOCK_VALUES // (ssim_map.shape[1] * n))
    for i in range(0, ssim_map.shape[0], step):
        x = a[i : i + step + window - 1] - shift
        y = b[i : i + step + window - 1] - shift
        mu_x, mu_y, xx, yy, xy = (
            _window_sums(f, window) / n for f in (x, y, x * x, y * y, x * y)
        )
        var_a = xx - mu_x**2
        var_b = yy - mu_y**2
        cov = xy - mu_x * mu_y
        mu_a = mu_x + shift
        mu_b = mu_y + shift
        num = (2.0 * mu_a * mu_b + c1) * (2.0 * cov + c2)
        den = (mu_a**2 + mu_b**2 + c1) * (var_a + var_b + c2)
        ssim_map[i : i + step] = num / den
    return float(ssim_map.mean())


@dataclass(frozen=True)
class PitchTrack:
    """Per-frame F0 values (Hz) with voicing decisions."""

    f0: np.ndarray
    voiced: np.ndarray

    def __post_init__(self):
        f0 = np.asarray(self.f0, dtype=float)
        voiced = np.asarray(self.voiced, dtype=bool)
        if f0.ndim != 1 or voiced.shape != f0.shape or f0.size == 0:
            raise ValueError("f0 and voiced must be equal-length non-empty vectors")
        if not np.all(np.isfinite(f0)) or np.any(f0 < 0):
            raise ValueError("f0 must be finite and nonnegative")
        if np.any(voiced & (f0 <= 0)):
            raise ValueError("voiced frames must carry f0 > 0")
        object.__setattr__(self, "f0", f0)
        object.__setattr__(self, "voiced", voiced)

    def __len__(self) -> int:
        return len(self.f0)


def pitch_errors(
    ref: PitchTrack, syn: PitchTrack, gpe_threshold: float = DEFAULT_GPE_THRESHOLD
) -> dict:
    """Gross pitch error, voicing decision error, and F0 frame error.

    GPE is the fraction of both-voiced frames whose relative F0 deviation
    exceeds the threshold; with no both-voiced frames it is undefined and
    reported as None.  FFE counts GPE-error frames plus voicing
    mismatches over all frames.
    """
    if not isinstance(ref, PitchTrack) or not isinstance(syn, PitchTrack):
        raise TypeError("ref and syn must be PitchTrack instances")
    if len(ref) != len(syn):
        raise ValueError(f"length mismatch: ref {len(ref)} vs syn {len(syn)}")
    if not (math.isfinite(gpe_threshold) and gpe_threshold > 0):
        raise ValueError(f"gpe_threshold must be a finite number > 0, got {gpe_threshold}")
    n = len(ref)
    mismatches = int(np.count_nonzero(ref.voiced != syn.voiced))
    both = ref.voiced & syn.voiced
    n_both = int(np.count_nonzero(both))
    if n_both:
        deviation = np.abs(syn.f0[both] - ref.f0[both]) / ref.f0[both]
        gpe_errors = int(np.count_nonzero(deviation > gpe_threshold))
        gpe = gpe_errors / n_both
    else:
        gpe_errors = 0
        gpe = None
    return {
        "gpe": gpe,
        "vde": mismatches / n,
        "ffe": (gpe_errors + mismatches) / n,
    }


def load_pitch_track(path) -> PitchTrack:
    """Read a frame,f0,voiced CSV: rows in any frame order, frames the
    integers 0..n-1 once each, ``voiced`` exactly 0 or 1, and at most the
    first non-blank line a header."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [(n, line.strip()) for n, line in enumerate(fh, start=1) if line.strip()]
    rows = []
    for i, (number, line) in enumerate(lines):
        parts = line.split(",")
        if len(parts) != 3:
            raise ValueError(f"expected 3 columns (frame,f0,voiced): {line!r}")
        try:
            frame, f0, voiced = (float(part) for part in parts)
        except ValueError:
            if i == 0:
                continue  # header line
            raise ValueError(f"unparseable pitch row {number}: {line!r}") from None
        if not (math.isfinite(frame) and frame.is_integer()) or voiced not in (0.0, 1.0):
            raise ValueError(
                f"pitch row {number} needs a finite integer frame and voiced 0 or 1: {line!r}"
            )
        rows.append((int(frame), f0, voiced == 1.0))
    if not rows:
        raise ValueError(f"no pitch frames in {path}")
    rows.sort(key=lambda r: r[0])
    # tracks are compared by position, so a repeated or missing frame
    # would silently pair frames that do not belong together
    for expected, (frame, _, _) in enumerate(rows):
        if frame != expected:
            raise ValueError(
                f"pitch frames must be 0..{len(rows) - 1} with no repeat or gap: "
                f"got frame {frame} where frame {expected} belongs"
            )
    return PitchTrack(
        f0=np.array([r[1] for r in rows]),
        voiced=np.array([r[2] for r in rows]),
    )


def save_pitch_track(path, track: PitchTrack) -> None:
    lines = ["frame,f0,voiced"]
    for i in range(len(track)):
        lines.append(f"{i},{float(track.f0[i])!r},{int(track.voiced[i])}")
    atomic_write_text(path, "\n".join(lines) + "\n")
