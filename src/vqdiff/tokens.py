"""Token grids and their on-disk JSON format.

A token grid is an (N_q, L) integer array: N_q codebook rows by L frames.
Entries are codeword indices in 0..K-1, or K for the mask placeholder that
appears in partially corrupted grids.
"""

from __future__ import annotations

import json
import math
import numbers
import os
import tempfile
from dataclasses import dataclass

import numpy as np


def atomic_write_text(path, text) -> None:
    """Write ``text``, a string or an iterable of strings written in turn,
    to ``path`` via a temp file in the same directory.

    The content is fully written to the temp file before anything touches
    the target, so a failure part-way never leaves a truncated file behind.
    The file gets the mode ``open(path, "w")`` would create, ``0o666``
    less the umask, not the ``0o600`` of the temp file.
    """
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            for chunk in [text] if isinstance(text, str) else text:
                fh.write(chunk)
        umask = os.umask(0)  # reading the umask means setting it
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _load_object(path, what: str, error=ValueError, parse_float=None) -> dict:
    """The JSON object stored at ``path``; raises ``error`` for any other JSON value."""
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh, parse_float=parse_float)
    if not isinstance(payload, dict):
        raise error(f"a {what} file must hold a JSON object")
    return payload


def _field(payload: dict, name: str, convert, what: str, error=ValueError, default=None):
    """``convert`` applied to ``payload[name]``, or to ``default`` when the field is absent.

    A missing field without a default, or a value ``convert`` rejects with
    ``TypeError``/``ValueError``, raises ``error`` naming the field of the
    ``what`` file.
    """
    if name not in payload and default is None:
        raise error(f"{what} file has no {name!r} field")
    try:
        return convert(payload.get(name, default))
    except (TypeError, ValueError, OverflowError) as exc:
        raise error(f"{what} field {name!r} is malformed: {exc}") from None


def _integral(value) -> bool:
    """Whether ``value`` is a Python or NumPy integer; a bool is not one."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _integer(value) -> int:
    """A JSON integer as ``int``; floats, strings and booleans are rejected."""
    if not _integral(value):
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def _at_least(name: str, value: int, low: int, error=ValueError) -> None:
    """Raise ``error`` naming ``name`` unless ``value`` is an integer ``>= low``."""
    if not _integral(value):
        raise error(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise error(f"{name} must be >= {low}, got {value}")


def _index(name: str, value, low: int, high: int, arrays: bool = False) -> None:
    """Raise ``ValueError`` naming ``name`` unless ``value`` is an integer in ``low..high``, or,
    with ``arrays``, a NumPy integer array with every entry there."""
    if arrays and isinstance(value, np.ndarray):
        ok = value.dtype.kind in "iu" and np.all((low <= value) & (value <= high))
    else:  # a scalar stays in Python: steps are checked on every reverse step
        ok = _integral(value) and low <= value <= high
    if not ok:
        raise ValueError(f"{name} must be in {low}..{high}, got {value}")


def _real(name: str, value, low: float, strict: bool = False, high: float = math.inf) -> float:
    """``value`` as a float if it is a finite real number, not a bool or a string, that is
    ``>= low`` (``> low`` if ``strict``) and ``<= high``; else ``ValueError`` naming ``name``."""
    real = not isinstance(value, bool) and isinstance(value, numbers.Real)
    try:
        x = float(value) if real else math.nan
    except OverflowError:  # an integer past the float range
        x = math.inf
    if math.isfinite(x) and (low < x <= high or (x == low and not strict)):
        return x
    if high < math.inf:
        raise ValueError(f"{name} must be in [{low}, {high}]")
    shown = value if real else repr(value)
    raise ValueError(f"{name} must be a finite number {'>' if strict else '>='} {low}, got {shown}")


def _label(cond) -> int:
    """A condition label as ``int``; any other value, a bool or NaN too, raises ``ValueError``."""
    if not _integral(cond):
        raise ValueError(f"condition label {cond!r} is not an integer")
    return int(cond)


def _integers(value) -> list[int]:
    if not isinstance(value, list):
        raise TypeError(f"expected a list of integers, got {type(value).__name__}")
    if set(map(type, value)) <= {int}:
        return value
    return [_integer(v) for v in value]  # raises, naming the first bad entry


def _numbers(value, ndim: int | None = None, integer: bool = False) -> np.ndarray:
    """A JSON array nested ``ndim`` deep (any depth if None) as float64, or int64 with ``integer``.

    Booleans, strings, ``null``, ragged nesting and, with ``integer``, floats
    raise for ``_field`` to name the field; an empty array reads as either type.
    """
    what = "integers" if integer else "numbers"
    if not isinstance(value, list):
        raise TypeError(f"expected a list of {what}, got {type(value).__name__}")
    try:
        array = np.asarray(value)
    except ValueError:
        raise ValueError("the lists are ragged or differ in length") from None
    if ndim is not None and array.ndim != ndim:
        raise ValueError(f"expected lists nested {ndim} deep, got shape {array.shape}")
    rows = [value]
    for _ in range(array.ndim - 1):  # a rectangular array nests lists down to its last axis
        rows = [row for outer in rows for row in outer]
    if any(bool in set(map(type, row)) for row in rows):  # NumPy reads true as 1
        raise TypeError(f"expected {what}, got a boolean")
    if array.size and array.dtype.kind not in ("i" if integer else "iuf"):
        raise ValueError(f"expected {what}, got entries of NumPy dtype {array.dtype}")
    return array.astype(np.int64 if integer else np.float64, copy=False)


@dataclass(frozen=True)
class TokenGrid:
    """An (N_q, L) grid of codeword indices over alphabet size ``K``."""

    data: np.ndarray
    K: int

    def __post_init__(self):
        data = np.asarray(self.data)
        if data.ndim != 2:
            raise ValueError(f"token grid must be 2-D, got shape {data.shape}")
        if not np.issubdtype(data.dtype, np.integer):
            raise ValueError("token grid entries must be integers")
        data = data.astype(np.int64)
        _at_least("K", self.K, 2)
        if data.size and (data.min() < 0 or data.max() > self.K):
            raise ValueError(f"token values must lie in 0..{self.K} (K = mask)")
        data.flags.writeable = False
        object.__setattr__(self, "data", data)

    @classmethod
    def _checked(cls, data: np.ndarray, K: int) -> "TokenGrid":
        """A grid over ``data`` itself: a read-only int64 (N_q, L) array, with no writeable
        base, whose tokens are known to lie in 0..K for a K already checked."""
        grid = object.__new__(cls)
        object.__setattr__(grid, "data", data)
        object.__setattr__(grid, "K", K)
        return grid

    @property
    def N_q(self) -> int:
        return self.data.shape[0]

    @property
    def L(self) -> int:
        return self.data.shape[1]

    def contains_mask(self) -> bool:
        return bool(np.any(self.data == self.K))

    def with_data(self, data: np.ndarray) -> "TokenGrid":
        return TokenGrid(data=data, K=self.K)


def _grid_set(grids: list[TokenGrid], what: str) -> np.ndarray:
    """The (n, N_q, L) stack of ``grids``, a non-empty list of grids of one
    shape and K; otherwise ``ValueError`` naming ``what``."""
    if len(grids) == 0:
        raise ValueError(f"empty {what}")
    if len({(g.N_q, g.L, g.K) for g in grids}) != 1:
        raise ValueError(f"{what} grids must share shape and K")
    return np.stack([g.data for g in grids])


def _labels(labels, n: int) -> list[int] | None:
    """The labels of a token file of ``n`` grids as ints, one per grid, or None."""
    if labels is None:
        return None
    if len(labels) != n:
        raise ValueError(f"token file has {len(labels)} labels for {n} grids")
    return [_label(x) for x in labels]


def token_file_dict(grids: list[TokenGrid], labels: list[int] | None = None) -> dict:
    data = _grid_set(grids, "token file")
    labels = _labels(labels, len(data))
    payload = {"K": grids[0].K, "N_q": data.shape[1], "L": data.shape[2], "grids": data.tolist()}
    if labels is not None:
        payload["labels"] = labels
    return payload


def _indented(items, depth: int) -> str:
    """``json.dumps(..., indent=2)`` of a list nested ``depth`` levels deep,
    given its items already formatted."""
    items = list(items)
    if not items:
        return "[]"
    inner = "\n" + "  " * depth
    return "[" + inner + ("," + inner).join(items) + "\n" + "  " * (depth - 1) + "]"


def save_token_file(path, grids: list[TokenGrid], labels: list[int] | None = None) -> None:
    """Write exactly ``json.dumps(token_file_dict(grids, labels), indent=2)``,
    formatting each distinct token value once: with ``indent`` set, ``json``
    runs its pure-Python encoder over every integer."""
    data = _grid_set(grids, "token file")
    labels = _labels(labels, len(data))
    header = json.dumps({"K": grids[0].K, "N_q": data.shape[1], "L": data.shape[2]}, indent=2)
    values, index = np.unique(data, return_inverse=True)
    strings = np.array(list(map(str, values.tolist())), dtype=object)
    text = strings[index.reshape(data.shape)].tolist()

    def chunks():
        yield header[:-2] + ',\n  "grids": ['  # the header without its "\n}"
        for n, rows in enumerate(text):
            rows = (_indented(row, 4) for row in rows)
            yield ("," if n else "") + "\n    " + _indented(rows, 3)
        yield "\n  ]"
        if labels is not None:
            yield ',\n  "labels": ' + _indented(map(str, labels), 2)
        yield "\n}"

    atomic_write_text(path, chunks())


def load_token_file(path) -> tuple[list[TokenGrid], list[int] | None]:
    payload = _load_object(path, "token")
    K = _field(payload, "K", _integer, "token")
    _at_least("token field 'K'", K, 2)
    arrays = _field(payload, "grids", lambda v: _numbers(v, 3, integer=True), "token")
    for axis, name in ((1, "N_q"), (2, "L")):  # optional: files need only K and the grids
        if name in payload and _field(payload, name, _integer, "token") != arrays.shape[axis]:
            raise ValueError(f"token field {name!r} is {payload[name]}, "
                             f"but the grids have {name}={arrays.shape[axis]}")
    labels = None
    if payload.get("labels") is not None:
        labels = _labels(_field(payload, "labels", _integers, "token"), len(arrays))
    if arrays.size and (arrays.min() < 0 or arrays.max() > K):  # one check for every grid
        i = np.flatnonzero(((arrays < 0) | (arrays > K)).any(axis=(1, 2)))[0]
        raise ValueError(f"token field 'grids' is malformed: grid {i}: "
                         f"token values must lie in 0..{K} (K = mask)")
    arrays.flags.writeable = False  # so is every grid's view of it
    return [TokenGrid._checked(a, K) for a in arrays], labels
