"""Token grids and their on-disk JSON format.

A token grid is an (N_q, L) integer array: N_q codebook rows by L frames.
Entries are codeword indices in 0..K-1, or K for the mask placeholder that
appears in partially corrupted grids.
"""

from __future__ import annotations

import json
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


def _integer(value) -> int:
    """A JSON integer as ``int``; floats, strings and booleans are rejected."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def _label(cond) -> int:
    """A condition label as ``int``; a bool, a float (NaN included) or any
    other non-integer raises ``ValueError`` naming it."""
    if isinstance(cond, bool) or not isinstance(cond, (int, np.integer)):
        raise ValueError(f"condition label {cond!r} is not an integer")
    return int(cond)


def _integers(value) -> list[int]:
    if not isinstance(value, list):
        raise TypeError(f"expected a list of integers, got {type(value).__name__}")
    if set(map(type, value)) <= {int}:
        return value
    return [_integer(v) for v in value]  # raises, naming the first bad entry


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
        if self.K < 2:
            raise ValueError(f"K must be >= 2, got {self.K}")
        if data.size and (data.min() < 0 or data.max() > self.K):
            raise ValueError(f"token values must lie in 0..{self.K} (K = mask)")
        data.flags.writeable = False
        object.__setattr__(self, "data", data)

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


def _token_labels(grids: list[TokenGrid], labels: list[int] | None) -> list[int] | None:
    """The labels of a token file as ints, after checking the grids and labels
    can be stored together."""
    if not grids:
        raise ValueError("token file needs at least one grid")
    first = grids[0]
    for g in grids:
        if (g.N_q, g.L, g.K) != (first.N_q, first.L, first.K):
            raise ValueError("all grids in a token file must share shape and K")
    if labels is not None and len(labels) != len(grids):
        raise ValueError("labels must match the number of grids")
    return None if labels is None else [_label(x) for x in labels]


def token_file_dict(grids: list[TokenGrid], labels: list[int] | None = None) -> dict:
    labels = _token_labels(grids, labels)
    first = grids[0]
    payload = {
        "K": first.K,
        "N_q": first.N_q,
        "L": first.L,
        "grids": [g.data.tolist() for g in grids],
    }
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
    labels = _token_labels(grids, labels)
    first = grids[0]
    header = json.dumps({"K": first.K, "N_q": first.N_q, "L": first.L}, indent=2)
    values, index = np.unique(np.stack([g.data for g in grids]), return_inverse=True)
    strings = np.array(list(map(str, values.tolist())), dtype=object)
    text = strings[index.reshape(len(grids), first.N_q, first.L)].tolist()

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


def _grid_array(value) -> np.ndarray:
    """Every grid as one (n_grids, N_q, L) integer array."""
    if not isinstance(value, list) or not value:
        raise TypeError("expected a non-empty list of grids")
    try:
        grids = np.asarray(value)
    except ValueError:
        raise ValueError("the grids are ragged or differ in shape") from None
    if grids.ndim != 3 or not np.issubdtype(grids.dtype, np.integer):
        raise ValueError("expected rectangular 2-D grids of integers, all of one shape")
    return grids


def load_token_file(path) -> tuple[list[TokenGrid], list[int] | None]:
    payload = _load_object(path, "token")
    K = _field(payload, "K", _integer, "token")
    if K < 2:
        raise ValueError(f"token field 'K' must be >= 2, got {K}")
    arrays = _field(payload, "grids", _grid_array, "token")
    labels = None
    if payload.get("labels") is not None:
        labels = _field(payload, "labels", _integers, "token")
        if len(labels) != len(arrays):
            raise ValueError(f"token file has {len(labels)} labels for {len(arrays)} grids")
    grids = []
    for i, a in enumerate(arrays):
        try:
            grids.append(TokenGrid(data=a, K=K))
        except ValueError as exc:  # K is valid, so the tokens are not
            raise ValueError(f"token field 'grids' is malformed: grid {i}: {exc}") from None
    return grids, labels
