"""Token grid validation and the JSON token file."""

import json
import os
import re
import stat

import numpy as np
import pytest

from vqdiff import tokens
from vqdiff.tokens import (
    TokenGrid,
    atomic_write_text,
    load_token_file,
    save_token_file,
    token_file_dict,
)


class TestTokenGrid:
    def test_shape_and_alphabet_validation(self):
        with pytest.raises(ValueError, match="2-D"):
            TokenGrid(data=np.array([0, 1]), K=2)
        with pytest.raises(ValueError, match="integers"):
            TokenGrid(data=np.array([[0.5]]), K=2)
        with pytest.raises(ValueError, match="0..2"):
            TokenGrid(data=np.array([[3]]), K=2)
        with pytest.raises(ValueError, match="K must be"):
            TokenGrid(data=np.array([[0]]), K=1)

    def test_mask_detection(self):
        clean = TokenGrid(data=np.array([[0, 1], [2, 0]]), K=3)
        assert not clean.contains_mask()
        masked = TokenGrid(data=np.array([[0, 3]]), K=3)
        assert masked.contains_mask()

    def test_data_is_frozen(self):
        grid = TokenGrid(data=np.array([[0, 1]]), K=2)
        with pytest.raises(ValueError):
            grid.data[0, 0] = 1


class TestTokenFile:
    def test_round_trip_with_labels(self, tmp_path):
        grids = [
            TokenGrid(data=np.array([[0, 2], [1, 3]]), K=3),
            TokenGrid(data=np.array([[1, 1], [2, 0]]), K=3),
        ]
        path = tmp_path / "tokens.json"
        save_token_file(path, grids, labels=[5, 9])
        back, labels = load_token_file(path)
        assert labels == [5, 9]
        for a, b in zip(back, grids):
            np.testing.assert_array_equal(a.data, b.data)
            assert a.K == 3

    def test_round_trip_without_labels(self, tmp_path):
        path = tmp_path / "tokens.json"
        save_token_file(path, [TokenGrid(data=np.array([[0]]), K=2)])
        back, labels = load_token_file(path)
        assert labels is None and len(back) == 1

    def test_mixed_grids_rejected(self):
        a = TokenGrid(data=np.array([[0]]), K=2)
        b = TokenGrid(data=np.array([[0, 1]]), K=2)
        with pytest.raises(ValueError, match="share shape"):
            token_file_dict([a, b])
        with pytest.raises(ValueError, match="labels"):
            token_file_dict([a], labels=[1, 2])
        with pytest.raises(ValueError, match="at least one"):
            token_file_dict([])

    @pytest.mark.parametrize("label", [1.7, True, "1"], ids=["float", "bool", "str"])
    def test_non_integer_label_is_refused_not_truncated(self, tmp_path, label):
        # the rule the denoiser applies to its condition labels
        path = tmp_path / "tokens.json"
        grid = TokenGrid(data=np.array([[0, 1]]), K=2)
        with pytest.raises(ValueError, match=f"condition label {re.escape(repr(label))} is not"):
            save_token_file(path, [grid], labels=[label])
        assert not path.exists()
        assert token_file_dict([grid], labels=[np.int64(3)])["labels"] == [3]

    def test_file_is_valid_json_with_schema(self, tmp_path):
        path = tmp_path / "tokens.json"
        save_token_file(path, [TokenGrid(data=np.array([[0, 1]]), K=2)], labels=[4])
        payload = json.loads(path.read_text())
        assert set(payload) == {"K", "N_q", "L", "grids", "labels"}
        assert payload["grids"] == [[[0, 1]]]

    @pytest.mark.parametrize("layout", ["concatenated", "interleaved"])
    def test_old_layout_key_ignored(self, tmp_path, layout):
        # files written before the layout key was dropped still load
        grid = TokenGrid(data=np.array([[0, 2], [1, 3]]), K=3)
        old = {"K": 3, "N_q": 2, "L": 2, "layout": layout, "grids": [grid.data.tolist()] * 2,
               "labels": [1, 7]}
        path = tmp_path / "old.json"
        path.write_text(json.dumps(old, indent=2))
        back, labels = load_token_file(path)
        assert labels == [1, 7]
        assert [(g.K, g.data.tobytes()) for g in back] == [(3, grid.data.tobytes())] * 2


def random_grids(n, N_q, L, K, seed=0, mask=False):
    rng = np.random.default_rng(seed)
    return [TokenGrid(data=rng.integers(0, K + 1 if mask else K, size=(N_q, L)), K=K)
            for _ in range(n)]


class TestTokenFileBytes:
    """``save_token_file`` writes exactly the bytes of the ``json`` encoder."""

    @pytest.mark.parametrize("grids, labels", [
        (random_grids(1, 1, 1, 2), None),
        (random_grids(3, 1, 1, 5, seed=1), [0, -1, 2]),
        (random_grids(4, 2, 7, 3, seed=2, mask=True), [1, 1, 0, 1]),
        ([TokenGrid(data=np.full((3, 4), 6), K=6)], [0]),
        (random_grids(2, 4, 9, 2, seed=3), [-5, -7]),
        (random_grids(2, 3, 33, 1024, seed=4, mask=True), None),
        (random_grids(1, 4, 512, 256, seed=5), None),
        (random_grids(64, 4, 32, 16, seed=6, mask=True), list(range(-32, 32))),
        (random_grids(64, 1, 3, 2, seed=7), None),
        (random_grids(2, 2, 2, 4, seed=8), [10**20, -(10**20)]),
        ([TokenGrid(data=np.zeros((0, 3), dtype=int), K=2)], [3]),
        ([TokenGrid(data=np.zeros((2, 0), dtype=int), K=2)] * 2, None),
        # a table of K strings would need gigabytes; the file holds three values
        ([TokenGrid(data=np.array([[10**9, 0, 10**9 - 1], [0, 0, 10**9]]), K=10**9)] * 3, None),
    ], ids=["1x1", "1x1-three-grids-negative-labels", "mask", "all-mask", "K2-negative-labels",
            "K1024-mask", "one-long-grid", "64-grids-labels", "64-grids", "wide-labels",
            "no-rows", "no-frames", "K1e9-three-values"])
    def test_bytes_equal_json_dumps_indent_2(self, tmp_path, grids, labels):
        path = tmp_path / "tokens.json"
        save_token_file(path, grids, labels)
        want = json.dumps(token_file_dict(grids, labels), indent=2).encode("utf-8")
        assert path.read_bytes() == want

    @pytest.mark.parametrize("existing", [None, "keep"])
    def test_failure_part_way_leaves_no_file(self, tmp_path, monkeypatch, existing):
        real = tokens._indented
        grids_formatted = []

        def fail_on_second_grid(items, depth):
            if depth == 3:  # one whole grid
                if grids_formatted:
                    raise RuntimeError("disk full")
                grids_formatted.append(depth)
            return real(items, depth)

        monkeypatch.setattr(tokens, "_indented", fail_on_second_grid)
        path = tmp_path / "tokens.json"
        if existing is not None:
            path.write_text(existing)
        with pytest.raises(RuntimeError, match="disk full"):
            save_token_file(path, random_grids(2, 2, 3, 4))
        assert grids_formatted  # the first grid was formatted and written
        if existing is None:
            assert list(tmp_path.iterdir()) == []
        else:
            assert list(tmp_path.iterdir()) == [path] and path.read_text() == existing

    def test_bad_labels_rejected_before_writing(self, tmp_path):
        path = tmp_path / "tokens.json"
        with pytest.raises(ValueError):
            save_token_file(path, random_grids(1, 1, 2, 3), labels=["x"])
        assert list(tmp_path.iterdir()) == []


class TestAtomicWrite:
    def test_writes_and_replaces(self, tmp_path):
        path = tmp_path / "out.txt"
        atomic_write_text(path, "first")
        atomic_write_text(path, "second")
        assert path.read_text() == "second"
        assert list(tmp_path.iterdir()) == [path]  # no stray temp files

    @pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600), (0o002, 0o664)],
                             ids=["umask-022", "umask-077", "umask-002"])
    def test_file_gets_umask_mode(self, tmp_path, umask, mode):
        path = tmp_path / "out.txt"
        previous = os.umask(umask)
        try:
            atomic_write_text(path, "text")
        finally:
            os.umask(previous)
        assert stat.S_IMODE(path.stat().st_mode) == mode

    def test_failure_leaves_no_temp_file(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("keep")

        class Exploding:
            def __str__(self):
                raise RuntimeError("boom")

        with pytest.raises(TypeError):
            atomic_write_text(path, Exploding())  # neither a str nor an iterable of str
        assert path.read_text() == "keep"
        assert list(tmp_path.iterdir()) == [path]
