"""Token grid validation and the JSON token file."""

import json
import os
import stat

import numpy as np
import pytest

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
