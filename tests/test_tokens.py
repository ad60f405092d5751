"""Token grid validation and the JSON token file."""

import json
import math
import os
import re
import stat

import numpy as np
import pytest

from vqdiff import (
    PitchTrack,
    TrainConfig,
    bayes_oracle_denoiser,
    cfg_combine,
    contrastive_ranking_loss,
    info_nce,
    linear_schedule,
    pitch_errors,
    reverse_step,
    sample,
    train_denoiser,
)
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

    @pytest.mark.parametrize("K", [3.5, 3.0, True, "3"])
    def test_non_integer_alphabet_refused(self, K):
        # neither a grid with a float K nor a bare TypeError for "3"
        with pytest.raises(ValueError, match="K must be an integer, got"):
            TokenGrid(data=np.array([[0, 1]]), K=K)

    def test_mask_detection(self):
        clean = TokenGrid(data=np.array([[0, 1], [2, 0]]), K=3)
        assert not clean.contains_mask()
        masked = TokenGrid(data=np.array([[0, 3]]), K=3)
        assert masked.contains_mask()

    def test_data_is_frozen(self):
        grid = TokenGrid(data=np.array([[0, 1]]), K=2)
        with pytest.raises(ValueError):
            grid.data[0, 0] = 1


def real_argument_sites():
    """Each real-valued argument's call, taking the value to check."""
    table = linear_schedule(3, 3)
    grid = TokenGrid(data=np.array([[0, 1]]), K=3)
    oracle = bayes_oracle_denoiser([grid], [1.0], table)
    uniform = np.log(np.full((1, 2, 3), 1 / 3))
    sim = np.array([[1.0, 0.5], [0.5, 1.0]])
    track = PitchTrack(np.array([100.0, 0.0]), np.array([True, False]))
    return {
        "sample": lambda v: sample(oracle, 0, table, rng=np.random.default_rng(0),
                                   guidance_scale=v),
        "reverse_step": lambda v: reverse_step(grid.with_data(np.array([[3, 3]])), 1, oracle, 0,
                                               table, v, np.random.default_rng(0)),
        "cfg_combine": lambda v: cfg_combine(uniform, uniform, v),
        "lr": lambda v: train_denoiser([grid], table, TrainConfig(epochs=1, lr=v),
                                       np.random.default_rng(0)),
        "null_cond_prob": lambda v: train_denoiser([(grid, 0)], table,
                                                   TrainConfig(epochs=1, null_cond_prob=v),
                                                   np.random.default_rng(0)),
        "temperature": lambda v: info_nce(sim, temperature=v),
        "margin": lambda v: contrastive_ranking_loss(sim, margin=v),
        "gpe_threshold": lambda v: pitch_errors(track, track, gpe_threshold=v),
    }


class TestRealArguments:
    """One rule for real-valued arguments: a finite real number, not a bool or a string."""

    @pytest.mark.parametrize("site, value", [
        ("sample", "0.5"), ("reverse_step", "0.5"), ("cfg_combine", "0.5"),
        ("sample", True), ("lr", True), ("temperature", True), ("gpe_threshold", True),
        ("temperature", "1"), ("margin", None), ("lr", "1"), ("gpe_threshold", "0.2"),
        ("null_cond_prob", "0.1"), ("null_cond_prob", True), ("margin", True),
    ])
    def test_non_real_refused_by_name(self, site, value):
        # refused by name, neither converted ("0.5" to 0.5, True to 1.0) nor a bare TypeError
        name = "guidance scale" if site in ("sample", "reverse_step", "cfg_combine") else site
        message = (re.escape("null_cond_prob must be in [0, 1]") if site == "null_cond_prob"
                   else f"{name} must be a finite number .*, got {re.escape(repr(value))}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            real_argument_sites()[site](value)

    @pytest.mark.parametrize("site, value, message", [
        ("sample", math.nan, "guidance scale must be a finite number >= -1, got nan"),
        ("cfg_combine", -1.5, "guidance scale must be a finite number >= -1, got -1.5"),
        ("lr", 0.0, "lr must be a finite number > 0, got 0.0"),
        ("null_cond_prob", 1.5, "null_cond_prob must be in [0, 1]"),
        ("null_cond_prob", math.nan, "null_cond_prob must be in [0, 1]"),
        ("temperature", -1, "temperature must be a finite number > 0, got -1"),
        ("margin", -math.inf, "margin must be a finite number >= 0, got -inf"),
        ("gpe_threshold", 0.0, "gpe_threshold must be a finite number > 0, got 0.0"),
    ], ids=["sample-nan", "cfg_combine-below", "lr-zero", "null_cond_prob-above",
            "null_cond_prob-nan", "temperature-negative", "margin-inf", "gpe_threshold-zero"])
    def test_real_values_keep_their_messages(self, site, value, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            real_argument_sites()[site](value)

    def test_integer_past_the_float_range_refused(self):
        with pytest.raises(ValueError, match="^temperature must be a finite number > 0, got 1000"):
            real_argument_sites()["temperature"](10**400)

    @pytest.mark.parametrize("site, value", [
        ("cfg_combine", -1), ("margin", 0), ("null_cond_prob", 1), ("lr", np.float32(0.5)),
        ("temperature", np.int64(2)), ("gpe_threshold", np.float64(0.2)),
    ])
    def test_numpy_and_integer_reals_taken(self, site, value):
        got, expected = (real_argument_sites()[site](v) for v in (value, float(value)))
        if site in ("lr", "null_cond_prob"):  # the trained tables
            got, expected = got[0].weights, expected[0].weights
        np.testing.assert_array_equal(got, expected)


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
        with pytest.raises(ValueError, match="empty token file"):
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


    @pytest.mark.parametrize("name,value", [("N_q", 7), ("L", 3), ("N_q", None), ("L", 2.0)])
    def test_stored_shape_must_match_the_grids(self, tmp_path, name, value):
        grid = TokenGrid(data=np.array([[0, 2], [1, 3]]), K=3)
        path = tmp_path / "tokens.json"
        save_token_file(path, [grid] * 2)
        payload = json.loads(path.read_text())
        payload[name] = value
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=f"token field '{name}'"):
            load_token_file(path)
        del payload["N_q"], payload["L"]  # files without the two fields still load
        path.write_text(json.dumps(payload))
        assert [g.data.tobytes() for g in load_token_file(path)[0]] == [grid.data.tobytes()] * 2


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
