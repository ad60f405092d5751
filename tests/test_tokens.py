"""Token grid validation and the JSON token file."""

import json
import math
import os
import re
import stat

import numpy as np
import pytest

from vqdiff import (
    FitConfig,
    PitchTrack,
    ScheduleError,
    ScheduleTable,
    TabularDenoiser,
    TrainConfig,
    bayes_oracle_denoiser,
    cfg_combine,
    contrastive_ranking_loss,
    corrupt,
    fit_codebooks,
    improved_schedule,
    info_nce,
    linear_schedule,
    load_schedule,
    pitch_errors,
    quantize,
    recall_at_k,
    reverse_step,
    sample,
    save_schedule,
    train_denoiser,
)
from vqdiff import tokens
from vqdiff.diffusion import _StepKernel
from vqdiff.transitions import (
    brute_force_cumulative,
    marginal_xt_given_x0,
    stationary_dist,
    true_posterior,
)
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


def index_argument_sites():
    """Each index argument's call, taking the value to check, with its name and range."""
    table = linear_schedule(3, 3)
    grid = TokenGrid(data=np.array([[0, 1]]), K=3)
    masked = grid.with_data(np.array([[3, 1]]))
    oracle = bayes_oracle_denoiser([grid], [1.0], table)
    tabular = TabularDenoiser(3, (1, 2), 3, [])
    features = np.random.default_rng(0).normal(size=(20, 2))
    codec = fit_codebooks(features, FitConfig("RVQ", Kp=2, R=2, iters=2))
    return {
        "corrupt": (lambda v: corrupt(grid, v, table, np.random.default_rng(0)), "t", 0, 3),
        "reverse_step": (lambda v: reverse_step(masked, v, oracle, None, table,
                                                rng=np.random.default_rng(0)), "t", 1, 3),
        "oracle-predict": (lambda v: oracle.predict(grid, v), "t", 0, 3),
        "tabular-predict": (lambda v: tabular.predict(masked, v), "t", 0, 3),
        "step-kernel": (lambda v: _StepKernel(masked.data, table, v), "t", 1, 3),
        "cumulative": (lambda v: table.cumulative(v), "t", 0, 3),
        "stepwise": (lambda v: table.stepwise(v), "t", 1, 3),
        "marginal-x0": (lambda v: marginal_xt_given_x0(v, 1, table), "x0", 0, 2),
        "marginal-t": (lambda v: marginal_xt_given_x0(0, v, table), "t", 0, 3),
        "posterior-x_t": (lambda v: true_posterior(v, 0, 1, table), "x_t", 0, 3),
        "posterior-x0": (lambda v: true_posterior(0, v, 1, table), "x0", 0, 2),
        "posterior-t": (lambda v: true_posterior(0, 0, v, table), "t", 1, 3),
        "brute-force": (lambda v: brute_force_cumulative(v, table), "t", 0, 3),
        "active-books": (lambda v: quantize(features, codec, v), "active_books", 1, 2),
        "recall": (lambda v: recall_at_k(np.eye(3), v), "k", 1, 3),
    }


# None stands for one above the range
BAD_INDICES = {"float": 2.5, "bool": True, "numpy-float": np.float64(2), "negative": -1,
               "above": None, "array": np.array([1])}


class TestIndexArguments:
    """One rule for steps, tokens, layers and depths: an integer, not a bool, in its range."""

    @pytest.mark.parametrize("site, value", [
        pytest.param(site, value, id=f"{site}-{kind}")
        for site in index_argument_sites() for kind, value in BAD_INDICES.items()
        if (site, kind) != ("step-kernel", "array")  # the kernel takes one step per grid
    ])
    def test_refused_by_name(self, site, value):
        # neither a bare IndexError or TypeError, nor a silent answer (True as step 1)
        call, name, low, high = index_argument_sites()[site]
        value = high + 1 if value is None else value
        message = f"{name} must be in {low}..{high}, got {value}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(value)

    @pytest.mark.parametrize("site", list(index_argument_sites()))
    def test_both_ends_taken(self, site):
        call, _, low, high = index_argument_sites()[site]
        call(low)
        call(high)

    def test_kernel_takes_one_step_per_grid(self):
        table = linear_schedule(3, 3)
        data, p0 = np.full((2, 1, 2), 3), np.full((2, 1, 2, 3), 1 / 3)
        mixed = _StepKernel(data, table, np.array([1, 3])).mix(p0)
        for i, t in enumerate((1, 3)):
            np.testing.assert_array_equal(mixed[i], _StepKernel(data[i], table, t).mix(p0[i]))
        for steps in ([1, 4], [0, 2], [1.0, 2.0], [True, True]):  # above, below, float, bool
            with pytest.raises(ValueError, match=r"^t must be in 1\.\.3, got \["):
                _StepKernel(data, table, np.array(steps))

    @pytest.mark.parametrize("call", [
        lambda: improved_schedule(4, 3, 2).cumulative(1, -1),
        lambda: improved_schedule(4, 3, 2).stepwise(2, -1),
        lambda: linear_schedule(4, 3).cumulative(1, -1),
        lambda: linear_schedule(4, 3).stepwise(2, -1),
        lambda: stationary_dist(improved_schedule(4, 3, 2), -1),
        lambda: marginal_xt_given_x0(0, 1, improved_schedule(4, 3, 2), -1),
        lambda: true_posterior(0, 0, 1, improved_schedule(4, 3, 2), -1),
    ], ids=["cumulative", "stepwise", "shared-cumulative", "shared-stepwise", "stationary",
            "marginal", "posterior"])
    def test_negative_layer_refused_by_name(self, call):
        # a negative layer no longer wraps to the last one
        with pytest.raises(ValueError, match=r"^layer must be >= 0, got -1$"):
            call()

    @pytest.mark.parametrize("call", [
        lambda table, layer: table.cumulative(1, layer),
        lambda table, layer: table.stepwise(2, layer),
        lambda table, layer: stationary_dist(table, layer),
        lambda table, layer: marginal_xt_given_x0(0, 1, table, layer),
        lambda table, layer: true_posterior(0, 0, 1, table, layer),
    ], ids=["cumulative", "stepwise", "stationary", "marginal", "posterior"])
    def test_layer_past_the_columns_refused_by_name(self, call):
        # a per-layer table has no layer past its last column; a shared one serves every layer
        with pytest.raises(ValueError, match=r"^layer must be in 0\.\.1, got 2$"):
            call(improved_schedule(4, 3, 2), 2)
        call(improved_schedule(4, 3, 2), 1)
        call(linear_schedule(4, 3), 2)

    @pytest.mark.parametrize("step", [np.int64, np.int32, np.uint8])
    def test_numpy_integer_steps_give_the_same_bytes(self, step):
        table = linear_schedule(3, 3)
        grid = TokenGrid(data=np.array([[0, 1, 2], [2, 2, 0]]), K=3)
        noisy = grid.with_data(np.array([[3, 1, 3], [2, 3, 0]]))
        tabular = train_denoiser([grid], table, TrainConfig(epochs=3), np.random.default_rng(0))[0]
        oracle = bayes_oracle_denoiser([grid], [1.0], table)
        for t in (1, 2, 3):
            got, expected = (corrupt(grid, s, table, np.random.default_rng(t)).data.tobytes()
                             for s in (step(t), t))
            assert got == expected
            for den in (tabular, oracle):
                assert den.predict(noisy, step(t)).tobytes() == den.predict(noisy, t).tobytes()
                got, expected = (reverse_step(noisy, s, den, None, table,
                                              rng=np.random.default_rng(t)).data.tobytes()
                                 for s in (step(t), t))
                assert got == expected


class TestTableSizes:
    """A schedule table's T and K are integers, T >= 1 and K >= 2, kept as Python ints."""

    @pytest.mark.parametrize("T, K, message", [
        (2, 2.5, "K must be an integer, got 2.5"),
        (2, True, "K must be an integer, got True"),
        (2.0, 3, "T must be an integer, got 2.0"),
        (0, 3, "T must be >= 1, got 0"),
        (2, 1, "K must be >= 2, got 1"),
    ], ids=["float-K", "bool-K", "float-T", "zero-T", "small-K"])
    def test_bad_sizes_refused_by_name(self, T, K, message):
        # arrays of T + 1 steps, valid for K = 3, so only the size checks can refuse them
        table = linear_schedule(2, 3)
        coeffs = [c[:int(T) + 1] for c in (table.alpha_bar, table.beta_bar, table.gamma_bar)]
        with pytest.raises(ScheduleError, match=f"^{re.escape(message)}$"):
            ScheduleTable(T, K, *coeffs)

    def test_numpy_sizes_are_saved_as_json_integers(self, tmp_path):
        source = linear_schedule(4, 3)
        table = ScheduleTable(np.int64(4), np.int32(3), source.alpha_bar, source.beta_bar,
                              source.gamma_bar, kind="linear")
        assert type(table.T) is int and type(table.K) is int
        save_schedule(tmp_path / "s.json", table)
        loaded = load_schedule(tmp_path / "s.json")
        assert (loaded.T, loaded.K) == (4, 3)
        assert (tmp_path / "s.json").read_text() == json.dumps(source.to_json_dict())


@pytest.mark.parametrize("seed, message", [
    (2.5, "seed must be an integer, got 2.5"),
    ("1", "seed must be an integer, got '1'"),
    (True, "seed must be an integer, got True"),
    (-1, "seed must be >= 0, got -1"),
])
def test_codec_seed_refused_by_name(seed, message):
    features = np.random.default_rng(0).normal(size=(20, 2))
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        fit_codebooks(features, FitConfig("VQ", Kp=2, seed=seed))


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

    def test_loaded_grids_are_read_only_views_of_one_array(self, tmp_path):
        grids = random_grids(3, 2, 4, 5, mask=True)
        path = tmp_path / "tokens.json"
        save_token_file(path, grids)
        back, _ = load_token_file(path)
        assert [(g.K, g.data.dtype, g.data.tobytes()) for g in back] == [
            (5, np.int64, g.data.tobytes()) for g in grids]
        assert back[0].data.base is back[1].data.base is back[2].data.base is not None
        for g in back:
            with pytest.raises(ValueError):
                g.data[0, 0] = 1
            with pytest.raises(ValueError):  # nor through its base
                g.data.setflags(write=True)

    @pytest.mark.parametrize("bad, first", [
        ({2: -1, 4: 4}, 2), ({1: 4, 3: -1}, 1), ({4: 7}, 4), ({0: -2}, 0),
    ], ids=["negative-then-above", "above-then-negative", "last-only", "first-only"])
    def test_first_bad_grid_named(self, tmp_path, bad, first):
        payload = {"K": 3, "grids": [[[0, 1], [2, 3]] for _ in range(5)]}
        for i, value in bad.items():
            payload["grids"][i][1][0] = value
        path = tmp_path / "tokens.json"
        path.write_text(json.dumps(payload))
        message = f"token field 'grids' is malformed: grid {first}: token values must lie in 0..3"
        with pytest.raises(ValueError, match="^" + re.escape(message)):
            load_token_file(path)


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
