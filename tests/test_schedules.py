import json

import numpy as np
import pytest

from vqdiff import (
    ScheduleError,
    ScheduleTable,
    from_cumulative,
    from_stepwise,
    improved_schedule,
    linear_schedule,
    load_schedule,
)
from vqdiff.diffusion import _kernel_rows, _stationary_rows
from vqdiff.schedules import format_table, random_schedule, schedule_from_json_dict


def assert_same_table(a, b):
    assert (a.T, a.K, a.kind, a.n_layers) == (b.T, b.K, b.kind, b.n_layers)
    for name in ("alpha_bar", "beta_bar", "gamma_bar"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes()


class TestLinearSchedule:
    def test_endpoint_values(self):
        table = linear_schedule(100, 10)
        ab, bb, gb = table.cumulative(100)
        assert ab == pytest.approx(0.0, abs=1e-12)
        assert gb == pytest.approx(0.9, abs=1e-12)
        assert 10 * bb == pytest.approx(0.1, abs=1e-12)

    def test_midpoint_values(self):
        table = linear_schedule(100, 10)
        ab, bb, gb = table.cumulative(50)
        assert ab == pytest.approx(0.5, abs=1e-12)
        assert gb == pytest.approx(0.45, abs=1e-12)
        assert 10 * bb == pytest.approx(0.05, abs=1e-12)

    def test_identity_at_zero(self):
        table = linear_schedule(7, 4)
        ab, bb, gb = table.cumulative(0)
        assert (ab, bb, gb) == (1.0, 0.0, 0.0)

    @pytest.mark.parametrize("T,K", [(1, 2), (5, 3), (100, 10), (37, 128)])
    def test_simplex_and_monotonicity(self, T, K):
        table = linear_schedule(T, K)
        closure = table.alpha_bar + K * table.beta_bar + table.gamma_bar
        np.testing.assert_allclose(closure, 1.0, atol=1e-12)
        assert np.all(np.diff(table.alpha_bar) <= 1e-15)
        assert np.all(np.diff(table.gamma_bar) >= -1e-15)

    def test_stepwise_recurrence(self):
        table = linear_schedule(25, 6)
        ab = 1.0
        surv = 1.0
        for t in range(1, 26):
            a, b, g = table.stepwise(t)
            assert a + 6 * b + g == pytest.approx(1.0, abs=1e-12)
            ab *= a
            surv *= 1.0 - g
            assert ab == pytest.approx(table.alpha_bar[t], abs=1e-12)
            assert 1.0 - surv == pytest.approx(table.gamma_bar[t], abs=1e-12)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            linear_schedule(0, 10)
        with pytest.raises(ValueError):
            linear_schedule(10, 1)


class TestImprovedSchedule:
    def test_spot_value_midway(self):
        # layer 2 of 4 at t=50 of 100: 1 - 0.5 - exp(0.25)/200
        table = improved_schedule(100, 10, 4)
        ab, bb, gb = table.cumulative(50, layer=2)
        expected = 1.0 - 0.5 - np.exp(2 / 8) / 200.0
        assert ab == pytest.approx(expected, abs=1e-12)
        assert ab == pytest.approx(0.4935797, abs=1e-6)
        assert bb == 0.0
        assert gb == pytest.approx(1.0 - expected, abs=1e-12)

    def test_terminal_step_clamped_to_full_mask(self):
        # raw alpha_bar at t=T is negative for every layer; the table must
        # clamp it to 0 and push the residual into the mask mass.
        table = improved_schedule(100, 10, 4)
        for q in range(4):
            ab, bb, gb = table.cumulative(100, layer=q)
            assert ab == 0.0
            assert bb == 0.0
            assert gb == 1.0

    def test_pure_mask_no_uniform_mass(self):
        table = improved_schedule(40, 8, 3)
        assert np.all(table.beta_bar == 0.0)
        for t in range(1, 41):
            for q in range(3):
                assert table.stepwise(t, q)[1] == 0.0

    def test_layer_ordering_later_masks_earlier(self):
        table = improved_schedule(60, 12, 5)
        for t in range(61):
            gb = table.gamma_bar[t]
            assert np.all(np.diff(gb) >= -1e-15)

    def test_step_zero_not_identity(self):
        # the offset term leaves a little mask mass even at t=0
        table = improved_schedule(100, 10, 4)
        ab0, _, gb0 = table.cumulative(0, layer=0)
        assert ab0 < 1.0
        assert gb0 == pytest.approx(np.exp(0.0) / 200.0, abs=1e-12)

    def test_benchmark_L_checked_but_unused(self):
        # perfbench/wl_pipeline.py passes L=; no number depends on it
        table = improved_schedule(20, 16, 4, L=32)
        assert_same_table(table, improved_schedule(20, 16, 4))
        with pytest.raises(ValueError, match="L must be >= 1"):
            improved_schedule(20, 16, 4, L=0)


def stepwise_arrays(table):
    """The (T, 3) array of ``stepwise(t)`` for t = 1..T (shared tables)."""
    return np.array([table.stepwise(t) for t in range(1, table.T + 1)], dtype=float)


class TestStepwiseCumulativeRoundTrip:
    def test_linear_round_trip(self):
        # the steps of a linear table rebuild it through from_stepwise
        table = linear_schedule(50, 10)
        steps = stepwise_arrays(table)
        rebuilt = from_stepwise(*steps.T, 10)
        for name in ("alpha_bar", "beta_bar", "gamma_bar"):
            np.testing.assert_allclose(getattr(rebuilt, name), getattr(table, name), atol=1e-12)
        np.testing.assert_allclose(stepwise_arrays(rebuilt), steps, atol=1e-12)

    def test_random_round_trip(self):
        rng = np.random.default_rng(20413)
        for _ in range(25):
            T = int(rng.integers(1, 40))
            K = int(rng.integers(2, 30))
            table = random_schedule(rng, T, K)
            again = from_cumulative(table.alpha_bar, table.gamma_bar, K)
            np.testing.assert_allclose(stepwise_arrays(again), stepwise_arrays(table), atol=1e-9)

    def test_from_stepwise_steps_read_back(self):
        # stepwise() of a from_stepwise table recovers the drawn steps, which
        # checks the cumprod that builds its cumulatives
        rng = np.random.default_rng(6151)
        for _ in range(40):
            T = int(rng.integers(1, 30))
            K = int(rng.integers(2, 20))
            alpha = rng.uniform(0.3, 1.0, size=T)
            split = rng.uniform(0.0, 1.0, size=T)
            gamma = (1.0 - alpha) * split
            beta = (1.0 - alpha) * (1.0 - split) / K
            table = from_stepwise(alpha, beta, gamma, K)
            np.testing.assert_allclose(
                stepwise_arrays(table), np.stack([alpha, beta, gamma], axis=1), rtol=0, atol=1e-12
            )

    def test_non_monotone_rejected(self):
        with pytest.raises(ScheduleError):
            from_cumulative([1.0, 0.4, 0.5], [0.0, 0.3, 0.3], K=4)
        with pytest.raises(ScheduleError):
            from_cumulative([1.0, 0.5, 0.4], [0.0, 0.3, 0.2], K=4)

    def test_negative_uniform_mass_rejected(self):
        # alpha_bar decays slower than gamma_bar grows, forcing beta < 0
        with pytest.raises(ScheduleError):
            from_cumulative([1.0, 0.9, 0.8], [0.0, 0.1, 0.35], K=4)

    @pytest.mark.parametrize("T", [220, 260, 333])
    def test_long_random_schedules_validate(self, T):
        # late in a long draw 1 - gamma_bar is a few float spacings, so the mask
        # quotient is coarsely rounded; that rounding is not a negative uniform mass
        for seed in range(30):
            table = random_schedule(np.random.default_rng(seed), T, 16)
            assert_same_arrays(table, random_reference(np.random.default_rng(seed), T, 16))


# Each constructor's derivation written out on its own, as it stood before the
# constructors shared one builder: (alpha_bar, beta_bar, gamma_bar), compared bit for bit.
def linear_reference(T, K):
    frac = np.arange(T + 1) / T
    alpha_bar = 1.0 - frac
    gamma_bar = 0.9 * frac
    beta_bar = (1.0 - alpha_bar - gamma_bar) / K
    return alpha_bar, beta_bar, gamma_bar


def improved_reference(T, K, N_q):
    t = (np.arange(T + 1) / T)[:, None]
    q = np.arange(N_q)[None, :]
    offset = np.exp(q / (2.0 * N_q)) / (2.0 * T)
    alpha_bar_raw = 1.0 - t - offset
    beta_bar = np.zeros_like(alpha_bar_raw)
    alpha_bar = np.clip(alpha_bar_raw, 0.0, 1.0)
    gamma_bar = 1.0 - alpha_bar - K * beta_bar
    return alpha_bar, beta_bar, gamma_bar


def cumulative_reference(alpha_bar, gamma_bar, K):
    alpha_bar = np.asarray(alpha_bar, dtype=np.float64)
    gamma_bar = np.asarray(gamma_bar, dtype=np.float64)
    beta_bar = (1.0 - alpha_bar - gamma_bar) / K
    return alpha_bar, beta_bar, gamma_bar


def stepwise_reference(alpha, beta, gamma, K):
    alpha_bar = np.cumprod(np.concatenate([[1.0], alpha]))
    gamma_bar = 1.0 - np.cumprod(np.concatenate([[1.0], 1.0 - gamma]))
    beta_bar = (1.0 - alpha_bar - gamma_bar) / K
    return alpha_bar, beta_bar, gamma_bar


def random_reference(rng, T, K):
    alpha = rng.uniform(0.5, 1.0, size=T)
    rest = 1.0 - alpha
    split = rng.uniform(0.0, 1.0, size=T)
    return stepwise_reference(alpha, rest * (1.0 - split) / K, rest * split, K)


def assert_same_arrays(table, arrays):
    for name, expected in zip(("alpha_bar", "beta_bar", "gamma_bar"), arrays):
        got = getattr(table, name)
        assert got.shape == expected.shape and got.tobytes() == expected.tobytes(), name


SIZES = [(T, K) for T in (1, 2, 3, 7, 20, 64, 200) for K in (2, 3, 16, 256, 1000)]


class TestCumulativeBuilder:
    """Every constructor derives beta_bar in one place, with the bits it had on its own."""

    def test_linear_bits(self):
        for T, K in SIZES:
            assert_same_arrays(linear_schedule(T, K), linear_reference(T, K))

    @pytest.mark.parametrize("N_q", [1, 2, 4, 8])
    def test_improved_bits(self, N_q):
        for T, K in SIZES:
            assert_same_arrays(improved_schedule(T, K, N_q), improved_reference(T, K, N_q))

    def test_random_and_stepwise_bits(self):
        for T, K in SIZES:
            seed = 1000 * T + K
            table = random_schedule(np.random.default_rng(seed), T, K)
            assert_same_arrays(table, random_reference(np.random.default_rng(seed), T, K))
            steps = stepwise_arrays(table).T
            assert_same_arrays(from_stepwise(*steps, K), stepwise_reference(*steps, K))

    def test_from_cumulative_bits(self):
        # the cumulatives of a linear and of a random table, as plain lists too
        for T, K in SIZES:
            rng = np.random.default_rng(T + 7 * K)
            for source in (linear_schedule(T, K), random_schedule(rng, T, K)):
                for a, g in ((source.alpha_bar, source.gamma_bar),
                             (source.alpha_bar.tolist(), source.gamma_bar.tolist())):
                    assert_same_arrays(from_cumulative(a, g, K), cumulative_reference(a, g, K))

    @pytest.mark.parametrize("K", [0, 1])
    def test_small_alphabet_refused_before_dividing(self, K):
        # alpha + K*beta + gamma = 1 holds whatever K is; the RuntimeWarning
        # of a division by 0 would be an error here
        with pytest.raises(ValueError, match=f"K must be >= 2, got {K}"):
            from_stepwise([0.5], [0.0], [0.5], K)
        with pytest.raises(ValueError, match=f"K must be >= 2, got {K}"):
            from_cumulative([1.0, 0.5], [0.0, 0.5], K)

    @pytest.mark.parametrize("build", [
        lambda: linear_schedule(4, 3.0),
        lambda: linear_schedule(4.0, 3),
        lambda: improved_schedule(4, 3, 2.0),
        lambda: improved_schedule(4, 3, True),
        lambda: from_stepwise([0.5], [0.0], [0.5], 2.0),
        lambda: random_schedule(np.random.default_rng(0), 3, 2.5),
    ], ids=["linear-K", "linear-T", "improved-N_q", "improved-bool", "stepwise-K", "random-K"])
    def test_non_integer_sizes_refused(self, build):
        # a float size must not build a table with float sizes, nor True one of size 1
        with pytest.raises(ValueError, match="must be an integer, got"):
            build()

    def test_numpy_integer_sizes_taken(self):
        assert_same_table(linear_schedule(np.int64(5), np.int32(4)), linear_schedule(5, 4))
        assert_same_table(improved_schedule(5, 4, np.int64(3)), improved_schedule(5, 4, 3))


class TestSegmentCoefficients:
    def test_segment_matches_matrix_product(self):
        rng = np.random.default_rng(7)
        table = random_schedule(rng, 12, 5)
        for s, t in [(0, 1), (0, 12), (3, 7), (5, 6)]:
            a, b, g = table.segment(s, t)
            # compose the single-step coefficients directly
            a_ref, g_surv = 1.0, 1.0
            for u in range(s + 1, t + 1):
                au, _, gu = table.stepwise(u)
                a_ref *= au
                g_surv *= 1.0 - gu
            assert a == pytest.approx(a_ref, abs=1e-12)
            assert g == pytest.approx(1.0 - g_surv, abs=1e-12)
            assert a + 5 * b + g == pytest.approx(1.0, abs=1e-12)

    def test_segment_argument_order(self):
        table = linear_schedule(10, 4)
        with pytest.raises(ValueError):
            table.segment(5, 5)
        with pytest.raises(ValueError):
            table.segment(7, 3)

    @pytest.mark.parametrize(
        "table",
        [linear_schedule(9, 4), improved_schedule(9, 4, 3),
         random_schedule(np.random.default_rng(3), 9, 4)],
        ids=["linear", "improved", "random"],
    )
    def test_segment_on_step_arrays_equals_scalar_calls(self, table):
        s, t = np.triu_indices(table.T + 1, 1)  # every pair s < t
        got = table.segment(s, t)
        for i, pair in enumerate(zip(s.tolist(), t.tolist())):
            for array_value, scalar_value in zip(got, table.segment(*pair)):
                assert array_value[i].tobytes() == np.asarray(scalar_value).tobytes()

    @pytest.mark.parametrize("bad", [(5, 5), (7, 3), (-1, 2), (0, 10)])
    @pytest.mark.parametrize("at", [0, 2, 4])
    def test_segment_refuses_a_bad_pair_anywhere_in_arrays(self, bad, at):
        table = linear_schedule(9, 4)
        s, t = [0, 1, 2, 8], [1, 3, 9, 9]
        s.insert(at, bad[0])
        t.insert(at, bad[1])
        for args in (bad, (np.array(s), np.array(t))):
            with pytest.raises(ValueError, match="need 0 <= s < t <= 9"):
                table.segment(*args)


class TestSerialization:
    def test_linear_json_round_trip(self, tmp_path):
        table = linear_schedule(30, 12)
        path = tmp_path / "sched.json"
        path.write_text(json.dumps(table.to_json_dict()))
        loaded = load_schedule(path)
        assert isinstance(loaded, ScheduleTable)
        assert loaded.T == 30 and loaded.K == 12
        np.testing.assert_allclose(loaded.alpha_bar, table.alpha_bar, atol=1e-15)
        np.testing.assert_allclose(loaded.gamma_bar, table.gamma_bar, atol=1e-15)

    def test_improved_json_round_trip(self, tmp_path):
        table = improved_schedule(20, 6, 3)
        path = tmp_path / "sched.json"
        path.write_text(json.dumps(table.to_json_dict()))
        loaded = load_schedule(path)
        assert isinstance(loaded, ScheduleTable)
        assert loaded.kind == "improved" and loaded.n_layers == 3
        np.testing.assert_allclose(loaded.alpha_bar, table.alpha_bar, atol=1e-15)

    def test_file_keys(self):
        payload = improved_schedule(6, 4, 3).to_json_dict()
        assert list(payload) == ["T", "K", "kind", "N_q", "alpha_bar", "gamma_bar", "beta_bar"]

    @pytest.mark.parametrize("kind", ["linear", "improved"])
    def test_old_file_keys_ignored(self, kind):
        # files written before layout and L were dropped carry both keys
        table = linear_schedule(6, 4) if kind == "linear" else improved_schedule(6, 4, 3)
        payload = table.to_json_dict()
        old = {key: payload[key] for key in ("T", "K", "kind", "N_q")}
        old.update({"layout": "interleaved", "L": 5 if kind == "improved" else 0})
        old.update({key: payload[key] for key in ("alpha_bar", "gamma_bar", "beta_bar")})
        assert_same_table(schedule_from_json_dict(old), table)

    @pytest.mark.parametrize("kind", ["linear", "improved", "custom"])
    def test_kind_round_trip(self, kind):
        table = {
            "linear": linear_schedule(5, 3),
            "improved": improved_schedule(5, 3, 2),
            "custom": random_schedule(np.random.default_rng(4), 5, 3),
        }[kind]
        assert table.kind == kind
        assert_same_table(schedule_from_json_dict(table.to_json_dict()), table)

    def test_unknown_kind_rejected(self):
        payload = linear_schedule(5, 3).to_json_dict()
        payload["kind"] = "bogus"
        with pytest.raises(ScheduleError, match="kind must be one of.*'bogus'"):
            schedule_from_json_dict(payload)
        table = linear_schedule(5, 3)
        with pytest.raises(ScheduleError, match="kind"):
            ScheduleTable(5, 3, table.alpha_bar, table.beta_bar, table.gamma_bar, kind="bogus")

    def test_improved_n_q_must_match_columns(self):
        payload = improved_schedule(6, 4, 3).to_json_dict()
        payload["N_q"] = 2
        with pytest.raises(ScheduleError, match="N_q=2"):
            schedule_from_json_dict(payload)

    def test_improved_needs_per_layer_arrays(self):
        payload = linear_schedule(6, 4).to_json_dict()
        payload["kind"] = "improved"
        with pytest.raises(ScheduleError, match="alpha_bar of shape"):
            schedule_from_json_dict(payload)

    @pytest.mark.parametrize("layers", [1, 2])
    def test_n_q_must_equal_the_layer_count(self, layers):
        # as in token files, N_q may be left out; a shared schedule has one layer
        lin = linear_schedule(6, 4)
        table = lin if layers == 1 else ScheduleTable(
            6, 4, *(np.stack([a, a], axis=1) for a in (lin.alpha_bar, lin.beta_bar, lin.gamma_bar)))
        payload = table.to_json_dict()
        assert payload["N_q"] == layers
        assert_same_table(schedule_from_json_dict(payload), table)
        del payload["N_q"]
        assert_same_table(schedule_from_json_dict(payload), table)
        payload["N_q"] = 7
        with pytest.raises(ScheduleError, match=f"^schedule field 'N_q' is 7, but the arrays "
                                                f"have N_q={layers}$"):
            schedule_from_json_dict(payload)

    def test_missing_field_named(self):
        payload = linear_schedule(6, 4).to_json_dict()
        del payload["gamma_bar"]
        with pytest.raises(ScheduleError, match="no 'gamma_bar' field"):
            schedule_from_json_dict(payload)

    @pytest.mark.parametrize("name,value", [("T", 6.9), ("K", True), ("N_q", "3")])
    def test_non_integer_count_named(self, name, value):
        # int() would read 6.9 as 6, True as 1 and "3" as 3
        payload = improved_schedule(6, 4, 3).to_json_dict()
        payload[name] = value
        with pytest.raises(ScheduleError, match=f"'{name}'.*integer"):
            schedule_from_json_dict(payload)

    def test_nan_entry_rejected(self):
        payload = linear_schedule(4, 3).to_json_dict()
        payload["alpha_bar"][2] = float("nan")
        with pytest.raises(ScheduleError, match="alpha_bar has entries outside"):
            schedule_from_json_dict(payload)

    @pytest.mark.parametrize("K", [1, 0, -2])
    def test_small_alphabet_rejected(self, K, recwarn):
        # a valid pure-mask table whatever K is, so only the K check can refuse it
        payload = {"T": 2, "K": K, "kind": "linear", "alpha_bar": [1.0, 0.5, 0.0],
                   "beta_bar": [0.0, 0.0, 0.0], "gamma_bar": [0.0, 0.5, 1.0]}
        with pytest.raises(ScheduleError, match=f"K must be >= 2, got {K}"):
            schedule_from_json_dict(payload)
        assert len(recwarn) == 0  # refused before any division by K

    def test_json_dict_invariants_checked(self):
        payload = linear_schedule(5, 4).to_json_dict()
        payload["alpha_bar"][3] = 0.99  # break monotonicity
        with pytest.raises(ScheduleError):
            schedule_from_json_dict(payload)


class TestImmutability:
    def test_arrays_frozen(self):
        table = linear_schedule(10, 4)
        with pytest.raises(ValueError):
            table.alpha_bar[3] = 0.5


# The table's layout as it stood before the three arrays became views of one
# stacked array: each array frozen on its own, ``_pick`` for one step and layer,
# and a second, stacked copy for the diffusion readers; the bodies verbatim.
def _freeze(a):
    a = np.asarray(a, dtype=np.float64)
    a.flags.writeable = False
    return a


def _pick(arrays, t, layer):
    return tuple(a[t] if a.ndim == 1 else a[t, layer] for a in arrays)


def _quotients(ab_s, gb_s, ab_t, gb_t):
    kept, unmasked = ab_s > 0, gb_s < 1
    alpha = ab_t / (ab_s + ~kept) * kept
    gamma = (1.0 - (1.0 - gb_t) / (1.0 - gb_s + ~unmasked)) * unmasked
    return alpha, gamma


class ParentLayout:
    def __init__(self, T, K, kind, *arrays):
        self.T, self.K, self.kind = T, K, kind
        self.alpha_bar, self.beta_bar, self.gamma_bar = map(_freeze, arrays)

    @property
    def n_layers(self):
        return 1 if self.alpha_bar.ndim == 1 else self.alpha_bar.shape[1]

    def cumulative(self, t, layer=0):
        return _pick((self.alpha_bar, self.beta_bar, self.gamma_bar), t, layer)

    def stepwise(self, t, layer=0):
        alpha, beta, gamma = (c if c.ndim == 0 else c[layer] for c in self.segment(t - 1, t))
        return alpha, (beta if beta >= 1e-12 else 0.0), gamma

    def segment(self, s, t):
        alpha, gamma = _quotients(
            self.alpha_bar[s], self.gamma_bar[s], self.alpha_bar[t], self.gamma_bar[t]
        )
        beta = np.maximum(0.0, 1.0 - alpha - gamma) / self.K
        return alpha, beta, gamma

    def to_json_dict(self):
        return {
            "T": self.T,
            "K": self.K,
            "kind": self.kind,
            "N_q": self.n_layers,
            "alpha_bar": self.alpha_bar.tolist(),
            "gamma_bar": self.gamma_bar.tolist(),
            "beta_bar": self.beta_bar.tolist(),
        }


def parent_format_table(table):
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


def parent_coeff_rows(table):
    out = np.reshape([table.alpha_bar, table.beta_bar, table.gamma_bar], (3, table.T + 1, -1))
    out.flags.writeable = False
    return out


def parent_kernel_rows(table, stride):
    stride = min(stride, table.T)
    t = np.arange(1, table.T + 1)
    s = np.maximum(0, t - stride)
    (ab_t, bb_t, gb_t), (ab_s, bb_s, gb_s) = (parent_coeff_rows(table)[:, i] for i in (t, s))
    a_seg, b_seg, g_seg = (np.reshape(c, ab_t.shape) for c in table.segment(s, t))
    with np.errstate(divide="ignore", invalid="ignore"):
        coef_keep = g_seg / gb_t
        mask_prob = gb_s / gb_t
    one = np.ones_like(ab_t)
    rows = np.array([coef_keep * bb_s, coef_keep * ab_s, one, one, a_seg,
                     bb_s, ab_s, b_seg, bb_t, a_seg,
                     bb_t + ab_t, mask_prob])
    return rows, gb_t == 0.0


def parent_stationary_rows(table):
    ab, bb, gb = parent_coeff_rows(table)[:, table.T]
    probs = np.repeat(bb[:, None], table.K + 1, axis=1)
    probs[:, -1] = gb
    probs[:, :-1] += (ab / table.K)[:, None]
    return probs


def one_copy_cases():
    T, K = 6, 3
    a, b, g = linear_reference(T, K)
    column = [x[:, None] for x in (a, b, g)]
    return {
        "linear": (linear_schedule(T, K), linear_reference(T, K)),
        "improved-1": (improved_schedule(T, K, 1), improved_reference(T, K, 1)),
        "improved-4": (improved_schedule(T, K, 4), improved_reference(T, K, 4)),
        "random": (random_schedule(np.random.default_rng(5), T, K),
                   random_reference(np.random.default_rng(5), T, K)),
        "custom": (ScheduleTable(T, K, a, b, g), (a, b, g)),
        "custom-column": (ScheduleTable(T, K, *column), column),
    }


def outcome(call):
    """The type and bits of each value ``call()`` returns, or ``"no such layer"`` for a layer
    past a per-layer table's columns: a bare ``IndexError`` in the parent layout, and the
    named ``ValueError`` of ``ScheduleTable``."""
    try:
        return [(type(v), np.asarray(v).tobytes()) for v in call()]
    except IndexError:
        return "no such layer"
    except ValueError as error:
        if not str(error).startswith("layer must be in 0.."):
            raise
        return "no such layer"


def same_bits(got, expected):
    return got.shape == expected.shape and got.tobytes() == expected.tobytes()


class TestOneCopy:
    """The three arrays are read-only views of one stacked array, and every
    reader of the table gets the bits the parent's separate copies gave."""

    @pytest.mark.parametrize("name", sorted(one_copy_cases()))
    def test_same_bits_as_separate_copies(self, name):
        table, arrays = one_copy_cases()[name]
        parent = ParentLayout(table.T, table.K, table.kind, *arrays)
        assert not table._coeffs.flags.writeable
        assert same_bits(table._coeffs, parent_coeff_rows(parent))
        for array_name in ("alpha_bar", "beta_bar", "gamma_bar"):
            got, expected = getattr(table, array_name), getattr(parent, array_name)
            assert got.dtype == expected.dtype == np.float64
            assert same_bits(got, expected), array_name
            assert not got.flags.writeable
            assert np.shares_memory(got, table._coeffs)
        assert table.n_layers == parent.n_layers
        for t in range(table.T + 1):
            for layer in range(table.n_layers + 1):  # one past the last layer too
                assert outcome(lambda: table.cumulative(t, layer)) == \
                    outcome(lambda: parent.cumulative(t, layer))
                if t:
                    assert outcome(lambda: table.stepwise(t, layer)) == \
                        outcome(lambda: parent.stepwise(t, layer))
        assert json.dumps(table.to_json_dict()) == json.dumps(parent.to_json_dict())
        assert format_table(table) == parent_format_table(parent)
        for stride in (1, 2, table.T):
            got, expected = _kernel_rows(table, stride), parent_kernel_rows(parent, stride)
            assert same_bits(got[0], expected[0]) and same_bits(got[1], expected[1])
        assert same_bits(_stationary_rows(table), parent_stationary_rows(parent))

    def test_layer_rule(self):
        # a shared table gives its one layer for any layer; a per-layer one, even
        # with a single column, has no layer past its columns
        cases = one_copy_cases()
        shared, column = cases["custom"][0], cases["custom-column"][0]
        assert shared.cumulative(3, 5) == shared.cumulative(3, 0)
        with pytest.raises(ValueError, match="layer must be in"):
            column.cumulative(3, 1)
        with pytest.raises(ValueError, match="layer must be in"):
            cases["improved-4"][0].cumulative(3, 4)

    def test_inputs_stay_the_callers(self):
        # the table stacks a copy; it neither freezes nor shares the caller's arrays
        a, b, g = linear_reference(4, 3)
        table = ScheduleTable(4, 3, a, b, g)
        assert a.flags.writeable and not np.shares_memory(a, table._coeffs)
