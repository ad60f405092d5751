"""Mutation check of the oracles: every mutant below must fail one of its tests.

Run from anywhere, outside the pytest suite (pytest collects only ``test_*.py``):

    python3 tests/mutants.py

Each mutant replaces one piece of text, found exactly once, in one file of
``src/vqdiff``.  The runner copies ``src/``, ``tests/`` and ``pyproject.toml`` to a
temporary directory, checks that every listed test passes there unmutated (caching
the tests' bytecode, never the source's), then writes one mutant at a time into the
copy and runs only that mutant's tests, stopping at the first failure.  A mutant
whose tests all pass survives: an oracle gap, to be closed with a test, not by
removing the mutant.  The exit status is 1 if any mutant survives, its text is
not found exactly once, or a listed test fails unmutated.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

DENSE = "tests/test_diffusion.py::TestStepKernel::test_products_match_dense_oracle"
STACK = "tests/test_guided_step.py::test_chain_stack_at_one_step_equals_each_chain"
CACHE = "tests/test_guided_step.py::test_cached_kernel_rows_equal_fresh_ones_and_are_read_only"
EXHAUSTIVE = "tests/test_diffusion.py::TestVlbLoss::test_matches_exhaustive_enumeration"
PAIRS = "tests/test_cli.py::TestGridLabelPairs::test_train_and_vlb_equal_the_library"
ONE_COPY = "tests/test_schedules.py::TestOneCopy::test_same_bits_as_separate_copies"
REAL = "tests/test_tokens.py::TestRealArguments"
INDEX = "tests/test_tokens.py::TestIndexArguments"
CONTRACT = "tests/test_diffusion.py::TestDenoiserContract"
FILE = "tests/test_diffusion.py::TestDenoiserFile"
TRAIN = "tests/test_diffusion.py::TestTrainDenoiser"
PROBS = "tests/test_diffusion.py::TestProbabilityTable"
CHECKED = "tests/test_diffusion.py::TestCheckedTable"

SAMPLE_CHECKS = ('    _at_least("stride", stride, 1)\n'
                 "    lam = _guidance_scale(guidance_scale, guidance_mode)\n"
                 "    _check_denoiser(denoiser, table)\n")
SAMPLE_FIRST_DRAW = ("    (N_q, L), K = denoiser.grid_shape, denoiser.K\n"
                     "    init = np.broadcast_to(_stationary_rows(table)[:, None, :], (N_q, L, K + 1))\n"
                     "    grids = []\n"
                     "    for rng in rngs:\n"
                     "        x = TokenGrid(data=_sample_categorical(init, rng), K=K)\n")

# (file in src/vqdiff, text, replacement, test node IDs expected to kill the mutant)
MUTANTS = [
    ("diffusion.py", "rows[:, t - 1]", "rows[:, t]", [DENSE]),
    ("diffusion.py", "s = np.maximum(0, t - stride)", "s = t - stride", [CACHE]),
    ("diffusion.py", "np.where(m, coef[:5], coef[5:10])", "np.where(m, coef[5:10], coef[:5])",
     [DENSE]),
    ("diffusion.py", "[self.obs // K]", "[self.obs // (K + 1)]", [DENSE, STACK]),
    ("diffusion.py", "and (self.masked & zero[t - 1, ..., None]).any():", "and False:",
     ["tests/test_diffusion.py::TestStepKernel::test_mask_at_zero_mask_step_rejected",
      "tests/test_diffusion.py::TestBlockedTraining"
      "::test_mask_at_zero_mask_step_in_a_stack_raises"]),
    ("diffusion.py", '_index("t", t, 1, table.T, arrays=True)',
     '_index("t", t, 0, table.T, arrays=True)',
     ["tests/test_guided_step.py::test_kernel_refuses_a_step_out_of_range"]),
    ("diffusion.py", "*rows.shape[1:], 1, 1)", "1, *rows.shape[1:], 1)", [DENSE, STACK]),
    ("diffusion.py", "bb_t + ab_t, mask_prob])", "mask_prob, bb_t + ab_t])", [DENSE]),
    ("diffusion.py", "b_seg, bb_t, a_seg,", "b_seg, bb_t, one,", [DENSE]),
    ("diffusion.py", "table._coeffs[:, t, :, None]", "table._coeffs[:, t - 1, :, None]",
     ["tests/test_diffusion.py::TestCorrupt::test_pure_mask_endpoint",
      "tests/test_diffusion.py::TestCorrupt::test_histogram_matches_marginal"]),
    ("diffusion.py", "ab, bb, gb = table._coeffs[:, table.T]",
     "ab, bb, gb = table._coeffs[:, table.T - 1]",
     ["tests/test_guided_step.py::test_stationary_rows_equal_the_transitions_oracle", EXHAUSTIVE]),
    ("diffusion.py", "np.broadcast_to(table._coeffs[:, table.T], (3, N_q))",
     "np.broadcast_to(table._coeffs[:, table.T - 1], (3, N_q))",
     ["tests/test_guided_step.py::test_prior_matches_the_position_loop", EXHAUSTIVE]),
    ("diffusion.py", "self._table._coeffs[:, t]", "self._table._coeffs[:, t - 1]",
     ["tests/test_diffusion.py::TestBayesOracle::test_matches_joint_table_oracle"]),
    ("diffusion.py", "np.log([ab + bb, bb, gb])", "np.log([ab, bb, gb])",
     ["tests/test_diffusion.py::TestBayesOracle::test_matches_joint_table_oracle"]),
    ("diffusion.py", "table, ts[a:b])", "table, ts[a])",
     ["tests/test_diffusion.py::TestBlockedTraining::test_equals_one_step_at_a_time"]),
    ("schedules.py", "(0 <= s) & (s < t)", "(0 <= s) & (s <= t)",
     ["tests/test_schedules.py::TestSegmentCoefficients::test_segment_argument_order"]),
    ("schedules.py", "np.all((0 <= s)", "np.any((0 <= s)",
     ["tests/test_schedules.py::TestSegmentCoefficients"
      "::test_segment_refuses_a_bad_pair_anywhere_in_arrays"]),
    ("schedules.py", 'if kind == "improved" or "N_q" in payload:', 'if kind == "improved":',
     ["tests/test_schedules.py::TestSerialization::test_n_q_must_equal_the_layer_count"]),
    ("tokens.py", "{(g.N_q, g.L, g.K) for g in grids}", "{(g.N_q, g.L) for g in grids}",
     ["tests/test_diffusion.py::TestCleanGrids::test_message[K-oracle-support]"]),
    ("diffusion.py", "if (data == table.K).any():", "if (data > table.K).any():",
     ["tests/test_diffusion.py::TestCleanGrids::test_message[mask-oracle-support]",
      "tests/test_diffusion.py::TestCorrupt::test_masked_input_rejected"]),
    ("tokens.py", "if len(labels) != n:", "if len(labels) > n:",
     ["tests/test_cli.py::TestLoaderErrors::test_bad_token_file[labels-length]"]),
    ("tokens.py", "range(array.ndim - 1)", "range(array.ndim - 2)",
     ["tests/test_cli.py::test_numeric_field_refuses_non_numbers[token-true]",
      "tests/test_cli.py::test_numeric_field_refuses_non_numbers[codec-true]"]),
    ("codec.py", 'range(model.N_q if model.kind in ("VQ", "GVQ") else 1,', "range(1,",
     ["tests/test_codec.py::TestQuantizeContracts::test_partial_depth_rejected_for_flat_kinds",
      "tests/test_codec.py::TestQuantizeContracts"
      "::test_dequantize_refuses_the_depths_quantize_refuses[GVQ-partial]",
      "tests/test_cli.py::TestCodecCommands::test_decode_refuses_a_partial_flat_grid"]),
    ("schedules.py", "beta_bar = (1.0 - alpha_bar - gamma_bar) / K",
     "beta_bar = (1.0 - gamma_bar - alpha_bar) / K",
     ["tests/test_schedules.py::TestCumulativeBuilder::test_linear_bits",
      "tests/test_schedules.py::TestCumulativeBuilder::test_random_and_stepwise_bits"]),
    ("metrics.py", "np.ldexp, x, -e)", "np.ldexp, x, e)",
     ["tests/test_metrics.py::TestPowerOfTwoScaling::test_mcd_scales",
      "tests/test_codec.py::TestScaleEquivariance::test_fit_scales_or_names_the_overflow"]),
    ("cli.py", "dataset = list(zip(grids, labels or [None] * len(grids)))",
     "dataset = list(zip(grids, [None] * len(grids)))", [PAIRS + "[labeled]"]),
    ("cli.py", "enumerate(zip(grids, labels or [None] * len(grids)))",
     "enumerate(zip(grids, labels or [None]))", [PAIRS + "[unlabeled]"]),
    ("tokens.py", " and not isinstance(value, bool)", "",
     ["tests/test_tokens.py::TestTokenGrid::test_non_integer_alphabet_refused[True]",
      "tests/test_diffusion.py::TestSample::test_non_integer_stride_refused[True]"]),
    ("schedules.py", "return layer if self.alpha_bar.ndim == 2 else 0", "return layer",
     [ONE_COPY + "[linear]", "tests/test_schedules.py::TestOneCopy::test_layer_rule"]),
    ("schedules.py", "return layer if self.alpha_bar.ndim == 2 else 0", "return 0",
     [ONE_COPY + "[improved-4]", "tests/test_schedules.py::TestOneCopy::test_layer_rule"]),
    ("schedules.py", "coeffs = np.stack(arrays)", "coeffs = np.stack(arrays[::2] + arrays[1:2])",
     [ONE_COPY + "[improved-4]", ONE_COPY + "[custom]"]),
    ("tokens.py", "real = not isinstance(value, bool) and ", "real = ",
     [REAL + "::test_non_real_refused_by_name[sample-True]",
      REAL + "::test_non_real_refused_by_name[margin-True]"]),
    ("tokens.py", "(x == low and not strict)", "(x == low)",
     [REAL + "::test_real_values_keep_their_messages[lr-zero]",
      "tests/test_diffusion.py::TestTrainDenoiser::test_bad_learning_rate_rejected[0.0]"]),
    ("schedules.py", "gamma + slack) / self.K", "gamma) / self.K",
     ["tests/test_schedules.py::TestStepwiseCumulativeRoundTrip"
      "::test_long_random_schedules_validate[260]"]),
    ("metrics.py", "sums += col_sums[i : i + rows]", "sums += col_sums[i - 1 : i - 1 + rows]",
     ["tests/test_metrics.py::TestSsimBlocked::test_matches_brute_force_oracle"]),
    ("metrics.py", "ref.voiced != syn.voiced", "ref.voiced & ~syn.voiced",
     ["tests/test_metrics.py::TestPitchErrors::test_voicing_errors_count_both_ways"]),
    ("metrics.py", "e = -math.frexp(largest)[1]", "e = math.frexp(largest)[1]",
     ["tests/test_metrics.py::TestPowerOfTwoScaling::test_mcd_scales"]),
    ("tokens.py", "ok = _integral(value) and", "ok = isinstance(value, (int, np.integer)) and",
     [INDEX + "::test_refused_by_name[tabular-predict-bool]",
      INDEX + "::test_refused_by_name[stepwise-bool]"]),
    ("tokens.py", "and low <= value <= high", "and low <= value < high",
     [INDEX + "::test_both_ends_taken[corrupt]", INDEX + "::test_both_ends_taken[recall]"]),
    ("tokens.py", "np.all((low <= value) & (value <= high))", "np.all(value <= high)",
     ["tests/test_guided_step.py::test_kernel_refuses_a_step_out_of_range[t3]",
      INDEX + "::test_kernel_takes_one_step_per_grid"]),
    ("metrics.py", ".sum(axis=1)).mean()", ".sum(axis=1)).sum()",
     ["tests/test_metrics.py::TestMcd::test_frame_average"]),
    ("metrics.py", "(0.03 * data_range) ** 2", "(0.3 * data_range) ** 2",
     ["tests/test_metrics.py::TestSsim::test_anticorrelated_patches_negative"]),
    ("diffusion.py", "if denoiser.T not in (None, table.T):",
     "if denoiser.T is not None and denoiser.T < table.T:",
     [CONTRACT + "::test_other_step_count_refused_before_any_draw[sample-tabular-denoiser-longer]",
      "tests/test_cli.py::TestLoaderErrors::test_denoiser_and_schedule_steps_must_agree[sample]"]),
    ("diffusion.py", "(x_t.N_q, x_t.L, x_t.K) != (", "(x_t.N_q, x_t.L, self.K) != (",
     [CONTRACT + "::test_predict_refuses_another_grid[tabular-K]",
      CONTRACT + "::test_predict_refuses_another_grid[oracle-K]"]),
    ("schedules.py", '_index("layer", layer, 0, self.n_layers - 1)',
     '_index("layer", layer, 0, self.n_layers)',
     [INDEX + "::test_layer_past_the_columns_refused_by_name[cumulative]",
      "tests/test_schedules.py::TestOneCopy::test_layer_rule"]),
    ("metrics.py", "(0.01 * data_range) ** 2", "(0.1 * data_range) ** 2",
     ["tests/test_metrics.py::TestSsim::test_one_by_one_window_hand_case"]),
    ("auxiliary.py", "(cross_sq / var).sum() / (n * n)", "(cross_sq / var).sum() / (n * (n - 1))",
     ["tests/test_auxiliary.py::TestClubOracle::test_matches_the_double_sum_multivariate"]),
    ("codec.py", 'order = np.argsort(-point_d2, kind="stable")',
     'order = np.argsort(point_d2, kind="stable")[::-1]',
     ["tests/test_codec.py::TestLloydStep::test_tied_farthest_points_reseed_lowest_frame_first"]),
    ("cli.py", "if getattr(args, dest) is not None:", "if True:",
     ["tests/test_cli.py::TestScheduleCommand::test_linear_endpoint_row",
      "tests/test_cli.py::TestCodecCommands::test_fit_encode_report_decode"]),
    ("cli.py", '_SEED = ("--seed", dict(type=int, default=0), 0)',
     '_SEED = ("--seed", dict(type=int, default=0), 1)',
     ["tests/test_cli.py::TestExitCodesAndErrors::test_negative_seed_is_named[selftest]"]),
    ("codec.py", '_at_least("Kp", Kp, 2)', '_at_least("Kp", Kp, 1)',
     ["tests/test_codec.py::TestModelValidation::test_size_below_its_least_value_named"]),
    ("auxiliary.py", "        - 2.0 * mu.sum(axis=0) * ym.sum(axis=0)\n", "",
     ["tests/test_auxiliary.py::TestClubMi::test_tiny_spread_far_from_zero_equals_its_exact_shift"]),
    ("diffusion.py", "if not (np.all(probs >= 0) and abs(probs.sum() - 1.0) <= 1e-9):",
     "if np.any(probs < 0) or abs(probs.sum() - 1.0) > 1e-9:",
     ["tests/test_diffusion.py::TestBayesOracle::test_non_probability_vector_refused[nan]"]),
    ("transitions.py", "if not abs(alpha + K * beta + gamma - 1.0) <= 1e-9:",
     "if abs(alpha + K * beta + gamma - 1.0) > 1e-9:",
     ["tests/test_transitions.py::TestBuildTransitionMatrix::test_nan_coefficient_rejected"]),
    # the first new row shares the last stored one: at first the shared zero row, which
    # training then writes, so every untouched map entry reads a stored row
    ("diffusion.py", "self._map[new] = np.arange(n, n + new.size)",
     "self._map[new] = np.arange(n - 1, n + new.size - 1)",
     ["tests/test_diffusion.py::TestBlockedTraining::test_pipeline_shape",
      FILE + "::test_pipeline_trained_table"]),
    # the any-bit rule, and each place that applies it: weights=, save and the dense file
    ("diffusion.py", "return rows.view(np.int64).any(axis=1)", "return rows.any(axis=1)",
     [FILE + "::test_negative_zero_row_written", FILE + "::test_table[signed-zeros]"]),
    ("diffusion.py", "np.flatnonzero(_set_rows(denoiser._stored)[denoiser._map])",
     "np.flatnonzero(denoiser._stored.any(axis=1)[denoiser._map])",
     [FILE + "::test_negative_zero_row_written", FILE + "::test_table[signed-zeros]"]),
    ("diffusion.py", "np.flatnonzero(_set_rows(denoiser._stored)[denoiser._map])",
     "np.flatnonzero(denoiser._map)",  # every stored row, all +0.0 ones too
     [FILE + "::test_pipeline_trained_table"]),
    ("diffusion.py", "touched = denoiser._stored[denoiser._map[rows]]",
     "touched = denoiser._stored[np.sort(denoiser._map[rows])]",  # in stored, not logical, order
     [FILE + "::test_pipeline_trained_table"]),
    ("diffusion.py", "rows = np.flatnonzero(_set_rows(table))",
     "rows = np.flatnonzero(table.any(axis=1))",
     [FILE + "::test_negative_zero_row_written", FILE + "::test_table[signed-zeros]"]),
    ("diffusion.py", "rows = np.flatnonzero(_set_rows(weights))", "rows = np.arange(n_rows)",
     [FILE + "::test_only_rows_with_a_set_bit_are_stored"]),
    # exact-size rows: the new rows only, appended after the guard passes
    ("diffusion.py", "np.zeros((new.size, self.K))", "np.zeros((new.size - 1, self.K))",
     [TRAIN + "::test_stored_rows_bounded_by_the_guard"]),
    ("diffusion.py",
     "            self._guard(n + new.size)\n"
     "            self._stored = np.concatenate((self._stored, np.zeros((new.size, self.K))))\n",
     "            self._stored = np.concatenate((self._stored, np.zeros((new.size, self.K))))\n"
     "            self._guard(n + new.size)\n",
     [TRAIN + "::test_stored_rows_bounded_by_the_guard"]),
    ("diffusion.py", "n_bytes = 4 * math.prod(self._shape[:-1]) + 32 * self.K * n_stored",
     "n_bytes = 32 * self.K * n_stored",
     [TRAIN + "::test_oversize_table_rejected_before_allocating"]),
    # predict is the softmax of the gathered rows; the guard counts 32 * K bytes a row
    ("diffusion.py", "return _softmax(self._stored[self._map[rows]])",
     "return self._stored[self._map[rows]]",
     [PROBS + "::test_predict_is_the_softmax_of_the_gathered_rows"]),
    ("diffusion.py", "+ 32 * self.K * n_stored", "+ 16 * self.K * n_stored",
     [TRAIN + "::test_stored_rows_bounded_by_the_guard",
      PROBS + "::test_table_refused_above_the_guard"]),
    # the checked table and its log: guarded as a whole, dropped by every write, renormalised
    # by the clipped sums, kept renormalised and logged after that
    ("diffusion.py", "            self._guard(len(self._stored))\n", "",
     [PROBS + "::test_table_refused_above_the_guard"]),
    ("diffusion.py", "        self._checked = None\n        new = np.unique(",
     "        new = np.unique(",
     [CHECKED + "::test_register_after_sample_shows_in_the_next_sample"]),
    ("diffusion.py", "return p0 / p0.sum(axis=-1, keepdims=True)", "return p0 / sums[..., None]",
     ["tests/test_guided_step.py::test_validated_predict_matches_reference"]),
    ("diffusion.py", "self._checked = (checked, _log(checked))",
     "self._checked = (_softmax(self._stored), _log(checked))",
     [CHECKED + "::test_gather_path_equals_the_default_path[K=256-weights-improved]"]),
    ("diffusion.py", "self._checked = (checked, _log(checked))",
     "self._checked = (checked, _log(_softmax(self._stored)))",
     [CHECKED + "::test_gather_path_equals_the_default_path[K=256-weights-improved]"]),
    # every logit finite: weights= refuses others, training stops at a non-finite logit or a
    # massless prediction, and a zero model mass on the posterior's support is an infinite KL
    ("diffusion.py", "            if not np.isfinite(weights).all():\n"
     '                raise ValueError("weights must be finite numbers")\n', "",
     [CHECKED + "::test_weights_refuse_a_non_finite_logit", FILE + "::test_table[non-finite]"]),
    ("diffusion.py",
     "        if not np.isfinite(den._stored).all():\n"
     "            raise FittingError(diverged)\n", "",
     [TRAIN + "::test_diverging_learning_rate_named[non-finite-logits]"]),
    ("diffusion.py", "except InconsistencyError as exc:", "except FittingError as exc:",
     [TRAIN + "::test_diverging_learning_rate_named[massless-prediction]"]),
    ("diffusion.py", "    terms[support & (mix == 0)] = np.inf\n", "",
     [TRAIN + "::test_zero_model_mass_is_an_infinite_loss",
      "tests/test_diffusion.py::TestVlbLoss::test_infinite_loss_on_zero_support"]),
    ("diffusion.py", '(", " if a else "")', '(", " if a > step else "")',
     [FILE + "::test_pieces_of_rows_give_the_bytes_of_one_string"]),
    ("tokens.py", ".any(axis=(1, 2)))[0]", ".any(axis=(1, 2)))[-1]",
     ["tests/test_tokens.py::TestTokenFile::test_first_bad_grid_named"]),
    ("tokens.py", "    arrays.flags.writeable = False  # so is every grid's view of it\n", "",
     ["tests/test_tokens.py::TestTokenFile::test_loaded_grids_are_read_only_views_of_one_array"]),
    # the chain rule: chain i draws only from its own generator, and the arguments are
    # checked once, before any generator draws
    ("diffusion.py", "table, lam, guidance_mode, rng)\n        if x.contains_mask():",
     "table, lam, guidance_mode, rngs[0])\n        if x.contains_mask():",
     ["tests/test_guided_step.py::test_sampled_chains_match_reference_loop"]),
    ("diffusion.py", "    for rng in rngs:\n", "    for rng in rngs[::-1]:\n",
     ["tests/test_guided_step.py::test_first_chains_do_not_depend_on_the_chain_count"]),
    ("diffusion.py", SAMPLE_CHECKS + SAMPLE_FIRST_DRAW,
     SAMPLE_FIRST_DRAW + SAMPLE_CHECKS.replace("    ", "        "),
     ["tests/test_guided_step.py::test_chains_refused_before_any_generator_draws"]),
]


def pytest_run(work: Path, tests, write_bytecode: bool = False) -> int:
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    if not write_bytecode:
        env["PYTHONDONTWRITEBYTECODE"] = "1"
    return subprocess.run(command, cwd=work, env=env, capture_output=True).returncode


def main() -> int:
    start = time.perf_counter()
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, work / name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", work)
        listed = sorted({test for *_, tests in MUTANTS for test in tests})
        # the unmutated run caches the tests' bytecode, which every mutant run reads; the
        # source's goes, since a same-size mutant written within a second could reuse it
        if pytest_run(work, listed, write_bytecode=True) != 0:
            print("the listed tests do not all pass on the unmutated source")
            return 1
        shutil.rmtree(work / "src" / "vqdiff" / "__pycache__", ignore_errors=True)
        for i, (name, old, new, tests) in enumerate(MUTANTS, 1):
            path = work / "src" / "vqdiff" / name
            source = path.read_text()
            found = source.count(old)
            if found != 1:
                print(f"{i:2d} NOT FOUND ({found}x)  {name}: {old!r}")
                failures += 1
                continue
            began = time.perf_counter()
            path.write_text(source.replace(old, new))
            killed = pytest_run(work, tests) != 0
            path.write_text(source)
            failures += not killed
            verdict = "killed  " if killed else "SURVIVED"
            print(f"{i:2d} {verdict} {time.perf_counter() - began:5.1f} s  "
                  f"{name}: {old!r} -> {new!r}", flush=True)
    print(f"{len(MUTANTS)} mutants, {failures} not killed, {time.perf_counter() - start:.0f} s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
