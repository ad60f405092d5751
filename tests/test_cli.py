"""CLI behaviour: exit codes, error stream, reproducibility, file safety."""

import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import vqdiff
from vqdiff.cli import run
from vqdiff.schedules import improved_schedule, linear_schedule, load_schedule, save_schedule
from vqdiff.tokens import TokenGrid, load_token_file, save_token_file


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_csv(path, matrix):
    rows = "\n".join(",".join(repr(float(v)) for v in row) for row in np.asarray(matrix))
    path.write_text(rows + "\n")


@pytest.fixture()
def toy_setup(tmp_path):
    """A schedule, a token dataset, and a feature matrix on disk."""
    sched = tmp_path / "sched.json"
    save_schedule(sched, linear_schedule(6, 3))
    tokens = tmp_path / "tokens.json"
    g0 = TokenGrid(data=np.array([[0, 2]]), K=3)
    g1 = TokenGrid(data=np.array([[1, 1]]), K=3)
    save_token_file(tokens, [g0] * 7 + [g1] * 3, labels=[0] * 7 + [1] * 3)
    feats = tmp_path / "feats.csv"
    rng = np.random.default_rng(0)
    centers = rng.normal(size=(4, 2)) * 6.0
    write_csv(feats, np.repeat(centers, 25, axis=0) + rng.normal(size=(100, 2)) * 0.05)
    return {"sched": sched, "tokens": tokens, "feats": feats, "dir": tmp_path}


class TestExitCodesAndErrors:
    def test_unknown_command_is_usage_error(self, capsys):
        code, _, err = invoke(capsys, "frobnicate")
        assert code == 2
        assert "error:" in err

    def test_missing_required_flag_is_usage_error(self, capsys):
        code, _, err = invoke(capsys, "schedule", "inspect", "--T", "10")
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize("flag", ["--layout", "--L"])
    def test_removed_schedule_flag_is_usage_error(self, capsys, flag):
        code, _, err = invoke(capsys, "schedule", "inspect", "--kind", "improved", "--T", "6",
                              "--K", "4", "--n-q", "3", flag, "5")
        assert code == 2
        assert "unrecognized arguments" in err

    @pytest.mark.parametrize("epochs", ["0", "-2"])
    def test_bad_epochs_is_exit_one(self, toy_setup, capsys, tmp_path, epochs):
        out = tmp_path / "never.json"
        code, stdout, err = invoke(
            capsys, "diffuse", "train", "--tokens", str(toy_setup["tokens"]),
            "--schedule", str(toy_setup["sched"]), "--epochs", epochs, "--out", str(out),
        )
        assert code == 1
        assert err.startswith("error:") and "epochs" in err
        assert "Traceback" not in err and stdout == ""
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["diffuse", "sample", "--count", "0"], "--count must be >= 1, got 0"),
        (["diffuse", "sample", "--count", "-3"], "--count must be >= 1, got -3"),
        (["diffuse", "vlb", "--samples", "0"], "--samples must be >= 1, got 0"),
        (["transitions", "check", "--K", "3", "--T", "4", "--schedules", "-1"],
         "--schedules must be >= 0, got -1"),
        (["diffuse", "sample", "--stride", "0"], "--stride must be >= 1, got 0"),
        (["codec", "fit", "--kind", "RVQ", "--Kp", "4", "--iters", "0"],
         "--iters must be >= 1, got 0"),
        (["aux", "recall", "--k", "0"], "--k must be >= 1, got 0"),
        (["metrics", "ssim", "--window", "0"], "--window must be >= 1, got 0"),
    ])
    def test_bad_count_flag_is_exit_one(self, capsys, tmp_path, argv, message):
        # no input file exists: the flag is checked before any is read
        missing = str(tmp_path / "missing.json")
        out = tmp_path / "never.json"
        files = {
            "sample": ["--denoiser", missing, "--schedule", missing, "--out", str(out)],
            "vlb": ["--denoiser", missing, "--tokens", missing, "--schedule", missing],
            "check": [],
            "fit": ["--features", missing, "--out", str(out)],
            "recall": ["--input", missing],
            "ssim": ["--ref", missing, "--syn", missing],
        }
        code, stdout, err = invoke(capsys, *argv, *files[argv[1]])
        assert code == 1
        assert err == f"error: {message}\n" and stdout == ""
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["fit", "--kind", "RVQ", "--Kp", "1"], "--Kp must be >= 2, got 1"),
        (["fit", "--kind", "GVQ", "--Kp", "4", "--G", "0"], "--G must be >= 1, got 0"),
        (["fit", "--kind", "RVQ", "--Kp", "4", "--R", "-1"], "--R must be >= 1, got -1"),
        (["encode", "--active", "0"], "--active must be >= 1, got 0"),
    ])
    def test_bad_codec_flag_is_exit_one(self, capsys, tmp_path, argv, message):
        # no input file exists: the flag is checked before any is read
        missing = str(tmp_path / "missing.json")
        out = tmp_path / "never.json"
        files = {
            "fit": ["--features", missing, "--out", str(out)],
            "encode": ["--features", missing, "--codec", missing, "--out", str(out)],
        }
        code, stdout, err = invoke(capsys, "codec", *argv, *files[argv[0]])
        assert code == 1
        assert err == f"error: {message}\n" and stdout == ""
        assert not out.exists()

    @pytest.mark.parametrize("argv, named", [
        (["schedule", "inspect", "--T", "1000000000000", "--K", "4"],
         "T=1000000000000 and N_q=1"),
        (["schedule", "inspect", "--kind", "improved", "--T", "4", "--K", "4",
          "--n-q", "1000000000000"], "T=4 and N_q=1000000000000"),
        (["transitions", "check", "--T", "1000000000000", "--K", "4"],
         "T=1000000000000 and N_q=1"),
    ], ids=["linear", "improved", "transitions"])
    def test_huge_schedule_is_refused_before_allocating(self, capsys, argv, named):
        code, stdout, err = invoke(capsys, *argv)
        assert code == 1 and stdout == ""
        assert err.startswith(f"error: a schedule with {named} needs ")
        assert len(err.splitlines()) == 1

    def test_more_codes_than_frames_is_refused_before_allocating(self, capsys, tmp_path):
        feats, out = tmp_path / "feats.csv", tmp_path / "never.json"
        write_csv(feats, np.random.default_rng(3).normal(size=(50, 4)))
        code, stdout, err = invoke(capsys, "codec", "fit", "--features", str(feats),
                                   "--kind", "VQ", "--Kp", "1000000000000", "--out", str(out))
        assert code == 1 and stdout == ""
        assert err == ("error: need at least 1000000000000 distinct frames to fit "
                       "1000000000000 codes, got 50\n")
        assert not out.exists()

    def test_domain_error_is_exit_one(self, capsys, tmp_path):
        code, _, err = invoke(
            capsys, "diffuse", "vlb",
            "--denoiser", str(tmp_path / "missing.json"),
            "--tokens", str(tmp_path / "missing2.json"),
            "--schedule", str(tmp_path / "missing3.json"),
        )
        assert code == 1
        assert err.startswith("error:")

    def test_bad_schedule_file_names_the_field(self, toy_setup, capsys, tmp_path):
        payload = json.loads(toy_setup["sched"].read_text())
        payload["kind"] = "improved"  # with the linear file's 1-D arrays
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        out = tmp_path / "never.json"
        code, _, err = invoke(
            capsys, "diffuse", "corrupt",
            "--tokens", str(toy_setup["tokens"]),
            "--schedule", str(bad),
            "--t", "2", "--out", str(out),
        )
        assert code == 1
        assert err.startswith("error:") and "N_q" in err and "alpha_bar" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("K", [1, 0])
    def test_schedule_file_with_small_alphabet_is_exit_one(self, toy_setup, capsys, tmp_path, K):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "T": 2, "K": K, "kind": "linear", "alpha_bar": [1.0, 0.5, 0.0],
            "beta_bar": [0.0, 0.0, 0.0], "gamma_bar": [0.0, 0.5, 1.0],
        }))
        out = tmp_path / "never.json"
        code, stdout, err = invoke(
            capsys, "diffuse", "corrupt", "--tokens", str(toy_setup["tokens"]),
            "--schedule", str(bad), "--t", "1", "--out", str(out),
        )
        assert code == 1
        assert err == f"error: K must be >= 2, got {K}\n"
        assert stdout == ""
        assert not out.exists()

    def test_negative_step_uniform_mass_is_exit_one(self, toy_setup, capsys, tmp_path):
        # every cumulative is in [0, 1] and monotone, but the step 1 -> 2
        # keeps every unmasked token (alpha=1) while masking half of them
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "T": 2, "K": 3, "kind": "linear",
            "alpha_bar": [1.0, 0.5, 0.5], "beta_bar": [0.0, 0.5 / 3, 0.0],
            "gamma_bar": [0.0, 0.0, 0.5],
        }))
        out = tmp_path / "never.json"
        code, stdout, err = invoke(
            capsys, "diffuse", "corrupt", "--tokens", str(toy_setup["tokens"]),
            "--schedule", str(bad), "--t", "1", "--out", str(out),
        )
        assert code == 1
        assert err.startswith("error:") and "negative uniform mass" in err
        assert "Traceback" not in err and stdout == ""
        assert not out.exists()

    @pytest.mark.parametrize("lr", ["nan", "inf", "0", "-1"])
    def test_bad_learning_rate_is_exit_one(self, toy_setup, capsys, tmp_path, lr):
        out = tmp_path / "never.json"
        code, stdout, err = invoke(
            capsys, "diffuse", "train", "--tokens", str(toy_setup["tokens"]),
            "--schedule", str(toy_setup["sched"]), f"--lr={lr}", "--out", str(out),
        )
        assert code == 1
        assert err.startswith("error:") and "lr" in err
        assert "Traceback" not in err and stdout == ""
        assert not out.exists()

    def test_bad_guidance_scale_without_cond_is_exit_one(self, toy_setup, capsys, tmp_path):
        den = tmp_path / "den.json"
        assert invoke(
            capsys, "diffuse", "train", "--tokens", str(toy_setup["tokens"]),
            "--schedule", str(toy_setup["sched"]), "--epochs", "1", "--out", str(den),
        )[0] == 0
        out = tmp_path / "never.json"
        code, stdout, err = invoke(
            capsys, "diffuse", "sample", "--denoiser", str(den),
            "--schedule", str(toy_setup["sched"]), "--lambda=-5", "--out", str(out),
        )
        assert code == 1
        assert err.startswith("error:") and "guidance scale" in err
        assert "Traceback" not in err and stdout == ""
        assert not out.exists()

    def test_help_exits_zero(self, capsys):
        assert invoke(capsys, "--help")[0] == 0
        assert invoke(capsys, "diffuse", "--help")[0] == 0


class TestScheduleCommand:
    def test_linear_endpoint_row(self, capsys, tmp_path):
        out_path = tmp_path / "sched.json"
        code, out, _ = invoke(
            capsys, "schedule", "inspect",
            "--kind", "linear", "--T", "100", "--K", "512", "--out", str(out_path),
        )
        assert code == 0
        last = out.strip().splitlines()[-1].split()
        assert last[0] == "100"
        assert float(last[-1]) == pytest.approx(0.9, abs=1e-12)
        table = load_schedule(out_path)
        table.validate()
        assert (table.T, table.K) == (100, 512)

    def test_improved_requires_layer_count(self, capsys):
        code, _, err = invoke(
            capsys, "schedule", "inspect", "--kind", "improved", "--T", "10", "--K", "4"
        )
        assert code == 1
        assert "error:" in err and "--n-q" in err

    def test_linear_rejects_layer_count(self, capsys, tmp_path):
        out = tmp_path / "never.json"
        code, stdout, err = invoke(
            capsys, "schedule", "inspect", "--kind", "linear", "--T", "10", "--K", "4",
            "--n-q", "4", "--out", str(out),
        )
        assert code == 1
        assert err.startswith("error:") and "--n-q" in err
        assert stdout == "" and not out.exists()


class TestTransitionsCommand:
    def test_check_passes(self, capsys):
        code, out, _ = invoke(
            capsys, "transitions", "check", "--K", "3", "--T", "5", "--seed", "0"
        )
        assert code == 0
        assert "PASS" in out

    def test_zero_random_schedules_checks_the_linear_one(self, capsys):
        code, out, _ = invoke(
            capsys, "transitions", "check", "--K", "3", "--T", "5", "--schedules", "0"
        )
        assert code == 0
        assert out.startswith("transitions check: 0 random + 1 linear") and "PASS" in out


class TestDiffuseCommands:
    def test_corrupt_deterministic(self, toy_setup, capsys, tmp_path):
        args = [
            "diffuse", "corrupt",
            "--tokens", str(toy_setup["tokens"]),
            "--schedule", str(toy_setup["sched"]),
            "--t", "3", "--seed", "11",
        ]
        out1, out2, out3 = (tmp_path / f"n{i}.json" for i in range(3))
        assert invoke(capsys, *args, "--out", str(out1))[0] == 0
        assert invoke(capsys, *args, "--out", str(out2))[0] == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert invoke(capsys, *args[:-1], "99", "--out", str(out3))[0] == 0
        assert out1.read_bytes() != out3.read_bytes()

    def test_corrupt_at_zero_is_identity(self, toy_setup, capsys, tmp_path):
        out = tmp_path / "n0.json"
        code, _, _ = invoke(
            capsys, "diffuse", "corrupt",
            "--tokens", str(toy_setup["tokens"]),
            "--schedule", str(toy_setup["sched"]),
            "--t", "0", "--seed", "1", "--out", str(out),
        )
        assert code == 0
        grids, labels = load_token_file(out)
        orig, orig_labels = load_token_file(toy_setup["tokens"])
        assert labels == orig_labels
        for a, b in zip(grids, orig):
            np.testing.assert_array_equal(a.data, b.data)

    def test_corrupt_bad_t_leaves_no_file(self, toy_setup, capsys, tmp_path):
        out = tmp_path / "never.json"
        code, _, err = invoke(
            capsys, "diffuse", "corrupt",
            "--tokens", str(toy_setup["tokens"]),
            "--schedule", str(toy_setup["sched"]),
            "--t", "7", "--seed", "1", "--out", str(out),
        )
        assert code == 1
        assert err.startswith("error:")
        assert not out.exists()

    def test_failed_command_preserves_existing_output(self, toy_setup, capsys, tmp_path):
        out = tmp_path / "keep.json"
        out.write_text("sentinel")
        code, _, _ = invoke(
            capsys, "diffuse", "corrupt",
            "--tokens", str(toy_setup["tokens"]),
            "--schedule", str(toy_setup["sched"]),
            "--t", "7", "--seed", "1", "--out", str(out),
        )
        assert code == 1
        assert out.read_text() == "sentinel"

    def test_train_sample_vlb_pipeline(self, toy_setup, capsys, tmp_path):
        den = tmp_path / "den.json"
        code, out, _ = invoke(
            capsys, "diffuse", "train",
            "--tokens", str(toy_setup["tokens"]),
            "--schedule", str(toy_setup["sched"]),
            "--epochs", "5", "--seed", "4", "--out", str(den),
        )
        assert code == 0
        assert "epoch 5:" in out
        samp = tmp_path / "samp.json"
        code, _, _ = invoke(
            capsys, "diffuse", "sample",
            "--denoiser", str(den),
            "--schedule", str(toy_setup["sched"]),
            "--count", "3", "--seed", "5", "--cond", "0",
            "--lambda", "1.0", "--out", str(samp),
        )
        assert code == 0
        grids, labels = load_token_file(samp)
        assert len(grids) == 3 and labels == [0, 0, 0]
        assert not any(g.contains_mask() for g in grids)
        code, out, _ = invoke(
            capsys, "diffuse", "vlb",
            "--denoiser", str(den),
            "--tokens", str(toy_setup["tokens"]),
            "--schedule", str(toy_setup["sched"]),
            "--samples", "3", "--seed", "6",
        )
        assert code == 0
        assert "mean vlb=" in out

    def test_sample_reruns_byte_identical(self, toy_setup, capsys, tmp_path):
        den = tmp_path / "den.json"
        invoke(
            capsys, "diffuse", "train",
            "--tokens", str(toy_setup["tokens"]),
            "--schedule", str(toy_setup["sched"]),
            "--epochs", "3", "--seed", "4", "--out", str(den),
        )
        args = [
            "diffuse", "sample", "--denoiser", str(den),
            "--schedule", str(toy_setup["sched"]), "--count", "4", "--seed", "9",
        ]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert invoke(capsys, *args, "--out", str(a))[0] == 0
        assert invoke(capsys, *args, "--out", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_sample_chains_independent_of_count(self, toy_setup, capsys, tmp_path):
        """Chain i only depends on (seed, i), never on how many chains run."""
        den = tmp_path / "den.json"
        invoke(
            capsys, "diffuse", "train",
            "--tokens", str(toy_setup["tokens"]),
            "--schedule", str(toy_setup["sched"]),
            "--epochs", "3", "--seed", "4", "--out", str(den),
        )
        one, many = tmp_path / "one.json", tmp_path / "many.json"
        base = [
            "diffuse", "sample", "--denoiser", str(den),
            "--schedule", str(toy_setup["sched"]), "--seed", "13",
        ]
        invoke(capsys, *base, "--count", "1", "--out", str(one))
        invoke(capsys, *base, "--count", "5", "--out", str(many))
        first_of_many = load_token_file(many)[0][0]
        only = load_token_file(one)[0][0]
        np.testing.assert_array_equal(only.data, first_of_many.data)


def mutate_tokens(payload, bad):
    """A broken token file and the text its error must contain."""
    if bad == "not-an-object":
        return [payload], "JSON object"
    if bad == "missing-K":
        del payload["K"]
        return payload, "'K'"
    if bad == "missing-grids":
        del payload["grids"]
        return payload, "'grids'"
    if bad == "ragged-grid":
        payload["grids"][1][0] = [0]
        return payload, "'grids'"
    if bad == "float-grid":
        payload["grids"][2][0][1] = 1.5
        return payload, "'grids'"
    if bad == "token-out-of-range":
        payload["grids"][0][0][0] = 9
        return payload, "'grids'"
    if bad == "string-K":
        payload["K"] = "3"
        return payload, "'K'"
    assert bad == "labels-length"
    payload["labels"] = payload["labels"][:-1]
    return payload, "labels"


def denoiser_rows(payload):
    """The number of K-logit rows in the table of a denoiser file."""
    return ((len(payload["cond_labels"]) + 1) * (payload["T"] + 1)
            * payload["N_q"] * payload["L"] * (payload["K"] + 1))


def mutate_denoiser(payload, bad):
    """A broken denoiser file and the text its error must contain."""
    if bad == "not-an-object":
        return payload["weights"][:3], "JSON object"
    if bad in ("missing-K", "missing-weights", "missing-cond_labels"):
        name = bad.split("-", 1)[1]
        del payload[name]
        return payload, repr(name)
    if bad == "short-weights":
        payload["weights"] = payload["weights"][:-1]
        return payload, "weights"
    if bad == "nested-weights":
        payload["weights"] = [payload["weights"]]
        return payload, "'weights'"
    if bad == "string-weights":
        payload["weights"][5] = "0.5"
        return payload, "'weights'"
    if bad in ("nan-weights", "inf-weights"):
        payload["weights"][-1] = float(bad[:3])
        return payload, "'weights'"
    if bad == "bool-weights":
        payload["weights"][0] = True
        return payload, "'weights'"
    if bad == "float-T":
        payload["T"] = 6.5
        return payload, "'T'"
    if bad in ("repeated-labels", "unsorted-labels"):
        assert payload["cond_labels"] == [0, 1]
        payload["cond_labels"] = [1, 1] if bad == "repeated-labels" else [1, 0]
        return payload, "'cond_labels'"
    rows = payload["rows"]
    if bad == "rows-not-a-list":
        payload["rows"] = 3
    elif bad == "float-rows":
        rows[1] = float(rows[1])
    elif bad == "bool-rows":
        rows[0] = False
    elif bad == "negative-rows":
        rows[0] = -1
    elif bad == "rows-out-of-range":
        rows[-1] = denoiser_rows(payload)
    elif bad == "unsorted-rows":
        rows[0], rows[1] = rows[1], rows[0]
    else:
        assert bad == "duplicated-rows"
        rows[1] = rows[0]
    return payload, "'rows'"


class TestLoaderErrors:
    """A malformed token or denoiser file fails with exit code 1 naming the field."""

    def trained(self, toy_setup, capsys):
        den = toy_setup["dir"] / "den.json"
        code, _, _ = invoke(
            capsys, "diffuse", "train", "--tokens", str(toy_setup["tokens"]),
            "--schedule", str(toy_setup["sched"]), "--epochs", "1", "--out", str(den),
        )
        assert code == 0
        return den

    @pytest.mark.parametrize("bad", [
        "not-an-object", "missing-K", "missing-grids", "ragged-grid", "float-grid",
        "token-out-of-range", "string-K", "labels-length",
    ])
    def test_bad_token_file(self, toy_setup, capsys, tmp_path, bad):
        payload, field = mutate_tokens(json.loads(toy_setup["tokens"].read_text()), bad)
        tokens = tmp_path / "bad-tokens.json"
        tokens.write_text(json.dumps(payload))
        out = tmp_path / "never.json"
        code, stdout, err = invoke(
            capsys, "diffuse", "corrupt", "--tokens", str(tokens),
            "--schedule", str(toy_setup["sched"]), "--t", "2", "--out", str(out),
        )
        assert code == 1
        assert err.startswith("error:") and field in err
        assert "Traceback" not in err and stdout == ""
        assert not out.exists()

    @pytest.mark.parametrize("command", ["sample", "vlb"])
    def test_denoiser_and_schedule_steps_must_agree(self, toy_setup, capsys, tmp_path, command):
        den = self.trained(toy_setup, capsys)  # trained under T=6
        sched = tmp_path / "short.json"
        save_schedule(sched, linear_schedule(4, 3))
        argv = ["diffuse", command, "--denoiser", str(den), "--schedule", str(sched)]
        out = tmp_path / "never.json"
        if command == "sample":
            argv += ["--out", str(out)]
        else:
            argv += ["--tokens", str(toy_setup["tokens"])]
        code, stdout, err = invoke(capsys, *argv)
        assert code == 1
        assert err.startswith("error:") and "T=6" in err and "T=4" in err
        assert "Traceback" not in err and stdout == ""
        assert not out.exists()

    @pytest.mark.parametrize("bad", [
        "not-an-object", "missing-K", "missing-weights", "missing-cond_labels",
        "short-weights", "nested-weights", "string-weights", "nan-weights", "inf-weights",
        "bool-weights", "rows-not-a-list", "float-rows", "bool-rows", "negative-rows",
        "rows-out-of-range", "unsorted-rows", "duplicated-rows", "float-T",
        "repeated-labels", "unsorted-labels",
    ])
    def test_bad_denoiser_file(self, toy_setup, capsys, tmp_path, bad):
        den = self.trained(toy_setup, capsys)
        payload, field = mutate_denoiser(json.loads(den.read_text()), bad)
        den.write_text(json.dumps(payload))
        out = tmp_path / "never.json"
        code, stdout, err = invoke(
            capsys, "diffuse", "sample", "--denoiser", str(den),
            "--schedule", str(toy_setup["sched"]), "--out", str(out),
        )
        assert code == 1
        assert err.startswith("error:") and field in err
        assert "Traceback" not in err and stdout == ""
        assert not out.exists()


# sha256 of each stdout (with the temporary directory replaced by <tmp>) and
# of each --out file of the run below, recorded before the guided reverse
# step's fast path went in; the two train.out digests were recorded again
# when the denoiser file began to keep only the touched rows, and every
# .out digest again when the files stopped writing "layout".  A change to
# the sampler, the VLB, training or the file formats that alters a single
# output byte fails here.
GOLDEN = {
    "linear": {
        "train.stdout": "325cfe83c21682cb83a7122527e560ed44e292f5cdcc6ef7ef8d1e0fadc4296f",
        "train.out": "5a7ef549f29375a5dbc2d04ef3a5dd55af3ebe62029b3644ac22e0fd8ba8a2a6",
        "sample-log.stdout": "1c0e5e074d1427a96648109e938f831fbe2ba5c5436cf3c3c3f410b69dd852f6",
        "sample-log.out": "40f909a267ecf1b3d70d8100c16a8a1e9531b65267d9d5c1bffc29070578386c",
        "sample-prob.stdout": "f22e1fe3120b5e987b7f9a0993d3ca5db77e292e5e1191cad30644fb065a49c1",
        "sample-prob.out": "8952c2e76906e8b06b81184e0e079ebc54b4fd166a3bdb8a458327f86e4dfc39",
        "sample-unguided.stdout": "16c38e961fe321f0b5749e8bc0cd0625b7839d82120e937910c2f13f3e1ee4bb",
        "sample-unguided.out": "2adf19e22059e4fb7e8617b97fdef5edc75d3712f1f9ca16aeb2845cd44358a1",
        "vlb.stdout": "ce7bbc5bf7249e42ad514579ff6bb1363ba19ba41d8390570de21a7369045f14",
    },
    "improved": {
        "train.stdout": "3ae0794313105572eccb4474c2d55d219bc889cad5e32fda2c6d4214328013da",
        "train.out": "9e08168d29a2a72e61825eccd2e74dd502dd75a69f71acb0da845fa98754ace5",
        "sample-log.stdout": "1c0e5e074d1427a96648109e938f831fbe2ba5c5436cf3c3c3f410b69dd852f6",
        "sample-log.out": "b0fc52e5ae59fd2104949dff7ceeed089de834de31979fe887b3f2618efd2db8",
        "sample-prob.stdout": "f22e1fe3120b5e987b7f9a0993d3ca5db77e292e5e1191cad30644fb065a49c1",
        "sample-prob.out": "f263f1b7b45bad1617e99823d23188258572e1d17509af7b9d9df60a8ec1d270",
        "sample-unguided.stdout": "16c38e961fe321f0b5749e8bc0cd0625b7839d82120e937910c2f13f3e1ee4bb",
        "sample-unguided.out": "5404508d9407d1c6c51bc58820cbea5f64d7d5e329c3221280b243bbb01ead53",
        "vlb.stdout": "309e5634b0d871eb8872aa54e6526cf3099a6d5c1294d880ae0bcae4d5c4e151",
    },
}


# sha256 of the golden run's denoiser file rewritten densely and with
# "layout": the train.out digests recorded before the denoiser file kept
# only the touched rows
DENSE_TRAIN_OUT = {
    "linear": "41596cb331741ffdcb7ae56a62e5f74d4938a938d1baab5ae64e96de6f379d76",
    "improved": "54b4ef0a83bf6669a8d22bb33866ead6f1d653a4d45caf4b355e7ca3f4690825",
}


def rewrite_dense(path):
    """Rewrite a denoiser file as written before ``rows``: every row, and ``layout``."""
    payload = json.loads(path.read_text())
    K = payload["K"]
    table = np.zeros((denoiser_rows(payload), K))
    table[payload.pop("rows")] = np.reshape(payload["weights"], (-1, K))
    old = {key: payload[key] for key in ("kind", "K", "N_q", "L", "T")}
    old["layout"] = "concatenated"
    old["cond_labels"] = payload["cond_labels"]
    old["weights"] = table.reshape(-1).tolist()
    path.write_text(json.dumps(old))


def golden_run(tmp_path, capsys, kind, dense=False):
    """The digests of the run below; ``dense`` rewrites the trained denoiser densely."""
    sched = tmp_path / "sched.json"
    if kind == "linear":
        save_schedule(sched, linear_schedule(6, 4))
    else:
        save_schedule(sched, improved_schedule(6, 4, 2))
    rng = np.random.default_rng(71)
    protos = rng.integers(0, 4, size=(2, 2, 3))
    grids, labels = [], []
    for i in range(10):
        noisy = rng.random((2, 3)) < 0.3
        grids.append(TokenGrid(np.where(noisy, rng.integers(0, 4, (2, 3)), protos[i % 2]), K=4))
        labels.append(i % 2)
    tokens = tmp_path / "tokens.json"
    save_token_file(tokens, grids, labels)
    den = tmp_path / "den.json"
    common = ["--schedule", str(sched)]
    sample = ["diffuse", "sample", "--denoiser", str(den), *common, "--count", "4", "--seed", "5"]
    steps = [
        ("train", ["diffuse", "train", "--tokens", str(tokens), *common,
                   "--epochs", "3", "--seed", "4", "--out", str(den)], den),
        ("sample-log", [*sample, "--cond", "1", "--lambda", "0.5"], tmp_path / "log.json"),
        ("sample-prob", [*sample, "--cond", "0", "--lambda", "1.5", "--guidance-mode", "prob",
                         "--stride", "2"], tmp_path / "prob.json"),
        ("sample-unguided", sample, tmp_path / "plain.json"),
        ("vlb", ["diffuse", "vlb", "--denoiser", str(den), "--tokens", str(tokens), *common,
                 "--samples", "3", "--seed", "6"], None),
    ]
    digests = {}
    for name, argv, out in steps:
        if out is not None and name != "train":
            argv = [*argv, "--out", str(out)]
        code, stdout, err = invoke(capsys, *argv)
        assert code == 0, err
        text = stdout.replace(str(tmp_path), "<tmp>")
        digests[f"{name}.stdout"] = hashlib.sha256(text.encode()).hexdigest()
        if out is not None:
            digests[f"{name}.out"] = hashlib.sha256(out.read_bytes()).hexdigest()
        if name == "train" and dense:
            rewrite_dense(den)
            digests["train.dense.out"] = hashlib.sha256(den.read_bytes()).hexdigest()
    return digests


class TestGoldenOutputs:
    @pytest.mark.parametrize("kind", ["linear", "improved"])
    def test_diffuse_outputs_match_recorded_digests(self, tmp_path, capsys, kind):
        assert golden_run(tmp_path, capsys, kind) == GOLDEN[kind]

    @pytest.mark.parametrize("kind", ["linear", "improved"])
    def test_dense_denoiser_file_gives_recorded_digests(self, tmp_path, capsys, kind):
        # a file written before the format kept only the touched rows
        digests = golden_run(tmp_path, capsys, kind, dense=True)
        assert digests.pop("train.dense.out") == DENSE_TRAIN_OUT[kind]
        assert digests == GOLDEN[kind]


# The same kind of digests for `schedule inspect` and the codec commands,
# recorded before the codec's distinct-frame check moved into k-means++;
# the schedule files, the improved listing and the token files were
# recorded again when "layout" and the schedule's "L" were dropped.
GOLDEN_SCHEDULE = {
    "linear": {
        "inspect.stdout": "e6d5889c227eac64ac9e771de045e09e58ae4a2276a8cf587d22743e94ca382b",
        "inspect.sched.json": "fb58ae034d4ce585b3627a144b8fe4a3a99c2b031af098381604152b7e659fd0",
    },
    "improved": {
        "inspect.stdout": "0c8b3144771ba92e22323914eb53eb2c219d05399969d1937fa998cc355cef14",
        "inspect.sched.json": "d90db7500418321cb9986ce6be66685628028c657c560320fd51cb786fafd39b",
    },
}

DECODE_STDOUT = "1a3df0e32f0dbe4186155077657ea98fcb931361dd5e2ae1b4cee096d3ab1f36"
GOLDEN_CODEC = {
    "GRVQ": {
        "fit.stdout": "0ad865f3fa0e24cf7132a6ae1967f3a1de8e27cd0d2ce859ec560e9384757138",
        "fit.codec.json": "ec9fb215984230fdba9658c2ce74a1560cd67ae53be8e5f614cda0ea51d67524",
        "encode.stdout": "48a70f4c69d9e3a7f002a8ff4efce61354e487e66adc8db7780715368f01cbf2",
        "encode.tok.json": "2d786588cdf8220b3cc318dc679b3ad25a4213906f332f84e9b98b309cd50b60",
        "encode.recon.csv": "e86d17bff07d91844506cf470de7889460fd897340f2b16a1584e03f8263c09c",
        "decode.stdout": DECODE_STDOUT,
        "decode.dec.csv": "e86d17bff07d91844506cf470de7889460fd897340f2b16a1584e03f8263c09c",
        "report.stdout": "dc02b51773b33c65592094bb64eda473984e789eacb3ecc2e5cefd4b7cc83809",
    },
    "GVQ": {
        "fit.stdout": "fea81e7b5dee860ef1611d236cbbbe067b56709cad65cba76e9a0b398f81ff26",
        "fit.codec.json": "8ffd865657e3a709280cfd9751498c8d6972e2a3bb679a6145887856f4491e34",
        "encode.stdout": "8e3c149b8aaafc1b2a3a6e7b1cae8fa647f9df393c923f5afef7a748d02b1f60",
        "encode.tok.json": "ad59bc1fccfb587c71b2645994642f3102302983c7ecd1f4588dce0c01e9894f",
        "encode.recon.csv": "3975d72816e03cc150c0d92bb089f523cb7c4669fd40dac32c9327990261ab02",
        "decode.stdout": DECODE_STDOUT,
        "decode.dec.csv": "3975d72816e03cc150c0d92bb089f523cb7c4669fd40dac32c9327990261ab02",
        "report.stdout": "fcef6d5d2e3fa7f2a8ff0e0a37d7d1a0f043e2f10a2ea9b6a31dfc0b9395ed8e",
    },
    "RVQ-dropout": {
        "fit.stdout": "f7047ccec5246392c18c2c0ea9b5733aed8d670b51172d215cffb7088d8cb2ca",
        "fit.codec.json": "e6d06c3e214b037173e2c37529163ae44d36dc50dbc68572f3bce5bb9e28f8b0",
        "encode.stdout": "65f0973b487a0c64f7be4f37bdfb743ef47825f0db65f4db08601d894d3694ec",
        "encode.tok.json": "5e6681fe5995291d89bb69275bf2f398e6f85976af13fac4746c33fd20c75b17",
        "encode.recon.csv": "56ad9b7638fbbed827d1bc4266591a6a3aa570c5e78f32b3e6c4048e29e911a6",
        "decode.stdout": DECODE_STDOUT,
        "decode.dec.csv": "56ad9b7638fbbed827d1bc4266591a6a3aa570c5e78f32b3e6c4048e29e911a6",
        "report.stdout": "08577da01a0701f7f0b984590e8042d156c816300f137c24daae19575422006f",
    },
}

CODEC_FIT_ARGS = {
    "GRVQ": ["--kind", "GRVQ", "--G", "2", "--R", "2"],
    "GVQ": ["--kind", "GVQ", "--G", "2"],
    "RVQ-dropout": ["--kind", "RVQ", "--R", "3", "--dropout"],
}


def digest_steps(tmp_path, capsys, steps):
    """sha256 of each step's stdout and of each file it writes, by file name."""
    digests = {}
    for name, argv, outs in steps:
        code, stdout, err = invoke(capsys, *argv)
        assert code == 0, err
        text = stdout.replace(str(tmp_path), "<tmp>")
        digests[f"{name}.stdout"] = hashlib.sha256(text.encode()).hexdigest()
        for out in outs:
            digests[f"{name}.{out.name}"] = hashlib.sha256(out.read_bytes()).hexdigest()
    return digests


def golden_schedule_run(tmp_path, capsys, kind):
    out = tmp_path / "sched.json"
    argv = ["schedule", "inspect", "--kind", kind, "--T", "6", "--K", "4", "--out", str(out)]
    if kind == "improved":
        argv += ["--n-q", "3"]
    return digest_steps(tmp_path, capsys, [("inspect", argv, [out])])


def golden_codec_run(tmp_path, capsys, kind):
    rng = np.random.default_rng(83)
    centers = rng.normal(size=(5, 4)) * 4.0
    feats = tmp_path / "feats.csv"
    write_csv(feats, np.repeat(centers, 24, axis=0) + rng.normal(size=(120, 4)) * 0.3)
    codec, tokens = tmp_path / "codec.json", tmp_path / "tok.json"
    recon, decoded = tmp_path / "recon.csv", tmp_path / "dec.csv"
    features = ["--features", str(feats), "--codec", str(codec)]
    steps = [
        ("fit", ["codec", "fit", "--features", str(feats), *CODEC_FIT_ARGS[kind], "--Kp", "4",
                 "--iters", "8", "--seed", "3", "--out", str(codec)], [codec]),
        ("encode", ["codec", "encode", *features, "--out", str(tokens), "--recon", str(recon)],
         [tokens, recon]),
        ("decode", ["codec", "decode", "--tokens", str(tokens), "--codec", str(codec),
                    "--out", str(decoded)], [decoded]),
        ("report", ["codec", "report", *features], []),
    ]
    return digest_steps(tmp_path, capsys, steps)


class TestGoldenScheduleAndCodecOutputs:
    @pytest.mark.parametrize("kind", ["linear", "improved"])
    def test_schedule_inspect_matches_recorded_digests(self, tmp_path, capsys, kind):
        assert golden_schedule_run(tmp_path, capsys, kind) == GOLDEN_SCHEDULE[kind]

    @pytest.mark.parametrize("kind", ["GRVQ", "GVQ", "RVQ-dropout"])
    def test_codec_outputs_match_recorded_digests(self, tmp_path, capsys, kind):
        assert golden_codec_run(tmp_path, capsys, kind) == GOLDEN_CODEC[kind]


# sha256 of the stdout of the two oracle commands.  They print their worst
# deviations to four digits, so a change in the last bits of the step
# matrices the oracles multiply shows here.
GOLDEN_ORACLES = {
    "transitions-check": "0ac8f6f1102e4a93644356716dab554b612152f92edbdf175523c1f83d64db17",
    "selftest": "19ad16a248d4f609fffcc6d29aa59fbfad1986443226f8cf099790595b3c7642",
}
ORACLE_ARGS = {
    "transitions-check": ["transitions", "check", "--K", "3", "--T", "5", "--seed", "0"],
    "selftest": ["selftest", "--seed", "0"],
}


@pytest.mark.parametrize("name", sorted(GOLDEN_ORACLES))
def test_oracle_commands_match_recorded_digests(capsys, name):
    code, stdout, err = invoke(capsys, *ORACLE_ARGS[name])
    assert code == 0, err
    assert hashlib.sha256(stdout.encode()).hexdigest() == GOLDEN_ORACLES[name]


# Every node of the parser: the root, the six command groups and the 18
# subcommands.
PARSER_NODES = [
    (),
    ("schedule",), ("schedule", "inspect"),
    ("transitions",), ("transitions", "check"),
    ("diffuse",), ("diffuse", "corrupt"), ("diffuse", "sample"), ("diffuse", "train"),
    ("diffuse", "vlb"),
    ("codec",), ("codec", "fit"), ("codec", "encode"), ("codec", "decode"), ("codec", "report"),
    ("metrics",), ("metrics", "mcd"), ("metrics", "ssim"), ("metrics", "pitch"),
    ("aux",), ("aux", "infonce"), ("aux", "rank-loss"), ("aux", "recall"), ("aux", "club"),
    ("selftest",),
]

# sha256 over all nodes of the --help stdout, and of the exit code and
# stderr with no arguments and with an unknown flag, at an 80-column
# terminal under Python 3.11's argparse.  Recorded before the parser was
# rewritten to define each shared flag once: any change to a flag's name,
# order, default, help or required-ness, or to a command's help, fails here.
GOLDEN_CLI_SURFACE = {
    "help": "9551dd2c9360e734c5d1f8118680a58164c635db4f2a651416da78e2420439dd",
    "no-args": "4e0e12f873742186f58f4dc1b486f554e6ec4625049e896a775e78981175f1d6",
    "unknown-flag": "fe5f79f36beae8d721b5f22b1ba3036ab92f3fe788b4eb50f869bbdfc1169844",
}


def test_cli_surface_matches_recorded_digests(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    texts = {name: [] for name in GOLDEN_CLI_SURFACE}
    for node in PARSER_NODES:
        for name, extra in (("help", ["--help"]), ("no-args", []),
                            ("unknown-flag", ["--no-such-flag"])):
            code, stdout, err = invoke(capsys, *node, *extra)
            shown = stdout if name == "help" else err
            texts[name].append(f"$ vqdiff {' '.join([*node, *extra])}\nexit {code}\n{shown}")
    digests = {name: hashlib.sha256("".join(parts).encode()).hexdigest()
               for name, parts in texts.items()}
    assert digests == GOLDEN_CLI_SURFACE


class TestCodecCommands:
    def test_fit_encode_report_decode(self, toy_setup, capsys, tmp_path):
        codec = tmp_path / "codec.json"
        code, out, _ = invoke(
            capsys, "codec", "fit",
            "--features", str(toy_setup["feats"]),
            "--kind", "RVQ", "--Kp", "4", "--R", "2",
            "--iters", "25", "--seed", "1", "--out", str(codec),
        )
        assert code == 0 and "fitted RVQ" in out
        tokens = tmp_path / "tok.json"
        recon = tmp_path / "recon.csv"
        code, out, _ = invoke(
            capsys, "codec", "encode",
            "--features", str(toy_setup["feats"]),
            "--codec", str(codec), "--out", str(tokens), "--recon", str(recon),
        )
        assert code == 0 and "mse=" in out
        code, out, _ = invoke(
            capsys, "codec", "report",
            "--features", str(toy_setup["feats"]), "--codec", str(codec),
        )
        assert code == 0
        lines = [l for l in out.splitlines() if l.startswith("depth")]
        assert len(lines) == 2
        mses = [float(l.split("mse=")[1]) for l in lines]
        assert mses[1] <= mses[0]
        decoded = tmp_path / "dec.csv"
        code, _, _ = invoke(
            capsys, "codec", "decode",
            "--tokens", str(tokens), "--codec", str(codec), "--out", str(decoded),
        )
        assert code == 0
        a = np.loadtxt(recon, delimiter=",")
        b = np.loadtxt(decoded, delimiter=",")
        np.testing.assert_array_equal(a, b)

    def test_report_refuses_overflowing_features(self, toy_setup, capsys, tmp_path, recwarn):
        codec = tmp_path / "codec.json"
        invoke(capsys, "codec", "fit", "--features", str(toy_setup["feats"]), "--kind", "RVQ",
               "--Kp", "4", "--R", "2", "--iters", "5", "--seed", "1", "--out", str(codec))
        huge = tmp_path / "huge.csv"
        write_csv(huge, np.loadtxt(toy_setup["feats"], delimiter=",") * 1e200)
        code, out, err = invoke(capsys, "codec", "report", "--features", str(huge),
                                "--codec", str(codec))
        assert code == 1 and out == ""
        assert err == ("error: features are too large: "
                       "the reconstruction error leaves the float range\n")
        assert len(recwarn) == 0

    def test_encode_refuses_overflowing_features(self, toy_setup, capsys, tmp_path, recwarn):
        codec = tmp_path / "codec.json"
        invoke(capsys, "codec", "fit", "--features", str(toy_setup["feats"]), "--kind", "RVQ",
               "--Kp", "4", "--R", "2", "--iters", "5", "--seed", "1", "--out", str(codec))
        huge = tmp_path / "huge.csv"
        write_csv(huge, np.loadtxt(toy_setup["feats"], delimiter=",") * 1e200)
        tokens = tmp_path / "tok.json"
        code, out, err = invoke(capsys, "codec", "encode", "--features", str(huge),
                                "--codec", str(codec), "--out", str(tokens))
        assert code == 1 and out == ""
        assert err.startswith("error: features are too large") and len(err.splitlines()) == 1
        assert len(recwarn) == 0
        assert not tokens.exists()

    def test_fit_deterministic(self, toy_setup, capsys, tmp_path):
        args = [
            "codec", "fit", "--features", str(toy_setup["feats"]),
            "--kind", "VQ", "--Kp", "4", "--iters", "20", "--seed", "7",
        ]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        invoke(capsys, *args, "--out", str(a))
        invoke(capsys, *args, "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_decode_rejects_multi_grid_file(self, toy_setup, capsys, tmp_path):
        codec = tmp_path / "codec.json"
        invoke(
            capsys, "codec", "fit", "--features", str(toy_setup["feats"]),
            "--kind", "VQ", "--Kp", "4", "--iters", "10", "--seed", "0",
            "--out", str(codec),
        )
        multi = tmp_path / "multi.json"
        g = TokenGrid(data=np.array([[0, 1]]), K=4)
        save_token_file(multi, [g, g])
        out = tmp_path / "dec.csv"
        code, _, err = invoke(
            capsys, "codec", "decode",
            "--tokens", str(multi), "--codec", str(codec), "--out", str(out),
        )
        assert code == 1
        assert "1 grid" in err
        assert not out.exists()


    def test_fit_rejects_groups_for_vq(self, toy_setup, capsys, tmp_path):
        out = tmp_path / "codec.json"
        code, stdout, err = invoke(
            capsys, "codec", "fit", "--features", str(toy_setup["feats"]),
            "--kind", "VQ", "--G", "2", "--Kp", "4", "--out", str(out),
        )
        assert code == 1
        assert err.startswith("error:") and "G=1" in err
        assert "Traceback" not in err and stdout == ""
        assert not out.exists()

    def test_fit_overflow_is_exit_one(self, capsys, tmp_path):
        feats = tmp_path / "huge.csv"
        write_csv(feats, np.random.default_rng(0).normal(size=(50, 2)) * 1e200)
        out = tmp_path / "codec.json"
        code, _, err = invoke(
            capsys, "codec", "fit", "--features", str(feats),
            "--kind", "VQ", "--Kp", "4", "--iters", "5", "--seed", "0",
            "--out", str(out),
        )
        # the books fit scaled into range; the inertia scaled back does not fit
        assert code == 1
        assert err.startswith("error:") and "leaves the float range" in err
        assert "Traceback" not in err and "Warning" not in err
        assert not out.exists()

    @pytest.mark.parametrize("bad", ["missing-Kp", "list", "ragged"])
    def test_bad_codec_file_names_the_field(self, toy_setup, capsys, tmp_path, bad):
        codec = tmp_path / "codec.json"
        invoke(
            capsys, "codec", "fit", "--features", str(toy_setup["feats"]),
            "--kind", "VQ", "--Kp", "4", "--iters", "10", "--seed", "0",
            "--out", str(codec),
        )
        payload = json.loads(codec.read_text())
        if bad == "missing-Kp":
            del payload["Kp"]
            field = "'Kp'"
        elif bad == "list":
            payload = [payload]
            field = "JSON object"
        else:
            payload["codebooks"][0][1] = [1.0]
            field = "'codebooks'"
        codec.write_text(json.dumps(payload))
        out = tmp_path / "tok.json"
        code, _, err = invoke(
            capsys, "codec", "encode", "--features", str(toy_setup["feats"]),
            "--codec", str(codec), "--out", str(out),
        )
        assert code == 1
        assert err.startswith("error:") and field in err
        assert "Traceback" not in err
        assert not out.exists()


class TestMetricsCommands:
    def test_mcd_and_ssim(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(a, [[0.0, 0.0], [0.0, 0.0]])
        write_csv(b, [[3.0, 4.0], [3.0, 4.0]])
        code, out, _ = invoke(capsys, "metrics", "mcd", "--ref", str(a), "--syn", str(b))
        assert code == 0
        assert float(out.split("mcd=")[1]) == pytest.approx(5.0)
        x = tmp_path / "x.csv"
        write_csv(x, np.random.default_rng(0).normal(size=(8, 8)))
        code, out, _ = invoke(
            capsys, "metrics", "ssim", "--ref", str(x), "--syn", str(x), "--window", "3"
        )
        assert code == 0
        assert float(out.split("ssim=")[1]) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("argv", [
        ["ssim", "--window", "1"], ["ssim", "--window", "3"], ["mcd"],
    ], ids=["ssim-window-1", "ssim", "mcd"])
    def test_overflow_is_one_error_line(self, capsys, tmp_path, recwarn, argv):
        # what no power-of-two scaling brings back: the SSIM of a constant
        # reference, whose L = 1 does not scale, and an MCD above the float maximum
        signs = np.random.default_rng(4).choice([-1.0, 1.0], size=(6, 6))
        if argv[0] == "ssim":
            ref, syn = np.full((6, 6), 1e200), (1.0 + 0.5 * signs) * 1e200
        else:
            ref, syn = signs * 1e308, -signs * 1e308
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(a, ref)
        write_csv(b, syn)
        code, out, err = invoke(capsys, "metrics", argv[0], "--ref", str(a), "--syn", str(b),
                                *argv[1:])
        assert code == 1 and out == ""
        assert err.startswith("error: ref and syn take the ")
        assert len(err.splitlines()) == 1
        assert len(recwarn) == 0

    @pytest.mark.parametrize("argv", [["ssim", "--window", "3"], ["mcd"]], ids=["ssim", "mcd"])
    def test_tiny_input_is_finite(self, capsys, tmp_path, recwarn, argv):
        rng = np.random.default_rng(5)
        ref = rng.normal(size=(40, 8))
        syn = ref + 0.3 * rng.normal(size=ref.shape)
        values = []
        for scale in (1.0, 1e-200):
            a, b = tmp_path / "a.csv", tmp_path / "b.csv"
            write_csv(a, ref * scale)
            write_csv(b, syn * scale)
            code, out, _ = invoke(capsys, "metrics", argv[0], "--ref", str(a), "--syn", str(b),
                                  *argv[1:])
            assert code == 0
            values.append(float(out.split("=")[1]))
        unit = 1.0 if argv[0] == "ssim" else 1e-200  # SSIM has no scale, MCD scales with the input
        assert math.isfinite(values[1]) and values[1] == pytest.approx(values[0] * unit, rel=1e-12)
        assert len(recwarn) == 0

    def test_pitch_self_comparison(self, capsys, tmp_path):
        track = tmp_path / "p.csv"
        track.write_text("frame,f0,voiced\n0,110.0,1\n1,0.0,0\n2,95.5,1\n")
        code, out, _ = invoke(
            capsys, "metrics", "pitch", "--ref", str(track), "--syn", str(track)
        )
        assert code == 0
        assert out.strip() == "gpe=0.0 vde=0.0 ffe=0.0"

    def test_pitch_no_voiced_overlap_reports_none(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        a.write_text("frame,f0,voiced\n0,100.0,1\n1,0.0,0\n")
        b.write_text("frame,f0,voiced\n0,0.0,0\n1,120.0,1\n")
        code, out, _ = invoke(capsys, "metrics", "pitch", "--ref", str(a), "--syn", str(b))
        assert code == 0
        assert "gpe=none" in out and "vde=1.0" in out

    @pytest.mark.parametrize("threshold", ["nan", "inf", "0"])
    def test_pitch_bad_threshold_is_exit_one(self, capsys, tmp_path, recwarn, threshold):
        ref, syn = tmp_path / "ref.csv", tmp_path / "syn.csv"
        ref.write_text("frame,f0,voiced\n0,100,1\n1,100,1\n")
        syn.write_text("frame,f0,voiced\n0,100,1\n1,200,1\n")  # gpe 0.5 at 0.2
        code, out, err = invoke(capsys, "metrics", "pitch", "--ref", str(ref), "--syn", str(syn),
                                "--threshold", threshold)
        assert code == 1 and out == ""
        assert err.startswith("error: gpe_threshold ")
        assert all(line.startswith("error: ") for line in err.splitlines())
        assert len(recwarn) == 0

    @pytest.mark.parametrize("rows", ["0,100,1\ninf,120,1\n", "0,100,inf\n1,120,1\n"])
    def test_pitch_infinite_frame_or_voiced_is_exit_one(self, capsys, tmp_path, rows):
        bad, good = tmp_path / "bad.csv", tmp_path / "good.csv"
        bad.write_text(rows)
        good.write_text("0,100,1\n1,120,1\n")
        code, stdout, err = invoke(capsys, "metrics", "pitch", "--ref", str(bad), "--syn", str(good))
        assert code == 1
        assert err.startswith("error: pitch row") and "inf" in err
        assert "Traceback" not in err and stdout == ""

    def test_pitch_frames_not_shared_is_exit_one(self, capsys, tmp_path):
        ref, syn = tmp_path / "ref.csv", tmp_path / "syn.csv"
        ref.write_text("frame,f0,voiced\n0,100,1\n1,200,1\n2,300,1\n")
        syn.write_text("frame,f0,voiced\n0,100,1\n0,200,1\n7,300,1\n")
        code, stdout, err = invoke(capsys, "metrics", "pitch", "--ref", str(ref), "--syn", str(syn))
        assert code == 1 and stdout == ""
        assert err == (
            "error: pitch frames must be 0..2 with no repeat or gap: "
            "got frame 0 where frame 1 belongs\n"
        )

    @pytest.mark.parametrize("text", ["", "\n\n"])
    def test_empty_features_file_is_one_error_line(self, capsys, tmp_path, recwarn, text):
        empty = tmp_path / "empty.csv"
        empty.write_text(text)
        code, stdout, err = invoke(capsys, "metrics", "mcd", "--ref", str(empty), "--syn", str(empty))
        assert code == 1
        assert err == f"error: no feature frames in {empty}\n" and stdout == ""
        assert len(recwarn) == 0


class TestAuxCommands:
    def test_infonce_uniform(self, capsys, tmp_path):
        sim = tmp_path / "sim.csv"
        write_csv(sim, np.zeros((5, 5)))
        code, out, _ = invoke(capsys, "aux", "infonce", "--input", str(sim))
        assert code == 0
        assert float(out.split("infonce=")[1]) == pytest.approx(math.log(5), abs=1e-12)

    def test_recall_and_rank_loss(self, capsys, tmp_path):
        sim = tmp_path / "sim.csv"
        write_csv(sim, np.eye(4) + 0.1)
        code, out, _ = invoke(capsys, "aux", "recall", "--input", str(sim), "--k", "4")
        assert code == 0
        assert float(out.split("=")[1]) == 100.0
        code, out, _ = invoke(
            capsys, "aux", "rank-loss", "--input", str(sim), "--margin", "0.2"
        )
        assert code == 0
        assert float(out.split("rank_loss=")[1]) >= 0.0

    @pytest.mark.parametrize("argv, name", [
        (["infonce", "--tau", "nan"], "temperature"),
        (["infonce", "--tau", "1e-320"], "temperature"),
        (["infonce", "--tau", "inf"], "temperature"),
        (["rank-loss", "--margin", "nan"], "margin"),
        (["rank-loss", "--margin", "inf"], "margin"),
    ], ids=["tau-nan", "tau-1e-320", "tau-inf", "margin-nan", "margin-inf"])
    def test_bad_float_flag_is_exit_one(self, capsys, tmp_path, recwarn, argv, name):
        sim = tmp_path / "sim.csv"
        write_csv(sim, [[1.0, 0.5], [0.5, 1.0]])
        code, out, err = invoke(capsys, "aux", *argv, "--input", str(sim))
        assert code == 1 and out == ""
        assert err.startswith(f"error: {name} ")
        assert all(line.startswith("error: ") for line in err.splitlines())
        assert len(recwarn) == 0

    @pytest.mark.parametrize("argv", [["infonce", "--tau", "1"], ["rank-loss"]],
                             ids=["infonce", "rank-loss"])
    def test_overflowing_similarities_are_exit_one(self, capsys, tmp_path, recwarn, argv):
        sim = tmp_path / "sim.csv"
        write_csv(sim, [[-1e308, 1e308], [1e308, -1e308]])
        code, out, err = invoke(capsys, "aux", *argv, "--input", str(sim))
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: similarity matrix ")
        assert len(recwarn) == 0

    def test_club_runs_and_validates_split(self, capsys, tmp_path):
        data = tmp_path / "xy.csv"
        write_csv(data, np.random.default_rng(1).normal(size=(400, 2)))
        code, out, _ = invoke(capsys, "aux", "club", "--input", str(data))
        assert code == 0
        assert abs(float(out.split("club_mi=")[1])) < 0.2
        code, _, err = invoke(
            capsys, "aux", "club", "--input", str(data), "--dim-x", "2"
        )
        assert code == 1
        assert "error:" in err

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_club_outside_the_float_range(self, capsys, tmp_path, recwarn, scale):
        rng = np.random.default_rng(2)
        x = rng.normal(size=400)
        data = tmp_path / "xy.csv"
        write_csv(data, np.column_stack([x, 0.6 * x + 0.8 * rng.normal(size=400)]) * scale)
        code, out, err = invoke(capsys, "aux", "club", "--input", str(data))
        if code == 0:
            assert math.isfinite(float(out.split("club_mi=")[1])) and err == ""
        else:
            assert code == 1 and out == "" and len(err.splitlines()) == 1
            assert err.startswith("error:")
        assert len(recwarn) == 0


def probe_commands(tmp_path, offset, scale):
    """Every CSV-reading command, on inputs shifted by ``offset`` after scaling by ``scale``."""
    rng = np.random.default_rng(31)
    ref = rng.normal(size=(40, 8))
    x = rng.normal(size=400)
    centers = rng.normal(size=(4, 2)) * 6.0
    inputs = {
        "ref": ref,
        "syn": ref + 0.3 * rng.normal(size=ref.shape),
        "sim": rng.normal(size=(6, 6)) + 3.0 * np.eye(6),
        "xy": np.column_stack([x, 0.6 * x + 0.8 * rng.normal(size=400)]),
        "feats": np.repeat(centers, 25, axis=0) + 0.05 * rng.normal(size=(100, 2)),
    }
    path = {name: str(tmp_path / f"{name}.csv") for name in inputs}
    for name, matrix in inputs.items():
        write_csv(Path(path[name]), offset + scale * matrix)
    # report and encode read a codec fitted on the unmoved features, so they
    # run at every scale, whether or not ``codec fit`` can fit the moved ones;
    # they read it as it is, and moved like the features (the offset moves
    # the first level's codes only, as it moves no residual)
    unit = vqdiff.fit_codebooks(inputs["feats"], vqdiff.FitConfig(kind="RVQ", Kp=4, R=2, iters=5))
    unit_codec, moved_codec = str(tmp_path / "unit-codec.json"), str(tmp_path / "moved-codec.json")
    vqdiff.save_codec(unit_codec, unit)
    vqdiff.save_codec(moved_codec, vqdiff.CodecModel(kind="RVQ", G=1, R=2, Kp=4, codebooks=[
        (offset if r == 0 else 0.0) + scale * book for r, book in enumerate(unit.codebooks)]))
    pair = ["--ref", path["ref"], "--syn", path["syn"]]
    return {
        "metrics mcd": ["metrics", "mcd", *pair],
        "metrics ssim": ["metrics", "ssim", *pair, "--window", "3"],
        "aux infonce": ["aux", "infonce", "--input", path["sim"]],
        "aux rank-loss": ["aux", "rank-loss", "--input", path["sim"]],
        "aux recall": ["aux", "recall", "--input", path["sim"]],
        "aux club": ["aux", "club", "--input", path["xy"]],
        "codec fit": ["codec", "fit", "--features", path["feats"], "--kind", "RVQ", "--Kp", "4",
                      "--R", "2", "--iters", "5", "--out", str(tmp_path / "codec.json")],
        "codec report": ["codec", "report", "--features", path["feats"], "--codec", unit_codec],
        "codec encode": ["codec", "encode", "--features", path["feats"], "--codec", unit_codec,
                         "--out", str(tmp_path / "tokens.json")],
        "codec report (moved codec)": ["codec", "report", "--features", path["feats"],
                                       "--codec", moved_codec],
        "codec encode (moved codec)": ["codec", "encode", "--features", path["feats"],
                                       "--codec", moved_codec,
                                       "--out", str(tmp_path / "moved-tokens.json")],
    }


def printed_numbers(out: str) -> list[float]:
    """The ``name=value`` numbers of a command's output, and codec fit's final inertias."""
    found = re.findall(r"=(\S+)", out)
    for line in out.splitlines():
        if line.startswith("final inertia per book: "):
            found += line.split(": ")[1].split(", ")
    return [float(v) for v in found]


@pytest.mark.parametrize("scale", [1.0, 1e150, 1e-150, 1e200, 1e-200, 2.0**508, 2.0**-530])
@pytest.mark.parametrize("offset", [0.0, 1e8])
def test_numeric_range_probe(capsys, tmp_path, recwarn, offset, scale):
    # each command prints finite numbers or refuses with one error line, and
    # warns of nothing, wherever its input lies in the float range
    exits = {}
    for name, argv in probe_commands(tmp_path, offset, scale).items():
        code, out, err = invoke(capsys, *argv)
        exits[name] = code
        if code == 0:
            numbers = printed_numbers(out)
            assert numbers and all(map(math.isfinite, numbers)) and err == "", name
        else:
            assert code == 1 and out == "" and len(err.splitlines()) == 1, name
            assert err.startswith("error: "), name
        if name == "aux club" and offset + scale * 8.0 == offset:
            # the shift rounds every value away: constant y carries no information
            assert out == "club_mi=0.0\n"
    if offset == 0.0 and exits["codec encode (moved codec)"] == 0:
        # scaling the features and the codec alike keeps every code
        feats = np.loadtxt(tmp_path / "feats.csv", delimiter=",") / scale
        unit = vqdiff.load_codec(tmp_path / "unit-codec.json")
        grids, _ = vqdiff.load_token_file(tmp_path / "moved-tokens.json")
        np.testing.assert_array_equal(grids[0].data, vqdiff.quantize(feats, unit)[0].data)
    assert len(recwarn) == 0


class TestThreadCountDeterminism:
    """``codec fit`` and ``codec encode`` write the same bytes at any BLAS thread count."""

    def test_codec_files_equal_across_openblas_threads(self, tmp_path):
        rng = np.random.default_rng(12)
        centers = rng.normal(size=(48, 16)) * 4.0
        feats = tmp_path / "feats.csv"
        write_csv(feats, centers[rng.integers(0, 48, size=3000)] + rng.normal(size=(3000, 16)))
        src = str(Path(vqdiff.__file__).resolve().parents[1])
        digests = set()
        for threads in ("1", "2", "4"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
                   "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
            codec, tokens = tmp_path / f"codec-{threads}.json", tmp_path / f"tok-{threads}.json"
            for argv in (["fit", "--features", str(feats), "--kind", "RVQ", "--Kp", "64",
                          "--R", "2", "--iters", "6", "--seed", "3", "--out", str(codec)],
                         ["encode", "--features", str(feats), "--codec", str(codec),
                          "--out", str(tokens)]):
                done = subprocess.run([sys.executable, "-m", "vqdiff.cli", "codec", *argv],
                                      env=env, capture_output=True, text=True, timeout=300)
                assert done.returncode == 0, done.stderr
            digests.add(tuple(hashlib.sha256(p.read_bytes()).hexdigest() for p in (codec, tokens)))
        assert len(digests) == 1


def avx512_dispatch_targets() -> list[str]:
    """NumPy's AVX-512 dispatch targets that this host runs, by name."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:
        return []
    return [f for f in __cpu_dispatch__
            if (f == "X86_V4" or f.startswith("AVX512")) and __cpu_features__.get(f)]


# Runs the golden diffuse and codec commands in one process and prints their
# digests, the state of the named NumPy dispatch targets and the kernel that
# NumPy's bundled OpenBLAS runs (null where it cannot be read) as JSON.
DISPATCH_SCRIPT = """
import contextlib, ctypes, io, json, sys, tempfile, types
from pathlib import Path
import numpy
from numpy._core._multiarray_umath import __cpu_features__
import test_cli

def openblas_corename():
    for lib in sorted((Path(numpy.__file__).resolve().parent.parent / "numpy.libs").glob("*openblas*")):
        try:
            get = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_char_p
        return get().decode()
    return None

class Captured:
    def __init__(self):
        self.out, self.err = io.StringIO(), io.StringIO()

    def readouterr(self):
        out, err = self.out.getvalue(), self.err.getvalue()
        for stream in (self.out, self.err):
            stream.seek(0)
            stream.truncate()
        return types.SimpleNamespace(out=out, err=err)

runs = [(test_cli.golden_run, kind) for kind in test_cli.GOLDEN]
runs += [(test_cli.golden_codec_run, kind) for kind in test_cli.GOLDEN_CODEC]
captured, digests = Captured(), {}
with contextlib.redirect_stdout(captured.out), contextlib.redirect_stderr(captured.err):
    for golden, kind in runs:
        with tempfile.TemporaryDirectory() as tmp:
            digests[kind] = golden(Path(tmp), captured, kind)
features = {f: bool(__cpu_features__.get(f)) for f in sys.argv[1:]}
print(json.dumps({"digests": digests, "features": features, "corename": openblas_corename()}))
"""


def golden_in_subprocess(tmp_path, env, targets=()):
    """DISPATCH_SCRIPT's JSON, run with ``env`` added to this process's environment."""
    src = str(Path(vqdiff.__file__).resolve().parents[1])
    tests = str(Path(__file__).resolve().parent)
    env = {**os.environ, **env,
           "PYTHONPATH": os.pathsep.join([src, tests, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", DISPATCH_SCRIPT, *targets], env=env,
                          cwd=tmp_path, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


class TestCpuDispatch:
    """What README's Determinism section says holds across NumPy's CPU dispatch
    and OpenBLAS's kernels."""

    def test_golden_outputs_without_avx512_kernels(self, tmp_path):
        targets = avx512_dispatch_targets()
        if not targets:
            pytest.skip("this host runs none of NumPy's AVX-512 kernels")
        result = golden_in_subprocess(tmp_path, {"NPY_DISABLE_CPU_FEATURES": " ".join(targets)},
                                      targets)
        assert not any(result["features"].values())  # the kernels really were off
        digests = result["digests"]
        for kind, golden in GOLDEN.items():
            # the trained weights may take other last bits from exp, log and
            # log1p; the printed losses, sampled tokens and VLB may not
            assert digests[kind].keys() == golden.keys()
            assert {k for k in golden if digests[kind][k] != golden[k]} <= {"train.out"}
        for kind, golden in GOLDEN_CODEC.items():
            assert digests[kind] == golden

    def test_golden_outputs_under_the_haswell_blas_kernel(self, tmp_path):
        from numpy._core._multiarray_umath import __cpu_features__

        if not (__cpu_features__.get("AVX2") and __cpu_features__.get("FMA3")):
            pytest.skip("this host cannot run OpenBLAS's Haswell kernel")
        result = golden_in_subprocess(tmp_path, {"OPENBLAS_CORETYPE": "Haswell"})
        if result["corename"] is None:
            pytest.skip("NumPy's bundled OpenBLAS does not report its kernel")
        assert result["corename"] == "Haswell"  # the switch took effect
        # the trained weights and the codec files alike keep every digest
        assert result["digests"] == {**GOLDEN, **GOLDEN_CODEC}


class TestSelftest:
    def test_selftest_passes(self, capsys):
        code, out, _ = invoke(capsys, "selftest", "--seed", "0")
        assert code == 0
        assert out.count("PASS") == 3
