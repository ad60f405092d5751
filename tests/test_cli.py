"""CLI behaviour: exit codes, error stream, reproducibility, file safety."""

import json
import math

import numpy as np
import pytest

from vqdiff.cli import run
from vqdiff.schedules import linear_schedule, load_schedule, save_schedule
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


class TestTransitionsCommand:
    def test_check_passes(self, capsys):
        code, out, _ = invoke(
            capsys, "transitions", "check", "--K", "3", "--T", "5", "--seed", "0"
        )
        assert code == 0
        assert "PASS" in out


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


    def test_fit_overflow_is_exit_one(self, capsys, tmp_path):
        feats = tmp_path / "huge.csv"
        write_csv(feats, np.random.default_rng(0).normal(size=(50, 2)) * 1e200)
        out = tmp_path / "codec.json"
        code, _, err = invoke(
            capsys, "codec", "fit", "--features", str(feats),
            "--kind", "VQ", "--Kp", "4", "--iters", "5", "--seed", "0",
            "--out", str(out),
        )
        assert code == 1
        assert err.startswith("error:") and "overflow" in err
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


class TestSelftest:
    def test_selftest_passes(self, capsys):
        code, out, _ = invoke(capsys, "selftest", "--seed", "0")
        assert code == 0
        assert out.count("PASS") == 3
