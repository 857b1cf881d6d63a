import filecmp
import json
import os

import pytest

from venomguard.cli import DEFAULTS, main, parse_config_file, resolve_config
from venomguard.data_model import (
    FeatureMatrix,
    read_feature_matrix,
    read_records,
    write_feature_matrix,
    write_records,
)


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def make_dataset(capsys, directory, seed=3, classes=8, observations=120):
    code, out, _ = run(
        capsys,
        "synth",
        "--seed",
        str(seed),
        "--classes",
        str(classes),
        "--observations",
        str(observations),
        "-o",
        str(directory),
    )
    assert code == 0, out
    return directory


class TestConfigFile:
    def test_parses_values_comments_and_blanks(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# escalation\n"
            "tau = 0.25\n"
            "\n"
            "top_k = 3\n"
            "f1_all_classes = yes\n"
            "pdenom = errors\n"
        )
        cfg = parse_config_file(path)
        assert cfg == {
            "tau": 0.25,
            "top_k": 3,
            "f1_all_classes": True,
            "pdenom": "errors",
        }

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("escalation_tau = 0.5\n")
        with pytest.raises(ValueError, match="unknown config key"):
            parse_config_file(path)

    @pytest.mark.parametrize(
        "key",
        ["seesaw_p", "seesaw_q", "cost_hh", "cost_hv", "cost_vh", "cost_vv", "prob_clamp"],
    )
    def test_keys_no_command_reads_are_rejected(self, capsys, tmp_path, key):
        path = tmp_path / "run.cfg"
        path.write_text(f"{key} = 1.0\n")
        code, _, err = run(capsys, "gradcheck", "--config", str(path), "--loss", "ce")
        assert code == 1
        assert "unknown config key" in err

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("tau 0.5\n")
        with pytest.raises(ValueError, match="key = value"):
            parse_config_file(path)

    def test_bad_boolean_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("f1_all_classes = maybe\n")
        with pytest.raises(ValueError, match="boolean"):
            parse_config_file(path)

    def test_flag_beats_file_beats_default(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_text("tau = 0.9\n")
        resolved = resolve_config(str(path), {"tau": None})
        assert resolved["tau"] == 0.9
        resolved = resolve_config(str(path), {"tau": 0.3})
        assert resolved["tau"] == 0.3
        resolved = resolve_config(None, {"tau": None})
        assert resolved["tau"] == DEFAULTS["tau"]
        capsys.readouterr()

    def test_resolution_logged_to_stderr(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_text("tau = 0.9\n")
        resolve_config(str(path), {})
        _, err = capsys.readouterr()
        assert "config tau = 0.9" in err
        assert "config top_k = 5" in err


class TestUsage:
    def test_no_arguments_is_usage_error(self, capsys):
        code, _, err = run(capsys)
        assert code == 1

    def test_unknown_subcommand_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "explain")
        assert code == 1

    def test_missing_required_option_is_usage_error(self, capsys, tmp_path):
        code, _, _ = run(capsys, "synth")  # no -o
        assert code == 1


class TestPipeline:
    def test_end_to_end(self, capsys, tmp_path):
        data = make_dataset(capsys, tmp_path / "data")

        code, out, _ = run(capsys, "validate", str(data))
        assert code == 0
        assert "dropped=0" in out

        pca_path = tmp_path / "pca.bin"
        code, out, _ = run(
            capsys, "pca", str(data / "metadata_features.vgf1"), "-k", "4", "-o", str(pca_path)
        )
        assert code == 0
        assert "pca k=4" in out

        prior_path = tmp_path / "prior.bin"
        code, out, _ = run(
            capsys,
            "train-prior",
            str(data),
            "--pca",
            str(pca_path),
            "-o",
            str(prior_path),
            "--epochs",
            "3",
            "--batch",
            "32",
            "--hidden",
            "8",
            "--base-lr",
            "5e-3",
            "--warmup-lr",
            "5e-5",
        )
        assert code == 0, out
        assert "trained epochs=3" in out
        assert prior_path.exists()
        trace = (tmp_path / "prior.bin.trace.csv").read_text().splitlines()
        assert trace[0] == "epoch,mean_loss"
        assert len(trace) == 4

        preds = tmp_path / "preds.csv"
        code, out, _ = run(
            capsys,
            "infer",
            str(data),
            "--prior",
            str(prior_path),
            "--tau",
            "0.2",
            "-o",
            str(preds),
        )
        assert code == 0
        assert "predicted 120 observations" in out

        report_json_path = tmp_path / "report.json"
        code, out, _ = run(
            capsys,
            "score",
            "--truth",
            str(data / "truth.csv"),
            "--pred",
            str(preds),
            "--classes",
            str(data / "classes.csv"),
            "--json",
            str(report_json_path),
        )
        assert code == 0
        assert "composite" in out
        assert "macro_f1" in out
        payload = json.loads(report_json_path.read_text())
        assert payload["n_observations"] == 120
        assert 0.0 <= payload["composite"] <= 100.0

    def test_perfect_predictions_score_hundred(self, capsys, tmp_path):
        data = make_dataset(capsys, tmp_path / "data")
        code, out, _ = run(
            capsys,
            "score",
            "--truth",
            str(data / "truth.csv"),
            "--pred",
            str(data / "truth.csv"),
            "--classes",
            str(data / "classes.csv"),
        )
        assert code == 0
        assert "composite        100.0000" in out

    def test_non_integer_predicted_class_exits_two(self, capsys, tmp_path):
        data = make_dataset(capsys, tmp_path / "data")
        preds = tmp_path / "preds.csv"
        preds.write_text("observation_id,class_id\nobs_1,x\n")
        code, _, err = run(
            capsys,
            "score",
            "--truth",
            str(data / "truth.csv"),
            "--pred",
            str(preds),
            "--classes",
            str(data / "classes.csv"),
        )
        assert code == 2
        assert "preds.csv:2: bad class_id 'x'" in err

    def test_observation_without_prediction_exits_two(self, capsys, tmp_path):
        # the truth file minus its last row, scored as predictions
        data = make_dataset(capsys, tmp_path / "data")
        truth = (data / "truth.csv").read_text().splitlines()
        preds = tmp_path / "preds.csv"
        preds.write_text("\n".join(truth[:-1]) + "\n")
        dropped = truth[-1].split(",")[0]
        code, _, err = run(
            capsys,
            "score",
            "--truth",
            str(data / "truth.csv"),
            "--pred",
            str(preds),
            "--classes",
            str(data / "classes.csv"),
        )
        assert code == 2
        assert f"missing predictions for ['{dropped}']" in err

    def test_no_escalate_equals_tau_zero(self, capsys, tmp_path):
        data = make_dataset(capsys, tmp_path / "data")
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(capsys, "infer", str(data), "--no-escalate", "-o", str(a))[0] == 0
        assert run(capsys, "infer", str(data), "--tau", "0.0", "-o", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_explain_columns_present(self, capsys, tmp_path):
        data = make_dataset(capsys, tmp_path / "data")
        preds = tmp_path / "preds.csv"
        code, _, _ = run(capsys, "infer", str(data), "--explain", "-o", str(preds))
        assert code == 0
        header = preds.read_text().splitlines()[0]
        assert header == "observation_id,class_id,pre_escalation_class_id,confidence"

    def test_probability_mode_rejects_signed_scores(self, capsys, tmp_path):
        # synthetic image scores are logits and contain negatives
        data = make_dataset(capsys, tmp_path / "data")
        code, _, err = run(
            capsys,
            "infer",
            str(data),
            "--probabilities",
            "-o",
            str(tmp_path / "p.csv"),
        )
        assert code == 1
        assert "non-negative" in err

    def test_config_file_drives_inference(self, capsys, tmp_path):
        data = make_dataset(capsys, tmp_path / "data")
        cfg = tmp_path / "run.cfg"
        cfg.write_text("tau = 0.9\ntop_k = 2\n")
        with_flag = tmp_path / "flag.csv"
        with_file = tmp_path / "file.csv"
        code, _, err = run(
            capsys,
            "infer",
            str(data),
            "--config",
            str(cfg),
            "-o",
            str(with_file),
        )
        assert code == 0
        assert "config tau = 0.9" in err
        code, _, err = run(
            capsys,
            "infer",
            str(data),
            "--config",
            str(cfg),
            "--tau",
            "0.0",
            "-o",
            str(with_flag),
        )
        assert code == 0
        assert "config tau = 0.0" in err
        assert with_file.read_bytes() != with_flag.read_bytes()

    def test_unknown_config_key_exits_one(self, capsys, tmp_path):
        data = make_dataset(capsys, tmp_path / "data")
        cfg = tmp_path / "run.cfg"
        cfg.write_text("threshold = 0.5\n")
        code, _, err = run(
            capsys, "infer", str(data), "--config", str(cfg), "-o", str(tmp_path / "p.csv")
        )
        assert code == 1
        assert "unknown config key" in err


class TestValidateCommand:
    def test_strict_failure_exits_two(self, capsys, tmp_path):
        data = make_dataset(capsys, tmp_path / "data")
        obs = data / "observations.csv"
        obs.write_text(obs.read_text() + "obs_bad,99999,0,loc_00000\n")
        code, _, err = run(capsys, "validate", str(data))
        assert code == 2
        assert "unresolved" in err

    def test_drop_mode_reports_and_exits_zero(self, capsys, tmp_path):
        data = make_dataset(capsys, tmp_path / "data")
        obs = data / "observations.csv"
        obs.write_text(obs.read_text() + "obs_bad,99999,0,loc_00000\n")
        code, out, _ = run(capsys, "validate", str(data), "--mode", "drop")
        assert code == 0
        assert "dropped=1" in out

    def test_malformed_csv_exits_two(self, capsys, tmp_path):
        data = make_dataset(capsys, tmp_path / "data")
        (data / "classes.csv").write_text("class_id,name,venomous\n0,a,maybe\n")
        code, _, err = run(capsys, "validate", str(data))
        assert code == 2

    def test_nul_in_manifest_exits_two(self, capsys, tmp_path):
        data = make_dataset(capsys, tmp_path / "data")
        lines = (data / "observations.csv").read_text().splitlines()
        lines[3] = "\x00" + lines[3]
        (data / "observations.csv").write_text("\n".join(lines) + "\n")
        code, _, err = run(capsys, "validate", str(data))
        assert code == 2
        assert "observations.csv:4: NUL character in a field" in err

    def test_missing_directory_exits_three(self, capsys, tmp_path):
        code, _, _ = run(capsys, "validate", str(tmp_path / "nope"))
        assert code == 3

    def test_score_width_unlike_class_count_exits_two(self, capsys, tmp_path):
        data = make_dataset(capsys, tmp_path / "data", classes=6, observations=60)
        scores = data / "image_scores.vgf1"
        write_feature_matrix(FeatureMatrix(read_feature_matrix(scores).values[:, :4]), scores)
        for mode in ("strict", "drop"):
            code, _, err = run(capsys, "validate", str(data), "--mode", mode)
            assert code == 2
            assert "image scores have 4 columns for 6 classes" in err
        code, _, _ = run(capsys, "infer", str(data), "-o", str(tmp_path / "preds.csv"))
        assert code == 2

    def test_embedding_rows_unlike_image_rows_exit_two(self, capsys, tmp_path):
        data = make_dataset(capsys, tmp_path / "data", classes=6, observations=60)
        emb = data / "embeddings.vgf1"
        write_feature_matrix(FeatureMatrix(read_feature_matrix(emb).values[:10]), emb)
        for mode in ("strict", "drop"):
            code, _, err = run(capsys, "validate", str(data), "--mode", mode)
            assert code == 2
            assert "embeddings have 10 rows" in err
        pca_path = tmp_path / "pca.bin"
        code, _, _ = run(
            capsys, "pca", str(data / "metadata_features.vgf1"), "-k", "4", "-o", str(pca_path)
        )
        assert code == 0
        code, _, err = run(
            capsys, "train-prior", str(data), "--pca", str(pca_path),
            "-o", str(tmp_path / "prior.bin"), "--epochs", "1",
        )
        assert code == 2
        assert "embeddings have 10 rows" in err


class TestFormatErrors:
    def test_bad_magic_exits_three(self, capsys, tmp_path):
        bad = tmp_path / "bad.vgf1"
        bad.write_bytes(b"XXXX" + b"\x00" * 16)
        code, _, err = run(capsys, "pca", str(bad), "-o", str(tmp_path / "p.bin"))
        assert code == 3
        assert "magic" in err

    def test_oversized_header_exits_three(self, capsys, tmp_path):
        # 20 bytes that declare 2**40 x 2**20 float32 values
        bad = tmp_path / "huge.vgf1"
        header = (2**40).to_bytes(8, "little") + (2**20).to_bytes(8, "little")
        bad.write_bytes(b"VGF1" + header)
        code, _, err = run(capsys, "pca", str(bad), "-o", str(tmp_path / "p.bin"))
        assert code == 3
        assert "only 0 bytes remain" in err

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_oversized_header_on_a_pipe_exits_three(self, capsys, tmp_path):
        r, w = os.pipe()
        header = (2**40).to_bytes(8, "little") + (2**20).to_bytes(8, "little")
        os.write(w, b"VGF1" + header)
        os.close(w)
        try:
            code, _, err = run(capsys, "pca", f"/dev/fd/{r}", "-o", str(tmp_path / "p.bin"))
        finally:
            os.close(r)
        assert code == 3
        assert "truncated payload" in err

    def test_missing_feature_file_exits_three(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, "pca", str(tmp_path / "missing.vgf1"), "-o", str(tmp_path / "p.bin")
        )
        assert code == 3

    def artifacts(self, capsys, tmp_path):
        data = make_dataset(capsys, tmp_path / "data")
        pca_path, prior_path = tmp_path / "pca.bin", tmp_path / "prior.bin"
        code, _, _ = run(
            capsys, "pca", str(data / "metadata_features.vgf1"), "-k", "4", "-o", str(pca_path)
        )
        assert code == 0
        code, _, _ = run(
            capsys, "train-prior", str(data), "--pca", str(pca_path),
            "-o", str(prior_path), "--epochs", "1", "--hidden", "8",
        )
        assert code == 0
        return data, pca_path, prior_path

    def test_prior_artifact_as_pca_exits_three(self, capsys, tmp_path):
        data, _, prior_path = self.artifacts(capsys, tmp_path)
        code, _, err = run(
            capsys, "train-prior", str(data), "--pca", str(prior_path),
            "-o", str(tmp_path / "again.bin"), "--epochs", "1",
        )
        assert code == 3
        assert "trailing bytes after 3 records" in err

    def test_pca_artifact_as_prior_exits_three(self, capsys, tmp_path):
        data, pca_path, _ = self.artifacts(capsys, tmp_path)
        code, _, err = run(
            capsys, "infer", str(data), "--prior", str(pca_path),
            "-o", str(tmp_path / "preds.csv"),
        )
        assert code == 3
        assert "holds 3 records, expected 7" in err

    def test_pca_mean_wider_than_components_exits_three(self, capsys, tmp_path):
        data, pca_path, _ = self.artifacts(capsys, tmp_path)
        mean, components, eigenvalues = read_records(pca_path, 3)
        wider = FeatureMatrix([mean.values[0].tolist() + [0.0]])
        write_records(pca_path, [wider, components, eigenvalues])
        code, _, err = run(
            capsys, "train-prior", str(data), "--pca", str(pca_path),
            "-o", str(tmp_path / "prior.bin"), "--epochs", "1",
        )
        assert code == 3
        assert "pca mean record is 1x9, expected 1x8" in err

    def test_bad_k_exits_one(self, capsys, tmp_path):
        data = make_dataset(capsys, tmp_path / "data")
        code, _, err = run(
            capsys,
            "pca",
            str(data / "metadata_features.vgf1"),
            "-k",
            "999",
            "-o",
            str(tmp_path / "p.bin"),
        )
        assert code == 1
        assert "out of range" in err


class TestModelDoesNotFitData:
    """A model applied to a dataset it does not fit exits 2, naming both sizes."""

    def train(self, capsys, tmp_path, data, name):
        pca_path, prior_path = tmp_path / f"{name}.pca", tmp_path / f"{name}.prior"
        code, _, _ = run(
            capsys, "pca", str(data / "metadata_features.vgf1"), "-k", "4", "-o", str(pca_path)
        )
        assert code == 0
        code, _, _ = run(
            capsys, "train-prior", str(data), "--pca", str(pca_path),
            "-o", str(prior_path), "--epochs", "1", "--hidden", "8",
        )
        assert code == 0
        return pca_path, prior_path

    def test_prior_with_other_class_count_exits_two(self, capsys, tmp_path):
        eight = make_dataset(capsys, tmp_path / "eight", classes=8)
        ten = make_dataset(capsys, tmp_path / "ten", classes=10)
        _, prior_path = self.train(capsys, tmp_path, eight, "eight")
        code, _, err = run(
            capsys, "infer", str(ten), "--prior", str(prior_path),
            "-o", str(tmp_path / "preds.csv"),
        )
        assert code == 2
        assert "prior scores 8 classes, the dataset has 10" in err

    def test_pca_fitted_on_other_metadata_width_exits_two(self, capsys, tmp_path):
        config = tmp_path / "six.cfg"
        config.write_text("synth_dims_meta = 6\n")
        code, _, _ = run(capsys, "synth", "--config", str(config), "--observations", "120",
                         "--classes", "8", "-o", str(tmp_path / "six"))
        assert code == 0
        pca_path, prior_path = self.train(capsys, tmp_path, tmp_path / "six", "six")
        data = make_dataset(capsys, tmp_path / "data")  # 8 metadata dims
        code, _, err = run(
            capsys, "train-prior", str(data), "--pca", str(pca_path),
            "-o", str(tmp_path / "prior.bin"), "--epochs", "1",
        )
        assert code == 2
        assert "PCA was fitted on 6 metadata dims, the data has 8" in err
        code, _, err = run(
            capsys, "infer", str(data), "--prior", str(prior_path),
            "-o", str(tmp_path / "preds.csv"),
        )
        assert code == 2
        assert "PCA was fitted on 6 metadata dims, the data has 8" in err


class TestGradcheckCommand:
    def test_single_loss_passes(self, capsys):
        code, out, _ = run(capsys, "gradcheck", "--loss", "ce", "--trials", "3")
        assert code == 0
        assert out.startswith("ce: trials=3")
        assert "PASS" in out

    def test_all_losses_by_default(self, capsys):
        code, out, _ = run(capsys, "gradcheck", "--trials", "2")
        assert code == 0
        for name in ("ce", "seesaw", "rwwce", "loc"):
            assert f"{name}:" in out


class TestSynthCommand:
    def test_same_seed_is_byte_identical(self, capsys, tmp_path):
        a = make_dataset(capsys, tmp_path / "a", seed=11)
        b = make_dataset(capsys, tmp_path / "b", seed=11)
        files = sorted(p.name for p in a.iterdir())
        assert files == sorted(p.name for p in b.iterdir())
        for name in files:
            assert filecmp.cmp(a / name, b / name, shallow=False), name

    def test_different_seed_differs(self, capsys, tmp_path):
        a = make_dataset(capsys, tmp_path / "a", seed=11)
        b = make_dataset(capsys, tmp_path / "b", seed=12)
        assert not filecmp.cmp(
            a / "image_scores.vgf1", b / "image_scores.vgf1", shallow=False
        )

    def test_summary_line(self, capsys, tmp_path):
        code, out, _ = run(
            capsys,
            "synth",
            "--seed",
            "5",
            "--classes",
            "6",
            "--observations",
            "60",
            "-o",
            str(tmp_path / "d"),
        )
        assert code == 0
        assert "wrote 60 observations" in out
        assert "head=" in out and "tail=" in out
