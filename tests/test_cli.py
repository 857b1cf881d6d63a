import codecs
import filecmp
import json
import os

import pytest

from venomguard.cli import DEFAULTS, parse_config_file, resolve_config
from venomguard.data_model import FeatureMatrix, read_records, write_records

from conftest import piped, quoted, readme_key_flags, run, setting_actions


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
            "prior_epochs = 12\n"
            "base_lr = 1e-3\n"
        )
        cfg = parse_config_file(path)
        assert cfg == {
            "tau": 0.25,
            "top_k": 3,
            "prior_epochs": 12,
            "base_lr": 1e-3,
        }

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("escalation_tau = 0.5\n")
        with pytest.raises(ValueError, match="unknown config key"):
            parse_config_file(path)

    @pytest.mark.parametrize(
        "key",
        [
            "seesaw_p", "seesaw_q", "cost_hh", "cost_hv", "cost_vh", "cost_vv", "prob_clamp",
            # the metric's weights and denominators are fixed
            "pdenom", "f1_all_classes", "w1", "w2", "w3", "w4", "w5",
        ],
    )
    def test_keys_no_command_reads_are_rejected(self, capsys, tmp_path, key):
        path = tmp_path / "run.cfg"
        path.write_text(f"{key} = 1.0\n")
        code, _, err = run(capsys, "gradcheck", "--config", str(path), "--trials", "1")
        assert code == 1
        assert err.splitlines()[-1] == f"error: {path}:1: unknown config key {key!r}"

    def test_repeated_key_names_file_and_both_lines(self, capsys, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("tau = 0.5\n# escalation\ntop_k = 3\ntau = 0.7\n")
        with pytest.raises(ValueError) as caught:
            parse_config_file(path)
        assert str(caught.value) == f"{path}:4: config key 'tau' repeats line 1"
        code, _, err = run(capsys, "gradcheck", "--config", str(path), "--trials", "1")
        assert code == 1
        assert err.splitlines()[-1] == f"error: {path}:4: config key 'tau' repeats line 1"

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("tau 0.5\n")
        with pytest.raises(ValueError, match="key = value"):
            parse_config_file(path)

    def test_byte_order_mark_is_dropped(self, tmp_path):
        # as a manifest's is
        path = tmp_path / "bom.cfg"
        path.write_bytes(codecs.BOM_UTF8 + b"pca_k = 4\ntau = 0.5\n")
        assert parse_config_file(path) == {"pca_k": 4, "tau": 0.5}

    def test_byte_not_utf8_names_file_and_line(self, capsys, tmp_path):
        path = tmp_path / "latin1.cfg"
        path.write_bytes(b"tau = 0.5\r\n# caf\xe9\npca_k = 4\n")
        with pytest.raises(ValueError) as caught:
            parse_config_file(path)
        assert str(caught.value) == f"{path}:2: byte 0xe9 is not UTF-8"
        code, _, err = run(capsys, "gradcheck", "--config", str(path), "--trials", "1")
        assert code == 1
        assert f"error: {path}:2: byte 0xe9 is not UTF-8" in err

    def test_byte_not_utf8_is_numbered_by_line_ends_only(self, tmp_path):
        # \v breaks str.splitlines() lines, not a manifest's or an editor's
        path = tmp_path / "vt.cfg"
        path.write_bytes(b"a\x0bb\xff\n")
        with pytest.raises(ValueError) as caught:
            parse_config_file(path)
        assert str(caught.value) == f"{path}:1: byte 0xff is not UTF-8"

    @pytest.mark.parametrize("separator", ["\f", "\v", "\x1c", "\x85", "\u2028", "\u2029"])
    def test_only_cr_and_lf_end_a_line(self, capsys, tmp_path, separator):
        # a form feed does not split "seed = 1" from "pca_k = 2": one line,
        # whose seed value is not an integer
        path = tmp_path / "ff.cfg"
        path.write_text(f"seed = 1{separator}pca_k = 2\n", encoding="utf-8")
        with pytest.raises(ValueError) as caught:
            parse_config_file(path)
        assert str(caught.value).startswith(f"{path}:1: config key seed: expected an integer")
        code, _, err = run(capsys, "gradcheck", "--config", str(path), "--trials", "1")
        assert code == 1
        assert f"error: {path}:1: config key seed" in err

    def test_line_ends_number_lines_as_in_manifests(self, tmp_path):
        path = tmp_path / "ends.cfg"
        path.write_bytes(b"tau = 0.5\r\n# a\rpca_k = 4\ntop_k = x\n")
        with pytest.raises(ValueError) as caught:
            parse_config_file(path)
        assert str(caught.value).startswith(f"{path}:4: config key top_k")

    @pytest.mark.parametrize(
        "line, message",
        [
            ("pca_k = 8.0", "config key pca_k: expected an integer, got '8.0'"),
            ("top_k =", "config key top_k: expected an integer, got ''"),
            ("tau = abc", "config key tau: expected a number, got 'abc'"),
            ("seed = true", "config key seed: expected an integer, got 'true'"),
        ],
    )
    def test_value_of_the_wrong_type_names_file_line_and_key(self, tmp_path, line, message):
        path = tmp_path / "run.cfg"
        path.write_text(f"# settings\ntau = 0.5\n{line}\n")
        with pytest.raises(ValueError) as caught:
            parse_config_file(path)
        assert str(caught.value) == f"{path}:3: {message}"

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

    def test_overrides_that_name_no_key_are_ignored(self, capsys):
        resolved = resolve_config(None, {"output": "preds.csv", "tau": 0.3, "top_k": None})
        capsys.readouterr()
        assert resolved == {**DEFAULTS, "tau": 0.3}


# dests of options that name files or switch behaviour, not config keys
NON_SETTING_DESTS = {
    "help", "config", "output", "trace", "pca", "prior", "explain", "truth", "pred",
    "classes", "json", "trials", "mode",
}
# keys only a --config file sets, as the README's key/flag table lists them
FILE_ONLY_KEYS = {key for key, flags in readme_key_flags().items() if not flags}


class TestParserNamesConfigKeys:
    """Each setting flag writes its config key, so resolve_config needs no
    per-command table; a misspelled dest would be dropped silently."""

    def test_every_option_dest_is_a_key_or_a_known_non_setting(self):
        unknown = {
            (name, action.dest)
            for name, action in setting_actions()
            if action.dest not in DEFAULTS and action.dest not in NON_SETTING_DESTS
        }
        assert unknown == set()

    def test_every_key_is_set_by_a_flag_or_file_only(self):
        flagged = {action.dest for _, action in setting_actions()} & DEFAULTS.keys()
        assert flagged.isdisjoint(FILE_ONLY_KEYS)
        assert flagged | FILE_ONLY_KEYS == DEFAULTS.keys()

    def test_readme_table_names_each_flag_and_its_key(self):
        table = readme_key_flags()
        assert table.keys() == DEFAULTS.keys()
        listed = {(name, flag): key for key, flags in table.items() for name, flag in flags}
        parsed = {
            (name, flag): action.dest
            for name, action in setting_actions()
            for flag in action.option_strings
            if action.dest in DEFAULTS or (name, flag) in listed
        }
        assert listed == parsed

    def test_setting_flags_parse_to_the_type_of_their_default(self):
        for name, action in setting_actions():
            if action.dest in DEFAULTS and action.type is not None:
                assert action.type is type(DEFAULTS[action.dest]), (name, action.dest)


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

    @pytest.mark.parametrize("which", ["truth", "pred"])
    @pytest.mark.parametrize("bad", ["-1", "999"])
    def test_class_id_outside_class_range_exits_two(self, capsys, tmp_path, which, bad):
        data = make_dataset(capsys, tmp_path / "data")
        header, first, *rest = (data / "truth.csv").read_text().splitlines()
        obs_id = first.split(",")[0]
        edited = tmp_path / f"{which}.csv"
        edited.write_text("\n".join([header, f"{obs_id},{bad}", *rest]) + "\n")
        files = {"truth": data / "truth.csv", "pred": data / "truth.csv", which: edited}
        code, _, err = run(
            capsys,
            "score",
            "--truth",
            str(files["truth"]),
            "--pred",
            str(files["pred"]),
            "--classes",
            str(data / "classes.csv"),
        )
        assert code == 2
        assert f"{edited}: observation {obs_id} has class id {bad}, outside [0, 8)" in err

    def test_header_only_truth_exits_two(self, capsys, tmp_path):
        classes = tmp_path / "classes.csv"
        classes.write_text("class_id,name,venomous\n0,adder,1\n1,grass snake,0\n")
        truth = tmp_path / "truth.csv"
        truth.write_text("observation_id,class_id\n")
        code, _, err = run(
            capsys, "score", "--truth", str(truth), "--pred", str(truth),
            "--classes", str(classes),
        )
        assert code == 2
        assert f"{truth}: no observations to score" in err

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_bad_row_of_a_truth_pipe_exits_two(self, capsys, tmp_path):
        # the row's line comes from the bytes already read: a pipe has no more
        data = make_dataset(capsys, tmp_path / "data")
        with piped(b"observation_id,class_id\nobs_1,x\n") as truth:
            code, _, err = run(
                capsys, "score", "--truth", truth, "--pred", str(data / "truth.csv"),
                "--classes", str(data / "classes.csv"),
            )
        assert code == 2
        assert f"{truth}:2: bad class_id 'x'" in err

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_quoted_manifests_through_pipes_score_as_from_disk(self, capsys, tmp_path):
        # plain files are split at their byte offsets and quoted ones read by
        # csv.reader, each from the bytes already read
        data = make_dataset(capsys, tmp_path / "data")
        header, *rows = (data / "truth.csv").read_text().splitlines()
        lines = [header]
        for k, row in enumerate(rows):  # every third prediction right
            obs_id, class_id = row.split(",")
            lines.append(f"{obs_id},{(int(class_id) + k % 3) % 8}")
        preds = tmp_path / "preds.csv"
        preds.write_text("\n".join(lines) + "\n")

        def score(truth, classes, report):
            code, out, err = run(
                capsys, "score", "--truth", str(truth), "--pred", str(preds),
                "--classes", str(classes), "--json", str(report),
            )
            assert code == 0, err
            return out, report.read_bytes()

        disk = score(data / "truth.csv", data / "classes.csv", tmp_path / "disk.json")
        for spell in (lambda path: path.read_bytes(), quoted):
            with (
                piped(spell(data / "truth.csv")) as truth,
                piped(spell(data / "classes.csv")) as classes,
            ):
                assert score(truth, classes, tmp_path / "pipe.json") == disk
        assert "composite        100.0000" not in disk[0]

    def test_explain_columns_present(self, capsys, tmp_path):
        data = make_dataset(capsys, tmp_path / "data")
        preds = tmp_path / "preds.csv"
        code, _, _ = run(capsys, "infer", str(data), "--explain", "-o", str(preds))
        assert code == 0
        header = preds.read_text().splitlines()[0]
        assert header == "observation_id,class_id,pre_escalation_class_id,confidence"

    @pytest.mark.parametrize(
        "command, removed",
        [
            ("infer", ["--no-escalate"]),
            ("infer", ["--probabilities"]),
            ("score", ["--pdenom", "status"]),
            ("score", ["--f1-all-classes"]),
        ],
        ids=["no-escalate", "probabilities", "pdenom", "f1-all-classes"],
    )
    def test_removed_flags_are_usage_errors(self, capsys, command, removed):
        # --tau 0 gives plain argmax decisions, image scores are logits, and
        # the metric's denominators and F1 classes are fixed
        required = {
            "infer": ["data", "-o", "p.csv"],
            "score": ["--truth", "t.csv", "--pred", "p.csv", "--classes", "c.csv"],
        }[command]
        code, out, err = run(capsys, command, *required, *removed)
        assert code == 1
        assert out == ""
        assert err.splitlines()[-1] == f"error: unrecognized arguments: {' '.join(removed)}"

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

    @pytest.mark.parametrize(
        "line, message",
        [
            ("pca_k = 8.0", "config key pca_k: expected an integer, got '8.0'"),
            ("tau = abc", "config key tau: expected a number, got 'abc'"),
        ],
    )
    def test_config_value_of_the_wrong_type_exits_one(self, capsys, tmp_path, line, message):
        data = make_dataset(capsys, tmp_path / "data")
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        out = tmp_path / "pca.bin"
        code, _, err = run(
            capsys, "pca", str(data / "metadata_features.vgf1"), "--config", str(cfg),
            "-o", str(out),
        )
        assert code == 1
        assert err.splitlines()[-1] == f"error: {cfg}:1: {message}"
        assert not out.exists()


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

    @pytest.mark.parametrize("command", ["validate", "infer", "train-prior", "score"])
    def test_non_utf8_manifest_exits_two(self, capsys, tmp_path, command):
        data = make_dataset(capsys, tmp_path / "data")
        pca_path = tmp_path / "pca.bin"
        code, _, _ = run(
            capsys, "pca", str(data / "metadata_features.vgf1"), "-k", "4", "-o", str(pca_path)
        )
        assert code == 0
        # score reads no observations.csv; it gets a damaged prediction file
        source = data / ("truth.csv" if command == "score" else "observations.csv")
        damaged = tmp_path / "preds.csv" if command == "score" else source
        lines = source.read_bytes().split(b"\n")
        lines[3] = b"\xff" + lines[3]
        damaged.write_bytes(b"\n".join(lines))
        argv = {
            "validate": ["validate", str(data)],
            "infer": ["infer", str(data), "-o", str(tmp_path / "out.csv")],
            "train-prior": ["train-prior", str(data), "--pca", str(pca_path),
                            "-o", str(tmp_path / "prior.bin"), "--epochs", "1"],
            "score": ["score", "--truth", str(source), "--pred", str(damaged),
                      "--classes", str(data / "classes.csv")],
        }[command]
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert f"{damaged}:4: byte 0xff is not UTF-8" in err

    def test_over_long_header_field_exits_two(self, capsys, tmp_path):
        data = make_dataset(capsys, tmp_path / "data")
        classes = data / "classes.csv"
        header, rest = classes.read_text().split("\n", 1)
        # an extra column whose name is past csv.reader's 131072-character limit
        classes.write_text(f"{header},{'x' * 131073}\n{rest}")
        code, _, err = run(capsys, "validate", str(data))
        assert code == 2
        assert f"{classes}:1: field larger than field limit" in err
        assert "Traceback" not in err

    def test_over_long_field_in_a_well_formed_file_exits_two(self, capsys, tmp_path):
        data = make_dataset(capsys, tmp_path / "data")
        classes = data / "classes.csv"
        lines = classes.read_text().splitlines()
        # a class name past csv.reader's 131072-character limit, in a file
        # whose rows are otherwise all good
        class_id, _, venomous = lines[2].split(",")
        lines[2] = f"{class_id},{'x' * 131073},{venomous}"
        classes.write_text("\n".join(lines) + "\n")
        code, _, err = run(capsys, "validate", str(data))
        assert code == 2
        assert f"{classes}:3: field larger than field limit" in err
        assert "Traceback" not in err

    def test_missing_directory_exits_three(self, capsys, tmp_path):
        code, _, _ = run(capsys, "validate", str(tmp_path / "nope"))
        assert code == 3

    def test_score_width_unlike_class_count_exits_two(self, capsys, tmp_path):
        data = make_dataset(capsys, tmp_path / "data", classes=6, observations=60)
        scores = data / "image_scores.vgf1"
        (matrix,) = read_records(scores, 1)
        write_records(scores, [FeatureMatrix(matrix.values[:, :4])])
        for mode in ("strict", "drop"):
            code, _, err = run(capsys, "validate", str(data), "--mode", mode)
            assert code == 2
            assert "image scores have 4 columns for 6 classes" in err
        code, _, _ = run(capsys, "infer", str(data), "-o", str(tmp_path / "preds.csv"))
        assert code == 2

    def test_embedding_rows_unlike_image_rows_exit_two(self, capsys, tmp_path):
        data = make_dataset(capsys, tmp_path / "data", classes=6, observations=60)
        emb = data / "embeddings.vgf1"
        (matrix,) = read_records(emb, 1)
        write_records(emb, [FeatureMatrix(matrix.values[:10])])
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

    def test_class_without_labeled_observation_exits_two(self, capsys, tmp_path):
        data = make_dataset(capsys, tmp_path / "data")
        obs = data / "observations.csv"
        header, *rows = obs.read_text().splitlines()
        fields = [row.split(",") for row in rows]
        rarest = min(range(8), key=lambda c: sum(f[2] == str(c) for f in fields))
        for f in fields:
            if f[2] == str(rarest):
                f[2] = ""  # unlabeled
        obs.write_text("\n".join([header, *map(",".join, fields)]) + "\n")
        pca_path = tmp_path / "pca.bin"
        code, _, _ = run(
            capsys, "pca", str(data / "metadata_features.vgf1"), "-k", "4", "-o", str(pca_path)
        )
        assert code == 0
        with pytest.warns(UserWarning, match="zero prototype columns"):
            code, _, err = run(
                capsys, "train-prior", str(data), "--pca", str(pca_path),
                "-o", str(tmp_path / "prior.bin"), "--epochs", "1",
            )
        assert code == 2
        assert f"classes with no labeled observation: [{rarest}]" in err


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

    def test_model_past_float32_range_exits_three_and_writes_nothing(self, capsys, tmp_path):
        # float32 inputs whose variance, about 6e76, float32 cannot hold
        features = tmp_path / "wide.vgf1"
        write_records(features, [FeatureMatrix([[3e38, 0.0], [-3e38, 0.0], [0.0, 1.0]])])
        out = tmp_path / "p.bin"
        code, _, err = run(capsys, "pca", str(features), "-k", "1", "-o", str(out))
        assert code == 3
        assert f"{out}: values beyond float32's range" in err
        assert not out.exists()

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
        with piped(prior_path.read_bytes()) as pipe:
            for pca in (str(prior_path), pipe):
                code, _, err = run(
                    capsys, "train-prior", str(data), "--pca", pca,
                    "-o", str(tmp_path / "again.bin"), "--epochs", "1",
                )
                assert code == 3
                assert f"error: {pca}: trailing bytes after 3 records" in err

    def test_pca_artifact_as_prior_exits_three(self, capsys, tmp_path):
        # a pipe ends where a fourth record would begin, as the file does
        data, pca_path, _ = self.artifacts(capsys, tmp_path)
        with piped(pca_path.read_bytes()) as pipe:
            for prior in (str(pca_path), pipe):
                code, _, err = run(
                    capsys, "infer", str(data), "--prior", prior,
                    "-o", str(tmp_path / "preds.csv"),
                )
                assert code == 3
                assert f"error: {prior}: holds 3 records, expected 7" in err

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


    @pytest.mark.parametrize(
        "flag, value, message",
        [("--hidden", "0", "hidden must be >= 1"),
         ("--dropout", "1.0", "dropout_rate must be in [0, 1)")],
    )
    def test_bad_prior_shape_exits_one(self, capsys, tmp_path, flag, value, message):
        data = make_dataset(capsys, tmp_path / "data")
        pca_path = tmp_path / "pca.bin"
        code, _, _ = run(
            capsys, "pca", str(data / "metadata_features.vgf1"), "-k", "4", "-o", str(pca_path)
        )
        assert code == 0
        code, _, err = run(
            capsys, "train-prior", str(data), "--pca", str(pca_path),
            "-o", str(tmp_path / "prior.bin"), "--epochs", "1", flag, value,
        )
        assert code == 1
        assert err.splitlines()[-1] == f"error: {message}"
        assert "Traceback" not in err

    def test_trace_onto_the_output_exits_one_before_reading_the_bundle(self, capsys, tmp_path):
        # the trace would overwrite the prior it follows
        (tmp_path / "sub").mkdir()
        trace = f"{tmp_path}/sub/../prior.bin"
        code, out, err = run(
            capsys, "train-prior", str(tmp_path / "nope"), "--pca", str(tmp_path / "pca.bin"),
            "-o", str(tmp_path / "prior.bin"), "--trace", trace,
        )
        assert code == 1
        assert out == ""
        assert err.splitlines()[-1] == (
            f"error: --trace {trace} is the output path {tmp_path / 'prior.bin'}"
        )
        assert not (tmp_path / "prior.bin").exists()

    def test_bad_prior_shape_exits_one_before_reading_the_bundle(self, capsys, tmp_path):
        # the bundle and the PCA are missing, which would exit 3 once read
        code, _, err = run(
            capsys, "train-prior", str(tmp_path / "nope"), "--pca", str(tmp_path / "pca.bin"),
            "-o", str(tmp_path / "prior.bin"), "--hidden", "0",
        )
        assert code == 1
        assert err.splitlines()[-1] == "error: hidden must be >= 1"
        assert not (tmp_path / "prior.bin").exists()


class TestNonFiniteSettings:
    """NaN, infinite and out-of-range settings exit 1 before any file is
    read: the inputs named here do not exist, which would exit 3 once read."""

    @pytest.mark.parametrize(
        "flags, config, message",
        [
            (["--base-lr", "nan"], "", "base_lr must be finite, got nan"),
            (["--lambda", "nan"], "", "lam must be finite, got nan"),
            (["--warmup-lr", "inf"], "", "warmup_lr must be finite, got inf"),
            ([], "beta2 = -inf\n", "beta2 must be finite, got -inf"),
            ([], "weight_decay = nan\n", "weight_decay must be finite, got nan"),
        ],
        ids=["base-lr-nan", "lambda-nan", "warmup-lr-inf", "beta2-minus-inf", "decay-nan"],
    )
    def test_train_prior(self, capsys, tmp_path, flags, config, message):
        path = tmp_path / "run.cfg"
        path.write_text(config)
        code, _, err = run(
            capsys, "train-prior", str(tmp_path / "nope"), "--pca", str(tmp_path / "pca.bin"),
            "-o", str(tmp_path / "prior.bin"), "--config", str(path), *flags,
        )
        assert code == 1
        assert err.splitlines()[-1] == f"error: {message}"
        assert not (tmp_path / "prior.bin").exists()

    @pytest.mark.parametrize(
        "flags, config, message",
        [
            (["--tau", "2"], "", "tau must be in [0, 1]"),
            (["--top-k", "0"], "", "top_k must be >= 1"),
            ([], "tau = nan\n", "tau must be in [0, 1]"),
        ],
        ids=["tau-2", "top-k-0", "tau-nan"],
    )
    def test_infer(self, capsys, tmp_path, flags, config, message):
        path = tmp_path / "run.cfg"
        path.write_text(config)
        preds = tmp_path / "preds.csv"
        code, out, err = run(
            capsys, "infer", str(tmp_path / "nope"), "--prior", str(tmp_path / "prior.bin"),
            "--config", str(path), "-o", str(preds), *flags,
        )
        assert code == 1
        assert out == ""
        assert err.splitlines()[-1] == f"error: {message}"
        assert not preds.exists()

    @pytest.mark.parametrize("command", ["train-prior", "synth", "gradcheck"])
    def test_negative_seed(self, capsys, tmp_path, command):
        output = tmp_path / "out"
        args = {
            "train-prior": [
                str(tmp_path / "nope"), "--pca", str(tmp_path / "pca.bin"), "-o", str(output),
            ],
            "synth": ["-o", str(output)],
            "gradcheck": [],
        }[command]
        code, out, err = run(capsys, command, *args, "--seed", "-1")
        assert code == 1
        assert out == ""
        assert err.splitlines()[-1] == "error: seed must be >= 0, got -1"
        assert not output.exists()

    @pytest.mark.parametrize("ratio", ["nan", "inf"])
    def test_synth(self, capsys, tmp_path, ratio):
        code, _, err = run(capsys, "synth", "--ratio", ratio, "-o", str(tmp_path / "d"))
        assert code == 1
        assert err.splitlines()[-1] == "error: imbalance_ratio must be finite and >= 1"
        assert "Traceback" not in err
        assert not (tmp_path / "d").exists()


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
        code, out, _ = run(capsys, "gradcheck", "--trials", "3")
        assert code == 0
        assert out.startswith("loc: trials=3")
        assert "PASS" in out

    def test_all_losses_by_default(self, capsys):
        # the location loss is the only loss the package trains, so the
        # default run checks it and prints exactly one line
        code, out, _ = run(capsys, "gradcheck", "--trials", "2")
        assert code == 0
        assert [line.split(":")[0] for line in out.splitlines()] == ["loc"]

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_fewer_than_one_trial_exits_one(self, capsys, trials):
        code, out, err = run(capsys, "gradcheck", "--trials", trials)
        assert code == 1
        assert out == ""
        assert err.splitlines()[-1] == f"error: trials must be >= 1, got {trials}"

    def test_loss_flag_is_gone(self, capsys):
        code, _, _ = run(capsys, "gradcheck", "--loss", "loc", "--trials", "1")
        assert code == 1


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
