import errno
import json
import os
import pickle
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import rtm
from rtm.cli import main
from rtm.features import FEATURE_NAMES
from rtm.learners import ModelSpec
from rtm.metrics import MetricConfig, parse_report
from rtm.pipeline import (
    STAGES,
    ConfigError,
    StageError,
    evaluate_files,
    parse_config,
    read_predictions,
    run_pipeline,
    run_stage,
)

from conftest import write_intensity_case, write_triples_case

# artifact -> (stages that read only its header, stages that read it whole)
ARTIFACT_READERS = {
    "resources.pkl": (("train",), ("extract-features",)),
    "model.pkl": (("evaluate",), ("predict",)),
}


def _full_run(cfg_path, name):
    cfg = parse_config(cfg_path)
    out = cfg_path.parent / name
    run_pipeline(cfg, out)
    return cfg, out


def _header_line(path) -> bytes:
    return path.read_bytes().partition(b"\n")[0]


class TestConfig:
    def _write(self, tmp_path, text):
        path = tmp_path / "c.cfg"
        path.write_text(text)
        return path

    def _minimal(self, tmp_path, **overrides):
        (tmp_path / "corpus.txt").write_text("a b c\n")
        (tmp_path / "train.tsv").write_text("q\ta\tb\tc\t1\n")
        (tmp_path / "test.tsv").write_text("r\ta\tb\tc\tNONE\n")
        fields = {
            "task": "triples",
            "architecture": "combined",
            "corpus": "corpus.txt",
            "train": "train.tsv",
            "test": "test.tsv",
            "budget": "1",
            "seed": "3",
        }
        fields.update(overrides)
        lines = [f"{k} = {v}" for k, v in fields.items() if v is not None]
        return self._write(tmp_path, "\n".join(lines) + "\n")

    def test_parses_minimal(self, tmp_path):
        cfg = parse_config(self._minimal(tmp_path))
        assert cfg.task == "triples" and cfg.seed == 3
        assert cfg.cv_folds == 7  # default applied

    def test_unknown_key_rejected(self, tmp_path):
        path = self._minimal(tmp_path, bogus="1")
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(path)

    def test_seed_mandatory(self, tmp_path):
        path = self._minimal(tmp_path, seed=None)
        with pytest.raises(ConfigError, match="seed"):
            parse_config(path)
        assert parse_config(path, seed_override=9).seed == 9

    def test_seed_override_changes_hash(self, tmp_path):
        path = self._minimal(tmp_path)
        assert parse_config(path).hash() != parse_config(path, seed_override=4).hash()

    def test_triples_plain_rejected(self, tmp_path):
        path = self._minimal(tmp_path, architecture="plain")
        with pytest.raises(ConfigError, match="row pairs"):
            parse_config(path)

    def test_missing_path_rejected(self, tmp_path):
        path = self._minimal(tmp_path, corpus="nope.txt")
        with pytest.raises(ConfigError, match="does not exist"):
            parse_config(path)

    def test_paired_intensity_needs_two_emotions(self, tmp_path):
        (tmp_path / "lex.txt").write_text("#joy\nglad\n")
        path = self._minimal(
            tmp_path,
            task="intensity",
            architecture="separate",
            lexicon="lex.txt",
            emotions="joy",
        )
        (tmp_path / "train.tsv").write_text("id\ttext\taffect\tscore\nq\they\tjoy\t0.5\n")
        (tmp_path / "test.tsv").write_text("id\ttext\taffect\tscore\nr\tyo\tjoy\tNONE\n")
        with pytest.raises(ConfigError, match="exactly 2 emotions"):
            parse_config(path)

    def test_duplicate_key_rejected(self, tmp_path):
        path = self._write(tmp_path, "task = triples\ntask = triples\n")
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config(path)

    @pytest.mark.parametrize(
        "key, value",
        [("epsilon_mode", "bogus"), ("grids", "bogus"), ("top_k", "0"), ("cv_folds", "1")],
    )
    def test_bad_value_rejected_at_parse_time(self, tmp_path, key, value):
        path = self._minimal(tmp_path, **{key: value})
        with pytest.raises(ConfigError, match=f": {key}: "):
            parse_config(path)

    @pytest.mark.parametrize("key, value", [
        ("decay", "nan"), ("length_exponent", "nan"), ("length_exponent", "inf"),
        ("threshold", "fixed:nan"), ("threshold", "fixed:-inf"),
        ("epsilon_mode", "half_step:nan"), ("epsilon_mode", "half_step:inf"),
        ("base_learner", "rr:nan"), ("base_learner", "rr:inf"),
    ])
    def test_non_finite_number_rejected_at_parse_time(self, tmp_path, key, value):
        path = self._minimal(tmp_path, **{key: value})
        with pytest.raises(ConfigError, match=f": {key}: .*finite"):
            parse_config(path)

    def test_values_parsed_into_fields(self, tmp_path):
        cfg = parse_config(self._minimal(tmp_path, base_learner="knn:3", threshold="fixed:0.25",
                                         epsilon_mode="half_step:0.5"))
        assert cfg.base_learner == ModelSpec("knn", k=3, seed=3)
        assert cfg.threshold == ("fixed", 0.25)
        assert cfg.epsilon_mode == MetricConfig("half_step", 0.5)
        assert cfg.raw["base_learner"] == "knn:3"

    @pytest.mark.parametrize("key, value, message", [
        ("threshold", "fixed:0.5", "threshold is not used by the intensity task"),
        ("base_learner", "knn:3", "base_learner is not used by the plain architecture"),
    ])
    def test_key_the_run_ignores_rejected(self, tmp_path, key, value, message):
        (tmp_path / "lex.txt").write_text("#joy\nglad\n")
        fields = {"task": "intensity", "architecture": "plain", "lexicon": "lex.txt",
                  "emotions": "joy"}
        parse_config(self._minimal(tmp_path, **fields))
        with pytest.raises(ConfigError, match=message):
            parse_config(self._minimal(tmp_path, **fields, **{key: value}))

    def test_readme_config_table_lists_every_key(self):
        from rtm.pipeline import _KEYS

        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        table = readme.split("| key | meaning | default |\n", 1)[1].split("\n\n", 1)[0]
        keys = [key for row in table.split("\n")[1:]
                for key in re.findall(r"`(\w+)`", row.split("|")[1])]
        assert sorted(keys) == sorted(_KEYS)

    def test_epsilon_flag_and_key_share_one_parser(self, tmp_path, capsys):
        (tmp_path / "gold.tsv").write_text("a\t0.1\nb\t0.6\n")
        (tmp_path / "pred.tsv").write_text("a\t0.2\nb\t0.5\n")
        for value in ("bogus", "half_step:nan", "half_step:inf"):
            argv = ["evaluate", "--pred", str(tmp_path / "pred.tsv"),
                    "--gold", str(tmp_path / "gold.tsv"), "--epsilon", value]
            assert main(argv) == 1
            flag_error = capsys.readouterr().err.removeprefix("rtm: ").strip()
            with pytest.raises(ConfigError) as key_error:
                parse_config(self._minimal(tmp_path, epsilon_mode=value))
            assert value in flag_error
            assert str(key_error.value).endswith(f"epsilon_mode: {flag_error}")


class TestPipelineRun:
    def test_intensity_run_produces_sane_outputs(self, tiny_intensity_cfg):
        cfg = parse_config(tiny_intensity_cfg)
        out = tiny_intensity_cfg.parent / "out"
        report = run_pipeline(cfg, out)
        assert report.metrics is not None and report.metrics.r > 0.3
        ids, preds, classes = read_predictions(out / "predictions.tsv")
        assert len(ids) == 15 and classes is None
        assert np.all((preds >= 0.0) & (preds <= 1.0))  # clipped for intensity
        for name in (
            "interpretants.tsv",
            "features_train.tsv",
            "features_test.tsv",
            "cv_table.tsv",
            "predictions.tsv",
            "report.txt",
        ):
            first = (out / name).read_text(encoding="utf-8").splitlines()[0]
            assert first.startswith("# rtm 0.1.0 config="), name
        assert (out / "timings.txt").exists()

    def test_rerun_and_stagewise_byte_identical(self, tiny_intensity_cfg):
        cfg = parse_config(tiny_intensity_cfg)
        root = tiny_intensity_cfg.parent
        run_pipeline(cfg, root / "one")
        run_pipeline(cfg, root / "two")
        for stage in STAGES:
            run_stage(cfg, root / "three", stage)
        for name in ("predictions.tsv", "report.txt"):
            data = (root / "one" / name).read_bytes()
            assert data == (root / "two" / name).read_bytes()
            assert data == (root / "three" / name).read_bytes()

    def test_feature_rows_match_dataset(self, tiny_intensity_cfg):
        cfg = parse_config(tiny_intensity_cfg)
        out = tiny_intensity_cfg.parent / "out_rows"
        for stage in STAGES[:3]:
            run_stage(cfg, out, stage)
        rows = (out / "features_train.tsv").read_text().splitlines()
        data_rows = [r for r in rows if r and not r.startswith(("#", "id\t"))]
        train_rows = (tiny_intensity_cfg.parent / "train.tsv").read_text().splitlines()
        assert len(data_rows) == len(train_rows) - 1  # header

    def test_missing_gold_marks_metrics_absent(self, tmp_path):
        write_intensity_case(tmp_path, n_texts=40, n_train=30, corpus_size=40, vocab_size=50, n_lex=10)
        test_lines = (tmp_path / "test.tsv").read_text().splitlines()
        rewritten = [test_lines[0]] + [
            "\t".join(line.split("\t")[:3] + ["NONE"]) for line in test_lines[1:]
        ]
        (tmp_path / "test.tsv").write_text("\n".join(rewritten) + "\n")
        cfg = parse_config(tmp_path / "run.cfg")
        report = run_pipeline(cfg, tmp_path / "out")
        assert report.metrics is None
        text = (tmp_path / "out" / "report.txt").read_text()
        assert "[metrics]\nabsent" in text
        assert (tmp_path / "out" / "predictions.tsv").exists()

    def test_fingerprint_mismatch_refused(self, tiny_intensity_cfg):
        cfg = parse_config(tiny_intensity_cfg)
        out = tiny_intensity_cfg.parent / "out_fp"
        for stage in STAGES[:3]:
            run_stage(cfg, out, stage)
        features = (out / "features_train.tsv").read_text()
        (out / "features_train.tsv").write_text(
            features.replace("# fingerprint=", "# fingerprint=dead")
        )
        with pytest.raises(StageError, match="fingerprint"):
            run_stage(cfg, out, "train")

    def test_incompatible_model_pickle_refused(self, tiny_intensity_cfg, monkeypatch):
        import rtm.learners

        cfg = parse_config(tiny_intensity_cfg)
        out = tiny_intensity_cfg.parent / "out_old"
        for stage in STAGES[:4]:
            run_stage(cfg, out, stage)

        class _Gone:  # stands for a class an older build pickled
            pass

        _Gone.__module__, _Gone.__qualname__ = "rtm.learners", "_Gone"
        monkeypatch.setattr(rtm.learners, "_Gone", _Gone, raising=False)
        path = out / "model.pkl"
        path.write_bytes(_header_line(path) + b"\n" + pickle.dumps(_Gone()))
        monkeypatch.delattr(rtm.learners, "_Gone")
        with pytest.raises(StageError, match="incompatible build"):
            run_stage(cfg, out, "predict")

    def test_train_reads_only_the_resources_header(self, tiny_intensity_cfg):
        cfg = parse_config(tiny_intensity_cfg)
        out = tiny_intensity_cfg.parent / "out_header"
        for stage in STAGES[:3]:
            run_stage(cfg, out, stage)
        path = out / "resources.pkl"
        path.write_bytes(_header_line(path) + b"\nnot a pickle")  # the body, unreadable
        features = (out / "features_train.tsv").read_text()
        (out / "features_train.tsv").write_text(
            features.replace("# fingerprint=", "# fingerprint=dead")
        )
        with pytest.raises(StageError, match="fingerprint"):
            run_stage(cfg, out, "train")
        (out / "features_train.tsv").write_text(features)
        run_stage(cfg, out, "train")
        with pytest.raises(StageError, match="incompatible build"):
            run_stage(cfg, out, "extract-features")

    def test_incompatible_resources_pickle_refused(self, tiny_intensity_cfg, monkeypatch):
        import rtm.features

        cfg = parse_config(tiny_intensity_cfg)
        out = tiny_intensity_cfg.parent / "out_old_resources"
        for stage in STAGES[:3]:
            run_stage(cfg, out, stage)
        line, _, body = (out / "resources.pkl").read_bytes().partition(b"\n")
        header, resources = json.loads(line), pickle.loads(body)

        class _DictAligner:  # the aligner as builds before the CSR table pickled it
            pass

        _DictAligner.__module__, _DictAligner.__qualname__ = "rtm.features", "AlignmentModel"
        old = _DictAligner()
        old.table, old.log_likelihoods = {"a": {"a": 1.0}}, []
        resources.aligner = old
        with monkeypatch.context() as patch:
            patch.setattr(rtm.features, "AlignmentModel", _DictAligner)
            blob = {k: v for k, v in header.items() if k != "format"}
            (out / "resources.pkl").write_bytes(pickle.dumps({**blob, "resources": resources}))
        for stage in ("extract-features", "train"):
            with pytest.raises(StageError, match="incompatible build"):
                run_stage(cfg, out, stage)

    @pytest.mark.parametrize("name", sorted(ARTIFACT_READERS))
    def test_parent_layout_artifact_refused(self, tiny_intensity_cfg, name):
        cfg, out = _full_run(tiny_intensity_cfg, "out_parent_layout")
        path = out / name
        line, _, body = path.read_bytes().partition(b"\n")
        header = {k: v for k, v in json.loads(line).items() if k != "format"}
        if name == "model.pkl":  # one dict pickle, the model under "model"
            old = pickle.dumps({**header, "model": pickle.loads(body)}, protocol=4)
        else:  # a header pickle of format 2, then the resources pickle
            old = pickle.dumps({**header, "format": 2, "manifest": FEATURE_NAMES}) + body
        path.write_bytes(old)
        for stage in sum(ARTIFACT_READERS[name], ()):
            with pytest.raises(StageError, match="incompatible build") as info:
                run_stage(cfg, out, stage)
            assert str(path) in str(info.value)

    @pytest.mark.parametrize("name", sorted(ARTIFACT_READERS))
    def test_unreadable_artifact_names_the_file(self, tiny_intensity_cfg, name):
        cfg, out = _full_run(tiny_intensity_cfg, "out_cut")
        path = out / name
        line, _, body = path.read_bytes().partition(b"\n")
        header_readers, body_readers = ARTIFACT_READERS[name]
        cases = [
            (b"", header_readers + body_readers),  # empty
            (b"[1, 2]\n" + body, header_readers + body_readers),  # JSON, but no object
            (line + b"\n", body_readers),  # the header line alone
            (line + b"\n" + body[: len(body) // 2], body_readers),  # half the body
            (line + b"\n\x80\x09", body_readers),  # a pickle protocol no Python has
        ]
        for data, stages in cases:
            path.write_bytes(data)
            for stage in stages:
                with pytest.raises(StageError) as info:
                    run_stage(cfg, out, stage)
                assert str(path) in str(info.value), (data[:20], stage)

    @pytest.mark.parametrize("name", sorted(ARTIFACT_READERS))
    def test_foreign_version_refused_before_unpickling(self, tiny_intensity_cfg, name):
        cfg, out = _full_run(tiny_intensity_cfg, "out_foreign")
        path = out / name
        line = _header_line(path)
        for key, value, message in (("version", "0.0.0", "written by version 0.0.0"),
                                    ("format", 2, "format 2, expected 4")):
            header = {**json.loads(line), key: value}
            path.write_bytes(json.dumps(header).encode() + b"\nnot a pickle")
            for stage in sum(ARTIFACT_READERS[name], ()):
                with pytest.raises(StageError, match=message):
                    run_stage(cfg, out, stage)

    @pytest.mark.parametrize("name", sorted(ARTIFACT_READERS))
    def test_format_3_refused_before_unpickling(self, tiny_intensity_cfg, name, monkeypatch):
        # a format-3 resources.pkl may hold the Witten-Bell LM's older fields;
        # the header alone refuses it, naming the stage that rewrites it
        cfg, out = _full_run(tiny_intensity_cfg, "out_format_3")
        path = out / name
        line, _, body = path.read_bytes().partition(b"\n")
        path.write_bytes(json.dumps({**json.loads(line), "format": 3}).encode() + b"\n" + body)
        monkeypatch.setattr(pickle, "load", lambda fh: pytest.fail("unpickled the body"))
        writer = {"resources.pkl": "build-resources", "model.pkl": "train"}[name]
        for stage in sum(ARTIFACT_READERS[name], ()):
            with pytest.raises(StageError, match=rf"\(format 3, expected 4\); re-run {writer}"):
                run_stage(cfg, out, stage)

    def test_evaluate_reads_only_the_model_header(self, tiny_intensity_cfg):
        cfg, out = _full_run(tiny_intensity_cfg, "out_eval_header")
        report = (out / "report.txt").read_bytes()
        path = out / "model.pkl"
        header = json.loads(_header_line(path))
        assert set(header) == {"version", "format", "config_hash",
                               "fingerprint", "architecture", "cv_table"}
        assert set(json.loads(_header_line(out / "resources.pkl"))) == {
            "version", "format", "config_hash", "fingerprint"}
        path.write_bytes(_header_line(path) + b"\nnot a pickle")
        (out / "report.txt").unlink()
        run_stage(cfg, out, "evaluate")
        assert (out / "report.txt").read_bytes() == report
        with pytest.raises(StageError, match="incompatible build"):
            run_stage(cfg, out, "predict")

    def test_failed_write_leaves_no_temporary_file(self, tiny_intensity_cfg, monkeypatch):
        cfg = parse_config(tiny_intensity_cfg)
        out = tiny_intensity_cfg.parent / "out_full_disk"
        for stage in STAGES[:3]:
            run_stage(cfg, out, stage)
        before = sorted(p.name for p in out.iterdir())

        def full_disk(*args, **kwargs):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(pickle, "dump", full_disk)
        with pytest.raises(StageError, match="No space left"):
            run_stage(cfg, out, "train")
        assert sorted(p.name for p in out.iterdir()) == before

    def test_features_header_row_checked(self, tiny_intensity_cfg):
        cfg = parse_config(tiny_intensity_cfg)
        out = tiny_intensity_cfg.parent / "out_swapped"
        for stage in STAGES[:3]:
            run_stage(cfg, out, stage)
        path = out / "features_train.tsv"
        first, second, *rest = FEATURE_NAMES
        header = "\t".join(["id", "row", first, second, *rest]) + "\n"
        swapped = "\t".join(["id", "row", second, first, *rest]) + "\n"
        text = path.read_text()
        assert text.count(header) == 1
        path.write_text(text.replace(header, swapped))
        with pytest.raises(StageError, match="header row"):
            run_stage(cfg, out, "train")

    def test_stage_error_names_stage(self, tiny_intensity_cfg):
        cfg = parse_config(tiny_intensity_cfg)
        with pytest.raises(StageError, match="stage train"):
            run_stage(cfg, tiny_intensity_cfg.parent / "fresh", "train")

    def test_interpretants_header_row_checked(self, tiny_intensity_cfg):
        cfg = parse_config(tiny_intensity_cfg)
        out = tiny_intensity_cfg.parent / "out_headless"
        run_stage(cfg, out, "select-interpretants")
        path = out / "interpretants.tsv"
        text = path.read_text()
        assert text.count("index\tscore\n") == 1
        path.write_text(text.replace("index\tscore\n", ""))
        with pytest.raises(StageError, match=r"^stage build-resources: .*interpretants\.tsv: "
                                             r"header row is not index, score$"):
            run_stage(cfg, out, "build-resources")
        assert not (out / "resources.pkl").exists()

    def test_failed_stage_leaves_no_outputs(self, tiny_intensity_cfg):
        cfg = parse_config(tiny_intensity_cfg)
        out = tiny_intensity_cfg.parent / "cleanup"
        run_stage(cfg, out, "select-interpretants")
        run_stage(cfg, out, "build-resources")
        # corrupt the test dataset so feature extraction fails on split 2
        (tiny_intensity_cfg.parent / "test.tsv").write_text("garbage no header\n")
        with pytest.raises(StageError, match="extract-features"):
            run_stage(cfg, out, "extract-features")
        assert not (out / "features_train.tsv").exists()
        assert not (out / "features_test.tsv").exists()

    def test_triples_threshold_modes(self, tmp_path):
        for mode, name in (("optimized", "opt"), ("grounded", "grd")):
            cfg_path = write_triples_case(
                tmp_path / name if (tmp_path / name).mkdir() or True else None,
                "combined",
                n_instances=60,
                n_train=45,
                corpus_size=60,
                config_name="run.cfg",
            )
            text = cfg_path.read_text().replace("threshold = fixed:0.5", f"threshold = {mode}")
            cfg_path.write_text(text)
            cfg = parse_config(cfg_path)
            report = run_pipeline(cfg, cfg_path.parent / "out")
            assert report.metrics is not None and report.metrics.f1 is not None
            _, _, classes = read_predictions(cfg_path.parent / "out" / "predictions.tsv")
            assert set(np.unique(classes)) <= {0, 1}


def _small_case(root, task):
    if task == "intensity":
        return write_intensity_case(root, n_texts=60, n_train=45, corpus_size=60, vocab_size=60,
                                    n_lex=12)
    return write_triples_case(root, "combined", n_instances=60, n_train=45, corpus_size=60)


def _edit_ids(path, edit, lineno=None):
    """Apply ``edit`` to the id of each data row of a dataset, or of line ``lineno``."""
    lines = path.read_text(encoding="utf-8").split("\n")
    for i, line in enumerate(lines):
        if line and not line.startswith("id\t") and lineno in (None, i + 1):
            rid, rest = line.split("\t", 1)
            lines[i] = edit(rid) + "\t" + rest
    path.write_text("\n".join(lines), encoding="utf-8")


class TestInstanceIds:
    @pytest.mark.parametrize("task", ["intensity", "triples"])
    @pytest.mark.parametrize("name", ["train.tsv", "test.tsv"])
    def test_id_starting_with_hash_refused_at_load(self, tmp_path, task, name):
        # '#' starts a comment in the files rtm writes, so the row would vanish
        cfg = parse_config(_small_case(tmp_path, task))
        _edit_ids(tmp_path / name, lambda rid: "#" + rid, lineno=4)
        with pytest.raises(StageError, match=rf"stage select-interpretants: \S*{name}:4: "
                                             r"id '#[dt]\d+' starts with '#'"):
            run_pipeline(cfg, tmp_path / "out")

    @pytest.mark.parametrize("task, char", [("intensity", "\x0c"), ("intensity", "\x85"),
                                            ("intensity", "\u2028"), ("triples", "\x0c")])
    def test_id_with_a_splitlines_break_runs(self, tmp_path, capsys, task, char):
        # str.splitlines breaks at these; the line rule of every reader does not
        cfg_path = _small_case(tmp_path, task)
        for name in ("train.tsv", "test.tsv"):
            _edit_ids(tmp_path / name, lambda rid: rid[:1] + char + rid[1:])
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        capsys.readouterr()
        ids = read_predictions(out / "predictions.tsv")[0]
        assert len(ids) == 15 and all(rid[1] == char for rid in ids)
        block = (out / "report.txt").read_text(encoding="utf-8").partition("[metrics]\n")[2]
        assert block.startswith("r\t")
        assert ("F1\t" in block) == (task == "triples")  # the threshold's class column
        # the stage and the stand-alone evaluation score through one path
        pred, gold = str(out / "predictions.tsv"), str(tmp_path / "test.tsv")
        assert main(["evaluate", "--pred", pred, "--gold", gold]) == 0
        assert capsys.readouterr().out == block


class TestNonFiniteRefused:
    def _front(self, cfg_path, stages=STAGES[:3]):
        cfg = parse_config(cfg_path)
        out = cfg_path.parent / "out"
        for stage in stages:
            run_stage(cfg, out, stage)
        return cfg, out

    @staticmethod
    def _edit_first_row(path, edit):
        """Apply ``edit`` to the fields of the first data row; its line number."""
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        at = next(i for i, line in enumerate(lines) if line.startswith("t"))
        fields = lines[at].rstrip("\n").split("\t")
        lines[at] = "\t".join(edit(fields)) + "\n"
        path.write_text("".join(lines), encoding="utf-8")
        return at + 1

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_feature_refused(self, tiny_intensity_cfg, cell):
        cfg, out = self._front(tiny_intensity_cfg)
        path = out / "features_train.tsv"
        lineno = self._edit_first_row(path, lambda f: f[:5] + [cell] + f[6:])
        with pytest.raises(StageError, match=rf"features_train.tsv:{lineno}: "
                                             rf"{FEATURE_NAMES[3]} is '{cell}', not a finite"):
            run_stage(cfg, out, "train")
        assert not (out / "model.pkl").exists()

    def test_non_numeric_feature_names_file_and_line(self, tiny_intensity_cfg, capsys):
        cfg, out = self._front(tiny_intensity_cfg)
        lineno = self._edit_first_row(out / "features_train.tsv",
                                      lambda f: f[:5] + ["abc"] + f[6:])
        assert main(["train", "--config", str(tiny_intensity_cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"features_train.tsv:{lineno}: {FEATURE_NAMES[3]} is 'abc', not a finite number" in err
        assert not (out / "model.pkl").exists()

    def test_non_finite_prediction_refused(self, tiny_intensity_cfg):
        # 1e308 in every column of one test row overflows the scaled design:
        # refused as it happens, with no numpy warning printed first
        cfg, out = self._front(tiny_intensity_cfg, STAGES[:4])
        self._edit_first_row(out / "features_test.tsv", lambda f: f[:2] + ["1e308"] * (len(f) - 2))
        with warnings.catch_warnings(), pytest.raises(
                StageError, match=r"features_test.tsv: the model's arithmetic on these features "
                                  r"failed \(overflow encountered in divide\)"):
            warnings.simplefilter("error")
            run_stage(cfg, out, "predict")
        assert not (out / "predictions.tsv").exists()

    @pytest.mark.parametrize("stage", ["train", "predict"])
    @pytest.mark.parametrize("edit", [lambda f: f[:-1], lambda f: f + ["0.5"]],
                             ids=["short", "long"])
    def test_feature_row_of_wrong_width_refused(self, tiny_intensity_cfg, stage, edit):
        cfg, out = self._front(tiny_intensity_cfg, STAGES[: STAGES.index(stage)])
        name = "features_train.tsv" if stage == "train" else "features_test.tsv"
        width = 2 + len(FEATURE_NAMES)
        got = len(edit([""] * width))
        lineno = self._edit_first_row(out / name, edit)
        with pytest.raises(StageError, match=rf"^stage {stage}: .*{name}:{lineno}: "
                                             rf"expected {width} columns, got {got}$"):
            run_stage(cfg, out, stage)

    def test_artifact_header_refuses_nan(self, tiny_intensity_cfg):
        from rtm.pipeline import _write_artifact

        path = tiny_intensity_cfg.parent / "model.pkl"
        with pytest.raises(ValueError, match="not JSON compliant"):
            _write_artifact(path, parse_config(tiny_intensity_cfg),
                            {"cv_table": [["rr(alpha=1)", float("nan")]]}, None)
        assert list(tiny_intensity_cfg.parent.glob("model.pkl*")) == []

    @pytest.mark.parametrize("index,message", [
        ("-1", r"sentence index -1 is not in the corpus's range 0\.\.59"),  # 60 sentences
        ("60", r"sentence index 60 is not in the corpus's range 0\.\.59"),
        ("999", r"sentence index 999 is not in the corpus's range 0\.\.59"),
        ("x7", r"'x7' is not a sentence index"),
    ])
    def test_interpretant_index_outside_corpus_refused(self, tiny_intensity_cfg, index, message):
        cfg, out = self._front(tiny_intensity_cfg, STAGES[:1])
        path = out / "interpretants.tsv"
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        assert lines[1] == "index\tscore\n"
        lines[4] = index + "\t" + lines[4].split("\t", 1)[1]
        path.write_text("".join(lines), encoding="utf-8")
        with pytest.raises(StageError, match=r"interpretants.tsv:5: " + message):
            run_stage(cfg, out, "build-resources")
        assert not (out / "resources.pkl").exists()


def _floating_point_case(root, case):
    if case == "intensity-default":
        return write_intensity_case(root, n_texts=60, n_train=45, corpus_size=60, vocab_size=60,
                                    n_lex=12, grids="default")
    if case == "intensity-small":
        return write_intensity_case(root)
    architecture = case.split("-")[1]
    cfg_path = write_triples_case(root, architecture, n_instances=150, n_train=110)
    text = cfg_path.read_text().replace("threshold = fixed:0.5", "threshold = optimized")
    cfg_path.write_text(text)
    return cfg_path


@pytest.mark.parametrize("case", ["intensity-default", "triples-combined", "triples-separate",
                                  "intensity-small"])
def test_whole_run_raises_no_floating_point_error(tmp_path, case):
    # the default grid runs AdaBoost.R2 at 500 rounds and 500-tree forests;
    # the triples cases tune the threshold on the training predictions
    cfg = parse_config(_floating_point_case(tmp_path, case))
    with np.errstate(all="raise"), warnings.catch_warnings():
        warnings.simplefilter("error")
        report = run_pipeline(cfg, tmp_path / "out")
    assert report.metrics is not None


class TestPairedIntensity:
    def _write_case(self, tmp_path):
        rng = np.random.default_rng(4)
        joy_words = [f"j{i}" for i in range(10)]
        sad_words = [f"s{i}" for i in range(10)]
        filler = [f"f{i}" for i in range(30)]
        vocab = joy_words + sad_words + filler
        corpus = [" ".join(rng.choice(vocab, size=rng.integers(4, 8))) for _ in range(50)]
        (tmp_path / "corpus.txt").write_text("\n".join(corpus) + "\n")
        (tmp_path / "lexicon.txt").write_text(
            "#joy\n" + "\n".join(joy_words) + "\n#sadness\n" + "\n".join(sad_words) + "\n"
        )
        lines = ["id\ttext\taffect\tscore"]
        for i in range(50):
            n_joy = int(rng.integers(0, 5))
            toks = list(rng.choice(joy_words, size=n_joy)) + list(
                rng.choice(filler, size=6 - n_joy)
            )
            gold = 0.1 + 0.18 * n_joy + float(rng.normal(0, 0.02))
            lines.append(f"v{i:03d}\t{' '.join(toks)}\tvalence\t{min(max(gold, 0.0), 1.0)!r}")
        (tmp_path / "train.tsv").write_text("\n".join(lines[:41]) + "\n")
        (tmp_path / "test.tsv").write_text("\n".join([lines[0]] + lines[41:]) + "\n")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            """task = intensity
architecture = combined
corpus = corpus.txt
train = train.tsv
test = test.tsv
lexicon = lexicon.txt
emotions = joy,sadness
budget = 50
grids = small
top_k = 1
seed = 5
"""
        )
        return cfg

    def test_two_rows_per_instance_and_sane_predictions(self, tmp_path):
        cfg = parse_config(self._write_case(tmp_path))
        out = tmp_path / "out"
        report = run_pipeline(cfg, out)
        features = (out / "features_train.tsv").read_text().splitlines()
        tags = [line.split("\t")[1] for line in features if not line.startswith(("#", "id\t"))]
        assert tags == ["a", "b"] * 40
        ids, preds, classes = read_predictions(out / "predictions.tsv")
        assert len(ids) == 10 and classes is None
        assert np.all((preds >= 0.0) & (preds <= 1.0))
        assert report.metrics is not None


class TestLoadOnce:
    def _reads_per_stage(self, cfg_path, monkeypatch):
        """Run every stage; return {stage: {file name: reads}}.  Every text
        file rtm reads, input or output, is read through ``corpus._read_lines``."""
        import rtm.corpus
        import rtm.pipeline

        counts, stage_now = {}, [None]
        real = rtm.corpus._read_lines

        def counted(path):
            per_stage = counts.setdefault(stage_now[0], {})
            per_stage[Path(path).name] = per_stage.get(Path(path).name, 0) + 1
            return real(path)

        for module in (rtm.corpus, rtm.pipeline):
            monkeypatch.setattr(module, "_read_lines", counted)
        cfg = parse_config(cfg_path)
        for stage in STAGES:
            stage_now[0] = stage
            run_stage(cfg, cfg_path.parent / "out", stage)
        return counts

    def test_intensity_inputs_loaded_once_per_stage(self, tiny_intensity_cfg, monkeypatch):
        counts = self._reads_per_stage(tiny_intensity_cfg, monkeypatch)
        datasets = {"lexicon.txt": 1, "train.tsv": 1, "test.tsv": 1}
        assert counts["select-interpretants"] == {"corpus.txt": 1, **datasets}
        assert counts["build-resources"] == {"interpretants.tsv": 1, "corpus.txt": 1}
        assert counts["extract-features"] == datasets
        # the later stages read only golds, from the one dataset they need,
        # and never the lexicon
        assert counts["train"] == {"features_train.tsv": 1, "train.tsv": 1}
        assert counts["predict"] == {"features_test.tsv": 1}
        assert counts["evaluate"] == {"predictions.tsv": 1, "test.tsv": 1}

    def test_triples_train_set_loaded_once_in_predict(self, tmp_path, monkeypatch):
        cfg_path = write_triples_case(
            tmp_path, "separate", n_instances=60, n_train=45, corpus_size=60
        )
        text = cfg_path.read_text().replace("threshold = fixed:0.5", "threshold = optimized")
        cfg_path.write_text(text + "grounding = predictions\n")
        counts = self._reads_per_stage(cfg_path, monkeypatch)
        # grounding and threshold tuning both need the training golds
        assert counts["predict"] == {"features_test.tsv": 1, "train.tsv": 1,
                                     "features_train.tsv": 1}
        for per_stage in counts.values():
            assert max(per_stage.values()) == 1


def _mixed_corpus_case(cfg_path, budget):
    """Rewrite the case's corpus with whitespace-only lines, carriage-return
    line ends and Unicode whitespace between tokens, and select ``budget``
    interpretants."""
    root = cfg_path.parent
    noise = ["", "  ", "\r", "\u3000", "\x1c", "\t\u2028 "]
    mixed = []
    for i, line in enumerate((root / "corpus.txt").read_text(encoding="utf-8").split("\n")):
        mixed.append(noise[i % len(noise)])
        mixed.append(line.replace(" ", "\u3000", i % 2) + "\r" * (i % 3 == 0))
    (root / "corpus.txt").write_text("\n".join(mixed), encoding="utf-8")
    text = cfg_path.read_text(encoding="utf-8")
    cfg_path.write_text(re.sub(r"budget = \d+", f"budget = {budget}", text), encoding="utf-8")
    return parse_config(cfg_path)


class TestCorpusLoadedOnce:
    def test_build_resources_tokenizes_only_the_interpretants(self, tiny_intensity_cfg,
                                                              monkeypatch):
        import rtm.corpus

        cfg = _mixed_corpus_case(tiny_intensity_cfg, 15)
        out = tiny_intensity_cfg.parent / "out"
        run_stage(cfg, out, "select-interpretants")
        texts = []
        real = rtm.corpus.tokenize
        monkeypatch.setattr(rtm.corpus, "tokenize", lambda text: texts.append(text) or real(text))
        run_stage(cfg, out, "build-resources")
        assert len(texts) == 15

    def test_resources_match_a_full_corpus_load(self, tiny_intensity_cfg, monkeypatch):
        import rtm.pipeline
        from rtm.corpus import load_corpus

        cfg = _mixed_corpus_case(tiny_intensity_cfg, 15)
        out = tiny_intensity_cfg.parent / "out"
        for stage in ("select-interpretants", "build-resources"):
            run_stage(cfg, out, stage)
        selected = (out / "resources.pkl").read_bytes()
        monkeypatch.setattr(rtm.pipeline, "load_corpus_sentences",
                            lambda path, indices: [load_corpus(path).sentences[i] for i in indices])
        run_stage(cfg, out, "build-resources")
        assert (out / "resources.pkl").read_bytes() == selected


def _perfbench_layers():
    import importlib.util

    path = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"
    spec = importlib.util.spec_from_file_location("perfbench_layers", path)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers


def test_perfbench_spans_resolve():
    """perfbench/layers.py wraps rtm functions by (owner, attribute) name; a
    refactor that renames or inlines one breaks ``--trace 1`` runs."""
    layers = _perfbench_layers()
    for owner_path, attr, _ in layers.SPANS:
        assert callable(getattr(layers._owner(owner_path), attr)), (owner_path, attr)


def test_perfbench_tracer_sees_every_cv_fit(monkeypatch):
    """perfbench times CV per family by wrapping ``cross_validate`` and counts
    fold fits and AdaBoost rounds through ``fit_model``: ``grid_search`` must
    call both, once per spec and once per fold fit."""
    from dataclasses import replace

    import rtm.learners

    layers = _perfbench_layers()
    for owner_path, attr, _ in layers.SPANS:  # monkeypatch restores each one
        owner = layers._owner(owner_path)
        monkeypatch.setattr(owner, attr, getattr(owner, attr))
    tracer = layers.install()
    gen = np.random.default_rng(4)
    X = gen.normal(size=(60, 12))
    y = X[:, 0] + gen.normal(0.0, 0.1, 60)
    grid = [replace(s, n_estimators=10) if s.kind in ("tree", "ada") else s
            for s in rtm.learners.default_grid(seed=1)]
    rtm.learners.grid_search(grid, X, y, 5, 1)
    assert sum(tracer.cv_fits.values()) == len(grid) * 5
    for family in layers.CV_FAMILIES:
        assert tracer.seconds[f"learners.cv_{family}"] > 0.0, family
    assert tracer.ada_rounds[0] > 0


class TestEvaluateFiles:
    def test_perfect_predictions_give_r_one(self, tmp_path):
        gold = tmp_path / "gold.tsv"
        gold.write_text("a\t0.1\nb\t0.5\nc\t0.9\nd\t0.3\n")
        pred = tmp_path / "pred.tsv"
        pred.write_text("a\t0.100000\nb\t0.500000\nc\t0.900000\nd\t0.300000\n")
        report = evaluate_files(pred, gold)
        assert report.r == pytest.approx(1.0)
        assert report.mae == 0.0

    def test_dataset_format_gold(self, tmp_path):
        gold = tmp_path / "gold.tsv"
        gold.write_text("id\ttext\taffect\tscore\na\they\tjoy\t0.2\nb\tyo\tjoy\t0.8\nc\tm\tjoy\t0.5\n")
        pred = tmp_path / "pred.tsv"
        pred.write_text("a\t0.25\nb\t0.75\nc\t0.5\n")
        report = evaluate_files(pred, gold)
        assert report.r > 0.99

    def test_duplicate_gold_id_rejected(self, tmp_path):
        (tmp_path / "gold.tsv").write_text("a\t0.1\nb\t0.5\na\t0.9\n")
        (tmp_path / "pred.tsv").write_text("a\t0.1\nb\t0.5\n")
        with pytest.raises(ValueError, match=r"gold.tsv:3: duplicate id 'a'"):
            evaluate_files(tmp_path / "pred.tsv", tmp_path / "gold.tsv")

    def test_duplicate_prediction_id_rejected(self, tmp_path):
        (tmp_path / "gold.tsv").write_text("a\t0.1\nb\t0.5\n")
        (tmp_path / "pred.tsv").write_text("# header\na\t0.1\nb\t0.5\nb\t0.7\n")
        with pytest.raises(ValueError, match=r"pred.tsv:4: duplicate id 'b'"):
            read_predictions(tmp_path / "pred.tsv")
        with pytest.raises(ValueError, match="duplicate id"):
            evaluate_files(tmp_path / "pred.tsv", tmp_path / "gold.tsv")

    def test_wrong_column_count_rejected(self, tmp_path):
        (tmp_path / "pred.tsv").write_text("a\t0.1\nb\n")
        with pytest.raises(ValueError, match=r"pred.tsv:2: expected 2 or 3 columns, got 1"):
            read_predictions(tmp_path / "pred.tsv")

    def test_missing_ids_rejected(self, tmp_path):
        (tmp_path / "gold.tsv").write_text("a\t0.1\n")
        (tmp_path / "pred.tsv").write_text("a\t0.1\nzz\t0.5\n")
        with pytest.raises(ValueError, match="zz"):
            evaluate_files(tmp_path / "pred.tsv", tmp_path / "gold.tsv")


def _reachable_sets(root):
    """Paths to every set or frozenset reachable from ``root`` through
    attributes, ``__slots__``, lists, tuples and dicts."""
    found, seen, stack = [], set(), [("body", root)]
    while stack:
        path, obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, (set, frozenset)):
            found.append(path)
        elif isinstance(obj, dict):
            stack.extend((f"{path}[{k!r}] key", k) for k in obj)
            stack.extend((f"{path}[{k!r}]", v) for k, v in obj.items())
        elif isinstance(obj, (list, tuple)):
            stack.extend((f"{path}[{i}]", v) for i, v in enumerate(obj))
        else:
            slots = [n for cls in type(obj).__mro__ for n in getattr(cls, "__slots__", ())]
            fields = {**getattr(obj, "__dict__", {}),
                      **{n: getattr(obj, n) for n in slots if hasattr(obj, n)}}
            stack.extend((f"{path}.{n}", v) for n, v in fields.items())
    return found


class TestHashSeed:
    """``rtm run`` in fresh interpreters under two string hash seeds."""

    @pytest.fixture(scope="class")
    def runs(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("hash_seed")
        (root / "intensity").mkdir()
        (root / "triples").mkdir()
        cfgs = {
            "intensity": write_intensity_case(root / "intensity", n_texts=60, n_train=45,
                                              corpus_size=60, vocab_size=60, n_lex=12),
            "triples": write_triples_case(root / "triples", "combined", n_instances=80,
                                          n_train=60, corpus_size=60),
        }
        src = str(Path(rtm.__file__).resolve().parents[1])
        outs = {}
        for case, cfg in cfgs.items():
            for hash_seed in ("1", "2"):
                env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": src,
                       "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                       "MKL_NUM_THREADS": "1"}
                out = outs[case, hash_seed] = cfg.parent / f"hash{hash_seed}"
                subprocess.run([sys.executable, "-m", "rtm.cli", "run", "--config", str(cfg),
                                "--out", str(out)], env=env, check=True, timeout=300,
                               stdout=subprocess.DEVNULL)
        return outs

    @pytest.mark.parametrize("case", ["intensity", "triples"])
    def test_every_output_but_timings_byte_identical(self, runs, case):
        one, two = runs[case, "1"], runs[case, "2"]
        names = sorted(p.name for p in one.iterdir() if p.name != "timings.txt")
        assert names == sorted(p.name for p in two.iterdir() if p.name != "timings.txt")
        assert {"resources.pkl", "model.pkl", "report.txt"} <= set(names)
        for name in names:
            assert (one / name).read_bytes() == (two / name).read_bytes(), name

    @pytest.mark.parametrize("case", ["intensity", "triples"])
    def test_artifact_bodies_hold_no_set(self, runs, case):
        from rtm.pipeline import _read_artifact

        for name in ("resources.pkl", "model.pkl"):
            _, body = _read_artifact(runs[case, "1"] / name)
            assert _reachable_sets(body) == [], name


class TestCli:
    def test_run_command(self, tiny_intensity_cfg, capsys):
        out = tiny_intensity_cfg.parent / "cli_out"
        code = main(["run", "--config", str(tiny_intensity_cfg), "--out", str(out)])
        assert code == 0
        assert "r\t" in capsys.readouterr().out
        assert (out / "report.txt").exists()

    def test_stage_subcommands_match_run(self, tiny_intensity_cfg):
        root = tiny_intensity_cfg.parent
        assert main(["run", "--config", str(tiny_intensity_cfg), "--out", str(root / "a")]) == 0
        for stage in STAGES:
            code = main([stage, "--config", str(tiny_intensity_cfg), "--out", str(root / "b")])
            assert code == 0
        assert (root / "a" / "report.txt").read_bytes() == (root / "b" / "report.txt").read_bytes()

    def test_standalone_evaluate(self, tmp_path, capsys):
        (tmp_path / "gold.tsv").write_text("a\t0.1\nb\t0.6\nc\t0.8\n")
        (tmp_path / "pred.tsv").write_text("a\t0.2\nb\t0.5\nc\t0.9\n")
        code = main(["evaluate", "--pred", str(tmp_path / "pred.tsv"), "--gold", str(tmp_path / "gold.tsv")])
        assert code == 0
        parsed = parse_report(capsys.readouterr().out)
        assert "MAE" in parsed

    def test_bad_config_fails_cleanly(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("nonsense = 1\n")
        assert main(["run", "--config", str(bad)]) == 1
        assert "rtm:" in capsys.readouterr().err

    def test_overflowing_length_exponent_names_the_key(self, tiny_intensity_cfg, capsys):
        cfg_path = tiny_intensity_cfg.parent / "huge_exponent.cfg"
        cfg_path.write_text(tiny_intensity_cfg.read_text() + "length_exponent = 400\n")
        out = tiny_intensity_cfg.parent / "huge_exponent"
        assert main(["select-interpretants", "--config", str(cfg_path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("rtm: stage select-interpretants: length_exponent = 400.0 ")
        assert "tokens" in err and "overflows" in err

    def test_seed_override_changes_outputs(self, tiny_intensity_cfg):
        root = tiny_intensity_cfg.parent
        main(["run", "--config", str(tiny_intensity_cfg), "--out", str(root / "s7")])
        main(["run", "--config", str(tiny_intensity_cfg), "--seed", "123", "--out", str(root / "s123")])
        a = (root / "s7" / "report.txt").read_text()
        b = (root / "s123" / "report.txt").read_text()
        assert "seed = 123" in b and a != b
