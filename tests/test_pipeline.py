import errno
import json
import math
import os
import pickle
import re
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import rtm
from rtm.cli import main
from rtm.features import FEATURE_NAMES, N_FEATURES
from rtm.learners import ModelSpec
from rtm.metrics import MetricConfig, parse_report
from rtm.pipeline import (
    _FEATURE_ROW,
    ARTIFACT_FORMAT,
    _SOURCES,
    STAGES,
    ConfigError,
    StageError,
    _read_features,
    evaluate_files,
    parse_config,
    read_predictions,
    run_pipeline,
    run_stage,
)

from conftest import traced_peak, write_intensity_case, write_triples_case

# artifact -> (stages that read only its header, stages that read it whole)
ARTIFACT_READERS = {
    "resources.pkl": ((), ("extract-features",)),
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
            features.replace("# resource_keys=", "# resource_keys=dead")
        )
        with pytest.raises(StageError, match=r"features_train\.tsv: resource_keys=dead\w+ but "
                                             r"the config \(lm_order, aligner_iterations\) "
                                             r"reads \w+: a resource key changed; "
                                             r"re-run build-resources$"):
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

    def test_model_of_stump_objects_refused(self, tiny_intensity_cfg, monkeypatch, capsys):
        # AdaBoost.R2 once held its rounds as ``_Stump`` objects in a format-4
        # body.  The format stayed 4 when they became one stump table, so the
        # unpickler is what refuses such a body: ``_Stump`` is gone.
        import rtm.learners

        argv = ["--config", str(tiny_intensity_cfg), "--out", str(tiny_intensity_cfg.parent / "o")]
        for stage in STAGES[:4]:
            assert main([stage, *argv]) == 0
        path = tiny_intensity_cfg.parent / "o" / "model.pkl"
        model = pickle.loads(path.read_bytes().partition(b"\n")[2])

        class _Stump:  # stands for the old layout's fitted round
            __slots__ = ("feature", "cut", "left", "right")

        _Stump.__module__, _Stump.__qualname__ = "rtm.learners", "_Stump"
        stump = _Stump()
        stump.feature, stump.cut, stump.left, stump.right = None, None, 0.5, 0.5
        old = rtm.learners._AdaBoostR2.__new__(rtm.learners._AdaBoostR2)
        old.stumps, old.alphas = [stump], [1.0]
        model.members[0].inner = old
        with monkeypatch.context() as patch:
            patch.setattr(rtm.learners, "_Stump", _Stump, raising=False)
            path.write_bytes(_header_line(path) + b"\n" + pickle.dumps(model, protocol=4))
        assert b"rtm.learners" in path.read_bytes() and b"_Stump" in path.read_bytes()
        capsys.readouterr()
        assert main(["predict", *argv]) == 1
        err = capsys.readouterr().err
        assert re.search(r"model\.pkl: body truncated or written by an incompatible build "
                         r"\(.*_Stump.*\); re-run train", err), err

    def test_train_reads_only_the_resources_header(self, tiny_intensity_cfg):
        # the features record every source of the resources, so train reads
        # none of resources.pkl
        cfg = parse_config(tiny_intensity_cfg)
        out = tiny_intensity_cfg.parent / "out_header"
        for stage in STAGES[:3]:
            run_stage(cfg, out, stage)
        path = out / "resources.pkl"
        path.write_bytes(_header_line(path) + b"\nnot a pickle")  # the body, unreadable
        features = (out / "features_train.tsv").read_text()
        (out / "features_train.tsv").write_text(features.replace("# corpus=", "# corpus=dead"))
        with pytest.raises(StageError, match="corpus=dead"):
            run_stage(cfg, out, "train")
        (out / "features_train.tsv").write_text(features)
        run_stage(cfg, out, "train")
        with pytest.raises(StageError, match="incompatible build"):
            run_stage(cfg, out, "extract-features")

    def test_incompatible_resources_pickle_refused(self, tiny_intensity_cfg, monkeypatch):
        # A resources.pkl body is named arrays read with allow_pickle=False: a
        # pickled body behind a current header, or a whole-file pickle as the
        # first builds wrote, is refused and never unpickled.
        cfg = parse_config(tiny_intensity_cfg)
        out = tiny_intensity_cfg.parent / "out_old_resources"
        for stage in STAGES[:3]:
            run_stage(cfg, out, stage)
        path = out / "resources.pkl"
        line = _header_line(path)
        header = json.loads(line)
        assert path.read_bytes()[len(line) + 1 :].startswith(b"\x93NUMPY")
        monkeypatch.setattr(pickle, "load", lambda fh: pytest.fail("unpickled the body"))
        monkeypatch.setattr(pickle, "loads", lambda data: pytest.fail("unpickled the body"))
        blob = {k: v for k, v in header.items() if k != "format"}
        for data in (line + b"\n" + pickle.dumps({"aligner": {"a": {"a": 1.0}}}),
                     pickle.dumps({**blob, "resources": {"a": 1}})):
            path.write_bytes(data)
            for stage in sum(ARTIFACT_READERS["resources.pkl"], ()):
                with pytest.raises(StageError, match="incompatible build"):
                    run_stage(cfg, out, stage)

    def test_format_4_resources_refused(self, tiny_intensity_cfg, monkeypatch):
        # a format-4 resources.pkl is one pickle of dicts of string tuples;
        # the header alone refuses it, naming the stage that rewrites it
        cfg, out = _full_run(tiny_intensity_cfg, "out_format_4")
        path = out / "resources.pkl"
        header = {**json.loads(_header_line(path)), "format": 4}
        del header["arrays"]
        path.write_bytes(json.dumps(header).encode() + b"\n" + pickle.dumps({"lm": None}))
        monkeypatch.setattr(pickle, "load", lambda fh: pytest.fail("unpickled the body"))
        with pytest.raises(StageError, match=r"resources\.pkl: written by an incompatible build "
                                             r"\(format 4, expected 5\); re-run build-resources"):
            run_stage(cfg, out, "extract-features")

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
                                    ("format", 2, f"format 2, expected {ARTIFACT_FORMAT}")):
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
            with pytest.raises(StageError, match=rf"\(format 3, expected {ARTIFACT_FORMAT}\); "
                                                 rf"re-run {writer}"):
                run_stage(cfg, out, stage)

    def test_evaluate_reads_only_the_model_header(self, tiny_intensity_cfg):
        cfg, out = _full_run(tiny_intensity_cfg, "out_eval_header")
        report = (out / "report.txt").read_bytes()
        path = out / "model.pkl"
        header = json.loads(_header_line(path))
        assert set(header) == {"version", "format", "config_hash", "sources", "cv_table"}
        assert set(json.loads(_header_line(out / "resources.pkl"))) == {
            "version", "format", "config_hash", "sources", "arrays"}
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

    def test_stale_interpretants_refused(self, tiny_intensity_cfg):
        # the indices name lines of the corpus the selection read, picked
        # under its FDA keys; another corpus or key makes them other sentences
        cfg = parse_config(tiny_intensity_cfg)
        out = tiny_intensity_cfg.parent / "out"
        run_stage(cfg, out, "select-interpretants")
        path, corpus = out / "interpretants.tsv", tiny_intensity_cfg.parent / "corpus.txt"
        written, sentences = path.read_text(), corpus.read_text()
        corpus.write_text("".join(reversed(sentences.splitlines(keepends=True))))
        with pytest.raises(StageError, match=r"^stage build-resources: \S*interpretants\.tsv: "
                                             r"corpus=[0-9a-f]{16} but \S*corpus\.txt reads "
                                             r"[0-9a-f]{16}: the corpus changed; "
                                             r"re-run select-interpretants$"):
            run_stage(cfg, out, "build-resources")
        corpus.write_text(sentences)
        with pytest.raises(StageError, match="FDA key changed; re-run select-interpretants$"):
            run_stage(replace(cfg, decay=0.25), out, "build-resources")
        path.write_text("".join(line for line in written.splitlines(keepends=True)
                                if not line.startswith("# corpus=")))
        with pytest.raises(StageError, match=r"corpus=\(none\) .* re-run select-interpretants$"):
            run_stage(cfg, out, "build-resources")
        assert not (out / "resources.pkl").exists()
        path.write_text(written)
        run_stage(replace(cfg, lm_order=2), out, "build-resources")  # not an FDA key

    def test_stale_resources_refused(self, tiny_intensity_cfg, capsys):
        # the resources were built from the corpus's sentences under the
        # resource keys; another corpus or key makes them other resources
        root = tiny_intensity_cfg.parent
        out = root / "out"
        argv = ["--config", str(tiny_intensity_cfg), "--out", str(out)]
        assert main(["run", *argv]) == 0
        corpus = root / "corpus.txt"
        sentences = corpus.read_text().splitlines(keepends=True)
        corpus.write_text("".join(np.random.default_rng(0).permutation(sentences)))
        capsys.readouterr()
        assert main(["extract-features", *argv]) == 1
        err = capsys.readouterr().err
        assert re.search(r"stage extract-features: \S*resources\.pkl: corpus=[0-9a-f]{16} "
                         r"but \S*corpus\.txt reads [0-9a-f]{16}: the corpus changed; "
                         r"re-run select-interpretants\n", err), err
        assert not (out / "features_train.tsv").exists()
        corpus.write_text("".join(sentences))
        with pytest.raises(StageError, match="resource key changed; re-run build-resources$"):
            run_stage(replace(parse_config(tiny_intensity_cfg), lm_order=2), out,
                      "extract-features")
        assert main(["extract-features", *argv]) == 0

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


def _reverse_rows(path):
    """Reverse the data rows of a dataset file, keeping its header row."""
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    head = 1 if lines[0].startswith("id\t") else 0
    path.write_text("".join(lines[:head] + lines[head:][::-1]), encoding="utf-8")


class TestGoldsBoundById:
    """Training golds are read by the instance ids of the features file,
    not by their position in the dataset file."""

    @pytest.mark.parametrize("task, extra", [("intensity", "grounding = predictions"),
                                             ("triples", "threshold = optimized")])
    def test_reordered_train_file_refused(self, tmp_path, task, extra):
        # CV folds and FDA's first-occurrence feature ids follow the row
        # order, so the reordered file is another run: refused from the
        # selection on, and equal to a fresh run once re-run from there
        # (train and the two predict paths that read the training golds)
        cfg_path = _small_case(tmp_path, task)
        text = cfg_path.read_text(encoding="utf-8").replace("threshold = fixed:0.5\n", "")
        cfg_path.write_text(text + extra + "\n", encoding="utf-8")
        cfg, out = _full_run(cfg_path, "out")
        _reverse_rows(tmp_path / "train.tsv")
        for stage in STAGES[3:0:-1]:  # train first: a failed stage removes its outputs
            with pytest.raises(StageError, match=r"train=\w+ but \S*train\.tsv reads \w+: its "
                                                 r"ids or texts changed; re-run "
                                                 r"select-interpretants$"):
                run_stage(cfg, out, stage)
        for stage in STAGES:
            run_stage(cfg, out, stage)
        _, fresh = _full_run(cfg_path, "fresh")
        names = sorted(p.name for p in fresh.iterdir() if p.name != "timings.txt")
        assert len(names) == 8
        for name in names:
            assert (out / name).read_bytes() == (fresh / name).read_bytes(), name

    @pytest.mark.parametrize("task", ["intensity", "triples"])
    def test_id_in_one_file_only_refused(self, tmp_path, task):
        cfg, out = _full_run(_small_case(tmp_path, task), "out")
        train = tmp_path / "train.tsv"
        kept = train.read_text(encoding="utf-8")
        _edit_ids(train, lambda rid: rid + "x", lineno=3)
        rid = train.read_text(encoding="utf-8").splitlines()[2].split("\t")[0]
        with pytest.raises(StageError, match=rf"stage train: \S*features_train\.tsv: instance "
                                             rf"'{rid[:-1]}' is not in \S*train\.tsv"):
            run_stage(cfg, out, "train")
        # a gold id that no feature row carries
        train.write_text(kept + kept.splitlines(keepends=True)[2].replace(rid[:-1], "zz", 1),
                         encoding="utf-8")
        with pytest.raises(StageError, match=r"stage train: \S*train\.tsv: instance 'zz' "
                                             r"is not in \S*features_train\.tsv"):
            run_stage(cfg, out, "train")

    def test_test_row_deleted_from_features_refused(self, tmp_path, capsys):
        # Deleting a data row of features_test.tsv once left its instance out
        # of predictions.tsv and the report, and both stages exited 0.
        cfg_path = _small_case(tmp_path, "intensity")
        _, out = _full_run(cfg_path, "out")
        path = out / "features_test.tsv"
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        rid = lines[-1].split("\t")[0]
        path.write_text("".join(lines[:-1]), encoding="utf-8")
        argv = ["predict", "--config", str(cfg_path), "--out", str(out)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert re.fullmatch(rf"rtm: stage predict: \S*test\.tsv: instance '{rid}' is not in "
                            rf"\S*features_test\.tsv\n", err), err
        assert not (out / "predictions.tsv").exists()

    @pytest.mark.parametrize("task", ["intensity", "triples"])
    def test_test_id_in_one_file_only_refused(self, tmp_path, task):
        cfg, out = _full_run(_small_case(tmp_path, task), "out")
        test = tmp_path / "test.tsv"
        _edit_ids(test, lambda rid: rid + "x", lineno=3)
        rid = test.read_text(encoding="utf-8").splitlines()[2].split("\t")[0]
        with pytest.raises(StageError, match=rf"stage predict: \S*features_test\.tsv: instance "
                                             rf"'{rid[:-1]}' is not in \S*test\.tsv"):
            run_stage(cfg, out, "predict")

    def test_unpredicted_gold_instance_refused(self, tmp_path):
        cfg, out = _full_run(_small_case(tmp_path, "intensity"), "out")
        path = out / "predictions.tsv"
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        ids = [line.split("\t")[0] for line in lines[-6:]]
        path.write_text("".join(lines[:-6]), encoding="utf-8")
        listed = re.escape(str(ids[:5])) + r"\.\.\."
        with pytest.raises(StageError, match=rf"stage evaluate: \S*predictions\.tsv has no row "
                                             rf"for gold instances {listed}$"):
            run_stage(cfg, out, "evaluate")
        with pytest.raises(ValueError, match=rf"has no row for gold instances {listed}$"):
            evaluate_files(path, tmp_path / "test.tsv")
        # an instance whose gold is NONE need not be predicted
        test = tmp_path / "test.tsv"
        rows = test.read_text(encoding="utf-8").splitlines(keepends=True)
        unscored = [r if r.split("\t")[0] not in ids else "\t".join(r.split("\t")[:3]) + "\tNONE\n"
                    for r in rows]
        test.write_text("".join(unscored), encoding="utf-8")
        assert evaluate_files(path, test).r > 0.0

    def test_instance_listed_twice_refused(self, tmp_path):
        cfg, out = _full_run(_small_case(tmp_path, "intensity"), "out")
        path = out / "features_train.tsv"
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        path.write_text("".join(lines + lines[-1:]), encoding="utf-8")
        rid = lines[-1].split("\t")[0]
        with pytest.raises(StageError, match=rf"stage train: \S*features_train\.tsv: instance "
                                             rf"'{rid}' appears twice"):
            run_stage(cfg, out, "train")

    def test_paired_rows_with_other_ids_refused(self, tmp_path):
        cfg, out = _full_run(_small_case(tmp_path, "triples"), "out")
        # predict first: a failed train removes model.pkl
        for stage, name in (("predict", "features_test.tsv"), ("train", "features_train.tsv")):
            path = out / name
            lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
            b_rows = [i for i, line in enumerate(lines) if line.split("\t")[1:2] == ["b"]]
            a_id, other = (lines[i].split("\t")[0] for i in (b_rows[1] - 1, b_rows[2]))
            lines[b_rows[1]] = other + lines[b_rows[1]][len(a_id):]
            path.write_text("".join(lines), encoding="utf-8")
            with pytest.raises(StageError, match=rf"stage {stage}: row pair 2: a-row id "
                                                 rf"'{a_id}' but b-row id '{other}'"):
                run_stage(cfg, out, stage)


def _edit_field(path, col, edit, lineno):
    """Apply ``edit`` to column ``col`` of line ``lineno`` of a dataset."""
    lines = path.read_text(encoding="utf-8").split("\n")
    fields = lines[lineno - 1].split("\t")
    fields[col] = edit(fields[col])
    lines[lineno - 1] = "\t".join(fields)
    path.write_text("\n".join(lines), encoding="utf-8")


class TestDatasetDigest:
    """A features file records which dataset texts its rows came from."""

    @pytest.mark.parametrize("task, text_col, gold_col, fix_gold", [
        ("intensity", 1, 3, lambda gold: "0.5"),
        ("triples", 3, 4, lambda gold: "1" if gold == "0" else "0"),
    ])
    def test_changed_text_refused_changed_gold_retrains(self, tmp_path, capsys, task, text_col,
                                                        gold_col, fix_gold):
        cfg_path = _small_case(tmp_path, task)
        _, out = _full_run(cfg_path, "out")
        train, argv = tmp_path / "train.tsv", ["train", "--config", str(cfg_path), "--out", str(out)]
        kept = train.read_text(encoding="utf-8")
        assert sum(line.startswith("# train=") for line in
                   (out / "features_train.tsv").read_text(encoding="utf-8").splitlines()) == 1
        _edit_field(train, text_col, lambda text: text + " extra", lineno=3)
        assert main(argv) == 1
        err = capsys.readouterr().err
        # FDA selected the interpretants for the training texts too
        assert re.fullmatch(r"rtm: stage train: \S*features_train\.tsv: train=[0-9a-f]{16} "
                            r"but \S*train\.tsv reads [0-9a-f]{16}: its ids or texts changed; "
                            r"re-run select-interpretants\n", err), err
        assert not (out / "model.pkl").exists()
        # a fixed gold is not a changed text: train runs on the same features
        train.write_text(kept, encoding="utf-8")
        _edit_field(train, gold_col, fix_gold, lineno=3)
        assert main(argv) == 0

    def test_changed_test_text_refused_in_predict(self, tmp_path):
        cfg, out = _full_run(_small_case(tmp_path, "intensity"), "out")
        _edit_field(tmp_path / "test.tsv", 1, lambda text: "new " + text, lineno=2)
        with pytest.raises(StageError, match=r"stage predict: \S*features_test\.tsv: test=\w+ "
                                             r"but \S*test\.tsv reads \w+: its ids or texts "
                                             r"changed; re-run select-interpretants$"):
            run_stage(cfg, out, "predict")

    def test_changed_lexicon_refused(self, tmp_path, capsys):
        # every intensity row was scored against the emotion target(s)
        cfg_path = _small_case(tmp_path, "intensity")
        _, out = _full_run(cfg_path, "out")
        lexicon = tmp_path / "lexicon.txt"
        kept = lexicon.read_text(encoding="utf-8")
        # a section no run asks for leaves the targets, and the features, as they are
        lexicon.write_text(kept + "#anger\nfury\n", encoding="utf-8")
        for stage in ("predict", "train"):
            assert main([stage, "--config", str(cfg_path), "--out", str(out)]) == 0
        lexicon.write_text("".join(line if line.startswith("#") else "new" + line
                                   for line in kept.splitlines(keepends=True)), encoding="utf-8")
        # predict first: a failed train removes model.pkl
        for stage, split in (("predict", "test"), ("train", "train")):
            assert main([stage, "--config", str(cfg_path), "--out", str(out)]) == 1
            err = capsys.readouterr().err
            assert re.fullmatch(rf"rtm: stage {stage}: \S*features_{split}\.tsv: "
                                r"targets=[0-9a-f]{16} but \S*lexicon\.txt reads [0-9a-f]{16}: "
                                r"an emotion target changed; re-run select-interpretants\n",
                                err), err

    def test_features_without_dataset_line_refused(self, tmp_path):
        cfg, out = _full_run(_small_case(tmp_path, "triples"), "out")
        path = out / "features_train.tsv"
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        path.write_text("".join(line for line in lines if not line.startswith("# train=")),
                        encoding="utf-8")
        with pytest.raises(StageError, match=r"train=\(none\) .* re-run select-interpretants$"):
            run_stage(cfg, out, "train")


def _set_key(cfg_path, key, value):
    """Set ``key = value`` in a config file, replacing the key's line if any."""
    text = cfg_path.read_text(encoding="utf-8")
    line = f"{key} = {value}\n"
    text, found = re.subn(rf"^{key} = .*\n", line, text, flags=re.M)
    cfg_path.write_text(text if found else text + line, encoding="utf-8")


def _append(path, text):
    path.write_text(path.read_text(encoding="utf-8") + text, encoding="utf-8")


def _flip_golds(root):
    """Replace each intensity training gold g by 1 - g."""
    path = root / "train.tsv"
    lines = path.read_text(encoding="utf-8").split("\n")
    for i, line in enumerate(lines):
        if line and not line.startswith("id\t"):
            rest, _, gold = line.rpartition("\t")
            lines[i] = f"{rest}\t{1.0 - float(gold)!r}"
    path.write_text("\n".join(lines), encoding="utf-8")


def _rename_lexicon_entries(root):
    lexicon = root / "lexicon.txt"
    lines = lexicon.read_text(encoding="utf-8").splitlines(keepends=True)
    lexicon.write_text("".join(line if line.startswith("#") else "new" + line for line in lines),
                       encoding="utf-8")


# One edit of each source in ``_SOURCES`` after a full run of the intensity
# case, and the first stage to read an output built from it, which must
# refuse naming that output.
STALE_EDITS = {
    "corpus": (lambda root: _append(root / "corpus.txt", "w001 w002 w003\n"),
               "build-resources", "interpretants.tsv"),
    "train": (lambda root: _edit_field(root / "train.tsv", 1, lambda t: t + " w001", lineno=2),
              "build-resources", "interpretants.tsv"),
    "test": (lambda root: _edit_field(root / "test.tsv", 1, lambda t: "w001 " + t, lineno=3),
             "build-resources", "interpretants.tsv"),
    "targets": (_rename_lexicon_entries, "build-resources", "interpretants.tsv"),
    "fda_keys": (lambda root: _set_key(root / "run.cfg", "decay", "0.25"),
                 "build-resources", "interpretants.tsv"),
    "resource_keys": (lambda root: _set_key(root / "run.cfg", "aligner_iterations", "2"),
                      "extract-features", "resources.pkl"),
    "golds": (_flip_golds, "predict", "model.pkl"),
    "train_keys": (lambda root: _set_key(root / "run.cfg", "top_k", "1"), "predict", "model.pkl"),
    "predict_keys": (lambda root: _set_key(root / "run.cfg", "grounding", "predictions"),
                     "evaluate", "predictions.tsv"),
}

# Further edits of a source, refused as the source's own edit is:
# (source, edit).  CV folds and FDA's first-occurrence feature ids follow the
# order of a dataset's rows.
MORE_STALE_EDITS = {
    "reordered train.tsv": ("train", lambda root: _reverse_rows(root / "train.tsv")),
}

# Edits that leave every output current: the stages after the full run all
# still run, in order.
LEGAL_EDITS = {
    # a gold fix needs a new train only, which the stage walk runs
    "fixed gold": lambda root: _edit_field(root / "train.tsv", 3, lambda gold: "0.5", lineno=2),
    "unasked lexicon section": lambda root: _append(root / "lexicon.txt", "#anger\nfury\n"),
}


class TestProvenance:
    """Every output records the sources it was built from; a stage refuses
    an output whose sources changed since, naming the stage to re-run."""

    @pytest.mark.parametrize("edit", [*STALE_EDITS, *MORE_STALE_EDITS, *LEGAL_EDITS])
    def test_each_source_change_refused_where_first_read(self, tmp_path, capsys, edit):
        assert list(STALE_EDITS) == list(_SOURCES)  # one edit per row of the table
        cfg_path = _small_case(tmp_path, "intensity")
        _, out = _full_run(cfg_path, "out")
        argv = ["--config", str(cfg_path), "--out", str(out)]
        capsys.readouterr()
        if edit in LEGAL_EDITS:
            LEGAL_EDITS[edit](tmp_path)
            for stage in STAGES[1:]:
                assert main([stage, *argv]) == 0, capsys.readouterr().err
            return
        source, change = MORE_STALE_EDITS.get(edit) or (edit, STALE_EDITS[edit][0])
        _, stage, name = STALE_EDITS[source]
        rerun = _SOURCES[source][0]
        assert stage == STAGES[STAGES.index(rerun) + 1]
        change(tmp_path)
        assert main([stage, *argv]) == 1
        err = capsys.readouterr().err
        assert re.fullmatch(rf"rtm: stage {stage}: \S*/{re.escape(name)}: {source}=[0-9a-f]{{16}} "
                            rf"but .* reads [0-9a-f]{{16}}: .* changed; re-run {rerun}\n", err), err

    def test_stale_model_refused(self, tmp_path, capsys):
        cfg_path = write_intensity_case(tmp_path, n_texts=80, n_train=60, corpus_size=120)
        _, out = _full_run(cfg_path, "out")
        argv = ["--config", str(cfg_path), "--out", str(out)]
        _flip_golds(tmp_path)
        assert main(["extract-features", *argv]) == 0  # the golds are no feature source
        # evaluate first: a failed predict removes predictions.tsv
        for stage, name in (("evaluate", "predictions.tsv"), ("predict", "model.pkl")):
            assert main([stage, *argv]) == 1
            assert re.fullmatch(rf"rtm: stage {stage}: \S*/{name}: golds=\w+ but \S*train\.tsv "
                                r"reads \w+: its golds changed; re-run train\n",
                                capsys.readouterr().err)
        assert main(["train", *argv]) == main(["predict", *argv]) == 0
        # a train key changed after training, in the config or by --seed
        for top_k, seed in (("1", []), ("2", ["--seed", "5"])):
            _set_key(cfg_path, "top_k", top_k)
            if seed:
                assert main(["train", *argv, *seed]) == 0
            capsys.readouterr()
            assert main(["predict", *argv]) == 1
            assert re.fullmatch(r"rtm: stage predict: \S*/model\.pkl: train_keys=\w+ but the "
                                r"config \(architecture, grids, top_k, base_learner, cv_folds, "
                                r"seed\) reads \w+: a train key changed; re-run train\n",
                                capsys.readouterr().err)

    def test_stale_predictions_refused_by_evaluate(self, tmp_path, capsys):
        cfg_path = write_triples_case(tmp_path, "combined", n_instances=120, n_train=90,
                                      corpus_size=150)
        _, out = _full_run(cfg_path, "out")
        argv = ["--config", str(cfg_path), "--out", str(out)]
        before = (out / "report.txt").read_text(encoding="utf-8").partition("[metrics]")[2]
        _set_key(cfg_path, "threshold", "fixed:1.5")
        capsys.readouterr()
        assert main(["evaluate", *argv]) == 1
        assert re.fullmatch(r"rtm: stage evaluate: \S*/predictions\.tsv: predict_keys=\w+ but "
                            r"the config \(threshold, grounding\) reads \w+: a predict key "
                            r"changed; re-run predict\n", capsys.readouterr().err)
        assert main(["predict", *argv]) == main(["evaluate", *argv]) == 0
        assert (out / "report.txt").read_text(encoding="utf-8").partition("[metrics]")[2] != before

    def test_stale_selection_refused(self, tmp_path, capsys):
        # FDA picked the interpretants for the test texts too
        cfg_path = write_intensity_case(tmp_path, n_texts=80, n_train=60, corpus_size=120)
        _set_key(cfg_path, "budget", "40")
        _, out = _full_run(cfg_path, "out")
        argv = ["--config", str(cfg_path), "--out", str(out)]
        train_texts = [line.split("\t")[1] for line in
                       (tmp_path / "train.tsv").read_text(encoding="utf-8").splitlines()[1:]]
        for lineno in range(2, 22):  # every test row
            _edit_field(tmp_path / "test.tsv", 1, lambda _: train_texts[lineno], lineno=lineno)
        capsys.readouterr()
        assert main(["extract-features", *argv]) == 1
        assert re.fullmatch(r"rtm: stage extract-features: \S*/resources\.pkl: test=\w+ but "
                            r"\S*test\.tsv reads \w+: its ids or texts changed; "
                            r"re-run select-interpretants\n", capsys.readouterr().err)
        for stage in STAGES:
            assert main([stage, *argv]) == 0
        _, fresh = _full_run(cfg_path, "fresh")
        for name in ("interpretants.tsv", "features_test.tsv", "predictions.tsv", "report.txt"):
            assert (out / name).read_bytes() == (fresh / name).read_bytes(), name


def test_feature_row_format_matches_numpy_scalar_format():
    # the writer formats Python floats from tolist(); the bytes are those of
    # formatting each numpy scalar
    values = [-0.0, 5e-324, 0.1, 1 / 3, 1e16, 2.0**53 + 2, 1.7976931348623157e308]
    for v in values:
        assert "%.17g" % v == f"{np.float64(v):.17g}"
    matrix = np.resize(np.array(values), (3, N_FEATURES))
    for vec, row in zip(matrix, matrix.tolist()):
        expected = "t1\ta\t" + "\t".join(f"{v:.17g}" for v in vec) + "\n"
        assert _FEATURE_ROW % ("t1", "a", *row) == expected


def _ref_read_features(text: str):
    """(ids, tags, matrix) of a features file's text, parsed through lists."""
    rows = [line.split("\t") for line in text.replace("\r\n", "\n").split("\n")
            if line.strip() and not line.startswith("#")][1:]
    return ([r[0] for r in rows], [r[1] for r in rows],
            np.array([[float(v) for v in r[2:]] for r in rows]).reshape(len(rows), N_FEATURES))


def _features_text(matrix) -> str:
    """A features file of ``matrix``, its rows t0/a, t1/b, t2/a, ..."""
    lines = ["# rtm 0 config=0\n", "# corpus=c\n", "# train=t\n",
             "id\trow\t" + "\t".join(FEATURE_NAMES) + "\n"]
    lines += [_FEATURE_ROW % (f"t{i}", "ab"[i % 2], *vec) for i, vec in enumerate(matrix.tolist())]
    return "".join(lines)


class TestFeaturesReader:
    def test_equals_a_list_parse(self, tmp_path):
        g = np.random.default_rng(4)
        matrix = g.normal(size=(9, N_FEATURES)) * 10.0 ** g.integers(-300, 300, (9, N_FEATURES))
        matrix[0, :3] = -0.0, 5e-324, -5e-324
        matrix[4] = 0.0
        text = _features_text(matrix)
        head, _, body = text.partition("t0\t")
        lines = ("t0\t" + body).splitlines(keepends=True)
        # blank lines, a comment between rows and a CRLF row end
        text = head + "\n" + lines[0] + "  \n# note\n" + lines[1].replace("\n", "\r\n")
        text += "".join(lines[2:]) + "\n\n"
        path = tmp_path / "features_train.tsv"
        path.write_bytes(text.encode("utf-8"))
        got = _read_features(path)
        ids, tags, ref = _ref_read_features(text)
        assert got.ids == ids and got.tags == tags and len(ids) == 9
        assert got.matrix.tobytes() == ref.tobytes() == matrix.tobytes()
        assert got.records == {"corpus": "c", "train": "t"}

    def test_traced_peak_near_the_matrix(self, tmp_path):
        # the rows go straight into one float64 buffer: no row text and no
        # per-cell float is kept (a list parse peaks near 16x the matrix)
        matrix = np.random.default_rng(5).random((5000, N_FEATURES))
        path = tmp_path / "features_train.tsv"
        path.write_text(_features_text(matrix), encoding="utf-8")
        got, peak = traced_peak(_read_features, path)
        assert got.matrix.tobytes() == matrix.tobytes()
        assert peak < 3 * matrix.nbytes

    @pytest.mark.parametrize("edit,message", [
        (lambda f: f[:22] + ["abc"] + f[23:], rf":6: {FEATURE_NAMES[20]} is 'abc', not a finite"),
        (lambda f: f[:-1] + ["-nan"], rf":6: {FEATURE_NAMES[-1]} is '-nan', not a finite"),
        (lambda f: f[:-1], rf":6: expected {2 + N_FEATURES} columns, got {1 + N_FEATURES}$"),
    ], ids=["non-numeric", "nan", "short"])
    def test_refusals_name_line_and_cell(self, tmp_path, edit, message):
        lines = _features_text(np.ones((4, N_FEATURES))).splitlines(keepends=True)
        lines[5] = "\t".join(edit(lines[5].rstrip("\n").split("\t"))) + "\n"  # the 2nd row
        # a later non-numeric cell is not reached first
        lines[7] = lines[7].replace("\t1\t", "\tx\t", 1)
        path = tmp_path / "features_train.tsv"
        path.write_text("".join(lines), encoding="utf-8")
        with pytest.raises(StageError, match=rf"^{re.escape(str(path))}{message}"):
            _read_features(path)

    def test_wrong_width_refused_before_a_bad_cell(self, tmp_path):
        lines = _features_text(np.ones((4, N_FEATURES))).splitlines(keepends=True)
        lines[4] = lines[4].replace("\t1\t", "\tabc\t", 1)
        lines[6] = lines[6].rstrip("\n") + "\t1\n"
        path = tmp_path / "features_train.tsv"
        path.write_text("".join(lines), encoding="utf-8")
        with pytest.raises(StageError, match=rf":7: expected {2 + N_FEATURES} columns, got "):
            _read_features(path)

    @pytest.mark.parametrize("text", ["", "# only a comment\n", "t1\ta\t1\n"])
    def test_missing_header_refused(self, tmp_path, text):
        path = tmp_path / "features_train.tsv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(StageError, match="header row is not id, row and this build's"):
            _read_features(path)

    def test_streamed_file_equals_the_joined_one(self, tiny_intensity_cfg, tmp_path):
        from rtm.pipeline import RowSet, _banner, _write_features

        cfg = parse_config(tiny_intensity_cfg)
        g = np.random.default_rng(6)
        matrix = g.normal(size=(50, N_FEATURES)) * 10.0 ** g.integers(-300, 300, (50, N_FEATURES))
        matrix[0, :2] = -0.0, 5e-324
        rows = RowSet([f"t{i // 2}" for i in range(50)], ["ab"[i % 2] for i in range(50)], [], [])
        (tmp_path / "out").mkdir()
        path = tmp_path / "out" / "features_train.tsv"
        _write_features(path, cfg, {"corpus": "fedcba9876543210", "train": "0123456789abcdef"},
                        rows, matrix)
        joined = [_banner(cfg), "# corpus=fedcba9876543210\n", "# train=0123456789abcdef\n",
                  "id\trow\t" + "\t".join(FEATURE_NAMES) + "\n"]
        joined += [_FEATURE_ROW % (rid, tag, *vec.tolist())
                   for rid, tag, vec in zip(rows.ids, rows.tags, matrix)]
        assert path.read_bytes() == "".join(joined).encode("utf-8")
        assert list(path.parent.iterdir()) == [path]  # no temporary file left


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
        row = lines.index("index\tscore\n") + 3
        lines[row] = index + "\t" + lines[row].split("\t", 1)[1]
        path.write_text("".join(lines), encoding="utf-8")
        with pytest.raises(StageError, match=rf"interpretants.tsv:{row + 1}: " + message):
            run_stage(cfg, out, "build-resources")
        assert not (out / "resources.pkl").exists()


def _set_golds(path, gold):
    """Set the gold of every data row of a dataset (its last field) to ``gold``."""
    lines = path.read_text(encoding="utf-8").split("\n")
    for i, line in enumerate(lines):
        if line and not line.startswith("id\t"):
            lines[i] = f"{line.rpartition(chr(9))[0]}\t{gold}"
    path.write_text("\n".join(lines), encoding="utf-8")


class TestRefusedEarly:
    """Inputs no grid can be ranked on are refused by train, before any fit,
    naming the file or the config key."""

    @pytest.mark.parametrize("task, gold, shown", [("intensity", "0.5", "0.5"),
                                                   ("triples", "1", "1.0")])
    def test_constant_golds_refused(self, tmp_path, monkeypatch, task, gold, shown):
        import rtm.learners
        import rtm.stacking

        cfg_path = _small_case(tmp_path, task)
        _set_golds(tmp_path / "train.tsv", gold)
        cfg = parse_config(cfg_path)
        out = tmp_path / "out"
        for stage in STAGES[:3]:
            run_stage(cfg, out, stage)
        for module in (rtm.learners, rtm.stacking):
            monkeypatch.setattr(module, "fold_indices",
                                lambda *args: pytest.fail("train drew folds"))
        with pytest.raises(StageError, match=rf"^stage train: {re.escape(str(cfg.train))}: "
                                             rf"every training gold is {re.escape(shown)}$"):
            run_stage(cfg, out, "train")
        assert not (out / "model.pkl").exists()

    def test_more_folds_than_rows_refused(self, tiny_intensity_cfg):
        _set_key(tiny_intensity_cfg, "cv_folds", "46")
        cfg = parse_config(tiny_intensity_cfg)
        with pytest.raises(StageError, match=rf"^stage train: {re.escape(str(cfg.train))}: "
                                             r"cv_folds = 46 is more than its 45 training rows$"):
            run_pipeline(cfg, tiny_intensity_cfg.parent / "out")

    def test_byte_order_mark_dropped(self, tiny_intensity_cfg):
        _, plain = _full_run(tiny_intensity_cfg, "plain")
        train = tiny_intensity_cfg.parent / "train.tsv"
        train.write_text("\ufeff" + train.read_text(encoding="utf-8"), encoding="utf-8")
        assert train.read_bytes().startswith(b"\xef\xbb\xbfid\t")
        _, marked = _full_run(tiny_intensity_cfg, "marked")
        names = sorted(p.name for p in plain.iterdir() if p.name != "timings.txt")
        for name in names:
            assert (marked / name).read_bytes() == (plain / name).read_bytes(), name


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
        # every stage reads the datasets and the lexicon for the digests of
        # the sources its outputs and inputs record
        datasets = {"lexicon.txt": 1, "train.tsv": 1, "test.tsv": 1}
        assert counts["select-interpretants"] == {"corpus.txt": 1, **datasets}
        assert counts["build-resources"] == {"interpretants.tsv": 1, "corpus.txt": 1, **datasets}
        assert counts["extract-features"] == datasets
        assert counts["train"] == {"features_train.tsv": 1, **datasets}
        assert counts["predict"] == {"features_test.tsv": 1, **datasets}
        assert counts["evaluate"] == {"predictions.tsv": 1, **datasets}

    def test_triples_train_set_loaded_once_in_predict(self, tmp_path, monkeypatch):
        cfg_path = write_triples_case(
            tmp_path, "separate", n_instances=60, n_train=45, corpus_size=60
        )
        text = cfg_path.read_text().replace("threshold = fixed:0.5", "threshold = optimized")
        cfg_path.write_text(text + "grounding = predictions\n")
        counts = self._reads_per_stage(cfg_path, monkeypatch)
        # grounding and threshold tuning both need the training golds
        assert counts["predict"] == {"features_test.tsv": 1, "test.tsv": 1, "train.tsv": 1,
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
        # and the lexicon's entries, for the digest of the emotion targets
        lexicon = (tiny_intensity_cfg.parent / "lexicon.txt").read_text().split("\n")
        entries = [line for line in lexicon if line.strip() and not line.startswith("#")]
        assert len(texts) == 15 + len(entries)

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

    def test_select_interpretants_streams_the_corpus(self, tiny_intensity_cfg):
        # Each corpus line is tokenized, mapped to task token ids and dropped:
        # 43 B per corpus token traced over 20k lines (124 B when every
        # sentence was kept as a TokenSeq).
        rng = np.random.default_rng(5)
        vocab = [f"w{i:03d}" for i in range(400)]
        lines = [" ".join(rng.choice(vocab, size=rng.integers(3, 12))) for _ in range(20000)]
        root = tiny_intensity_cfg.parent
        (root / "corpus.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
        cfg = parse_config(tiny_intensity_cfg)
        _, peak = traced_peak(run_stage, cfg, root / "out", "select-interpretants")
        tokens = sum(line.count(" ") + 1 for line in lines)
        assert peak / tokens < 60


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


@pytest.mark.parametrize("task", ["intensity", "triples"])
def test_perfbench_layer_metrics_of_a_traced_run(tmp_path, monkeypatch, task):
    """``layer_metrics`` reads what the traced calls return: the corpus's
    ``sentences``, ``selected_indices``, ``lm.in_vocab``, ``inner.stumps`` of
    an AdaBoost fit (default grid, intensity) and ``oof_audit`` of a stack
    (triples).  A refactor that drops one breaks ``--trace 1`` runs."""
    layers = _perfbench_layers()
    for owner_path, attr, _ in layers.SPANS:  # monkeypatch restores each one
        owner = layers._owner(owner_path)
        monkeypatch.setattr(owner, attr, getattr(owner, attr))
    tracer = layers.install()
    if task == "intensity":
        cfg_path = write_intensity_case(tmp_path, n_texts=60, n_train=45, corpus_size=60,
                                        vocab_size=60, n_lex=12, grids="default")
    else:
        cfg_path = _small_case(tmp_path, task)
    _full_run(cfg_path, "out")
    metrics = layers.layer_metrics(tracer)
    assert all(math.isfinite(v) for v in metrics.values()), metrics
    assert metrics["corpus.sentences"] == 60
    if task == "intensity":
        assert metrics["learners.ada_rounds_fitted"] > 0
    else:  # one fit per fold (cv_folds = 7) of the one combined base model
        assert metrics["stacking.oof_fits"] == 7


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

    @pytest.mark.parametrize("pred, gold, message", [
        ("a\t0.1\nb\tabc\n", "a\t0.1\nb\t0.5\n", r"pred.tsv:2: value 'abc' is not a finite number"),
        ("a\t0.1\nb\tnan\n", "a\t0.1\nb\t0.5\n", r"pred.tsv:2: value 'nan' is not a finite number"),
        ("a\t0.1\nb\t0.5\n", "a\t0.1\nb\tnan\n", r"gold.tsv:2: value 'nan' is not a finite number"),
        ("a\t0.1\t0\nb\t0.5\tx\n", "a\t0\nb\t1\n", r"pred.tsv:2: class 'x' not in \{0, 1\}"),
    ], ids=["non-numeric prediction", "nan prediction", "nan gold", "bad class"])
    def test_bad_cell_named(self, tmp_path, capsys, pred, gold, message):
        (tmp_path / "pred.tsv").write_text(pred)
        (tmp_path / "gold.tsv").write_text(gold)
        assert main(["evaluate", "--pred", str(tmp_path / "pred.tsv"),
                     "--gold", str(tmp_path / "gold.tsv")]) == 1
        assert re.search(message, capsys.readouterr().err)

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
        from rtm.features import FeatureResources
        from rtm.pipeline import _read_artifact

        for name, from_arrays in (("resources.pkl", FeatureResources.from_arrays),
                                  ("model.pkl", None)):
            _, body = _read_artifact(runs[case, "1"] / name, from_arrays=from_arrays)
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
