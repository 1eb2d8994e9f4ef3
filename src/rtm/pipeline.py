"""End-to-end pipeline: config files, staged execution, reports.

A run walks the stages select-interpretants -> build-resources ->
extract-features -> train -> predict -> evaluate, each reading the files the
previous stage wrote into the output directory.  The one-shot ``run`` executes
exactly this sequence, so stage-wise and one-shot execution produce
byte-identical outputs, and a repeated run with the same config reproduces
them bit for bit, artifacts included, under any PYTHONHASHSEED (wall-clock
timings go to a separate timings.txt, which is the one file outside that
guarantee).

Every text output starts with a comment line carrying the tool version and
the config hash.  The binary artifacts (resources.pkl, model.pkl) start with
one JSON header line carrying the same fields and a layout number; the
body follows: resources.pkl's is named arrays in .npy records, read without
pickle, and model.pkl's one pickle.  The header is checked before the body
is read, and a stage that needs only the header reads only the header.

One provenance rule covers every stage.  ``_SOURCES`` lists the sources of
the outputs (the corpus bytes, each dataset's ids and texts, the emotion
targets, the training golds, each stage's config keys), each with the first
stage that reads it.  An output records the digest of every source of the
stages up to its own, under the source's name.  Before a stage reads an
output, it recomputes those digests from the current inputs and config and
refuses a mismatch, naming the earliest stage that reads the changed source.
"""

from __future__ import annotations

import collections
import contextlib
import hashlib
import itertools
import json
import math
import os
import pickle
import time
from array import array
from dataclasses import dataclass, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__
from .corpus import (
    TokenSeq,
    _check_new_id,
    _dataset_rows,
    _fail,
    _read_lines,
    load_corpus,
    load_corpus_sentences,
    load_lexicon,
    lexicon_to_target,
    tokenize,
)
from .features import (
    FEATURE_NAMES,
    N_FEATURES,
    FeatureResources,
    build_feature_matrix,
    train_aligner,
)
from .interpretants import FdaConfig, WittenBellLM, build_ngram_weights, select_interpretants
from .learners import ModelSpec, average_top_k, default_grid, grid_search, small_grid
from .metrics import (
    MetricConfig,
    MetricReport,
    ScoreStats,
    ground_predictions,
    ground_threshold,
    metric_report,
    optimize_threshold,
)
from .stacking import (
    StackConfig,
    predict_stack_matrices,
    train_combined_stack_matrices,
    train_separate_stack_matrices,
)

# Layout of resources.pkl and model.pkl; a file of another layout is refused,
# not misread.  5: one JSON header line, then the body: the arrays the header
# names, one .npy record each (resources.pkl: id-indexed, one vocabulary for
# the weight table and the LM), or one pickle (model.pkl).  A format-4
# resources.pkl is one pickle of dicts of string tuples.
ARTIFACT_FORMAT = 5

class ConfigError(ValueError):
    pass


class StageError(RuntimeError):
    """A stage failed; carries the stage name in the message."""


def _finite(text: str) -> float:
    """The finite float ``text`` spells; ``nan`` and ``inf`` are refused."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"must be a finite number, got {text!r}")
    return value


def parse_epsilon(text: str) -> MetricConfig:
    """``half_mae`` or ``half_step:<step>`` with a finite step > 0, as written
    in the ``epsilon_mode`` config key and the ``--epsilon`` flag."""
    if text == "half_mae":
        return MetricConfig("half_mae")
    mode, colon, step = text.partition(":")
    if mode == "half_step" and colon:
        try:
            return MetricConfig("half_step", _finite(step))
        except ValueError:
            pass
    raise ConfigError(
        f"epsilon must be half_mae or half_step:<step> with a finite step > 0, got {text!r}")


def _base_spec(text: str) -> ModelSpec:
    kind, _, arg = text.partition(":")
    if kind == "rr":
        return ModelSpec("rr", alpha=_finite(arg or "1.0"))
    if kind == "knn":
        return ModelSpec("knn", k=int(arg or 5))
    if kind == "const":
        return ModelSpec("const")
    raise ValueError(f"must be rr:<alpha>, knn:<k> or const, got {text!r}")


_GRIDS = {"default": default_grid, "small": small_grid}


# ---------------------------------------------------------------------------
# The config key table.  Each parser turns a value's text into the RunConfig
# field or raises ValueError with the reason; parse_config names the key.


def _choice(*options):
    def parse(text):
        if text not in options:
            raise ValueError(f"must be {'|'.join(options)}, got {text!r}")
        return text

    return parse


def _integer(low: int):
    def parse(text):
        value = int(text)
        if value < low:
            raise ValueError(f"must be >= {low}, got {value}")
        return value

    return parse


def _path(text, base: Path) -> Path:
    p = base / text
    if not p.exists():
        raise ValueError(f"path does not exist: {p}")
    return p


def _labels(text):
    labels = tuple(e.strip() for e in text.split(",") if e.strip())
    if not labels:
        raise ValueError("must list at least one label")
    return labels


def _threshold(text) -> tuple[str, float | None]:
    """(mode, the fixed cut or None)."""
    if text in ("none", "optimized", "grounded"):
        return text, None
    mode, colon, value = text.partition(":")
    if mode == "fixed" and colon:
        return mode, _finite(value)
    raise ValueError(f"must be none|optimized|grounded|fixed:<t>, got {text!r}")


_REQUIRED = object()

# key -> (default text, or _REQUIRED, or None for "absent unless given"; parser)
_KEYS = {
    "task": (_REQUIRED, _choice("intensity", "triples")),
    "architecture": (_REQUIRED, _choice("plain", "combined", "separate")),
    "corpus": (_REQUIRED, _path),
    "train": (_REQUIRED, _path),
    "test": (_REQUIRED, _path),
    "lexicon": (None, _path),
    "emotions": (None, _labels),
    "budget": (_REQUIRED, _integer(1)),
    "fda_max_order": ("2", _integer(1)),
    "decay": ("0.5", _finite),
    "length_exponent": ("0.5", _finite),
    "lm_order": ("3", _integer(1)),
    "aligner_iterations": ("5", _integer(0)),
    "grids": ("default", _choice(*_GRIDS)),
    "top_k": ("3", _integer(1)),
    "base_learner": ("rr:1.0", _base_spec),
    "cv_folds": ("7", _integer(2)),
    "seed": (_REQUIRED, _integer(0)),
    "epsilon_mode": ("half_mae", parse_epsilon),
    "grounding": ("none", _choice("none", "predictions")),
    "threshold": ("none", _threshold),
}


@dataclass
class RunConfig:
    """Validated run configuration plus the raw key/value echo."""

    task: str
    architecture: str
    corpus: Path
    train: Path
    test: Path
    lexicon: Path | None
    emotions: tuple[str, ...]
    budget: int
    fda_max_order: int
    decay: float
    length_exponent: float
    lm_order: int
    aligner_iterations: int
    grids: str
    top_k: int
    base_learner: ModelSpec  # seeded with ``seed``
    cv_folds: int
    seed: int
    epsilon_mode: MetricConfig
    grounding: str
    threshold: tuple[str, float | None]  # (mode, the fixed cut or None)
    raw: dict[str, str]

    def hash(self) -> str:
        text = "\n".join(f"{k} = {self.raw[k]}" for k in sorted(self.raw))
        return hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]

    def grid(self) -> list[ModelSpec]:
        return _GRIDS[self.grids](seed=self.seed)

    def fda_config(self) -> FdaConfig:
        return FdaConfig(
            max_order=self.fda_max_order,
            decay=self.decay,
            budget=self.budget,
            length_exponent=self.length_exponent,
        )


def parse_config(path, seed_override: int | None = None) -> RunConfig:
    """Parse a flat ``key = value`` config file; unknown keys are rejected and
    every value is checked against the key table, and a key the task or
    architecture does not use is rejected."""
    path = Path(path)
    raw: dict[str, str] = {}
    for lineno, line in enumerate(_read_lines(path), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, _, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in raw:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        raw[key] = value
    if seed_override is not None:
        raw["seed"] = str(seed_override)
    given = set(raw)

    fields = {}
    for key, (default, parse) in _KEYS.items():
        if key not in raw:
            if default is _REQUIRED:
                raise ConfigError(f"{path}: missing required key {key!r}")
            if default is None:
                fields[key] = None
                continue
            raw[key] = default
        try:
            fields[key] = parse(raw[key], path.parent) if parse is _path else parse(raw[key])
        except ValueError as exc:
            raise ConfigError(f"{path}: {key}: {exc}") from None

    task, architecture = fields["task"], fields["architecture"]
    if task == "triples" and architecture == "plain":
        raise ConfigError("triples instances are row pairs: use combined or separate")
    unused = {"intensity": ("threshold",), "triples": ("lexicon", "emotions")}[task]
    for key in unused:
        if key in given:
            raise ConfigError(f"{key} is not used by the {task} task")
    if architecture == "plain" and "base_learner" in given:
        raise ConfigError("base_learner is not used by the plain architecture")
    if task == "intensity":
        if fields["lexicon"] is None:
            raise ConfigError("intensity task needs a lexicon")
        if fields["emotions"] is None:
            raise ConfigError(f"{path}: missing required key 'emotions'")
        if architecture != "plain" and len(fields["emotions"]) != 2:
            raise ConfigError("paired intensity needs exactly 2 emotions (row a, row b)")
    else:
        fields["emotions"] = ()
    fields["base_learner"] = replace(fields["base_learner"], seed=fields["seed"])

    cfg = RunConfig(**fields, raw=raw)
    try:
        cfg.fda_config()
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    return cfg


# ---------------------------------------------------------------------------
# File helpers.


def _banner(cfg: RunConfig, record: dict[str, str] | None = None) -> str:
    """The first lines of a text output: the version and config hash, then
    the ``# <source>=<digest>`` lines of ``record`` (``_sources``)."""
    return f"# rtm {__version__} config={cfg.hash()}\n" + "".join(
        f"# {name}={digest}\n" for name, digest in (record or {}).items())


@contextlib.contextmanager
def _replacing(path: Path):
    """Yield a temporary sibling of ``path`` to write, then move it into place,
    so a reader never sees a half-written file."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        yield tmp
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _write_text(path: Path, text: str):
    with _replacing(path) as tmp:
        tmp.write_text(text, encoding="utf-8")


def _write_artifact(path: Path, cfg: RunConfig, header: dict, body):
    """Write ``header`` (after the version, layout and config hash) as one JSON
    line, then ``body``: a dict of named arrays as one .npy record each, in
    the order the header's ``arrays`` lists their names, else one pickle."""
    header = {"version": __version__, "format": ARTIFACT_FORMAT, "config_hash": cfg.hash(),
              **header}
    if isinstance(body, dict):
        header["arrays"] = list(body)
    with _replacing(path) as tmp, open(tmp, "wb") as fh:
        fh.write(json.dumps(header, allow_nan=False).encode("utf-8") + b"\n")
        if isinstance(body, dict):
            for values in body.values():
                np.lib.format.write_array(fh, np.asarray(values), allow_pickle=False)
        else:
            pickle.dump(body, fh, protocol=4)


def _read_artifact(path: Path, body: bool = True, from_arrays=None) -> tuple[dict, object]:
    """(header, body) of an artifact written by ``_write_artifact``.  The header
    is checked before the body is read; ``body=False`` leaves the body unread
    and returns None for it.  With ``from_arrays`` the body must be named
    arrays, read with ``allow_pickle=False``, and the result is
    ``from_arrays`` of them; else the body is unpickled."""
    rerun = f"; re-run {_writer(path.name)} to rewrite it"
    with open(path, "rb") as fh:
        try:
            header = json.loads(fh.readline())
        except ValueError:  # not JSON, or not UTF-8
            header = None
        if not isinstance(header, dict):
            raise StageError(
                f"{path}: written by an incompatible build (no JSON header line){rerun}")
        if header.get("version") != __version__:
            raise StageError(f"{path}: written by version {header.get('version')}{rerun}")
        if header.get("format") != ARTIFACT_FORMAT:
            raise StageError(
                f"{path}: written by an incompatible build "
                f"(format {header.get('format')}, expected {ARTIFACT_FORMAT}){rerun}"
            )
        if not body:
            return header, None
        try:
            if from_arrays is None:
                return header, pickle.load(fh)
            names = header.get("arrays")
            if not isinstance(names, list):
                raise ValueError("no array names in the header")
            return header, from_arrays(
                {name: np.lib.format.read_array(fh, allow_pickle=False) for name in names})
        except (AttributeError, ImportError, EOFError, KeyError, TypeError, ValueError,
                pickle.UnpicklingError) as exc:
            # e.g. a class an older build pickled, a cut-off file, an unknown
            # protocol, an array missing or not .npy
            raise StageError(
                f"{path}: body truncated or written by an incompatible build ({exc}){rerun}"
            ) from exc


def _read_tsv(path) -> tuple[list[str], list[tuple[int, list[str]]]]:
    """(``#`` comment lines, data rows) of a tab-separated file; blank lines
    are skipped and each data row is (line number, fields)."""
    comments, rows = [], []
    for lineno, line in enumerate(_read_lines(path), start=1):
        if line.startswith("#"):
            comments.append(line)
        elif line.strip():
            rows.append((lineno, line.split("\t")))
    return comments, rows


# ---------------------------------------------------------------------------
# Dataset -> (src, tgt) rows.


@dataclass
class RowSet:
    """One dataset as feature-extraction rows, plus its texts for FDA."""

    ids: list[str]  # one per row
    tags: list[str]  # "-" for plain rows, "a"/"b" for paired rows
    pairs: list[tuple]  # (source, target) TokenSeqs, one per row
    texts: list[TokenSeq]  # the dataset's own texts, in FDA task-text order


def _dataset(path, task: str) -> list[tuple[str, float | None]]:
    """(text, gold or None) of each row of a dataset file of ``task``, in
    file order, read without tokenizing.  The text is what the row's feature
    rows come from: its id and text (intensity) or its id and three words
    (triples), tab-separated."""
    width = 2 if task == "intensity" else 4
    return [("\t".join(fields[:width]), None if gold is None else float(gold))
            for _, fields, gold in _dataset_rows(path, task)]


def _golds(rows) -> dict[str, float | None]:
    """Instance id -> gold or None, in row order, of the rows of a ``_dataset``."""
    return {text.partition("\t")[0]: gold for text, gold in rows}


def read_golds(path, task: str | None = None) -> dict[str, float | None]:
    """Instance id -> gold (None where the instance has none), in file order.

    ``task`` (``"intensity"`` or ``"triples"``) names the dataset format, read
    without tokenizing.  Without it the format is told from the first row:
    the intensity header, five columns (triples) or two (``id<TAB>value``,
    read as a predictions file).
    """
    if task is None:
        rows = _read_tsv(path)[1]
        first = rows[0][1] if rows else [""]
        if first[:3] == ["id", "text", "affect"]:
            task = "intensity"
        elif len(first) == 5:
            task = "triples"
        elif len(first) == 2:
            ids, values, _ = read_predictions(path)
            return dict(zip(ids, values.tolist()))
        else:
            raise ValueError(f"{path}: unrecognized gold format ({len(first)} columns)")
    return _golds(_dataset(path, task))


def _targets(cfg: RunConfig) -> list[TokenSeq]:
    """The emotion target of each row tag of an intensity task, none for
    triples: the words of all emotions (plain) or of one emotion each (rows
    a and b), read from the lexicon."""
    if cfg.task != "intensity":
        return []
    lexicon = load_lexicon(cfg.lexicon)
    groups = [cfg.emotions] if cfg.architecture == "plain" else [[e] for e in cfg.emotions]
    return [lexicon_to_target(lexicon, g) for g in groups]


def load_rows(cfg: RunConfig, inputs: dict[str, list]) -> tuple[RowSet, RowSet]:
    """The train and test RowSets of the datasets and targets that
    ``_sources`` read (``inputs``), each dataset tokenized once.

    An intensity instance is one row per target: its text against each
    target.  A triple is two rows, word1 and word2 against the attribute.
    """
    targets = inputs["targets"]
    row_tags = "-" if cfg.architecture == "plain" else "ab"
    out = []
    for split in ("train", "test"):
        rows = RowSet([], [], [], [])
        for text, _ in inputs[split]:
            fields = text.split("\t")
            if cfg.task == "intensity":
                texts = (tokenize(fields[1]),)
                pairs = [(texts[0], t) for t in targets]
            else:
                w1, w2, attribute = texts = tuple(map(tokenize, fields[1:4]))
                pairs = [(w1, attribute), (w2, attribute)]
            rows.texts.extend(texts)
            for tag, pair in zip(row_tags, pairs):
                rows.ids.append(fields[0])
                rows.tags.append(tag)
                rows.pairs.append(pair)
        out.append(rows)
    return tuple(out)


def _instance_ids(ids: list[str], tags: list[str]) -> list[str]:
    """The instance of each plain row, or of each a/b row pair; the a-rows
    and b-rows must carry the same ids in the same order."""
    if not tags or tags[0] == "-":
        return ids
    a_ids = [rid for rid, tag in zip(ids, tags) if tag == "a"]
    b_ids = [rid for rid, tag in zip(ids, tags) if tag == "b"]
    if len(a_ids) != len(b_ids):
        raise StageError(f"unpaired rows: {len(a_ids)} a-rows vs {len(b_ids)} b-rows")
    for i, (a, b) in enumerate(zip(a_ids, b_ids)):
        if a != b:
            raise StageError(f"row pair {i + 1}: a-row id {a!r} but b-row id {b!r}")
    return a_ids


def _golds_by_id(golds: dict, dataset: Path, features: FeatureFile) -> list[float | None]:
    """The golds (``golds``, read from the file ``dataset``) of the instances
    of the features file ``features``, in its row order.  An id in one file
    and not the other is refused, and so is an id listed twice."""
    inst_ids = _instance_ids(features.ids, features.tags)
    known = set(inst_ids)
    missing = next((rid for rid in inst_ids if rid not in golds), None)
    if missing is not None:
        raise StageError(f"{features.path}: instance {missing!r} is not in {dataset}")
    missing = next((rid for rid in golds if rid not in known), None)
    if missing is not None:
        raise StageError(f"{dataset}: instance {missing!r} is not in {features.path}")
    if len(known) != len(inst_ids):
        counts = collections.Counter(inst_ids)
        twice = next(rid for rid in inst_ids if counts[rid] > 1)
        raise StageError(f"{features.path}: instance {twice!r} appears twice")
    return [golds[rid] for rid in inst_ids]


def _train_golds(cfg: RunConfig, golds: dict, features: FeatureFile) -> np.ndarray:
    gold = _golds_by_id(golds, cfg.train, features)
    if None in gold:
        raise StageError("training instances must all carry gold values")
    return np.asarray(gold, dtype=float)


def _check_rankable(cfg: RunConfig, gold: np.ndarray):
    """Refuse, before any fit, training golds no grid could be ranked on:
    golds that are all the same, or fewer instances than ``cv_folds``."""
    if len(gold) and (gold == gold[0]).all():
        raise StageError(f"{cfg.train}: every training gold is {float(gold[0])!r}")
    if cfg.cv_folds > len(gold):
        raise StageError(f"{cfg.train}: cv_folds = {cfg.cv_folds} is more than its "
                         f"{len(gold)} training rows")


# ---------------------------------------------------------------------------
# Provenance.  The sources of the outputs, in stage order: name -> (the first
# stage that reads it, the config field of its file or the config keys it is,
# what a refusal says changed).  An output records the digest of every source
# whose first stage is not after its own.
_SOURCES = {
    "corpus": ("select-interpretants", "corpus", "the corpus"),
    "train": ("select-interpretants", "train", "its ids or texts"),  # FDA's task texts
    "test": ("select-interpretants", "test", "its ids or texts"),
    "targets": ("select-interpretants", "lexicon", "an emotion target"),  # intensity only
    "fda_keys": ("select-interpretants", ("budget", "fda_max_order", "decay", "length_exponent"),
                 "an FDA key"),
    "resource_keys": ("build-resources", ("lm_order", "aligner_iterations"), "a resource key"),
    "golds": ("train", "train", "its golds"),
    "train_keys": ("train", ("architecture", "grids", "top_k", "base_learner", "cv_folds",
                             "seed"), "a train key"),
    "predict_keys": ("predict", ("threshold", "grounding"), "a predict key"),
}


def _hash_lines(lines) -> str:
    return hashlib.sha256("".join(f"{line}\n" for line in lines).encode("utf-8")).hexdigest()[:16]


def _source_names(cfg: RunConfig, stage: str) -> list[str]:
    """The sources the outputs of ``stage`` are built from."""
    last = STAGES.index(stage)
    return [name for name, (first, _, _) in _SOURCES.items()
            if STAGES.index(first) <= last and (name != "targets" or cfg.task == "intensity")]


def _sources(cfg: RunConfig, stage: str) -> tuple[dict[str, str], dict[str, list]]:
    """(the current digest of each source of the outputs of ``stage``, what
    was read for them: the rows of each dataset by split (``_dataset``) and
    the emotion targets (``_targets``)).  Each dataset and the lexicon are
    read once.  The dataset and golds digests follow the file's row order,
    as CV folds and FDA's feature ids do."""
    inputs = {"targets": _targets(cfg)}
    for split in ("train", "test"):
        inputs[split] = _dataset(getattr(cfg, split), cfg.task)
    digests, names = {}, _source_names(cfg, stage)
    for name in names:
        where = _SOURCES[name][1]
        if isinstance(where, tuple):
            digests[name] = _hash_lines(f"{key}={getattr(cfg, key)!r}" for key in where)
        elif name == "corpus":
            with open(cfg.corpus, "rb") as fh:
                digests[name] = hashlib.file_digest(fh, "sha256").hexdigest()[:16]
        elif name == "targets":  # each target's tokens, in row-tag order
            digests[name] = _hash_lines(" ".join(t.tokens) for t in inputs["targets"])
        elif name == "golds":
            digests[name] = _hash_lines(f"{rid}\t{gold!r}"
                                        for rid, gold in _golds(inputs["train"]).items())
        else:
            digests[name] = _hash_lines(text for text, _ in inputs[name])
    return digests, inputs


def _check(cfg: RunConfig, path: Path, recorded: dict[str, str], current: dict[str, str]):
    """Refuse the output ``path`` unless it ``recorded`` the ``current``
    digest of every source it is built from.  The first stale source names
    the stage to re-run: the earliest one that reads it."""
    for name in _source_names(cfg, _writer(path.name)):
        if recorded.get(name) != current[name]:
            stage, where, what = _SOURCES[name]
            source = (f"the config ({', '.join(where)})" if isinstance(where, tuple)
                      else getattr(cfg, where))
            raise StageError(f"{path}: {name}={recorded.get(name) or '(none)'} but {source} "
                             f"reads {current[name]}: {what} changed; re-run {stage}")


def _records(comments: list[str]) -> dict[str, str]:
    """The ``# <source>=<digest>`` lines among a text output's comments."""
    fields = (comment[2:].partition("=") for comment in comments)
    return {name: digest for name, _, digest in fields if name in _SOURCES}


# ---------------------------------------------------------------------------
# Stages.


def stage_select_interpretants(cfg: RunConfig, out_dir: Path):
    corpus = load_corpus(cfg.corpus)  # read once, a line at a time, by the selection
    record, inputs = _sources(cfg, "select-interpretants")
    train, test = load_rows(cfg, inputs)
    # task texts: train texts, test texts, then the target(s)
    selection = select_interpretants(corpus, train.texts + test.texts + inputs["targets"],
                                     cfg.fda_config())
    lines = [_banner(cfg, record), "index\tscore\n"]
    lines.extend(
        f"{idx}\t{score:.6f}\n"
        for idx, score in zip(selection.selected_indices, selection.selection_scores)
    )
    _write_text(out_dir / "interpretants.tsv", "".join(lines))


def _read_interpretant_indices(path: Path) -> tuple[dict[str, str], list[int], list[int]]:
    """(the records (``_records``), line numbers, corpus sentence indices)
    of the rows of ``path``."""
    comments, rows = _read_tsv(path)
    if not rows or rows[0][1] != ["index", "score"]:
        raise StageError(f"{path}: header row is not index, score")
    linenos, indices = [], []
    for lineno, fields in rows[1:]:  # after the header
        try:
            indices.append(int(fields[0]))
        except ValueError:
            raise StageError(f"{path}:{lineno}: {fields[0]!r} is not a sentence index") from None
        linenos.append(lineno)
    return _records(comments), linenos, indices


def stage_build_resources(cfg: RunConfig, out_dir: Path):
    path = out_dir / "interpretants.tsv"
    recorded, linenos, indices = _read_interpretant_indices(path)
    current = _sources(cfg, "build-resources")[0]
    _check(cfg, path, recorded, current)
    try:
        sentences = load_corpus_sentences(cfg.corpus, indices)
    except IndexError as exc:
        pos, n = exc.args
        raise StageError(f"{path}:{linenos[pos]}: sentence index {indices[pos]} is not in "
                         f"the corpus's range 0..{n - 1}") from None
    resources = FeatureResources(
        weight_table=build_ngram_weights(sentences),
        lm=WittenBellLM(sentences, order=cfg.lm_order),
        aligner=train_aligner([(s, s) for s in sentences], cfg.aligner_iterations),
    )
    _write_artifact(out_dir / "resources.pkl", cfg, {"sources": current}, resources.to_arrays())


# One features row: id, row tag, then each value with 17 significant digits
# (``%g`` drops trailing zeros), which reads back as the same float.
_FEATURE_ROW = "%s\t%s" + "\t%.17g" * N_FEATURES + "\n"


def _write_features(path: Path, cfg: RunConfig, record: dict[str, str], rows: RowSet, matrix):
    with _replacing(path) as tmp, open(tmp, "w", encoding="utf-8") as fh:
        fh.write(_banner(cfg, record))
        fh.write("id\trow\t" + "\t".join(FEATURE_NAMES) + "\n")
        # a row's floats and text at a time: the whole matrix as Python floats
        # or text would raise the peak of the stages that run after this one
        fh.writelines(_FEATURE_ROW % (rid, tag, *vec.tolist())
                      for rid, tag, vec in zip(rows.ids, rows.tags, matrix))


class FeatureFile(NamedTuple):
    """A features file as read back: its rows and its records."""

    ids: list[str]  # one per row
    tags: list[str]
    matrix: np.ndarray
    records: dict[str, str]  # ``_records``: the sources the rows were built from
    path: Path


def _read_features(path: Path) -> FeatureFile:
    """A features file, each data row parsed straight into one float64
    buffer: the reader keeps the rows' ids, tags and line numbers, but no row
    text and no per-cell float.  A missing or foreign header row is refused
    naming the file, and a row of the wrong width or a cell that is not a
    finite number naming the file and line."""
    comments, ids, tags, linenos = [], [], [], []
    values = array("d")
    names = ["id", "row", *FEATURE_NAMES]
    header = False
    for lineno, line in enumerate(_read_lines(path), start=1):
        if line.startswith("#"):
            comments.append(line)
            continue
        if not line.strip():
            continue
        fields = line.split("\t")
        if not header:
            if fields != names:
                break
            header = True
            continue
        if len(fields) != len(names):
            raise StageError(f"{path}:{lineno}: expected {len(names)} columns, got {len(fields)}")
        end = len(values)
        try:
            values.extend(map(float, fields[2:]))
        except ValueError:
            # the row goes in whole, a cell that is not a number as NaN (refused below)
            del values[end:]
            values.extend(map(_float_or_nan, fields[2:]))
        ids.append(fields[0])
        tags.append(fields[1])
        linenos.append(lineno)
    if not header:
        raise StageError(f"{path}: header row is not id, row and this build's feature names")
    matrix = np.frombuffer(values, dtype=float).reshape(len(ids), len(FEATURE_NAMES))
    finite = np.isfinite(matrix)
    if not finite.all():
        i, j = divmod(int(finite.argmin()), len(FEATURE_NAMES))
        # the cell's text, from its line read again
        line = next(itertools.islice(_read_lines(path), linenos[i] - 1, None))
        cell = line.split("\t")[j + 2]
        raise StageError(f"{path}:{linenos[i]}: {FEATURE_NAMES[j]} is {cell!r}, "
                         "not a finite number")
    return FeatureFile(ids, tags, matrix, _records(comments), path)


def _float_or_nan(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        return math.nan


def stage_extract_features(cfg: RunConfig, out_dir: Path):
    path = out_dir / "resources.pkl"
    header, resources = _read_artifact(path, from_arrays=FeatureResources.from_arrays)
    current, inputs = _sources(cfg, "extract-features")
    _check(cfg, path, header.get("sources", {}), current)
    train, test = load_rows(cfg, inputs)
    del inputs  # before the feature rows are built: holding it raises peak RSS (triples-stack)
    for split, rows in (("train", train), ("test", test)):
        matrix = build_feature_matrix(rows.pairs, resources)
        _write_features(out_dir / f"features_{split}.tsv", cfg, current, rows, matrix)


def _split_sides(tags: list[str], matrix: np.ndarray):
    """The a-rows and the b-rows of rows that ``_instance_ids`` has paired."""
    tags = np.asarray(tags)
    return matrix[tags == "a"], matrix[tags == "b"]


def _cv_lines(cv_table) -> list[str]:
    """The ``rank\tlabel\tscore`` lines of cv_table.tsv and of the ``[cv]``
    block of report.txt."""
    return [f"{rank}\t{label}\t{score:.6f}\n"
            for rank, (label, score) in enumerate(cv_table, start=1)]


def stage_train(cfg: RunConfig, out_dir: Path):
    features = _read_features(out_dir / "features_train.tsv")
    current, inputs = _sources(cfg, "train")
    gold = _train_golds(cfg, _golds(inputs["train"]), features)
    _check(cfg, features.path, features.records, current)
    _check_rankable(cfg, gold)
    if cfg.architecture == "plain":
        ranked = grid_search(cfg.grid(), features.matrix, gold, cfg.cv_folds, cfg.seed)
        model = average_top_k(ranked, min(cfg.top_k, len(ranked)), features.matrix, gold)
    else:
        feats_a, feats_b = _split_sides(features.tags, features.matrix)
        del features  # the two sides are the one copy of the rows the stack needs
        stack_cfg = StackConfig(
            base_spec=cfg.base_learner,
            final_specs=tuple(cfg.grid()),
            top_k=cfg.top_k,
            folds=cfg.cv_folds,
            seed=cfg.seed,
        )
        train_fn = (
            train_combined_stack_matrices
            if cfg.architecture == "combined"
            else train_separate_stack_matrices
        )
        model = train_fn(feats_a, feats_b, gold, stack_cfg)
        ranked = model.cv_table
    cv_table = [(spec.label(), score) for spec, score in ranked]
    _write_artifact(out_dir / "model.pkl", cfg, {"sources": current, "cv_table": cv_table}, model)
    _write_text(out_dir / "cv_table.tsv",
                "".join([_banner(cfg), "rank\tmodel\tcv_mae\n", *_cv_lines(cv_table)]))


def _apply_model(cfg: RunConfig, model, features: FeatureFile) -> tuple[list[str], np.ndarray]:
    """(instance ids, the model's predictions) for a features file.

    An overflow, invalid operation or division by zero is refused as it
    happens, naming the file, instead of printing a numpy warning.
    """
    inst_ids = _instance_ids(features.ids, features.tags)
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            if cfg.architecture == "plain":
                preds = model.predict(features.matrix)
            else:
                preds = predict_stack_matrices(model, *_split_sides(features.tags,
                                                                    features.matrix))
    except FloatingPointError as exc:
        raise StageError(f"{features.path}: the model's arithmetic on these features failed "
                         f"({exc})") from None
    bad = np.flatnonzero(~np.isfinite(preds))
    if bad.size:
        raise StageError(f"the model's prediction for {inst_ids[bad[0]]} is "
                         f"{preds[bad[0]]} ({bad.size} of {len(preds)} are not finite)")
    return inst_ids, preds


def stage_predict(cfg: RunConfig, out_dir: Path):
    path = out_dir / "model.pkl"
    header, model = _read_artifact(path)
    test_features = _read_features(out_dir / "features_test.tsv")
    current, inputs = _sources(cfg, "predict")
    _golds_by_id(_golds(inputs["test"]), cfg.test, test_features)  # an instance in one file only
    _check(cfg, test_features.path, test_features.records, current)
    _check(cfg, path, header.get("sources", {}), current)
    inst_ids, preds = _apply_model(cfg, model, test_features)

    mode, t = cfg.threshold  # always ("none", None) for intensity
    tune = mode in ("optimized", "grounded")
    if tune or cfg.grounding == "predictions":
        features = _read_features(out_dir / "features_train.tsv")
        train_gold = _train_golds(cfg, _golds(inputs["train"]), features)
        _check(cfg, features.path, features.records, current)
        if tune:
            train_preds = _apply_model(cfg, model, features)[1]
    if cfg.grounding == "predictions":
        preds = ground_predictions(preds, ScoreStats.of(train_gold))
    if cfg.task == "intensity":
        preds = np.clip(preds, 0.0, 1.0)

    classes = None
    if mode != "none":
        if tune:
            t = optimize_threshold(train_preds, train_gold.astype(int))
            if mode == "grounded":
                t = ground_threshold(t, ScoreStats.of(train_preds), ScoreStats.of(preds))
        classes = (preds >= t).astype(int)

    lines = [_banner(cfg, current)]
    for i, rid in enumerate(inst_ids):
        row = f"{rid}\t{preds[i]:.6f}"
        if classes is not None:
            row += f"\t{classes[i]}"
        lines.append(row + "\n")
    _write_text(out_dir / "predictions.tsv", "".join(lines))


def read_predictions(path) -> tuple[list[str], np.ndarray, np.ndarray | None]:
    """Read a predictions TSV -> (ids, values, classes or None)."""
    return _parse_predictions(path, _read_tsv(path)[1])


def _parse_predictions(path, rows) -> tuple[list[str], np.ndarray, np.ndarray | None]:
    """``read_predictions`` of the data rows (``_read_tsv``) of ``path``."""
    ids, values, classes = [], [], []
    first_line: dict[str, int] = {}
    for lineno, fields in rows:
        if len(fields) not in (2, 3):
            raise ValueError(f"{path}:{lineno}: expected 2 or 3 columns, got {len(fields)}")
        _check_new_id(path, lineno, fields[0], first_line)
        ids.append(fields[0])
        values.append(_float_or_nan(fields[1]))
        if not math.isfinite(values[-1]):
            _fail(path, lineno, f"value {fields[1]!r} is not a finite number")
        if len(fields) > 2:
            if fields[2] not in ("0", "1"):
                _fail(path, lineno, f"class {fields[2]!r} not in {{0, 1}}")
            classes.append(int(fields[2]))
    if classes and len(classes) != len(ids):
        raise ValueError(f"{path}: class column present only on some rows")
    return ids, np.asarray(values), np.asarray(classes, dtype=int) if classes else None


def _report_text(cfg: RunConfig, sources: dict, cv_table, report: MetricReport | None) -> str:
    lines = [_banner(cfg), "[config]\n"]
    lines.extend(f"{k} = {cfg.raw[k]}\n" for k in sorted(cfg.raw))
    lines.append("[sources]\n")
    lines.extend(f"{name} = {digest}\n" for name, digest in sources.items())
    lines.append("[cv]\n")
    lines.extend(_cv_lines(cv_table))
    lines.append("[metrics]\n")
    lines.append(report.format() + "\n" if report is not None else "absent\n")
    return "".join(lines)


def _first_five(ids: list[str]) -> str:
    return f"{ids[:5]}{'...' if len(ids) > 5 else ''}"


def _score(pred_path, rows, golds: dict, cfg: MetricConfig) -> MetricReport | None:
    """The metrics of the predictions file at ``pred_path`` (its data rows
    ``rows``) against ``golds`` (from ``read_golds``), or None when a
    predicted instance's gold is None.  Every instance with a gold must be
    predicted.  The class column is scored when every gold is 0 or 1."""
    ids, preds, classes = _parse_predictions(pred_path, rows)
    missing = [rid for rid in ids if rid not in golds]
    if missing:
        raise ValueError(f"gold file lacks ids: {_first_five(missing)}")
    predicted = set(ids)
    unpredicted = [rid for rid, g in golds.items() if g is not None and rid not in predicted]
    if unpredicted:
        raise ValueError(f"{pred_path} has no row for gold instances {_first_five(unpredicted)}")
    gold = [golds[rid] for rid in ids]
    if None in gold:
        return None
    gold = np.asarray(gold)
    kwargs = {}
    if classes is not None and set(np.unique(gold)) <= {0.0, 1.0}:
        kwargs = {"pred_classes": classes, "gold_classes": gold.astype(int)}
    return metric_report(preds, gold, cfg, **kwargs)


def stage_evaluate(cfg: RunConfig, out_dir: Path) -> MetricReport | None:
    """Score predictions.tsv against the test golds; the report's metrics
    read ``absent`` when some test instance has no gold."""
    model_path, path = out_dir / "model.pkl", out_dir / "predictions.tsv"
    header = _read_artifact(model_path, body=False)[0]
    comments, rows = _read_tsv(path)
    current, inputs = _sources(cfg, "predict")
    _check(cfg, path, _records(comments), current)
    _check(cfg, model_path, header.get("sources", {}), current)
    report = _score(path, rows, _golds(inputs["test"]), cfg.epsilon_mode)
    _write_text(out_dir / "report.txt", _report_text(cfg, current, header["cv_table"], report))
    return report


# stage -> (function, the files it writes), in run order
_STAGES = {
    "select-interpretants": (stage_select_interpretants, ("interpretants.tsv",)),
    "build-resources": (stage_build_resources, ("resources.pkl",)),
    "extract-features": (stage_extract_features, ("features_train.tsv", "features_test.tsv")),
    "train": (stage_train, ("model.pkl", "cv_table.tsv")),
    "predict": (stage_predict, ("predictions.tsv",)),
    "evaluate": (stage_evaluate, ("report.txt",)),
}
STAGES = tuple(_STAGES)


def _writer(name: str) -> str:
    """The stage that writes the output ``name``."""
    return next(stage for stage, (_, outputs) in _STAGES.items() if name in outputs)


@dataclass
class RunReport:
    """What a run produced: the test metrics (None when the test set has no
    golds) and each stage's wall-clock seconds."""

    metrics: MetricReport | None
    timings: dict[str, float]


def run_stage(cfg: RunConfig, out_dir, stage: str):
    """Run one named stage; failures raise StageError with the stage name and
    leave none of the stage's output files behind."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if stage not in _STAGES:
        raise ConfigError(f"unknown stage {stage!r}; stages: {', '.join(STAGES)}")
    func, outputs = _STAGES[stage]
    try:
        return func(cfg, out_dir)
    except Exception as exc:
        for name in outputs:
            (out_dir / name).unlink(missing_ok=True)
        raise StageError(f"stage {stage}: {exc}") from exc


def run_pipeline(cfg: RunConfig, out_dir) -> RunReport:
    """Execute all stages in order; see module docstring for determinism."""
    out_dir = Path(out_dir)
    timings: dict[str, float] = {}
    metrics = None
    for stage in STAGES:
        start = time.monotonic()
        result = run_stage(cfg, out_dir, stage)
        timings[stage] = time.monotonic() - start
        if stage == "evaluate":
            metrics = result
    _write_text(
        out_dir / "timings.txt",
        "".join(f"{stage}\t{secs:.3f}\n" for stage, secs in timings.items()),
    )
    return RunReport(metrics, timings)


# ---------------------------------------------------------------------------
# Stand-alone evaluation of arbitrary prediction/gold files.


def evaluate_files(pred_path, gold_path, cfg: MetricConfig = MetricConfig()) -> MetricReport:
    """MetricReport for any predictions TSV against any gold file; an
    instance whose gold is ``NONE`` counts as missing from it."""
    golds = {rid: g for rid, g in read_golds(gold_path).items() if g is not None}
    return _score(pred_path, _read_tsv(pred_path)[1], golds, cfg)
