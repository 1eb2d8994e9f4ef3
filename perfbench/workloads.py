"""Seeded input generators for the benchmark workloads.

Each workload is a synthetic task whose gold is computed here, from the
generated text alone, with a small re-implementation of the likelihood-weighted
overlap (relative n-gram frequencies over the whole corpus, unseen n-grams at
half a singleton's weight).  Nothing is imported from ``rtm`` or from the test
suite, so neither a change to the program nor an edit to the tests can change
the inputs of a given seed.  Only the program's input files are written: the
corpus, the train and test sets, the lexicon and the run config.
"""

from __future__ import annotations

import collections
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Workload:
    """One workload; why each was chosen is recorded in BENCHMARK.json."""

    name: str
    task: str  # "intensity" | "triples"
    size: str  # the input size, stated so run_s reads as inverse throughput
    quality_floor: float  # a run whose quality falls below this counts as failed
    params: dict
    # Six-stage runs per invocation at the least, so that the back half's
    # outputs are compared within every run of the benchmark.
    min_runs: int = 2


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "intensity-default",
            "intensity",
            "120 train + 40 test texts, 300-sentence corpus (budget = corpus), "
            "30-token lexicon target, default grid (44 specs x 7 folds)",
            0.8,
            dict(
                corpus_size=300, vocab_size=200, n_lex=30, n_train=120, n_test=40,
                budget=300, noise=0.05, grids="default",
            ),
            # One run takes ~40 s; a second would not fit the benchmark's time
            # budget, so its back half is compared only by --trace 1.
            min_runs=1,
        ),
        Workload(
            "intensity-corpus",
            "intensity",
            "300 train + 100 test texts, 20000-sentence corpus, budget 2000, "
            "2000-token lexicon target, small grid (7 specs x 7 folds)",
            0.6,
            dict(
                corpus_size=20000, vocab_size=4000, n_lex=2000, n_train=300, n_test=100,
                budget=2000, noise=0.05, grids="small",
            ),
        ),
        Workload(
            "triples-stack",
            "triples",
            "600 train + 300 test instances (2 rows each), 1000-sentence corpus "
            "(budget = corpus), combined stack over an 87-column final grid",
            0.85,
            dict(corpus_size=1000, n_train=600, n_test=300, tau0=0.25, grids="small"),
        ),
    )
}


def generate(name: str, seed: int, root: Path) -> Path:
    """Write the inputs of workload ``name`` for ``seed`` under ``root``.

    Returns the path of the run config.  The same (name, seed) always writes
    the same bytes.
    """
    workload = WORKLOADS[name]
    root.mkdir(parents=True, exist_ok=True)
    # Workloads draw from disjoint streams so one seed does not make them alike.
    rng = np.random.default_rng([seed, list(WORKLOADS).index(name)])
    if workload.task == "intensity":
        return _intensity(root, rng, seed, **workload.params)
    return _triples(root, rng, seed, **workload.params)


def _ngrams(tokens, n):
    return [tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1)]


class _Weights:
    """Relative n-gram frequencies per order over a list of token lists."""

    def __init__(self, sentences, max_order):
        self.weights, self.floors = {}, {}
        for n in range(1, max_order + 1):
            counts = collections.Counter(g for s in sentences for g in _ngrams(s, n))
            total = sum(counts.values())
            self.weights[n] = {g: c / total for g, c in counts.items()}
            self.floors[n] = 1.0 / (2.0 * total)

    def __call__(self, gram):
        n = len(gram)
        return self.weights[n].get(gram, self.floors[n])


def _overlap(src, tgt, weights, orders):
    """(weighted precision, weighted recall) over distinct n-grams of ``orders``."""
    src_grams = {g for n in orders for g in _ngrams(src, n)}
    tgt_grams = {g for n in orders for g in _ngrams(tgt, n)}
    common = sum(weights(g) for g in src_grams & tgt_grams)
    return (
        common / sum(weights(g) for g in src_grams),
        common / sum(weights(g) for g in tgt_grams),
    )


def _write(path: Path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _corpus(rng, words, size, lo, hi):
    lengths = rng.integers(lo, hi, size=size)
    picks = rng.integers(len(words), size=int(lengths.sum()))
    out, start = [], 0
    for n in lengths:
        out.append([words[i] for i in picks[start : start + n]])
        start += n
    return out


def _intensity(root, rng, seed, corpus_size, vocab_size, n_lex, n_train, n_test,
               budget, noise, grids):
    """Texts mix lexicon words at rates spread over [0, 0.85].

    gold = wF1 over 1- and 2-grams between the text and the lexicon target,
    plus Gaussian noise whose standard deviation is ``noise`` times the spread
    (standard deviation) of the wF1 values, clipped to [0, 1].  Scaling the
    noise to the spread keeps the task equally learnable when a long target
    makes every wF1 small.
    """
    vocab = [f"w{i:04d}" for i in range(vocab_size)]
    lex, non_lex = vocab[:n_lex], vocab[n_lex:]
    corpus = _corpus(rng, vocab, corpus_size, 5, 10)
    weights = _Weights(corpus, 2)

    n_texts = n_train + n_test
    texts, sims = [], []
    for i in range(n_texts):
        rho = (i / (n_texts - 1)) * 0.85
        k = int(rng.integers(8, 15))
        from_lex = rng.random(k) < rho
        toks = [lex[rng.integers(n_lex)] if f else non_lex[rng.integers(len(non_lex))]
                for f in from_lex]
        prec, rec = _overlap(toks, lex, weights, (1, 2))
        sims.append(2.0 * prec * rec / (prec + rec) if prec + rec > 0 else 0.0)
        texts.append(" ".join(toks))
    sims = np.asarray(sims)
    gold = np.clip(sims + rng.normal(0.0, noise * sims.std(), n_texts), 0.0, 1.0)

    perm = rng.permutation(n_texts)
    header = "id\ttext\taffect\tscore"
    rows = [f"t{i:05d}\t{texts[i]}\tjoy\t{float(gold[i])!r}" for i in perm]
    _write(root / "corpus.txt", (" ".join(s) for s in corpus))
    _write(root / "train.tsv", [header] + rows[:n_train])
    _write(root / "test.tsv", [header] + rows[n_train:])
    _write(root / "lexicon.txt", ["#joy"] + lex)
    return _config(root, [
        "task = intensity",
        "architecture = plain",
        "lexicon = lexicon.txt",
        "emotions = joy",
        f"budget = {budget}",
        f"grids = {grids}",
        f"seed = {seed}",
    ])


def _triples(root, rng, seed, corpus_size, n_train, n_test, tau0, grids):
    """label = 1 iff |wGM(w1, a) - wGM(w2, a)| > tau0 over unigrams.

    A word either contains the attribute token or not, so each row's wGM is
    bimodal and the label is an XOR of the two rows' overlap.
    """
    attrs = [f"a{i:03d}" for i in range(40)]
    fillers = [f"f{i:03d}" for i in range(160)]
    corpus = _corpus(rng, attrs + fillers, corpus_size, 4, 9)
    weights = _Weights(corpus, 1)

    def make_word(attr):
        toks = [fillers[i] for i in rng.choice(len(fillers), int(rng.integers(2, 5)),
                                               replace=False)]
        if rng.random() < 0.5:
            toks[int(rng.integers(len(toks)))] = attr
        return toks

    lines = []
    for i in range(n_train + n_test):
        attr = attrs[rng.integers(len(attrs))]
        w1, w2 = make_word(attr), make_word(attr)
        s1, s2 = (math.sqrt(p * r) for p, r in
                  (_overlap(w, [attr], weights, (1,)) for w in (w1, w2)))
        label = 1 if abs(s1 - s2) > tau0 else 0
        lines.append(f"d{i:05d}\t{' '.join(w1)}\t{' '.join(w2)}\t{attr}\t{label}")
    _write(root / "corpus.txt", (" ".join(s) for s in corpus))
    _write(root / "train.tsv", lines[:n_train])
    _write(root / "test.tsv", lines[n_train:])
    return _config(root, [
        "task = triples",
        "architecture = combined",
        f"budget = {corpus_size}",
        f"grids = {grids}",
        "threshold = optimized",
        f"seed = {seed}",
    ])


def _config(root: Path, keys) -> Path:
    path = root / "run.cfg"
    _write(path, ["corpus = corpus.txt", "train = train.tsv", "test = test.tsv", *keys])
    return path
