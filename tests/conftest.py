"""Shared synthetic-data builders for pipeline and acceptance tests."""

import tracemalloc

import numpy as np
import pytest

from rtm.corpus import TokenSeq, load_corpus
from rtm.features import weighted_overlap
from rtm.interpretants import build_ngram_weights


def pytest_runtest_logreport(report):
    # One visible pass/fail line per acceptance criterion.
    if report.when == "call" and "test_acceptance.py" in report.nodeid:
        name = report.nodeid.split("::")[-1]
        print(f"\nACCEPTANCE {name}: {report.outcome.upper()}")


def traced_peak(fn, *args):
    """``(fn(*args), the peak bytes tracemalloc traced while it ran)``.

    Python and numpy allocations are traced alike, so the peak does not
    depend on the allocator's layout as RSS does.
    """
    tracemalloc.start()
    try:
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def write_intensity_case(
    root,
    n_texts=500,
    n_train=400,
    corpus_size=300,
    vocab_size=200,
    n_lex=30,
    noise=0.05,
    seed=42,
    grids="small",
    extra_cfg="",
):
    """Synthetic intensity task whose gold is the package's own wF1 feature.

    Texts mix lexicon words at varying rates; gold = wF1 over 1&2-grams
    between the text and the lexicon target (weights from the full corpus,
    which the run reproduces because budget = corpus size) plus seeded
    Gaussian noise, clipped to [0, 1].
    """
    rng = np.random.default_rng(seed)
    vocab = [f"w{i:03d}" for i in range(vocab_size)]
    lex_words = vocab[:n_lex]
    non_lex = vocab[n_lex:]

    corpus_lines = [
        " ".join(rng.choice(vocab, size=rng.integers(5, 10))) for _ in range(corpus_size)
    ]
    (root / "corpus.txt").write_text("\n".join(corpus_lines) + "\n", encoding="utf-8")
    corpus = load_corpus(root / "corpus.txt")
    table = build_ngram_weights(corpus.sentences)
    target = TokenSeq.from_tokens(lex_words)

    texts, sims = [], []
    for i in range(n_texts):
        rho = (i / (n_texts - 1)) * 0.85
        k = rng.integers(8, 15)
        toks = [
            str(rng.choice(lex_words)) if rng.random() < rho else str(rng.choice(non_lex))
            for _ in range(k)
        ]
        sims.append(weighted_overlap(TokenSeq.from_tokens(toks), target, table, (1, 2)).wf1)
        texts.append(" ".join(toks))
    gold = np.clip(np.asarray(sims) + rng.normal(0.0, noise, n_texts), 0.0, 1.0)

    perm = rng.permutation(n_texts)
    header = "id\ttext\taffect\tscore"
    train_lines, test_lines = [header], [header]
    for j, idx in enumerate(perm):
        line = f"t{idx:04d}\t{texts[idx]}\tjoy\t{float(gold[idx])!r}"
        (train_lines if j < n_train else test_lines).append(line)
    (root / "train.tsv").write_text("\n".join(train_lines) + "\n", encoding="utf-8")
    (root / "test.tsv").write_text("\n".join(test_lines) + "\n", encoding="utf-8")
    (root / "lexicon.txt").write_text("#joy\n" + "\n".join(lex_words) + "\n", encoding="utf-8")
    (root / "run.cfg").write_text(
        f"""task = intensity
architecture = plain
corpus = corpus.txt
train = train.tsv
test = test.tsv
lexicon = lexicon.txt
emotions = joy
budget = {corpus_size}
grids = {grids}
top_k = 2
seed = 7
{extra_cfg}""",
        encoding="utf-8",
    )
    return root / "run.cfg"


def write_triples_case(
    root,
    architecture,
    n_instances=500,
    n_train=400,
    corpus_size=300,
    tau0=0.25,
    seed=11,
    grids="small",
    config_name=None,
):
    """Synthetic triples task: label = 1 iff |wGM(w1,a) - wGM(w2,a)| > tau0.

    Words either contain the attribute token or not, so the per-row wGM
    similarity is bimodal and the label is an XOR of the two rows' overlap.
    """
    rng = np.random.default_rng(seed)
    attrs = [f"a{i:03d}" for i in range(40)]
    fillers = [f"f{i:03d}" for i in range(160)]
    corpus_lines = [
        " ".join(rng.choice(attrs + fillers, size=rng.integers(4, 9)))
        for _ in range(corpus_size)
    ]
    (root / "corpus.txt").write_text("\n".join(corpus_lines) + "\n", encoding="utf-8")
    corpus = load_corpus(root / "corpus.txt")
    table = build_ngram_weights(corpus.sentences)

    def make_word(attr, with_attr):
        toks = list(rng.choice(fillers, size=int(rng.integers(2, 5)), replace=False))
        if with_attr:
            toks[int(rng.integers(len(toks)))] = attr
        return toks

    lines = []
    for i in range(n_instances):
        attr = str(rng.choice(attrs))
        aseq = TokenSeq.from_tokens([attr])
        w1 = make_word(attr, rng.random() < 0.5)
        w2 = make_word(attr, rng.random() < 0.5)
        s1 = weighted_overlap(TokenSeq.from_tokens(w1), aseq, table, (1,)).wgm
        s2 = weighted_overlap(TokenSeq.from_tokens(w2), aseq, table, (1,)).wgm
        label = 1 if abs(s1 - s2) > tau0 else 0
        lines.append(f"d{i:04d}\t{' '.join(w1)}\t{' '.join(w2)}\t{attr}\t{label}")
    (root / "train.tsv").write_text("\n".join(lines[:n_train]) + "\n", encoding="utf-8")
    (root / "test.tsv").write_text("\n".join(lines[n_train:]) + "\n", encoding="utf-8")
    cfg_path = root / (config_name or f"run_{architecture}.cfg")
    cfg_path.write_text(
        f"""task = triples
architecture = {architecture}
corpus = corpus.txt
train = train.tsv
test = test.tsv
budget = {corpus_size}
grids = {grids}
top_k = 2
threshold = fixed:0.5
seed = 9
""",
        encoding="utf-8",
    )
    return cfg_path


@pytest.fixture
def tiny_intensity_cfg(tmp_path):
    """A small, fast intensity run for pipeline-level tests."""
    return write_intensity_case(
        tmp_path, n_texts=60, n_train=45, corpus_size=60, vocab_size=60, n_lex=12
    )
