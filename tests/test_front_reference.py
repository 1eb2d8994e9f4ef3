"""Array-pass FDA, the split-wide feature passes (overlap, LM, alignment),
array IBM-1, bit-vector edit distance, the id-indexed weight table and
Witten-Bell LM and the tokenizer pattern against references.

The references below are the O(N*B) argmax scan of feature-decay selection
(adding each sentence's features in the order select_interpretants
documents), the dict-of-tuples weight table and per-row union-set overlap,
the |src|x|tgt| probe loop of Viterbi alignment, the dict-of-dicts IBM
Model 1 EM, the Levenshtein DP, the five-table Witten-Bell LM (set
vocabularies, per-order context totals and type counts, a ``prob`` call per
position) and the per-character tokenizer that ``rtm`` used before.  The
current code must reproduce them bit for bit: the same indices, scores,
weights, overlap tuples, links, aligner tables, log-likelihoods, distances,
probabilities, feature rows and tokens.
"""

import collections
import itertools
import math
import pickle
import re
import sys
import unicodedata

import numpy as np
import pytest
import rtm.corpus
from hypothesis import given, settings, strategies as st

from rtm.corpus import TokenSeq, extract_ngrams, tokenize
from rtm.features import (
    NULL,
    ORDER_SETS,
    AlignmentModel,
    FeatureResources,
    _edit_distance,
    alignment_features,
    build_feature_matrix,
    extract_feature_vector,
    length_features,
    lm_features,
    train_aligner,
    weighted_overlap,
)
from rtm.interpretants import (
    BOS,
    EOS,
    UNK,
    FdaConfig,
    WittenBellLM,
    _padded_groups,
    build_ngram_weights,
    select_interpretants,
)

# ---------------------------------------------------------------------------
# Reference implementations.


def ref_ngrams(seq, orders):
    grams = set()
    for n in orders:
        grams.update(extract_ngrams(seq, n))
    return grams


def ref_select_interpretants(corpus, task_texts, cfg):
    # A sentence's features add in this rank order: by n-gram order, then by
    # first occurrence in the task texts.
    rank = {}
    for n in range(1, cfg.max_order + 1):
        for text in task_texts:
            for i in range(len(text) - n + 1):
                rank.setdefault(text.tokens[i : i + n], len(rank))
    task_features = set(rank)
    weights = {g: 1.0 for g in task_features}
    sent_features, inv_norm = [], []
    containing = collections.defaultdict(list)
    for i, sent in enumerate(corpus):
        feats = sorted(ref_ngrams(sent, range(1, cfg.max_order + 1)) & task_features,
                       key=rank.__getitem__)
        sent_features.append(feats)
        inv_norm.append(1.0 / (len(sent) ** cfg.length_exponent))
        for g in feats:
            containing[g].append(i)

    def score(i):
        return sum(weights[g] for g in sent_features[i]) * inv_norm[i]

    scores = [score(i) for i in range(len(corpus))]
    active = [True] * len(corpus)
    selected, picked_scores = [], []
    for _ in range(cfg.budget):
        best, best_score = -1, -math.inf
        for i, s in enumerate(scores):
            if active[i] and s > best_score:
                best, best_score = i, s
        selected.append(best)
        picked_scores.append(best_score)
        active[best] = False
        touched = set()
        for g in sent_features[best]:
            weights[g] *= cfg.decay
            touched.update(containing[g])
        for i in touched:
            if active[i]:
                scores[i] = score(i)
    return selected, picked_scores


class RefNGramWeights:
    """Relative n-gram frequencies of orders 1..3 in dicts of word tuples."""

    def __init__(self, sentences):
        self.weights, self.totals = {}, {}
        for n in range(1, 4):
            counts = collections.Counter(s.tokens[i : i + n] for s in sentences
                                         for i in range(len(s) - n + 1))
            self.totals[n] = total = sum(counts.values())
            self.weights[n] = {g: c / total for g, c in counts.items()}

    def weight(self, gram):
        total = self.totals.get(len(gram), 0)
        floor = 1.0 / (2.0 * total) if total else 0.0
        return self.weights.get(len(gram), {}).get(gram, floor)


def ref_weighted_overlap(src, tgt, table, orders):
    src_grams = ref_ngrams(src, orders)
    tgt_grams = ref_ngrams(tgt, orders)
    src_total = math.fsum(table.weight(g) for g in src_grams)
    tgt_total = math.fsum(table.weight(g) for g in tgt_grams)
    if not src_grams or not tgt_grams or src_total == 0.0 or tgt_total == 0.0:
        return (0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    common = src_grams & tgt_grams
    common_w = math.fsum(table.weight(g) for g in common)
    wprec = common_w / src_total
    wrec = common_w / tgt_total
    wf1 = 2.0 * wprec * wrec / (wprec + wrec) if wprec + wrec > 0 else 0.0
    wgm = math.sqrt(wprec * wrec)
    return (wprec, wrec, wf1, wgm, len(common) / len(tgt_grams), len(common) / len(src_grams))


def ref_align(model, src, tgt):
    links = []
    for f in tgt.tokens:
        best_i, best_p = None, 0.0
        for i, e in enumerate(src.tokens):
            p = model.prob(f, e)
            if p > best_p:
                best_i, best_p = i, p
        if model.prob(f, NULL) > best_p:
            best_i = None
        links.append(best_i)
    return links


def ref_alignment_features(model, src, tgt):
    if not len(tgt):
        return (0.0, 0.0)
    hits = [i for i in ref_align(model, src, tgt) if i is not None]
    wer = ref_levenshtein([src.tokens[i] for i in hits], list(src.tokens)) / max(len(src), 1)
    tgt_cov = len(hits) / len(tgt)
    src_cov = len(set(hits)) / len(src) if len(src) else 0.0
    f1 = 2.0 * tgt_cov * src_cov / (tgt_cov + src_cov) if tgt_cov + src_cov > 0 else 0.0
    return (min(1.0, max(0.0, 1.0 - wer)), min(1.0, max(0.0, f1)))


def ref_train_aligner(pairs, iterations=5):
    """IBM Model 1 EM over dict-of-dicts: the table and log-likelihoods."""
    cooc = {}
    for src, tgt in pairs:
        for e in list(src.tokens) + [NULL]:
            cooc.setdefault(e, set()).update(tgt.tokens)
    table = {e: {f: 1.0 / len(fs) for f in fs} for e, fs in cooc.items() if fs}

    lls = []
    for _ in range(iterations):
        counts = {e: {} for e in table}
        totals = {e: 0.0 for e in table}
        ll = 0.0
        for src, tgt in pairs:
            src_words = list(src.tokens) + [NULL]
            for f in tgt.tokens:
                denom = 0
                for e in src_words:  # left to right, as sum() added before Python 3.12
                    denom += table[e].get(f, 0.0)
                if denom <= 0.0:
                    continue
                ll += math.log(denom / len(src_words))
                for e in src_words:
                    p = table[e].get(f, 0.0)
                    if p > 0.0:
                        share = p / denom
                        counts[e][f] = counts[e].get(f, 0.0) + share
                        totals[e] += share
        lls.append(ll)
        for e, fs in counts.items():
            if totals[e] > 0.0:
                table[e] = {f: c / totals[e] for f, c in fs.items()}
    return table, lls


def ref_levenshtein(a, b):
    if not a:
        return len(b)
    prev = list(range(len(b) + 1))
    for i, x in enumerate(a, start=1):
        cur = [i]
        for j, y in enumerate(b, start=1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (x != y)))
        prev = cur
    return prev[-1]


def table_of(model):
    """The model's nonempty rows as source word -> {target word: prob}."""
    return {e: model.row(e) for e in model.vocab if model.row(e)}


class RefResources:
    """The references of the three resources trained on ``sentences``; the
    aligner is the trained model's table (the EM has its own reference)."""

    def __init__(self, sentences, aligner, lm_order=3):
        self.weights = RefNGramWeights(sentences)
        self.lm = RefWittenBellLM(sentences, order=lm_order)
        self.aligner = AlignmentModel.from_table(table_of(aligner), [])


def ref_feature_vector(src, tgt, ref):
    values = []
    for orders in ORDER_SETS:
        values.extend(ref_weighted_overlap(src, tgt, ref.weights, orders))
    logprob, n_events = ref.lm.sequence_logprob2(src)
    oov = sum(1 for t in src.tokens if t not in ref.lm.vocab) / len(src) if len(src) else 0.0
    values.extend([logprob, -logprob / n_events, oov])
    values.extend(ref_alignment_features(ref.aligner, src, tgt))
    values.extend([len(src), len(tgt), src.char_count, tgt.char_count,
                   len(src) / len(tgt) if len(tgt) else 0.0,
                   src.char_count / tgt.char_count if tgt.char_count else 0.0])
    return np.asarray(values, dtype=float)


class RefWittenBellLM:
    def __init__(self, sentences, order=3):
        self.order = order
        self.vocab = {tok for sent in sentences for tok in sent.tokens}
        self._pred_vocab = self.vocab | {UNK, EOS}
        self._p0 = 1.0 / len(self._pred_vocab)
        self._counts = {n: collections.Counter() for n in range(1, order + 1)}
        self._context_totals = {n: collections.Counter() for n in range(1, order + 1)}
        self._types_after = {n: collections.defaultdict(int) for n in range(1, order + 1)}
        for sent in sentences:
            if len(sent) == 0:
                continue
            padded = [BOS] * (order - 1) + list(sent.tokens) + [EOS]
            for j in range(order - 1, len(padded)):
                for n in range(1, order + 1):
                    if n - 1 > j:
                        continue
                    gram = tuple(padded[j - n + 1 : j + 1])
                    hist = gram[:-1]
                    if self._counts[n][gram] == 0:
                        self._types_after[n][hist] += 1
                    self._counts[n][gram] += 1
                    self._context_totals[n][hist] += 1

    def _map(self, word):
        return word if word in self._pred_vocab else UNK

    def prob(self, word, history=()):
        word = self._map(word)
        hist = tuple(self._map(w) if w != BOS else BOS for w in history)
        hist = hist[max(0, len(hist) - (self.order - 1)) :]
        return self._prob(word, hist)

    def _prob(self, word, hist):
        if not hist:
            c = self._counts[1].get((word,), 0)
            total = self._context_totals[1].get((), 0)
            t = self._types_after[1].get((), 0)
            return (c + t * self._p0) / (total + t)
        n = len(hist) + 1
        total = self._context_totals[n].get(hist, 0)
        lower = self._prob(word, hist[1:])
        if total == 0:
            return lower
        t = self._types_after[n].get(hist, 0)
        c = self._counts[n].get(hist + (word,), 0)
        return (c + t * lower) / (total + t)

    def sequence_logprob2(self, seq):
        padded = [BOS] * (self.order - 1) + list(seq.tokens) + [EOS]
        start = self.order - 1
        logprob = 0.0
        for j in range(start, len(padded)):
            hist = tuple(padded[max(0, j - self.order + 1) : j])
            logprob += math.log2(self.prob(padded[j], hist))
        return logprob, len(padded) - start


def ref_split_chunk(chunk):
    """The char loop; a combining mark extends the token before it, and a
    word goes on through its marks."""
    out, buf = [], []
    for i, ch in enumerate(chunk):
        if unicodedata.category(ch)[0] == "M" and (buf or out):
            if buf:
                buf.append(ch)
            else:
                out[-1] += ch
            continue
        if ch.isalnum() or ch == "_":
            buf.append(ch)
            continue
        if buf:
            out.append("".join(buf))
            buf = []
        if ch in "#@" and i + 1 < len(chunk) and (chunk[i + 1].isalnum() or chunk[i + 1] == "_"):
            buf.append(ch)
        else:
            out.append(ch)
    if buf:
        out.append("".join(buf))
    return out


# ---------------------------------------------------------------------------
# Helpers.


def hexes(values):
    return [float(v).hex() for v in values]


def seq(tokens):
    return TokenSeq.from_tokens(tokens)


words = st.lists(st.sampled_from("abcdef"), max_size=7)


# ---------------------------------------------------------------------------
# Feature-decay selection.


def assert_same_selection(corpus, task, cfg):
    got = select_interpretants(corpus, task, cfg)
    ref_indices, ref_scores = ref_select_interpretants(corpus, task, cfg)
    assert got.selected_indices == ref_indices
    assert hexes(got.selection_scores) == hexes(ref_scores)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.lists(st.sampled_from("abcdefgh"), min_size=1, max_size=6), min_size=1, max_size=25),
    st.lists(words, min_size=1, max_size=4),
    st.sampled_from([0.5, 1.0, 0.3, 0.9, 1e-3]),
    st.sampled_from([0.0, 0.5, 1.0]),
    st.integers(1, 3),
    st.data(),
)
def test_fda_matches_argmax_scan(sentences, task, decay, exponent, max_order, data):
    # letters g/h never occur in the task: their sentences score 0
    corpus = [seq(s) for s in sentences]
    budget = data.draw(st.integers(1, len(corpus)))
    cfg = FdaConfig(max_order=max_order, decay=decay, budget=budget, length_exponent=exponent)
    assert_same_selection(corpus, [seq(t) for t in task], cfg)


def test_fda_seeded_corpus_full_budget():
    rng = np.random.default_rng(4)
    vocab = [f"w{i}" for i in range(60)]
    p = 1.0 / np.arange(1, 61)
    p /= p.sum()
    sentences = [seq(rng.choice(vocab, size=rng.integers(1, 12), p=p)) for _ in range(400)]
    task = [seq(rng.choice(vocab[:30], size=8)) for _ in range(20)]
    corpus = sentences
    for budget in (150, len(corpus)):
        for decay in (0.5, 1.0):
            assert_same_selection(corpus, task, FdaConfig(max_order=2, decay=decay, budget=budget))
    for decay in (0.3, 0.9):
        assert_same_selection(corpus, task, FdaConfig(max_order=3, decay=decay, budget=300))


def test_fda_long_sentences_span_width_groups():
    # 1 to 150 tokens over 40 words: up to ~190 features a sentence, so the
    # rows fall in the <=16, <=64 and <=256 width groups
    rng = np.random.default_rng(5)
    vocab = [f"w{i}" for i in range(40)]
    lengths = list(rng.integers(1, 12, size=150)) + [150, 60, 20, 5, 100]
    corpus = [seq(rng.choice(vocab, size=n)) for n in lengths]
    task = [seq(rng.choice(vocab, size=300))]
    for decay in (0.3, 0.5):
        assert_same_selection(corpus, task, FdaConfig(max_order=2, decay=decay, budget=100))


def test_fda_padding_bounded_by_group():
    n_feats = np.array([3] * 1000 + [17, 1000, 0])
    first = np.cumsum(n_feats) - n_feats
    pair_feat = np.arange(n_feats.sum(), dtype=np.int32) % 50
    group, row, matrices = _padded_groups(n_feats, first, pair_feat, 50)
    # groups: up to 16, 64, 256 and 1024 features; each as wide as its widest row
    assert [m.shape for m in matrices] == [(1001, 3), (1, 17), (0, 1), (1, 1000)]
    for i in (0, 999, 1000, 1001, 1002):
        ids = matrices[group[i]][row[i]]
        assert ids[: n_feats[i]].tolist() == pair_feat[first[i] :][: n_feats[i]].tolist()
        assert (ids[n_feats[i] :] == 50).all()


def test_fda_corpus_shorter_than_max_order():
    assert_same_selection([seq(["a"])], [seq(["a", "a", "a"])], FdaConfig(max_order=3, budget=1))


def test_fda_all_ties_take_lowest_index():
    corpus = [seq(["a"])] * 5 + [seq(["z"])] * 3
    cfg = FdaConfig(budget=8, decay=1.0)
    got = select_interpretants(corpus, [seq(["a"])], cfg)
    assert got.selected_indices == list(range(8))
    assert_same_selection(corpus, [seq(["a"])], cfg)


# ---------------------------------------------------------------------------
# Overlap features.

all_orders = st.sampled_from(ORDER_SETS + ((2, 3), (1, 3), (3, 1, 2)))


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.lists(st.sampled_from("abcdx"), min_size=1, max_size=5), min_size=1, max_size=6),
    words,
    st.lists(st.sampled_from("abcdefy"), max_size=12),
    all_orders,
)
def test_overlap_matches_union_sets(table_sents, src, tgt, orders):
    # "y" and "e"/"f" are often missing from the table (floor weights); short
    # table sentences leave higher orders with zero totals
    sentences = [seq(s) for s in table_sents]
    table, ref = build_ngram_weights(sentences), RefNGramWeights(sentences)
    src, tgt = seq(src), seq(tgt)
    for gram in ref_ngrams(src, (1, 2, 3, 4)) | ref_ngrams(tgt, (1, 2, 3)):
        assert table.weight(gram).hex() == ref.weight(gram).hex(), gram
    expected = ref_weighted_overlap(src, tgt, ref, orders)
    assert hexes(weighted_overlap(src, tgt, table, orders)) == hexes(expected)


# ---------------------------------------------------------------------------
# Alignment.

probs = st.sampled_from([0.25, 0.5, 0.125])  # few values: ties everywhere


@st.composite
def alignment_tables(draw):
    table = {}
    for e in draw(st.lists(st.sampled_from(["a", "b", "c", "d", NULL]), unique=True)):
        targets = draw(st.lists(st.sampled_from("pqrstuv"), unique=True, max_size=7))
        table[e] = {f: draw(probs) for f in targets}
    return table


@settings(max_examples=300, deadline=None)
@given(
    alignment_tables(),
    st.lists(st.sampled_from("abcde"), max_size=6),
    st.lists(st.sampled_from("pqrstuvw"), max_size=9),
)
def test_align_matches_probe_loop(table, src, tgt):
    # "e" and "w" are never in the table; NULL rows tie or beat the best link
    model = AlignmentModel.from_table(table, [])
    src, tgt = seq(src), seq(tgt)
    assert model.align(src, tgt) == ref_align(model, src, tgt)


def test_align_null_wins_only_when_strictly_higher():
    model = AlignmentModel.from_table({"a": {"x": 0.5, "y": 0.5}, NULL: {"x": 0.5, "y": 0.75}}, [])
    src, tgt = seq(["a", "a"]), seq(["x", "y", "x", "z"])
    assert model.align(src, tgt) == ref_align(model, src, tgt) == [0, None, 0, None]


def test_align_both_walks_on_trained_model():
    rng = np.random.default_rng(7)
    vocab = [f"w{i}" for i in range(25)]
    sents = [seq(rng.choice(vocab, size=rng.integers(1, 9))) for _ in range(60)]
    model = train_aligner([(s, s) for s in sents], iterations=3)
    long_tgt = seq(rng.choice(vocab + ["oov"], size=120))  # rows shorter than its types
    for src in sents[:20] + [seq(["oov", "w1"]), seq([])]:
        for tgt in (long_tgt, seq(["w3"]), sents[5]):
            assert model.align(src, tgt) == ref_align(model, src, tgt)


def test_from_table_rows_round_trip():
    table = {"a": {"x": 0.5, "y": 0.25}, NULL: {"a": 1.0}, "b": {}}
    model = AlignmentModel.from_table(table, [-1.5])
    for e in ("a", NULL, "b", "x", "unseen"):
        assert model.row(e) == table.get(e, {})
    assert model.prob("y", "a") == 0.25 and model.prob("a", "a") == 0.0
    assert model.log_likelihoods == [-1.5]


def test_pickled_model_leaves_row_cache_behind():
    sents = [seq("a b c".split()), seq("b c d".split()), seq("d a".split())]
    model = train_aligner([(s, s) for s in sents], iterations=2)
    expected = table_of(model)  # fills the row cache
    copy = pickle.loads(pickle.dumps(model))
    assert copy._rows == {}
    assert table_of(copy) == expected
    assert copy.log_likelihoods == model.log_likelihoods


# ---------------------------------------------------------------------------
# IBM Model 1 EM: array passes against the dict-of-dicts reference.


def assert_same_aligner(pairs, iterations):
    model = train_aligner(pairs, iterations)
    ref_table, ref_lls = ref_train_aligner(pairs, iterations)
    got = table_of(model)
    assert set(got) == set(ref_table)
    for e, row in ref_table.items():
        assert {f: p.hex() for f, p in got[e].items()} == {f: p.hex() for f, p in row.items()}
    assert hexes(model.log_likelihoods) == hexes(ref_lls)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(words, st.lists(st.sampled_from("abcxyz"), max_size=7)),
             min_size=1, max_size=8),
    st.sampled_from([0, 1, 2, 5]),
)
def test_em_matches_dict_reference(pairs, iterations):
    # few letters: words share co-occurrences across pairs, sources repeat
    # words, and either side may be empty
    assert_same_aligner([(seq(s), seq(t)) for s, t in pairs], iterations)


@pytest.mark.parametrize("iterations", [0, 1, 5])
def test_em_seeded_identity_and_translation_pairs(iterations):
    rng = np.random.default_rng(5)
    vocab = [f"w{i}" for i in range(40)]
    p = 1.0 / np.arange(1, 41)
    p /= p.sum()
    sents = [seq(rng.choice(vocab, size=rng.integers(0, 15), p=p)) for _ in range(150)]
    assert_same_aligner([(s, s) for s in sents], iterations)
    foreign = [seq([w.upper() for w in s.tokens if rng.random() < 0.8]) for s in sents]
    assert_same_aligner(list(zip(sents, foreign)), iterations)


def test_em_all_targets_empty():
    pairs = [(seq(["a", "b"]), seq([])), (seq([]), seq([]))]
    assert_same_aligner(pairs, 3)
    assert table_of(train_aligner(pairs, 3)) == {}


# ---------------------------------------------------------------------------
# Edit distance: bit-vector against the DP.

tokens = st.lists(st.sampled_from("abcd"), max_size=12)


@settings(max_examples=500, deadline=None)
@given(tokens, tokens)
def test_edit_distance_matches_dp(text, pattern):
    assert _edit_distance(text, pattern) == ref_levenshtein(text, pattern)
    # the loop runs over the shorter sequence, whichever argument it is
    assert _edit_distance(pattern, text) == ref_levenshtein(text, pattern)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([63, 64, 65, 200]),
    st.lists(st.sampled_from("abcde"), max_size=220),
    st.data(),
)
def test_edit_distance_long_sources(m, text, data):
    # sources past one machine word; the text may be empty
    pattern = data.draw(st.lists(st.sampled_from("abcdef"), min_size=m, max_size=m))
    assert _edit_distance(text, pattern) == ref_levenshtein(text, pattern)


def test_edit_distance_edges():
    assert _edit_distance([], []) == 0
    assert _edit_distance(["a"] * 70, []) == 70
    assert _edit_distance([], ["a"] * 70) == 70
    assert _edit_distance(["a"] * 64, ["a"] * 65) == 1
    assert _edit_distance(["b"] * 200, ["a"] * 200) == 200


# ---------------------------------------------------------------------------
# Whole feature matrix: shared target sides against per-row references.


def resources_of(sentences, iterations=3):
    resources = FeatureResources(
        weight_table=build_ngram_weights(sentences),
        lm=WittenBellLM(sentences, order=3),
        aligner=train_aligner([(s, s) for s in sentences], iterations=iterations),
    )
    return resources, RefResources(sentences, resources.aligner)


def assert_rows_match_reference(rows, resources, ref):
    matrix = build_feature_matrix(rows, resources)
    for i, ((src, tgt), vec) in enumerate(zip(rows, matrix)):
        assert hexes(vec) == hexes(ref_feature_vector(src, tgt, ref)), (i, src.tokens, tgt.tokens)


def test_feature_matrix_matches_per_row_reference():
    rng = np.random.default_rng(11)
    vocab = [f"w{i}" for i in range(30)]
    sents = [seq(rng.choice(vocab, size=rng.integers(1, 10))) for _ in range(50)]
    resources, ref = resources_of(sents)
    lexicon_target = seq(rng.choice(vocab + ["unseen"], size=300))
    targets = [lexicon_target, seq(list(lexicon_target.tokens)), seq(["w2"]), seq([])]
    rows = [(sents[int(rng.integers(50))], targets[int(rng.integers(4))]) for _ in range(40)]
    rows.append((seq([]), lexicon_target))
    assert_rows_match_reference(rows, resources, ref)
    for src, tgt in rows[:5]:
        assert hexes(extract_feature_vector(src, tgt, resources)) == \
            hexes(ref_feature_vector(src, tgt, ref))


# few words, so rows repeat n-grams, share targets' words and hold OOV words
# ("x", "y"); sources past 64 words take the edit distance's wide masks
split_words = st.lists(st.sampled_from("abcdexy"), max_size=8)


@st.composite
def splits(draw):
    sentences = draw(st.lists(st.lists(st.sampled_from("abcde"), min_size=1, max_size=7),
                              min_size=1, max_size=8))
    srcs = draw(st.lists(split_words | st.lists(st.sampled_from("abx"), min_size=60,
                                                max_size=70), min_size=1, max_size=12))
    if draw(st.booleans()):  # one long target shared by every row, as a lexicon is
        shared = seq(draw(st.lists(st.sampled_from("abcdexy"), max_size=40)))
        rows = [(seq(s), shared) for s in srcs]
    else:  # a one-token (or empty) target of its own per row, as triples are
        rows = [(seq(s), seq(draw(st.lists(st.sampled_from("abcdxy"), max_size=1))))
                for s in srcs]
    return [seq(s) for s in sentences], rows


@settings(max_examples=60, deadline=None, derandomize=True)
@given(splits(), st.sampled_from([None, 1, 300]))
def test_feature_matrix_matches_reference_on_random_splits(split, block_bytes):
    # a small block budget cuts the split into several blocks of rows
    import rtm.learners

    sentences, rows = split
    resources, ref = resources_of(sentences, iterations=2)
    with pytest.MonkeyPatch.context() as patch:
        if block_bytes is not None:
            patch.setattr(rtm.learners, "_BLOCK_BYTES", block_bytes)
        assert_rows_match_reference(rows, resources, ref)


# ---------------------------------------------------------------------------
# Witten-Bell LM: count tables and one history table against the five-table
# reference.

SPECIAL = [BOS, EOS, UNK]


def assert_same_lm(sentences, order, queries, histories):
    lm = WittenBellLM(sentences, order=order)
    ref = RefWittenBellLM(sentences, order=order)
    # the array tables, read back as n-grams of words, are the reference's
    # counts, context totals and type counts
    histories_got = {(): (int(lm._totals[0][0]), int(lm._types[0][0]))}
    size = len(lm.words)
    for n in range(1, order + 1):
        keys = lm.keys[n - 1].tolist()
        grams = ([(lm.words[k],) for k in keys] if n == 1 else
                 [grams[k // size] + (lm.words[k % size],) for k in keys])
        counts = dict(zip(grams, lm.counts[n - 1].tolist()))
        assert {g: c for g, c in counts.items() if c} == ref._counts[n]
        if n < order:
            histories_got.update((g, (int(total), int(types))) for g, total, types
                                 in zip(grams, lm._totals[n], lm._types[n]) if types)
    assert histories_got == {
        h: (total, ref._types_after[n][h])
        for n, totals in ref._context_totals.items() for h, total in totals.items()
    }
    assert set(lm.words[: lm.n_words]) == ref.vocab and lm._p0.hex() == ref._p0.hex()
    assert all(lm.in_vocab(w) == (w in ref.vocab) for w in lm.words + ("unseen",))
    for query in queries:
        got, expected = lm.sequence_logprob2(query), ref.sequence_logprob2(query)
        assert (got[0].hex(), got[1]) == (expected[0].hex(), expected[1]), query.tokens
    # all queries at once, as one split's sources
    ids = np.array([lm.ids.get(t, -1) for q in queries for t in q.tokens], dtype=np.int64)
    logprobs, events = lm.logprob2_rows(ids, np.array([len(q) for q in queries], dtype=np.int64))
    expected = [ref.sequence_logprob2(q) for q in queries]
    assert hexes(logprobs) == hexes(lp for lp, _ in expected)
    assert events.tolist() == [n for _, n in expected]
    words = sorted(ref._pred_vocab | {BOS, "unseen"})
    for hist in histories:
        assert hexes(lm.prob(w, hist) for w in words) == hexes(ref.prob(w, hist) for w in words)


@pytest.mark.parametrize("order", [1, 2, 3, 4])
@pytest.mark.parametrize("trained_specials", [(), (UNK,), (BOS, EOS, UNK)])
def test_lm_matches_five_table_reference(order, trained_specials):
    # A predicted literal <s> maps to <unk> unless it was a training word;
    # the two score differently only when <unk> was a training word.
    rng = np.random.default_rng(order + 10 * len(trained_specials))
    vocab = [f"w{i}" for i in range(12)]
    train_vocab = vocab + list(trained_specials)
    p = 1.0 / np.arange(1, len(train_vocab) + 1)
    p /= p.sum()
    sentences = [seq(rng.choice(train_vocab, size=rng.integers(0, 9), p=p)) for _ in range(60)]
    sentences.append(seq(vocab[:3]))
    # queries mix training words, unseen words and literal <s>, </s>, <unk>
    query_vocab = vocab + ["unseen", "zz"] + SPECIAL
    queries = [seq(rng.choice(query_vocab, size=rng.integers(0, 10))) for _ in range(150)]
    queries += [seq([BOS, BOS, "w1"]), seq([EOS, "w0", UNK]), seq(["unseen", BOS, EOS])]
    history_words = vocab + ["unseen"] + SPECIAL
    histories = [tuple(rng.choice(history_words, size=rng.integers(0, order + 2)))
                 for _ in range(60)]
    histories += [(), (BOS,) * 3, (BOS, "unseen"), ("w0", EOS), (UNK, BOS, "w1")]
    assert_same_lm(sentences, order, queries, histories)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.lists(st.sampled_from(["a", "b", "c", BOS, EOS, UNK]), max_size=6),
             min_size=1, max_size=8).filter(lambda s: any(s)),
    st.lists(st.lists(st.sampled_from(["a", "b", "d", BOS, EOS, UNK]), max_size=6),
             min_size=1, max_size=5),
    st.integers(1, 4),
)
def test_lm_matches_reference_on_special_tokens(sentences, queries, order):
    histories = [tuple(q) for q in queries]
    assert_same_lm([seq(s) for s in sentences], order, [seq(q) for q in queries], histories)


# ---------------------------------------------------------------------------
# Tokenizer.

chunk_chars = st.sampled_from(
    list("aZ09_#@!.:'-") + ["é", "ß", "ж", "ا", "٣", "²", "中", "·", "́"]
    + ["😀", "İ", "\x1c", "_#x"]
    # marks: Arabic fatha (Mn), Devanagari vowel sign aa (Mc), enclosing circle (Me)
    + ["\u064e", "\u093e", "\u20dd", "e\u0301"]
)


def normalized(text):
    return unicodedata.normalize("NFC", text).lower()


@settings(max_examples=300, deadline=None)
@given(st.lists(chunk_chars, min_size=1, max_size=10).map("".join))
def test_split_chunk_matches_char_loop(chunk):
    # "İ" lowercases to two code points, "e" + U+0301 composes to "é" and
    # "\x1c" is whitespace, so the reference runs on each chunk of the
    # normalized, lowered text, as tokenize documents.
    expected = [t for c in normalized(chunk).split() for t in ref_split_chunk(c)]
    assert list(tokenize(chunk).tokens) == expected


def test_mark_ranges_are_category_m():
    # The pattern's mark class is exactly Unicode category M on every code
    # point (the table is Unicode 14.0's, that of Python 3.11).
    s = "".join(map(chr, range(sys.maxunicode + 1)))
    marks = re.findall(f"[{rtm.corpus._MARK}]", s)
    assert marks == [c for c in s if unicodedata.category(c)[0] == "M"], \
        f"regenerate _MARK_RANGES for Unicode {unicodedata.unidata_version}"


def test_pattern_classes_are_isalnum_and_isspace():
    # The pattern states the rule only if re's \w and \s are exactly the
    # str predicates that the reference uses, on every code point.
    s = "".join(map(chr, range(sys.maxunicode + 1)))
    assert re.findall(r"\w", s) == [c for c in s if c.isalnum() or c == "_"]
    assert re.findall(r"\s", s) == [c for c in s if c.isspace()]


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=30))
def test_tokenize_matches_char_loop(text):
    lowered = normalized(text)
    expected = list(itertools.chain.from_iterable(ref_split_chunk(c) for c in lowered.split()))
    assert list(tokenize(text).tokens) == expected
