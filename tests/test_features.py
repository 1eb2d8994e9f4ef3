import collections
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rtm.corpus import TokenSeq, tokenize
from rtm.features import (
    FEATURE_NAMES,
    N_FEATURES,
    AlignmentModel,
    FeatureResources,
    alignment_features,
    build_feature_matrix,
    extract_feature_vector,
    length_features,
    lm_features,
    train_aligner,
    weighted_overlap,
)
from rtm.interpretants import WittenBellLM, build_ngram_weights

from conftest import traced_peak


def seqs(*texts):
    return [tokenize(t) for t in texts]


def uniform_table(grams=("a", "b", "c", "x", "y")):
    """A table where every known unigram has the same weight and no longer
    n-gram has any: one one-word sentence per word."""
    return build_ngram_weights([TokenSeq.from_tokens([g]) for g in grams])


token_lists = st.lists(st.sampled_from("abcxy"), min_size=0, max_size=6)


class TestWeightedOverlap:
    def test_identity_is_one(self):
        table = build_ngram_weights(seqs("a b c"))
        src = tokenize("a b c")
        ov = weighted_overlap(src, src, table, (1, 2))
        assert (ov.wprec, ov.wrec, ov.wf1, ov.wgm) == (1.0, 1.0, 1.0, 1.0)

    def test_disjoint_is_zero(self):
        table = build_ngram_weights(seqs("a b x y"))
        ov = weighted_overlap(tokenize("a b"), tokenize("x y"), table, (1, 2))
        assert ov == (0.0,) * 6

    def test_half_overlap_uniform_weights(self):
        ov = weighted_overlap(tokenize("a b"), tokenize("a c"), uniform_table(), (1,))
        assert (ov.wprec, ov.wrec, ov.wf1, ov.wgm) == (0.5, 0.5, 0.5, 0.5)

    def test_empty_side_gives_zeros(self):
        table = build_ngram_weights(seqs("a b"))
        assert weighted_overlap(tokenize("a"), tokenize(""), table, (1,)) == (0.0,) * 6
        assert weighted_overlap(tokenize(""), tokenize("a"), table, (1,)) == (0.0,) * 6

    def test_unseen_ngrams_use_floor(self):
        table = build_ngram_weights(seqs("a b"))  # 'z' unseen, floor = 1/4
        ov = weighted_overlap(tokenize("a z"), tokenize("z"), table, (1,))
        assert ov.wrec == 1.0
        assert ov.wprec == pytest.approx(0.25 / (0.5 + 0.25))

    @given(token_lists, token_lists)
    def test_bounds_and_gm_identity(self, src_toks, tgt_toks):
        src = TokenSeq.from_tokens(src_toks)
        tgt = TokenSeq.from_tokens(tgt_toks)
        table = uniform_table()
        ov = weighted_overlap(src, tgt, table, (1, 2))
        for value in ov:
            assert 0.0 <= value <= 1.0
        assert ov.wgm**2 == pytest.approx(ov.wprec * ov.wrec, abs=1e-12)
        assert ov.wf1 <= ov.wgm + 1e-12 <= max(ov.wprec, ov.wrec) + 2e-12

    @given(token_lists, token_lists)
    def test_uniform_weights_match_plain_overlap(self, src_toks, tgt_toks):
        # brute-force oracle: distinct-n-gram set arithmetic
        src = TokenSeq.from_tokens(src_toks)
        tgt = TokenSeq.from_tokens(tgt_toks)
        ov = weighted_overlap(src, tgt, uniform_table(), (1,))
        sset, tset = set(src_toks), set(tgt_toks)
        if not sset or not tset:
            assert ov == (0.0,) * 6
        else:
            common = len(sset & tset)
            assert ov.wprec == pytest.approx(common / len(sset), abs=1e-12)
            assert ov.wrec == pytest.approx(common / len(tset), abs=1e-12)
            assert ov.rec == pytest.approx(ov.wrec, abs=1e-12)
            assert ov.prec == pytest.approx(ov.wprec, abs=1e-12)


class TestLmFeatures:
    def test_uniform_model_bpw(self):
        # every word and </s> has P = 1.9/18 (see TestWittenBellLM)
        sent = TokenSeq.from_tokens([f"w{i}" for i in range(8)])
        lm = WittenBellLM([sent], order=1)
        _, bpw, oov = lm_features(lm, TokenSeq.from_tokens(["w0", "w1", "w2", "w3"]))
        assert bpw == pytest.approx(3.2439255828860896, abs=1e-12)
        assert oov == 0.0

    def test_all_oov(self):
        lm = WittenBellLM(seqs("a b c"), order=2)
        _, _, oov = lm_features(lm, tokenize("zz qq"))
        assert oov == 1.0

    def test_empty_sequence_scores_eos_only(self):
        lm = WittenBellLM(seqs("a b"), order=2)
        logprob, bpw, oov = lm_features(lm, tokenize(""))
        assert logprob == pytest.approx(math.log2(lm.prob("</s>", ("<s>",))))
        assert bpw == -logprob and oov == 0.0

    def test_repeated_corpus_low_bpw(self):
        lm = WittenBellLM(seqs(*["a b c d e"] * 30), order=3)
        _, bpw, _ = lm_features(lm, tokenize("a b c d e"))
        assert bpw < 0.2


class TestAligner:
    def _identity_corpus(self, n=60, vocab_size=12, seed=7):
        rng = np.random.default_rng(seed)
        vocab = [f"v{i}" for i in range(vocab_size)]
        sents = [
            TokenSeq.from_tokens(rng.choice(vocab, size=rng.integers(3, 7), replace=False))
            for _ in range(n)
        ]
        return sents

    def test_identity_training_concentrates_mass(self):
        sents = self._identity_corpus()
        model = train_aligner([(s, s) for s in sents], iterations=5)
        for word in ("v0", "v1", "v2"):
            assert model.prob(word, word) > 0.9

    def test_em_loglikelihood_non_decreasing(self):
        sents = self._identity_corpus()
        model = train_aligner([(s, s) for s in sents], iterations=6)
        lls = model.log_likelihoods
        assert len(lls) == 6
        assert all(a <= b + 1e-9 for a, b in zip(lls, lls[1:]))

    def test_single_pair_normalization(self):
        # per-source normalization: sum over target words of t(.|e) is 1
        model = train_aligner([(tokenize("a"), tokenize("b"))], iterations=5)
        for src in ("a", "<null>"):
            assert sum(model.row(src).values()) == pytest.approx(1.0, abs=1e-6)

    def test_one_em_iteration_matches_hand_computation(self):
        # pairs ([a b],[a b]) and ([a],[a]); one E/M step done by hand
        pairs = [(tokenize("a b"), tokenize("a b")), (tokenize("a"), tokenize("a"))]
        model = train_aligner(pairs, iterations=1)
        assert model.prob("a", "a") == pytest.approx(5 / 7, abs=1e-12)
        assert model.prob("b", "a") == pytest.approx(2 / 7, abs=1e-12)
        assert model.prob("a", "b") == pytest.approx(0.5, abs=1e-12)
        assert model.prob("a", "<null>") == pytest.approx(5 / 7, abs=1e-12)

    def test_per_source_rows_normalize(self):
        sents = self._identity_corpus(n=25)
        model = train_aligner([(s, s) for s in sents], iterations=3)
        for src in model.vocab:  # identity pairs: every word is a source
            assert sum(model.row(src).values()) == pytest.approx(1.0, abs=1e-6)

    def test_em_memory_per_entry_bounded(self):
        # One entry per (pair, target position, source word with null); with
        # words drawn uniformly, most entries are a word pair of their own, as
        # in build-resources' identity pairs.  Between iterations an entry
        # holds one int32 index, and each iteration's arrays are freed before
        # the next: 50.6 B/entry traced here (138.6 with int64 group, word
        # and live arrays kept per entry).
        rng = np.random.default_rng(11)
        vocab = [f"w{i}" for i in range(3000)]
        sents = [TokenSeq.from_tokens(rng.choice(vocab, size=rng.integers(1, 30)))
                 for _ in range(600)]
        entries = sum((len(s) + 1) * len(s) for s in sents)
        _, peak = traced_peak(train_aligner, [(s, s) for s in sents], 5)
        assert peak / entries < 65


class TestAlignmentFeatures:
    def test_identity_model_identity_pair(self):
        # vocabulary must be shuffled across sentences for EM to identify words
        rng = np.random.default_rng(3)
        vocab = [f"v{i}" for i in range(10)]
        sents = [
            TokenSeq.from_tokens(rng.choice(vocab, size=rng.integers(3, 6), replace=False))
            for _ in range(50)
        ]
        model = train_aligner([(s, s) for s in sents], iterations=5)
        for sent in sents[:5]:
            assert alignment_features(model, sent, sent) == (1.0, 1.0)

    def test_all_null_alignment(self):
        model = AlignmentModel.from_table({"<null>": {"x": 1.0, "y": 1.0}}, [])
        one_minus_wer, f1 = alignment_features(model, tokenize("a b"), tokenize("x y"))
        assert f1 == 0.0
        assert one_minus_wer == 0.0  # empty aligned sequence vs 2-token source

    def test_empty_target(self):
        model = AlignmentModel.from_table({}, [])
        assert alignment_features(model, tokenize("a"), tokenize("")) == (0.0, 0.0)

    def test_clamped_to_unit_interval(self):
        # many target tokens hitting the same source token inflate WER
        model = AlignmentModel.from_table({"a": {"x": 1.0}}, [])
        one_minus_wer, f1 = alignment_features(model, tokenize("a"), tokenize("x x x x"))
        assert 0.0 <= one_minus_wer <= 1.0 and 0.0 <= f1 <= 1.0


class TestLengthFeatures:
    def test_equal_sides(self):
        src = tokenize("a b c")
        feats = length_features(src, src)
        assert feats[4] == 1.0 and feats[5] == 1.0

    def test_empty_target_guard(self):
        feats = length_features(tokenize("a b"), tokenize(""))
        assert feats[4] == 0.0 and feats[5] == 0.0

    def test_arithmetic(self):
        src = TokenSeq(("aa", "bb", "cc"), 12)
        tgt = TokenSeq(("ddd", "ee"), 7)
        assert length_features(src, tgt) == (3.0, 2.0, 12.0, 7.0, 1.5, 12 / 7)


@pytest.fixture
def resources():
    sentences = seqs("a b c d", "b c d e", "c d e f", "a d f b")
    return FeatureResources(
        weight_table=build_ngram_weights(sentences),
        lm=WittenBellLM(sentences, order=3),
        aligner=train_aligner([(s, s) for s in sentences], iterations=5),
    )


class TestFeatureVector:
    def test_identity_pair(self, resources):
        src = tokenize("a b c d")
        vec = extract_feature_vector(src, src, resources)
        named = dict(zip(FEATURE_NAMES, vec))
        for name in ("wprec_1", "wrec_12", "wf1_123", "wgm_1", "rec_2", "prec_3"):
            assert named[name] == 1.0
        assert named["align_1mwer"] == 1.0 and named["align_f1"] == 1.0

    def test_arity_matches_manifest(self, resources):
        vec = extract_feature_vector(tokenize("a b"), tokenize("c"), resources)
        assert len(vec) == len(FEATURE_NAMES) == N_FEATURES == 41

    def test_empty_target_is_finite(self, resources):
        vec = extract_feature_vector(tokenize("a b"), tokenize(""), resources)
        assert np.all(np.isfinite(vec))

    def test_missing_resource_named(self, resources):
        resources.lm = None
        with pytest.raises(ValueError, match="lm"):
            extract_feature_vector(tokenize("a"), tokenize("a"), resources)

    def test_extraction_is_pure(self, resources):
        src, tgt = tokenize("a b c"), tokenize("b c")
        first = extract_feature_vector(src, tgt, resources)
        second = extract_feature_vector(src, tgt, resources)
        assert np.array_equal(first, second)


class TestFeatureMatrix:
    def test_empty(self, resources):
        assert build_feature_matrix([], resources).shape == (0, 41)

    def test_permutation_equivariance(self, resources):
        rows = [(tokenize("a b"), tokenize("b")), (tokenize("c d"), tokenize("c")),
                (tokenize("e f"), tokenize("a"))]
        mat = build_feature_matrix(rows, resources)
        flipped = build_feature_matrix(rows[::-1], resources)
        assert np.array_equal(mat[::-1], flipped)

    def test_duplicate_rows_identical(self, resources):
        rows = [(tokenize("a b"), tokenize("b"))] * 2
        mat = build_feature_matrix(rows, resources)
        assert np.array_equal(mat[0], mat[1])

    def test_non_finite_feature_names_its_row(self, resources, monkeypatch):
        # the LM pass of the split scores both sources at once; the inf goes
        # to the source "c", as the word ids of the pass give it
        lm = resources.lm
        real = lm.logprob2_rows

        def lm_inf_on_c(ids, lengths):
            logprob, events = real(ids, lengths)
            ends = np.cumsum(lengths)
            for row, (start, end) in enumerate(zip(ends - lengths, ends)):
                if ids[start:end].tolist() == [lm.ids["c"]]:
                    logprob[row] = math.inf
            return logprob, events

        monkeypatch.setattr(lm, "logprob2_rows", lm_inf_on_c)
        rows = [(tokenize("a b"), tokenize("b")), (tokenize("c"), tokenize("b"))]
        with pytest.raises(AssertionError, match=r"^non-finite feature lm_logprob in row 1$"):
            build_feature_matrix(rows, resources)

    def test_weights_looked_up_once_per_row_and_target(self, resources, monkeypatch):
        # Each distinct n-gram of the split, whichever rows and targets hold
        # it, is weighed once, for all five order sets.  A looked-up n-gram
        # reads back as words, None for a word outside the vocabulary ("x").
        table = resources.weight_table
        real, calls = table.weigh, collections.Counter()

        def counting(grams):
            calls.update(tuple(table.words[i] if i >= 0 else None for i in row)
                         for row in grams.tolist())
            return real(grams)

        monkeypatch.setattr(table, "weigh", counting)
        sources = seqs("a b c a b", "b c d e", "a b c a b", "f", "")
        rows = [(src, tokenize("a b c a b d x")) for src in sources]  # equal, not the same object
        build_feature_matrix(rows, resources)

        def distinct_grams(seq):
            toks = seq.tokens
            return {toks[i : i + n] for n in (1, 2, 3) for i in range(len(toks) - n + 1)}

        expected = collections.Counter(
            tuple(w if w in table.ids else None for w in gram)
            for gram in set().union(*map(distinct_grams, sources + [rows[0][1]])))
        assert calls == expected
