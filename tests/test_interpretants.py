import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rtm
import rtm.corpus
from rtm.corpus import TokenSeq, load_corpus, tokenize
from rtm.interpretants import (
    EOS,
    UNK,
    FdaConfig,
    IdSentences,
    WittenBellLM,
    build_ngram_weights,
    map_sentences,
    select_interpretants,
)


def seqs(*texts):
    return [tokenize(t) for t in texts]


class TestSelectInterpretants:
    def test_picks_only_overlapping_sentence(self):
        corpus = seqs("a b", "c d")
        sel = select_interpretants(corpus, seqs("a b"), FdaConfig(budget=1))
        assert sel.selected_indices == [0]

    def test_duplicate_copy_scores_exactly_decay_times_first(self):
        # two identical copies of the only matching sentence, nothing else overlaps
        corpus = seqs("a b c", "a b c", "x y z")
        sel = select_interpretants(
            corpus, seqs("a b c"), FdaConfig(max_order=2, decay=0.5, budget=2)
        )
        assert sel.selected_indices == [0, 1]
        assert sel.selection_scores[1] == pytest.approx(0.5 * sel.selection_scores[0], rel=1e-12)

    def test_full_budget_is_permutation(self):
        corpus = seqs("a b", "b c", "c d", "e f")
        sel = select_interpretants(corpus, seqs("a b c"), FdaConfig(budget=4))
        assert sorted(sel.selected_indices) == [0, 1, 2, 3]

    def test_scores_non_increasing(self):
        rng = np.random.default_rng(0)
        vocab = [f"w{i}" for i in range(20)]
        corpus = [TokenSeq.from_tokens(rng.choice(vocab, size=rng.integers(2, 6)))
                  for _ in range(40)]
        task = [TokenSeq.from_tokens(rng.choice(vocab, size=5)) for _ in range(4)]
        sel = select_interpretants(corpus, task, FdaConfig(budget=40))
        assert all(a >= b - 1e-12 for a, b in zip(sel.selection_scores, sel.selection_scores[1:]))

    def test_no_decay_keeps_static_order(self):
        # decay=1: selection order must equal descending static-score order
        corpus = seqs("a b c d", "a b", "a", "x")
        sel = select_interpretants(corpus, seqs("a b c d"), FdaConfig(decay=1.0, budget=4))
        static = sel.selection_scores
        assert static == sorted(static, reverse=True)
        assert sel.selected_indices[-1] == 3

    def test_picks_independent_of_hash_seed(self):
        # Picking sentence 0 decays b and c to 2**-53.  Sentence 4 (a b c) then
        # scores 1 + 2**-52 if b and c are added before a, and exactly 1 (a
        # tie with sentence 3) if a comes first, as the task order puts it.
        script = (
            "from rtm.corpus import tokenize\n"
            "from rtm.interpretants import FdaConfig, select_interpretants\n"
            "corpus = [tokenize(t) for t in ['b c g h i j', 'e f k l m n', "
            "'e f o p q r', 'd e f', 'a b c']]\n"
            "task = [tokenize('a b c d e f g h i j k l m n o p q r')]\n"
            "cfg = FdaConfig(max_order=1, decay=2.0**-53, budget=5, length_exponent=0.0)\n"
            "sel = select_interpretants(corpus, task, cfg)\n"
            "print(sel.selected_indices, [s.hex() for s in sel.selection_scores])\n"
        )
        src = str(Path(rtm.__file__).resolve().parents[1])
        outputs = set()
        for hash_seed in range(8):
            env = {**os.environ, "PYTHONHASHSEED": str(hash_seed), "PYTHONPATH": src}
            done = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                                  capture_output=True, text=True, timeout=120)
            outputs.add(done.stdout)
        assert len(outputs) == 1, outputs

    def test_errors(self):
        corpus = seqs("a b")
        with pytest.raises(ValueError):
            select_interpretants(corpus, [], FdaConfig(budget=1))
        with pytest.raises(ValueError):
            select_interpretants(corpus, seqs("a"), FdaConfig(budget=2))

    def test_one_pass_over_a_generator(self):
        rng = np.random.default_rng(6)
        vocab = [f"w{i}" for i in range(30)]
        sentences = [TokenSeq.from_tokens(rng.choice(vocab, size=rng.integers(1, 9)))
                     for _ in range(200)]
        task = [TokenSeq.from_tokens(rng.choice(vocab[:15], size=12)) for _ in range(5)]
        cfg = FdaConfig(max_order=3, budget=60)
        expected = select_interpretants(sentences, task, cfg)
        assert select_interpretants((s for s in sentences), task, cfg) == expected

    @pytest.mark.parametrize("seed", range(12))
    def test_corpus_blocks_equal_a_list_of_its_sentences(self, tmp_path, monkeypatch, seed):
        # FDA reads a Corpus as blocks of bare tokens (many small blocks
        # here); the picks and every score's bits are those of a list of the
        # corpus's sentences as TokenSeqs, each tokenized alone.
        rng = np.random.default_rng(seed)
        vocab = [f"w{i}" for i in range(25)] + ["#t", "x!", "\u200e", "e\u0301", "👍\U0001f3fd"]
        lines = [" ".join(rng.choice(vocab, size=rng.integers(0, 15))) for _ in range(150)]
        path = tmp_path / "c.txt"
        path.write_text("\n".join(lines), encoding="utf-8")
        sentences = [seq for seq in map(tokenize, lines) if seq.tokens]
        task = [tokenize(" ".join(rng.choice(vocab, size=12))) for _ in range(3)]
        cfg = FdaConfig(max_order=int(rng.integers(1, 4)), decay=float(rng.choice([0.5, 0.9, 1.0])),
                        budget=min(60, len(sentences)),
                        length_exponent=float(rng.choice([0.0, 0.5, 1.0])))
        monkeypatch.setattr(rtm.corpus, "_BLOCK_CHARS", int(rng.integers(1, 300)))
        got = select_interpretants(load_corpus(path), task, cfg)
        expected = select_interpretants(sentences, task, cfg)
        assert got.selected_indices == expected.selected_indices
        assert [s.hex() for s in got.selection_scores] == [
            s.hex() for s in expected.selection_scores]

    @pytest.mark.parametrize("cfg, message", [
        (FdaConfig(budget=3), r"^budget 3 exceeds corpus size 2$"),
        (FdaConfig(budget=1, length_exponent=700.0),
         r"^length_exponent = 700\.0 is too large: the longest corpus sentence has 3 tokens, "
         r"and 3 \*\* 700\.0 overflows a float$"),
    ])
    def test_errors_same_for_a_generator(self, cfg, message):
        sentences = seqs("a b", "a b c")
        for corpus in (sentences, (s for s in sentences)):
            with pytest.raises(ValueError, match=message):
                select_interpretants(corpus, seqs("a"), cfg)


def test_one_mapping_serves_the_table_and_the_lm():
    sentences = seqs("a b c a", "b c", "d", "")
    mapped = map_sentences(sentences)
    assert isinstance(mapped, IdSentences) and map_sentences(mapped) is mapped
    table, lm = build_ngram_weights(mapped), WittenBellLM(mapped, order=3)
    alone_table, alone_lm = build_ngram_weights(sentences), WittenBellLM(sentences, order=3)
    assert table.words == lm.words == alone_table.words == alone_lm.words
    assert table.totals == alone_table.totals and lm.n_words == alone_lm.n_words
    for got, alone in zip(table.keys + table.weights + lm.keys + lm.counts,
                          alone_table.keys + alone_table.weights + alone_lm.keys + alone_lm.counts):
        np.testing.assert_array_equal(got, alone)


class TestNGramWeights:
    def test_unigram_relative_frequency(self):
        table = build_ngram_weights(seqs("a a b"))
        assert table.weight(("a",)) == pytest.approx(2 / 3)
        assert table.weight(("b",)) == pytest.approx(1 / 3)

    def test_single_bigram(self):
        table = build_ngram_weights(seqs("a b"))
        assert table.weight(("a", "b")) == 1.0

    def test_bigram_split(self):
        table = build_ngram_weights(seqs("a b", "b a"))
        assert table.weight(("a", "b")) == pytest.approx(0.5)
        assert table.weight(("b", "a")) == pytest.approx(0.5)

    def test_orders_sum_to_one(self):
        table = build_ngram_weights(seqs("a b c d", "b c", "a"))
        for weights in table.weights:
            if len(weights):
                assert weights.sum() == pytest.approx(1.0, abs=1e-9)

    def test_unseen_floor(self):
        table = build_ngram_weights(seqs("a a b"))  # 3 unigram tokens
        assert table.weight(("zzz",)) == pytest.approx(1 / 6)

    def test_all_empty_rejected(self):
        with pytest.raises(ValueError):
            build_ngram_weights([])


class TestWittenBellLM:
    def test_repeated_sentence_near_certain(self):
        sentences = seqs(*["the cat sat on the mat"] * 40)
        lm = WittenBellLM(sentences, order=3)
        logprob, events = lm.sequence_logprob2(sentences[0])
        assert -logprob / events < 0.2

    def test_uniform_model_closed_form(self):
        # 8 words seen once, order 1: 9 events (8 words + </s>) of 9 types over
        # a 10-symbol prediction vocabulary (+ <unk>), so every seen symbol has
        # P = (1 + 9/10) / (9 + 9) = 1.9/18
        sent = TokenSeq.from_tokens([f"w{i}" for i in range(8)])
        lm = WittenBellLM([sent], order=1)
        query = TokenSeq.from_tokens(["w0", "w3", "w5", "w7"])
        logprob, events = lm.sequence_logprob2(query)
        assert events == 5
        assert -logprob / events == pytest.approx(math.log2(18 / 1.9), abs=1e-12)
        assert math.log2(18 / 1.9) == pytest.approx(3.2439255828860896, abs=1e-15)

    def test_conditional_distributions_normalize(self):
        rng = np.random.default_rng(1)
        vocab = [f"w{i}" for i in range(15)]
        sentences = [
            TokenSeq.from_tokens(rng.choice(vocab, size=rng.integers(1, 7))) for _ in range(30)
        ]
        lm = WittenBellLM(sentences, order=3)
        words = sorted(set(lm.words[: lm.n_words]) | {UNK, EOS})
        histories = [tuple(rng.choice(vocab + ["<unk>"], size=rng.integers(0, 3))) for _ in range(100)]
        histories += [("<s>", "<s>"), ("<s>", words[0])]
        for hist in histories:
            total = sum(lm.prob(w, hist) for w in words)
            assert total == pytest.approx(1.0, abs=1e-6)

    def test_any_sentence_has_positive_probability(self):
        lm = WittenBellLM(seqs("a b c"), order=2)
        logprob, _ = lm.sequence_logprob2(tokenize("zz qq a"))
        assert math.isfinite(logprob)

    def test_order_validation(self):
        with pytest.raises(ValueError):
            WittenBellLM(seqs("a b"), order=0)
