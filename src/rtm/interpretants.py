"""Interpretant selection and the n-gram statistics trained from it.

Interpretants are corpus sentences close to the task texts.  They are picked
with a greedy feature-decay pass: task-side n-grams start at weight 1, a
sentence scores the sum of the distinct task n-grams it contains (length
normalized), and every selected sentence decays the weights of its features,
pushing later picks towards uncovered material.

The selected sentences feed two resources: a relative-frequency n-gram weight
table (likelihood source for the weighted overlap features) and an
interpolated Witten-Bell language model.
"""

from __future__ import annotations

import collections
import heapq
import math
from dataclasses import dataclass, field

from .corpus import Corpus, TokenSeq, extract_ngrams

BOS = "<s>"
EOS = "</s>"
UNK = "<unk>"


@dataclass(frozen=True)
class FdaConfig:
    """Knobs of the feature-decay selection."""

    max_order: int = 2
    decay: float = 0.5
    budget: int = 100
    length_exponent: float = 0.5

    def __post_init__(self):
        if not 0.0 < self.decay <= 1.0:
            raise ValueError("decay must be in (0, 1]")
        if self.budget < 1:
            raise ValueError("budget must be positive")
        if self.max_order < 1:
            raise ValueError("max_order must be >= 1")
        if self.length_exponent < 0:
            raise ValueError("length_exponent must be >= 0")


@dataclass
class InterpretantSet:
    """Selected corpus indices with their at-selection scores (non-increasing)."""

    selected_indices: list[int]
    selection_scores: list[float]

    def __len__(self) -> int:
        return len(self.selected_indices)


def _sentence_ngrams(seq: TokenSeq, max_order: int) -> set:
    # The insertion order (by order, then first occurrence) fixes the set's
    # iteration order and with it the order of the float sums in
    # select_interpretants; changing it can change the last bit of a score.
    toks = seq.tokens
    grams = set()
    for n in range(1, max_order + 1):
        grams.update(toks[i : i + n] for i in range(len(toks) - n + 1))
    return grams


def select_interpretants(
    corpus: Corpus, task_texts: list[TokenSeq], cfg: FdaConfig
) -> InterpretantSet:
    """Greedy feature-decay selection of ``cfg.budget`` sentences.

    Each round picks the sentence with the highest score
    ``sum(weight of matching task n-grams) / len**length_exponent``
    (ties -> lowest index), then multiplies the weight of every feature the
    winner contains by ``cfg.decay``.
    """
    if not task_texts:
        raise ValueError("task_texts must be nonempty")
    if cfg.budget > len(corpus):
        raise ValueError(f"budget {cfg.budget} exceeds corpus size {len(corpus)}")

    task_features: set = set()
    for text in task_texts:
        task_features.update(_sentence_ngrams(text, cfg.max_order))
    weights = {g: 1.0 for g in task_features}

    # Per sentence: its matching features and 1/len**a normalizer.
    sent_features: list[tuple] = []
    inv_norm: list[float] = []
    for sent in corpus.sentences:
        sent_features.append(tuple(_sentence_ngrams(sent, cfg.max_order) & task_features))
        inv_norm.append(1.0 / (len(sent) ** cfg.length_exponent))

    def score(i: int) -> float:
        return sum(map(weights.__getitem__, sent_features[i])) * inv_norm[i]

    # Lazy greedy: a heap key is the sentence's score when it was last
    # computed.  Weights only shrink and rounded sums and products are
    # monotone, so a key never falls below the current score; a popped
    # sentence whose re-score still equals its key beats every other current
    # score, and (-score, index) order keeps the lowest-index tie rule.
    heap = [(-score(i), i) for i in range(len(corpus))]
    heapq.heapify(heap)
    selected: list[int] = []
    picked_scores: list[float] = []
    for _ in range(cfg.budget):
        while True:
            neg_key, best = heap[0]
            best_score = score(best)
            if best_score == -neg_key:
                heapq.heappop(heap)
                break
            heapq.heapreplace(heap, (-best_score, best))
        selected.append(best)
        picked_scores.append(best_score)
        for g in sent_features[best]:
            weights[g] *= cfg.decay
    return InterpretantSet(selected, picked_scores)


@dataclass
class NGramWeightTable:
    """Relative-frequency weights of n-grams (orders 1..3).

    Unseen n-grams fall back to a floor of ``1 / (2 * total count of that
    order)``, i.e. half the weight of a singleton.
    """

    weights: dict[int, dict] = field(default_factory=dict)
    totals: dict[int, int] = field(default_factory=dict)

    def floor(self, n: int) -> float:
        total = self.totals.get(n, 0)
        return 1.0 / (2.0 * total) if total else 0.0

    def weight(self, gram: tuple) -> float:
        n = len(gram)
        w = self.weights.get(n, {}).get(gram)
        return w if w is not None else self.floor(n)


def build_ngram_weights(sentences: list[TokenSeq]) -> NGramWeightTable:
    """Count n-grams of orders 1..3 over ``sentences`` and normalize each order
    to sum to 1."""
    if not sentences or all(len(s) == 0 for s in sentences):
        raise ValueError("need at least one nonempty sentence")
    weights: dict[int, dict] = {}
    totals: dict[int, int] = {}
    for n in range(1, 4):
        counts: collections.Counter = collections.Counter()
        for sent in sentences:
            counts.update(extract_ngrams(sent, n))
        total = sum(counts.values())
        totals[n] = total
        weights[n] = {g: c / total for g, c in counts.items()} if total else {}
    return NGramWeightTable(weights, totals)


class WittenBellLM:
    """Interpolated Witten-Bell n-gram model with boundary and unknown symbols.

    P(w | h) = (c(h,w) + T(h) * P(w | h')) / (c(h) + T(h)) where T(h) is the
    number of distinct types following h and h' drops the oldest context word.
    The recursion bottoms out in a uniform distribution over the prediction
    vocabulary (the training words plus the unknown and end-of-sentence
    symbols), which gives the unknown symbol its continuation mass.
    """

    def __init__(self, sentences: list[TokenSeq], order: int = 3):
        if order < 1:
            raise ValueError("order must be >= 1")
        if not sentences or all(len(s) == 0 for s in sentences):
            raise ValueError("need at least one nonempty sentence")
        self.order = order

        self.vocab = {tok for sent in sentences for tok in sent.tokens}
        self._pred_vocab = self.vocab | {UNK, EOS}
        self._p0 = 1.0 / len(self._pred_vocab)

        # counts[n][ngram], context_totals[n][history], types_after[n][history]
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

    def _map(self, word: str) -> str:
        return word if word in self._pred_vocab else UNK

    def prob(self, word: str, history: tuple = ()) -> float:
        """Smoothed P(word | history); history longer than order-1 is truncated."""
        word = self._map(word)
        hist = tuple(self._map(w) if w != BOS else BOS for w in history)
        hist = hist[max(0, len(hist) - (self.order - 1)) :]
        return self._prob(word, hist)

    def _prob(self, word: str, hist: tuple) -> float:
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

    def sequence_logprob2(self, seq: TokenSeq) -> tuple[float, int]:
        """(log2 probability of ``seq`` including boundary events, event count)."""
        padded = [BOS] * (self.order - 1) + list(seq.tokens) + [EOS]
        start = self.order - 1
        logprob = 0.0
        for j in range(start, len(padded)):
            hist = tuple(padded[max(0, j - self.order + 1) : j])
            logprob += math.log2(self.prob(padded[j], hist))
        return logprob, len(padded) - start

    def in_vocab(self, word: str) -> bool:
        return word in self.vocab

    def prediction_vocab(self) -> set:
        return set(self._pred_vocab)
