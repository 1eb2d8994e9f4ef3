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
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

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


def _task_features(task_texts: list[TokenSeq], max_order: int) -> tuple[dict, list[dict], int]:
    """Dense ids for the distinct task n-grams of orders 1..``max_order``.

    Ids run by order, then by first occurrence in the task texts; a token's id
    is its unigram's id.  An order-n gram (n >= 2) is keyed by the id of its
    first n - 1 tokens and the id of its last token.  Returns the token ids,
    each order's keys (key -> feature id) and the number of features.
    """
    token_ids: dict[str, int] = {}
    texts = [[token_ids.setdefault(tok, len(token_ids)) for tok in text.tokens]
             for text in task_texts]
    n_features = len(token_ids)
    order_keys: list[dict] = []
    prefixes = texts  # per text, the id of the (n - 1)-gram at each position
    for n in range(2, max_order + 1):
        keys: dict[tuple, int] = {}
        prefixes = [
            [keys.setdefault((prefix[i], text[i + n - 1]), n_features + len(keys))
             for i in range(len(text) - n + 1)]
            for prefix, text in zip(prefixes, texts)
        ]
        order_keys.append(keys)
        n_features += len(keys)
    return token_ids, order_keys, n_features


def _sentence_features(sentences: list[TokenSeq], token_ids: dict, order_keys: list[dict],
                       n_features: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct (sentence, feature id) pairs of ``sentences``, ordered by
    sentence, then feature id, as two int32 arrays."""
    n_types = len(token_ids)
    lengths = [len(sent.tokens) for sent in sentences]
    # Flat corpus tokens as task token ids (-1: not a task token); ``cur``
    # holds the id of the task n-gram of the current order at each position.
    tokens = np.fromiter(
        map(token_ids.get, itertools.chain.from_iterable(s.tokens for s in sentences),
            itertools.repeat(-1)),
        dtype=np.int32, count=sum(lengths))
    sent_of = np.repeat(np.arange(len(sentences), dtype=np.int32), lengths)
    room = np.cumsum(lengths)[sent_of] - np.arange(len(tokens))  # tokens left in the sentence
    hit_pos = [np.flatnonzero(tokens >= 0)]
    hit_ids = [tokens[hit_pos[0]]]
    cur = tokens
    for n, keys in enumerate(order_keys, start=2):
        if not keys:
            break
        # (prefix id, last token id) as one int64, found by binary search
        task_keys = np.fromiter((p * n_types + t for p, t in keys), dtype=np.int64, count=len(keys))
        task_ids = np.fromiter(keys.values(), dtype=np.int32, count=len(keys))
        order = np.argsort(task_keys)
        task_keys, task_ids = task_keys[order], task_ids[order]
        pos = np.flatnonzero((cur >= 0) & (room >= n))
        pos = pos[tokens[pos + n - 1] >= 0]
        want = cur[pos].astype(np.int64) * n_types + tokens[pos + n - 1]
        at = np.minimum(np.searchsorted(task_keys, want), len(task_keys) - 1)
        found = task_keys[at] == want
        pos = pos[found]
        cur = np.full(len(tokens), -1, dtype=np.int32)
        cur[pos] = task_ids[at[found]]
        hit_pos.append(pos)
        hit_ids.append(cur[pos])
    del tokens, room, cur
    pairs = sent_of[np.concatenate(hit_pos)].astype(np.int64) * n_features
    pairs += np.concatenate(hit_ids)
    pairs.sort()
    pairs = pairs[np.diff(pairs, prepend=-1) != 0]
    return tuple(a.astype(np.int32) for a in np.divmod(pairs, max(n_features, 1)))


def _padded_groups(n_feats: np.ndarray, first: np.ndarray, pair_feat: np.ndarray, pad: int):
    """Sentences grouped by feature count (up to 16, then up to 64, 256, ...),
    each group a matrix of its sentences' feature ids padded with ``pad`` to
    its widest row, so the padding stays under 4x a group's features however
    long one sentence is.  Returns each sentence's group and row in it, and
    the matrices."""
    bounds = [16]
    while bounds[-1] < n_feats.max(initial=0):
        bounds.append(4 * bounds[-1])
    group = np.searchsorted(bounds, n_feats)
    row = np.empty(len(n_feats), dtype=np.int64)
    ids = np.append(pair_feat, np.int32(pad))
    matrices = []
    for g in range(len(bounds)):
        members = np.flatnonzero(group == g)
        row[members] = np.arange(len(members))
        cols = np.arange(max(int(n_feats[members].max(initial=0)), 1))
        at = first[members, None] + cols
        matrices.append(ids[np.where(cols < n_feats[members, None], at, len(pair_feat))])
    return group, row, matrices


def select_interpretants(
    corpus: Corpus, task_texts: list[TokenSeq], cfg: FdaConfig
) -> InterpretantSet:
    """Greedy feature-decay selection of ``cfg.budget`` sentences.

    Each round picks the sentence with the highest score
    ``sum(weight of matching task n-grams) / len**length_exponent``
    (ties -> lowest index), then multiplies the weight of every feature the
    winner contains by ``cfg.decay``.  A sentence's distinct features are
    summed left to right in increasing feature id (by order, then by first
    occurrence in the task texts), so a score does not depend on the hash
    seed.
    """
    if not task_texts:
        raise ValueError("task_texts must be nonempty")
    if cfg.budget > len(corpus):
        raise ValueError(f"budget {cfg.budget} exceeds corpus size {len(corpus)}")

    token_ids, order_keys, n_features = _task_features(task_texts, cfg.max_order)
    pair_sent, pair_feat = _sentence_features(corpus.sentences, token_ids, order_keys, n_features)
    n_sents = len(corpus)
    n_feats = np.bincount(pair_sent, minlength=n_sents)
    first = np.cumsum(n_feats) - n_feats  # sentence i's features: pair_feat[first[i]:][:n_feats[i]]
    group, row, matrices = _padded_groups(n_feats, first, pair_feat, n_features)
    # Inverted index: the sentences containing feature g are
    # ``containing[starts[g]:starts[g + 1]]``.
    containing = pair_sent[np.argsort(pair_feat, kind="stable")]
    starts = [0, *np.cumsum(np.bincount(pair_feat, minlength=n_features)).tolist()]
    del pair_sent
    try:
        inv_norm = np.array([1.0 / (len(sent.tokens) ** cfg.length_exponent)
                             for sent in corpus.sentences])
    except OverflowError:
        longest = max(len(sent.tokens) for sent in corpus.sentences)
        raise ValueError(
            f"length_exponent = {cfg.length_exponent} is too large: the longest corpus "
            f"sentence has {longest} tokens, and {longest} ** {cfg.length_exponent} "
            "overflows a float"
        ) from None

    # The padding id ``n_features`` keeps weight 0.0.  cumsum adds each row
    # left to right (np.sum would add pairwise), and x + 0.0 == x, so the
    # padding does not change a sum.
    weights = np.ones(n_features + 1)
    weights[n_features] = 0.0

    def rescore(sents):
        for g, matrix in enumerate(matrices):
            part = sents[group[sents] == g]
            scores[part] = weights[matrix[row[part]]].cumsum(axis=1)[:, -1] * inv_norm[part]

    scores = np.empty(n_sents)
    rescore(np.arange(n_sents))
    selected: list[int] = []
    picked_scores: list[float] = []
    for _ in range(cfg.budget):
        best = int(np.argmax(scores))  # the first maximum: ties -> lowest index
        selected.append(best)
        picked_scores.append(float(scores[best]))
        scores[best] = -np.inf  # picked
        decayed = pair_feat[first[best] : first[best] + n_feats[best]]
        if not len(decayed):
            continue
        weights[decayed] *= cfg.decay
        # A score depends only on the current weights, so re-scoring just the
        # unpicked sentences that hold a decayed feature leaves every score
        # equal to what a full rescan would compute.
        touched = np.concatenate([containing[starts[g] : starts[g + 1]] for g in decayed.tolist()])
        rescore(touched[scores[touched] != -np.inf])
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

    The n-gram counts, one table per order, are the only counted state;
    ``_histories`` maps each seen history h to (c(h), T(h)) and is derived
    from them.  Every container is an insertion-ordered dict, so a pickled
    model does not depend on the hash seed.
    """

    def __init__(self, sentences: list[TokenSeq], order: int = 3):
        if order < 1:
            raise ValueError("order must be >= 1")
        if not sentences or all(len(s) == 0 for s in sentences):
            raise ValueError("need at least one nonempty sentence")
        self.order = order
        self.vocab = dict.fromkeys(tok for sent in sentences for tok in sent.tokens)
        self._p0 = 1.0 / len(self.vocab.keys() | {UNK, EOS})

        padded = [(BOS,) * (order - 1) + sent.tokens + (EOS,) for sent in sentences if len(sent)]
        # counts[n][ngram]: each padded position j >= order - 1 ends one
        # n-gram of every order n
        self._counts = {
            n: collections.Counter(itertools.chain.from_iterable(
                zip(*(p[order - n + i :] for i in range(n))) for p in padded))
            for n in range(1, order + 1)
        }
        self._histories: dict[tuple, tuple[int, int]] = {}
        for counts in self._counts.values():
            for gram, c in counts.items():
                total, types = self._histories.get(gram[:-1], (0, 0))
                self._histories[gram[:-1]] = (total + c, types + 1)

    def _map(self, word: str) -> str:
        return word if word in self.vocab or word in (UNK, EOS) else UNK

    def prob(self, word: str, history: tuple = ()) -> float:
        """Smoothed P(word | history); history longer than order-1 is truncated."""
        hist = tuple(w if w == BOS else self._map(w) for w in history)
        return self._prob(self._map(word), hist[max(0, len(hist) - (self.order - 1)) :])

    def _prob(self, word: str, hist: tuple) -> float:
        p = self._p0
        for k in range(len(hist), -1, -1):
            h = hist[k:]
            seen = self._histories.get(h)
            if seen is None:  # then no longer history ending in h was seen either
                break
            total, t = seen
            p = (self._counts[len(h) + 1].get(h + (word,), 0) + t * p) / (total + t)
        return p

    def sequence_logprob2(self, seq: TokenSeq) -> tuple[float, int]:
        """(log2 probability of ``seq`` including boundary events, event count)."""
        # A literal <s> stays the boundary symbol in a history but is predicted
        # as itself only when it was a training word, as ``prob`` maps it.
        words = [self._map(w) for w in seq.tokens] + [EOS]
        k = self.order - 1
        hists = (BOS,) * k + tuple(w if w == BOS else m for w, m in zip(seq.tokens, words))
        logprob = 0.0
        for j, word in enumerate(words):
            logprob += math.log2(self._prob(word, hists[j : j + k]))
        return logprob, len(words)

    def in_vocab(self, word: str) -> bool:
        return word in self.vocab
