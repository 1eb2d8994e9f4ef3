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

import array
import collections
import itertools
import math
from collections.abc import Iterable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .corpus import Corpus, TokenSeq

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


def _token_blocks(corpus: Corpus | Iterable[TokenSeq]):
    """The sentences of ``corpus`` as blocks of (tokens laid end to end,
    each sentence's token count): a ``Corpus``'s own blocks, else one
    sentence a block."""
    if isinstance(corpus, Corpus):
        return corpus.blocks()
    return ((sent.tokens, (len(sent.tokens),)) for sent in corpus)


def _sentence_features(blocks, token_ids: dict, order_keys: list[dict],
                       n_features: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct (sentence, feature id) pairs of the sentences of
    ``blocks`` (``_token_blocks``), ordered by sentence, then feature id, as
    two int32 arrays, and the sentence lengths.

    ``blocks`` is read once, and each block is dropped once its tokens are
    mapped to task token ids.
    """
    n_types = len(token_ids)
    # Flat corpus tokens as task token ids (-1: not a task token); ``cur``
    # holds the id of the task n-gram of the current order at each position.
    tokens, lengths = array.array("i"), array.array("i")
    not_task = itertools.repeat(-1)
    for block, counts in blocks:
        lengths.extend(counts)
        tokens.extend(map(token_ids.get, block, not_task))
    tokens = np.frombuffer(tokens, dtype=np.intc)
    lengths = np.frombuffer(lengths, dtype=np.intc)
    sent_of = np.repeat(np.arange(len(lengths), dtype=np.int32), lengths)
    room = np.cumsum(lengths, dtype=np.int64)[sent_of] - np.arange(len(tokens))  # left in sentence
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
    pair_sent, pair_feat = (a.astype(np.int32) for a in np.divmod(pairs, max(n_features, 1)))
    return pair_sent, pair_feat, lengths


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
    ids = np.concatenate([pair_feat, [pad]], dtype=np.intp)  # intp: no conversion per pick
    matrices = []
    for g in range(len(bounds)):
        members = np.flatnonzero(group == g)
        row[members] = np.arange(len(members))
        cols = np.arange(max(int(n_feats[members].max(initial=0)), 1))
        at = first[members, None] + cols
        at[cols >= n_feats[members, None]] = len(pair_feat)
        matrices.append(ids[at])
    return group, row, matrices


def select_interpretants(
    corpus: Corpus | Iterable[TokenSeq], task_texts: list[TokenSeq], cfg: FdaConfig
) -> InterpretantSet:
    """Greedy feature-decay selection of ``cfg.budget`` sentences of ``corpus``.

    Each round picks the sentence with the highest score
    ``sum(weight of matching task n-grams) / len**length_exponent``
    (ties -> lowest index), then multiplies the weight of every feature the
    winner contains by ``cfg.decay``.  A sentence's distinct features are
    summed left to right in increasing feature id (by order, then by first
    occurrence in the task texts), so a score does not depend on the hash
    seed.

    ``corpus`` is read once, as a stream (a ``Corpus`` a block of lines at
    a time, as bare tokens): a sentence is kept only as its task token ids
    and its length.
    """
    if not task_texts:
        raise ValueError("task_texts must be nonempty")

    token_ids, order_keys, n_features = _task_features(task_texts, cfg.max_order)
    pair_sent, pair_feat, lengths = _sentence_features(_token_blocks(corpus), token_ids,
                                                       order_keys, n_features)
    n_sents = len(lengths)
    if cfg.budget > n_sents:
        raise ValueError(f"budget {cfg.budget} exceeds corpus size {n_sents}")
    n_feats = np.bincount(pair_sent, minlength=n_sents)
    first = np.cumsum(n_feats) - n_feats  # sentence i's features: pair_feat[first[i]:][:n_feats[i]]
    group, row, matrices = _padded_groups(n_feats, first, pair_feat, n_features)
    # Inverted index: the sentences containing feature g are
    # ``containing[starts[g]:starts[g + 1]]``.
    containing = pair_sent[np.argsort(pair_feat, kind="stable")].astype(np.intp)
    starts = [0, *np.cumsum(np.bincount(pair_feat, minlength=n_features)).tolist()]
    del pair_sent
    sizes = _distinct(lengths)
    try:
        inv_norm = np.array([1.0 / (n ** cfg.length_exponent) for n in sizes.tolist()])
    except OverflowError:
        longest = int(lengths.max())
        raise ValueError(
            f"length_exponent = {cfg.length_exponent} is too large: the longest corpus "
            f"sentence has {longest} tokens, and {longest} ** {cfg.length_exponent} "
            "overflows a float"
        ) from None
    inv_norm = inv_norm[np.searchsorted(sizes, lengths)]

    # The padding id ``n_features`` keeps weight 0.0.  cumsum adds each row
    # left to right (np.sum would add pairwise), and x + 0.0 == x, so the
    # padding does not change a sum.
    weights = np.ones(n_features + 1)
    weights[n_features] = 0.0

    # The gathers use ``take``, which costs less per call than indexing.
    def rescore(sents):
        if len(matrices) == 1:  # one group holds every sentence, in order
            rows = weights.take(matrices[0].take(sents, axis=0))
            scores[sents] = rows.cumsum(axis=1)[:, -1] * inv_norm.take(sents)
            return
        for g, matrix in enumerate(matrices):
            part = sents[group.take(sents) == g]
            rows = weights.take(matrix.take(row.take(part), axis=0))
            scores[part] = rows.cumsum(axis=1)[:, -1] * inv_norm.take(part)

    # Every weight starts at 1.0, and k ones added left to right are k exactly.
    scores = n_feats * inv_norm
    selected: list[int] = []
    picked_scores: list[float] = []
    for _ in range(cfg.budget):
        best = int(scores.argmax())  # the first maximum: ties -> lowest index
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
        rescore(touched[scores.take(touched) != -np.inf])
    return InterpretantSet(selected, picked_scores)


# ---------------------------------------------------------------------------
# Id-indexed n-gram statistics.  One vocabulary numbers the words, and an
# order-n gram is keyed by the index of its first n - 1 words among the keys
# of order n - 1, times the vocabulary size, plus the id of its last word
# (order 1: the word's id).  So each order's keys are sorted int64, and the
# first n - 1 words of a stored n-gram are a stored (n - 1)-gram.


class IdSentences(NamedTuple):
    """Sentences mapped to one vocabulary (``map_sentences``): word -> id,
    the number of sentence words, and the sentences as one flat int64 array
    of ids with their lengths."""

    ids: dict
    n_words: int
    tokens: np.ndarray
    lengths: np.ndarray


def map_sentences(sentences: list[TokenSeq] | IdSentences) -> IdSentences:
    """``sentences`` as ids: word -> id for their words in first-occurrence
    order, then for whichever of BOS, EOS and UNK no sentence holds.  The
    weight table and the LM take the result in place of the sentences, so
    one mapping serves both; mapped sentences are returned as they are."""
    if isinstance(sentences, IdSentences):
        return sentences
    ids: dict[str, int] = {}
    flat, lengths = array.array("q"), array.array("q")
    for sent in sentences:
        lengths.append(len(sent.tokens))
        flat.extend([ids.setdefault(tok, len(ids)) for tok in sent.tokens])
    n_words = len(ids)
    for special in (BOS, EOS, UNK):
        ids.setdefault(special, len(ids))
    return IdSentences(ids, n_words, np.array(flat, dtype=np.int64),
                       np.array(lengths, dtype=np.int64))


def _ranges(starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """``arange(start, start + size)`` for each (start, size), laid end to end."""
    return np.repeat(starts - (np.cumsum(sizes) - sizes), sizes) + np.arange(int(sizes.sum()))


def _room(lengths: np.ndarray) -> np.ndarray:
    """For rows of ``lengths`` laid end to end, the number of its row's
    positions up to and including each position."""
    return _ranges(np.ones(len(lengths), dtype=np.int64), lengths)


def _distinct(values: np.ndarray) -> np.ndarray:
    """The sorted distinct values of an integer array: ``np.unique`` without
    its masked-array check, which imports ``numpy.ma`` (about 12 ms)."""
    values = np.sort(values)
    return values[np.diff(values, prepend=values[:1] - 1) != 0]


def _find(keys: np.ndarray, want: np.ndarray) -> np.ndarray:
    """The index of each of ``want`` in the sorted ``keys``; -1 where absent."""
    if not len(keys):
        return np.full(len(want), -1, dtype=np.int64)
    at = np.minimum(np.searchsorted(keys, want), len(keys) - 1)
    return np.where(keys[at] == want, at, -1)


def _windows(tokens: np.ndarray, room: np.ndarray, n_ids: int, max_order: int,
             stored: list | None = None) -> list[tuple[np.ndarray, np.ndarray]]:
    """For n = 1..``max_order``, the n-grams ending at each position of
    ``tokens`` (ids below ``n_ids``; ``room`` as ``_room`` gives it): the
    order's keys, and each position's index among them, -1 where fewer than
    n tokens of its row end there.  The keys are ``stored[n - 1]`` where
    given (the index is then -1 also for an n-gram not stored, or one with
    a negative id), else the distinct n-grams of ``tokens``."""
    out = []
    at = None
    for n in range(1, max_order + 1):
        if n == 1:
            pos, want = np.arange(len(tokens)), tokens
        else:
            pos = np.flatnonzero(room >= n)
            pos = pos[(at[pos - 1] >= 0) & (tokens[pos] >= 0)]
            want = at[pos - 1] * n_ids + tokens[pos]
        if stored is None:
            keys, index = np.unique(want, return_inverse=True)
        else:
            keys = stored[n - 1]
            index = _find(keys, want)
        at = np.full(len(tokens), -1, dtype=np.int64)
        at[pos] = index
        out.append((keys, at))
    return out


def _row_sums(values: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The sum of each row of ``values`` (rows of ``lengths`` laid end to
    end), added left to right from 0.0 as a Python loop adds them: position
    j of every row at least j + 1 long, longest rows first."""
    by_len = np.argsort(-lengths, kind="stable")
    starts = (np.cumsum(lengths) - lengths)[by_len]
    longer = len(lengths) - np.cumsum(np.bincount(lengths, minlength=1))
    acc = np.zeros(len(lengths))
    for j, n in enumerate(longer.tolist()):
        if not n:
            break
        acc[:n] += values[starts[:n] + j]
    out = np.empty(len(lengths))
    out[by_len] = acc
    return out


class NGramWeightTable:
    """Relative-frequency weights of n-grams (orders 1..3), id-indexed.

    ``words`` is the vocabulary (``map_sentences``).  For order n, ``keys[n - 1]``
    holds the sorted keys of the n-grams seen and ``weights[n - 1]`` their
    relative frequencies; ``totals[n - 1]`` is the order's n-gram count.
    Unseen n-grams fall back to a floor of ``1 / (2 * total count of that
    order)``, i.e. half the weight of a singleton.
    """

    def __init__(self, words, keys: list, weights: list, totals):
        self.words = tuple(words)
        self.ids = {w: i for i, w in enumerate(self.words)}
        self.keys = list(keys)
        self.weights = list(weights)
        self.totals = [int(t) for t in totals]

    def floor(self, n: int) -> float:
        total = self.totals[n - 1] if 1 <= n <= len(self.totals) else 0
        return 1.0 / (2.0 * total) if total else 0.0

    def weigh(self, grams: np.ndarray) -> np.ndarray:
        """The weights of the n-grams in the rows of ``grams``, a k x n array
        of vocabulary ids (-1: a word outside the vocabulary)."""
        k, n = grams.shape
        out = np.full(k, self.floor(n))
        if 1 <= n <= len(self.keys):
            room = np.tile(np.arange(1, n + 1), k)
            node = _windows(grams.ravel(), room, len(self.words), n, self.keys)[-1][1][n - 1 :: n]
            seen = node >= 0
            out[seen] = self.weights[n - 1][node[seen]]
        return out

    def weight(self, gram: tuple) -> float:
        """The weight of one n-gram, a tuple of words."""
        ids = np.array([self.ids.get(w, -1) for w in gram], dtype=np.int64)
        return float(self.weigh(ids.reshape(1, len(gram)))[0])


def build_ngram_weights(sentences: list[TokenSeq] | IdSentences) -> NGramWeightTable:
    """Count n-grams of orders 1..3 over ``sentences`` (or the sentences
    ``map_sentences`` mapped) and normalize each order to sum to 1."""
    ids, _, tokens, lengths = map_sentences(sentences)
    if not len(tokens):
        raise ValueError("need at least one nonempty sentence")
    keys, weights, totals = [], [], []
    for order_keys, at in _windows(tokens, _room(lengths), len(ids), 3):
        counts = np.bincount(at[at >= 0], minlength=len(order_keys))
        total = int(counts.sum())
        keys.append(order_keys)
        weights.append(counts / total if total else np.zeros(len(order_keys)))
        totals.append(total)
    return NGramWeightTable(ids, keys, weights, totals)


class WittenBellLM:
    """Interpolated Witten-Bell n-gram model with boundary and unknown symbols.

    P(w | h) = (c(h,w) + T(h) * P(w | h')) / (c(h) + T(h)) where T(h) is the
    number of distinct types following h and h' drops the oldest context word.
    The recursion bottoms out in a uniform distribution over the prediction
    vocabulary (the training words plus the unknown and end-of-sentence
    symbols), which gives the unknown symbol its continuation mass.

    The model is id-indexed.  ``words`` is the vocabulary (``map_sentences``):
    the ``n_words`` training words, then the symbols among BOS, EOS and UNK
    that are not training words.  For order n, ``keys[n - 1]`` holds the
    sorted keys of the n-grams of the BOS-padded training sentences and
    ``counts[n - 1]`` how many end at a predicted position; an n-gram inside
    the padding is kept with count 0, as the first words of longer ones.
    The counts are the only counted state: c(h) and T(h) of each history are
    derived from them.
    """

    def __init__(self, sentences: list[TokenSeq] | IdSentences, order: int = 3):
        """The model of ``sentences`` (or the sentences ``map_sentences``
        mapped)."""
        if order < 1:
            raise ValueError("order must be >= 1")
        ids, n_words, tokens, lengths = map_sentences(sentences)
        if not len(tokens):
            raise ValueError("need at least one nonempty sentence")
        # each nonempty sentence as order - 1 BOS, its words, then EOS
        lengths = lengths[lengths > 0]
        sizes = lengths + order
        padded = np.full(int(sizes.sum()), ids[BOS], dtype=np.int64)
        padded[np.arange(len(tokens)) + np.repeat(np.arange(1, len(lengths) + 1) * order - 1,
                                                  lengths)] = tokens
        padded[np.cumsum(sizes) - 1] = ids[EOS]
        room = _room(sizes)
        predicted = room >= order  # each such position ends one n-gram of every order
        keys, counts = [], []
        for order_keys, at in _windows(padded, room, len(ids), order):
            keys.append(order_keys)
            counts.append(np.bincount(at[predicted], minlength=len(order_keys)))
        self._setup(ids, n_words, keys, counts)

    @classmethod
    def from_counts(cls, words, n_words: int, keys: list, counts: list) -> WittenBellLM:
        """The model of the given vocabulary and n-gram counts."""
        lm = cls.__new__(cls)
        lm._setup(words, n_words, keys, counts)
        return lm

    def _setup(self, words, n_words: int, keys: list, counts: list):
        self.words = tuple(words)
        self.ids = {w: i for i, w in enumerate(self.words)}
        self.n_words = int(n_words)
        self.order = len(keys)
        self.keys = list(keys)
        self.counts = [np.asarray(c, dtype=np.int64) for c in counts]
        # c(h) and T(h) of each history: the empty one, then order n's
        # n-grams as the histories of order n + 1's
        self._totals = [self.counts[0].sum(keepdims=True)]
        self._types = [np.array([np.count_nonzero(self.counts[0])])]
        for n in range(1, self.order):
            parent = self.keys[n] // len(self.words)
            size = len(self.keys[n - 1])
            self._totals.append(np.bincount(parent, weights=self.counts[n],
                                            minlength=size).astype(np.int64))
            self._types.append(np.bincount(parent[self.counts[n] > 0], minlength=size))
        unseen = (self.ids[UNK] >= self.n_words) + (self.ids[EOS] >= self.n_words)
        self._p0 = 1.0 / (self.n_words + unseen)

    def _probs(self, hist: np.ndarray, room: np.ndarray, word: np.ndarray,
               last: np.ndarray) -> np.ndarray:
        """P(word[e] | h) for each event e: h is the up to order - 1 symbols
        of ``hist`` (rows laid end to end, ``room`` as ``_room`` gives it)
        that end at position ``last[e]`` (-1: no history).  Each event starts
        from the uniform p0 and interpolates through ever longer histories,
        up to the first one never seen: no longer history ending in it was
        seen either."""
        n_ids = len(self.words)
        windows = _windows(hist, room, n_ids, self.order - 1, self.keys) if len(hist) else []
        p = np.full(len(word), self._p0)
        node = np.zeros(len(word), dtype=np.int64)  # the empty history
        for n in range(self.order):
            if n:
                if n > len(windows):
                    break
                node = np.where(last >= 0, windows[n - 1][1][np.maximum(last, 0)], -1)
            seen = np.flatnonzero(node >= 0)
            seen = seen[self._types[n][node[seen]] > 0]
            if not len(seen):
                break
            h, w = node[seen], word[seen]
            child = _find(self.keys[n], h * n_ids + w if n else w)
            c = np.where(child >= 0, self.counts[n][child], 0)
            total, t = self._totals[n][h], self._types[n][h]
            p[seen] = (c + t * p[seen]) / (total + t)
        return p

    def logprob2_rows(self, ids: np.ndarray, lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``sequence_logprob2`` of each row of ``ids``: rows of vocabulary
        ids (-1: a word outside the vocabulary) of ``lengths`` laid end to
        end.  Each probability is an array lookup; each event's log2 and each
        row's sum run as the scalar recursion ran them."""
        unk, bos = self.ids[UNK], self.ids[BOS]
        # A literal <s> stays the boundary symbol in a history but is predicted
        # as itself only when it was a training word, as ``prob`` maps it.
        hist = np.where(ids < 0, unk, ids)
        pred = np.where((ids < 0) | ((ids == bos) & (bos >= self.n_words)), unk, ids)
        k, rows = self.order - 1, np.arange(len(lengths))
        # the history symbols: k BOS, then the row's words
        stream = np.full(int(lengths.sum()) + k * len(lengths), bos, dtype=np.int64)
        stream[np.arange(len(ids)) + np.repeat((rows + 1) * k, lengths)] = hist
        # the events: each word, then EOS
        events = lengths + 1
        word = np.full(int(events.sum()), self.ids[EOS], dtype=np.int64)
        word[np.arange(len(ids)) + np.repeat(rows, lengths)] = pred
        # event j of row r follows the history ending at stream position
        # (start of row r) + k + j - 1
        last = (np.arange(len(word)) + np.repeat(rows * (k - 1) - 1 + k, events)
                if k else np.full(len(word), -1))
        probs = self._probs(stream, _room(lengths + k), word, last)
        logs = np.fromiter(map(math.log2, probs.tolist()), dtype=float, count=len(probs))
        return _row_sums(logs, events), events

    def prob(self, word: str, history: tuple = ()) -> float:
        """Smoothed P(word | history); history longer than order-1 is truncated."""
        unk = self.ids[UNK]
        hist = [self.ids.get(w, unk) for w in history][max(0, len(history) - (self.order - 1)) :]
        w = self.ids.get(word, unk)
        if word == BOS and w >= self.n_words:
            w = unk
        n = len(hist)
        return float(self._probs(np.array(hist, dtype=np.int64), np.arange(1, n + 1),
                                 np.array([w]), np.array([n - 1]))[0])

    def sequence_logprob2(self, seq: TokenSeq) -> tuple[float, int]:
        """(log2 probability of ``seq`` including boundary events, event count)."""
        ids = np.array([self.ids.get(t, -1) for t in seq.tokens], dtype=np.int64)
        logprob, events = self.logprob2_rows(ids, np.array([len(ids)]))
        return float(logprob[0]), int(events[0])

    def in_vocab(self, word: str) -> bool:
        return self.ids.get(word, self.n_words) < self.n_words
