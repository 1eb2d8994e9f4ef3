"""Translation-performance features between a source and a target TokenSeq.

Each (src, tgt) pair yields a fixed 41-feature vector:

* 30 overlap features: for each of the order sets {1}, {2}, {3}, {1,2} and
  {1,2,3}, the likelihood-weighted precision/recall/F1/geometric mean over
  distinct n-grams plus the plain (unweighted) recall and precision;
* 3 language-model features of the source (log2 probability, bits per word,
  OOV rate);
* 2 word-alignment features (1 - WER of the aligned sequence, alignment F1);
* 6 length features (token and char counts, ratios).

Weighted recall credits a target n-gram with its relative frequency in the
interpretant corpus, so matching frequent material counts more; n-grams never
seen there get half a singleton's weight.

``build_feature_matrix`` computes a split's columns in array passes over
all its rows at once, each distinct target taken once; the single-pair
functions are one-row calls into the same passes.
"""

from __future__ import annotations

import array
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .corpus import TokenSeq
from .interpretants import (
    NGramWeightTable,
    WittenBellLM,
    _distinct,
    _find,
    _ranges,
    _room,
    _windows,
)
from .learners import _count_blocks

ORDER_SETS: tuple[tuple[int, ...], ...] = ((1,), (2,), (3,), (1, 2), (1, 2, 3))


class OverlapScores(NamedTuple):
    wprec: float
    wrec: float
    wf1: float
    wgm: float
    rec: float
    prec: float


# Ordered feature names; every feature vector follows this layout.
FEATURE_NAMES: tuple[str, ...] = (
    *(f"{part}_{''.join(map(str, orders))}" for orders in ORDER_SETS
      for part in OverlapScores._fields),
    "lm_logprob", "lm_bpw", "lm_oov",
    "align_1mwer", "align_f1",
    "src_tokens", "tgt_tokens", "src_chars", "tgt_chars", "token_ratio", "char_ratio",
)
N_FEATURES = len(FEATURE_NAMES)


class _Seqs(NamedTuple):
    """Token sequences laid end to end as ids into a split's word types."""

    ids: np.ndarray  # int64, one per token
    lengths: np.ndarray  # tokens per sequence
    chars: np.ndarray  # char count per sequence

    def rows(self) -> np.ndarray:
        """The sequence of each token."""
        return np.repeat(np.arange(len(self.lengths)), self.lengths)


def _split(srcs: list[TokenSeq], tgts: list[TokenSeq]) -> tuple[list[str], _Seqs, _Seqs]:
    """The word types of a split's sources and targets in first-occurrence
    order, and both sides as ids into them."""
    types: dict[str, int] = {}

    def seqs(group) -> _Seqs:
        flat = array.array("q")
        for seq in group:
            flat.extend([types.setdefault(tok, len(types)) for tok in seq.tokens])
        return _Seqs(np.array(flat, dtype=np.int64),
                     np.fromiter(map(len, group), dtype=np.int64, count=len(group)),
                     np.fromiter((seq.char_count for seq in group), dtype=np.int64,
                                 count=len(group)))

    src, tgt = seqs(srcs), seqs(tgts)
    return list(types), src, tgt


def _ids(vocab: dict, types: list[str]) -> np.ndarray:
    """Each split word type's id in ``vocab``, -1 where it has none."""
    return np.fromiter((vocab.get(w, -1) for w in types), dtype=np.int64, count=len(types))


def _overlap(table: NGramWeightTable, types: list[str], src: _Seqs, tgt: _Seqs,
             tgt_of_row: np.ndarray, order_sets) -> np.ndarray:
    """The six OverlapScores of each row (source ``i`` against target
    ``tgt_of_row[i]``) for each order set, as one row of the result.

    Both sides' n-grams are keyed in one pass, so an n-gram has one split id
    on either side.  Each row's and each target's distinct n-grams are found
    by a key sort, and each distinct n-gram of the split is weighed once.  A
    side's total and the common weight of an order set are each one fsum over
    the union of the set's orders, exactly rounded, so they do not depend on
    the order of the pieces.  Any empty denominator makes all six scores 0.
    """
    orders = sorted({n for orders in order_sets for n in orders})
    if orders[0] < 1:
        raise ValueError("n must be >= 1")
    n_rows, n_types = len(src.lengths), len(types)
    table_ids = _ids(table.ids, types)
    tokens = np.concatenate([src.ids, tgt.ids])
    room = np.concatenate([_room(src.lengths), _room(tgt.lengths)])
    side_row = np.concatenate([src.rows(), tgt.rows()])
    n_src_tokens = len(src.ids)
    counts: dict[tuple[str, int], np.ndarray] = {}  # (side, order) -> n-grams per row
    pieces: dict[tuple[str, int], list] = {}  # (side, order) -> weights per row
    grams = None
    for n, (keys, at) in enumerate(_windows(tokens, room, n_types, orders[-1]), start=1):
        # the split's distinct n-grams as rows of vocabulary ids
        last = table_ids[keys % n_types if n > 1 else keys]
        grams = last[:, None] if n == 1 else np.column_stack([grams[keys // n_types], last])
        if n not in orders:
            continue
        weights = table.weigh(grams)
        pairs = {}
        for side, lo, hi in (("src", 0, n_src_tokens), ("tgt", n_src_tokens, len(tokens))):
            pos = lo + np.flatnonzero(at[lo:hi] >= 0)
            pairs[side] = _distinct(side_row[pos] * len(keys) + at[pos])
        row, gram = np.divmod(pairs["src"], len(keys))
        common = _find(pairs["tgt"], tgt_of_row[row] * len(keys) + gram) >= 0
        tgt_row, tgt_gram = np.divmod(pairs["tgt"], len(keys))
        for side, rows, grams_of, size in (("src", row, gram, n_rows),
                                           ("common", row[common], gram[common], n_rows),
                                           ("tgt", tgt_row, tgt_gram, len(tgt.lengths))):
            per_row = np.bincount(rows, minlength=size)
            counts[side, n] = per_row
            flat = weights[grams_of].tolist()
            ends = np.cumsum(per_row).tolist()
            pieces[side, n] = [flat[a:b] for a, b in zip([0, *ends], ends)]

    out = np.zeros((n_rows, 6 * len(order_sets)))
    for j, orders in enumerate(order_sets):
        def fsums(side, size):
            return np.array([math.fsum([w for n in orders for w in pieces[side, n][r]])
                             for r in range(size)])

        def count(side):
            return sum(counts[side, n] for n in orders)

        n_tgt = count("tgt")[tgt_of_row]
        tgt_total = fsums("tgt", len(tgt.lengths))[tgt_of_row]
        n_src, n_common = count("src"), count("common")
        src_total, common_w = fsums("src", n_rows), fsums("common", n_rows)
        ok = (n_tgt > 0) & (tgt_total != 0.0) & (n_src > 0) & (src_total != 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            wprec = common_w / src_total
            wrec = common_w / tgt_total
            both = wprec + wrec
            wf1 = np.where(both > 0, 2.0 * wprec * wrec / both, 0.0)
            scores = (wprec, wrec, wf1, np.sqrt(wprec * wrec), n_common / n_tgt, n_common / n_src)
        out[:, 6 * j : 6 * j + 6] = np.where(ok[:, None], np.column_stack(scores), 0.0)
    return out


def weighted_overlap(src: TokenSeq, tgt: TokenSeq, table: NGramWeightTable,
                     orders) -> OverlapScores:
    """Likelihood-weighted and plain n-gram overlap over the given orders.

    wrec sums the weights of target n-grams also present in the source over
    the total target weight; wprec mirrors it on the source side.  Any empty
    denominator makes all six outputs 0.  One row of ``_overlap``.
    """
    orders = tuple(orders)
    if not orders:
        raise ValueError("orders must be nonempty")
    types, src_seqs, tgt_seqs = _split([src], [tgt])
    row = _overlap(table, types, src_seqs, tgt_seqs, np.zeros(1, dtype=np.int64), (orders,))
    return OverlapScores(*row[0].tolist())


def _lm(lm: WittenBellLM, types: list[str], src: _Seqs) -> np.ndarray:
    """(log2 prob, bits per word, OOV rate) of each source under ``lm``."""
    ids = _ids(lm.ids, types)[src.ids]
    logprob, events = lm.logprob2_rows(ids, src.lengths)
    oov = np.bincount(src.rows()[(ids < 0) | (ids >= lm.n_words)], minlength=len(src.lengths))
    with np.errstate(divide="ignore", invalid="ignore"):
        oov_rate = np.where(src.lengths > 0, oov / src.lengths, 0.0)
    return np.column_stack([logprob, -logprob / events, oov_rate])


def lm_features(lm: WittenBellLM, seq: TokenSeq) -> tuple[float, float, float]:
    """(log2 prob, bits per word, OOV rate) of ``seq`` under ``lm``."""
    types, src, _ = _split([seq], [])
    return tuple(_lm(lm, types, src)[0].tolist())


NULL = "<null>"


class AlignmentModel:
    """IBM Model 1 lexical table t(target word | source word), EM-trained.

    A null source token absorbs target words with no good counterpart.  Words
    are ids into one vocabulary, and the table is CSR rows over co-occurring
    pairs: source word ``e``'s targets are ``targets[indptr[e]:indptr[e + 1]]``
    with probabilities ``probs`` at the same positions, and each row sums
    to 1.  ``row`` reads one source word's row as a dict, built on first use;
    that cache is not pickled.
    """

    def __init__(self, vocab, indptr: np.ndarray, targets: np.ndarray, probs: np.ndarray,
                 log_likelihoods: list[float]):
        self.vocab = tuple(vocab)
        self.indptr = indptr
        self.targets = targets
        self.probs = probs
        self.log_likelihoods = log_likelihoods
        self._ids = {w: i for i, w in enumerate(self.vocab)}
        self._rows: dict[str, dict[str, float]] = {}
        self._tables = None

    def __reduce__(self):
        return type(self), (self.vocab, self.indptr, self.targets, self.probs, self.log_likelihoods)

    @classmethod
    def from_table(cls, table: dict[str, dict[str, float]], log_likelihoods: list[float]):
        """A model holding ``table`` (source word -> {target word: prob})."""
        ids = dict.fromkeys(table)
        for row in table.values():
            ids.update(dict.fromkeys(row))
        ids = {w: i for i, w in enumerate(ids)}
        indptr, targets, probs = [0], [], []
        for w in ids:
            row = table.get(w, {})
            targets.extend(ids[f] for f in row)
            probs.extend(row.values())
            indptr.append(len(targets))
        return cls(ids, np.asarray(indptr, dtype=np.int64), np.asarray(targets, dtype=np.int32),
                   np.asarray(probs, dtype=float), log_likelihoods)

    def row(self, src_word: str) -> dict[str, float]:
        """t(. | src_word) over the target words it co-occurred with."""
        got = self._rows.get(src_word)
        if got is None:
            e = self._ids.get(src_word)
            got = {}
            if e is not None:
                lo, hi = self.indptr[e], self.indptr[e + 1]
                vocab = self.vocab
                got = {vocab[f]: p for f, p in zip(self.targets[lo:hi].tolist(),
                                                   self.probs[lo:hi].tolist())}
            self._rows[src_word] = got
        return got

    def prob(self, tgt_word: str, src_word: str) -> float:
        return self.row(src_word).get(tgt_word, 0.0)

    def _lookups(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The table's pairs as sorted codes ``e * len(vocab) + f`` with their
        probabilities, and t(f | null) for every word f; built on first use."""
        if self._tables is None:
            n = len(self.vocab)
            codes = np.repeat(np.arange(n, dtype=np.int64), np.diff(self.indptr)) * n + self.targets
            order = np.argsort(codes, kind="stable")
            null = np.zeros(n)
            e = self._ids.get(NULL)
            if e is not None:
                lo, hi = self.indptr[e], self.indptr[e + 1]
                null[self.targets[lo:hi]] = self.probs[lo:hi]
            self._tables = (codes[order], self.probs[order], null)
        return self._tables

    def align(self, src: TokenSeq, tgt: TokenSeq) -> list[int | None]:
        """Viterbi link per target token: source index, or None for null.

        Ties prefer the lowest source index; null wins only by a strictly
        higher probability.  Target words with no probability mass anywhere
        go to null.  One row of ``_links``.
        """
        types, src_seqs, tgt_seqs = _split([src], [tgt])
        _, hit, source = _links(self, _ids(self._ids, types), src_seqs, tgt_seqs,
                                np.zeros(1, dtype=np.int64))
        links: list[int | None] = [None] * len(tgt)
        for k, i in zip(hit.tolist(), source.tolist()):
            links[k] = i
        return links


def _links(model: AlignmentModel, model_ids: np.ndarray, src: _Seqs, tgt: _Seqs,
           tgt_of_row: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The Viterbi links of each row's target tokens onto its source, as
    (row, target position, source position) of every token not linked to
    null, sorted by row and target position.

    One pass over every (row, source position, target word) entry with a
    positive probability.  A position walks the smaller of its table row
    (kept where the word is one of the target's) and the target's distinct
    words (looked up in the table's codes).  Per (row, target word) the first
    position with the highest probability wins, and null takes the word only
    with a strictly higher probability; target words with no probability
    mass anywhere go to null.
    """
    n_words = len(model.vocab)
    codes, code_probs, null = model._lookups()
    # the distinct known words of each target as sorted (target, word) pairs
    tgt_words = model_ids[tgt.ids]
    tgt_rows = tgt.rows()
    known = tgt_words >= 0
    pairs = _distinct(tgt_rows[known] * n_words + tgt_words[known])
    pair_start = np.searchsorted(pairs, np.arange(len(tgt.lengths) + 1) * n_words)
    n_pairs = np.diff(pair_start)[tgt_of_row]  # per row
    first_pair = pair_start[:-1][tgt_of_row]

    # the entries: (row, pair, source position, probability)
    words = model_ids[src.ids]
    row_of = src.rows()
    position = _room(src.lengths) - 1
    at = np.flatnonzero(words >= 0)
    row_len = model.indptr[words[at] + 1] - model.indptr[words[at]]
    by_row = row_len <= n_pairs[row_of[at]]
    # a position's table row, kept where the word is one of the target's
    walk, size = at[by_row], row_len[by_row]
    entry = _ranges(model.indptr[words[walk]], size)
    rows = np.repeat(row_of[walk], size)
    pair = _find(pairs, tgt_of_row[rows] * n_words + model.targets[entry])
    keep = pair >= 0
    parts = [(rows[keep], pair[keep], np.repeat(position[walk], size)[keep],
              model.probs[entry[keep]])]
    # the target's words, looked up in the table
    walk = at[~by_row]
    size = n_pairs[row_of[walk]]
    rows = np.repeat(row_of[walk], size)
    pair = _ranges(first_pair[row_of[walk]], size)
    code = _find(codes, np.repeat(words[walk], size) * n_words + pairs[pair] % n_words)
    parts.append((rows, pair, np.repeat(position[walk], size),
                  np.where(code >= 0, code_probs[np.maximum(code, 0)], 0.0)))
    rows, pair, pos, p = (np.concatenate(part) for part in zip(*parts))

    groups, group = np.unique(rows * len(pairs) + pair, return_inverse=True)
    best = np.zeros(len(groups))
    np.maximum.at(best, group, p)
    first = np.full(len(groups), len(position), dtype=np.int64)
    win = (p == best[group]) & (p > 0.0)
    np.minimum.at(first, group[win], pos[win])
    g_row, g_pair = np.divmod(groups, max(len(pairs), 1))
    linked = (best > 0.0) & (null[pairs[g_pair] % n_words] <= best)
    g_row, g_pair, g_pos = g_row[linked], g_pair[linked], first[linked]

    # each linked (row, word)'s tokens in its target, in target order
    tok_pair = np.full(len(tgt_words), len(pairs))
    tok_pair[known] = _find(pairs, tgt_rows[known] * n_words + tgt_words[known])
    tok_order = np.argsort(tok_pair, kind="stable")
    per_pair = np.bincount(tok_pair, minlength=len(pairs) + 1)[:-1]
    size = per_pair[g_pair]
    token = tok_order[_ranges((np.cumsum(per_pair) - per_pair)[g_pair], size)]
    rows = np.repeat(g_row, size)
    k = token - (np.cumsum(tgt.lengths) - tgt.lengths)[tgt_of_row[rows]]
    order = np.argsort(rows * (int(tgt.lengths.max(initial=0)) + 1) + k, kind="stable")
    return rows[order], k[order], np.repeat(g_pos, size)[order]


def train_aligner(pairs: list[tuple[TokenSeq, TokenSeq]], iterations: int = 5) -> AlignmentModel:
    """Train IBM Model 1 by EM with uniform init over co-occurring word pairs.

    Records the corpus log-likelihood (natural log, including the 1/(l+1)
    alignment prior) under the parameters at the start of each iteration;
    the sequence is non-decreasing.

    The E-step runs over flat entries, one per (pair, target position,
    source word with null last), in that order; entries of one (pair, target
    position) form a group.  Every sum adds in that order: a group's
    denominator column by column, counts and totals by ``np.bincount``.  An
    entry of a group without mass, or with probability 0, adds +0.0, which
    changes no sum.  A source word whose total is 0 keeps its row.  Between
    iterations an entry holds only its int32 index into the co-occurring
    pairs; each iteration's per-entry arrays are freed before the next.
    """
    if not pairs:
        raise ValueError("pairs must be nonempty")
    ids = {NULL: 0}
    src_flat, src_len, tgt_flat, tgt_len = [], [], [], []
    for src, tgt in pairs:
        src_flat.extend([ids.setdefault(w, len(ids)) for w in src.tokens])
        src_flat.append(0)
        src_len.append(len(src) + 1)
        tgt_flat.extend([ids.setdefault(w, len(ids)) for w in tgt.tokens])
        tgt_len.append(len(tgt))
    n_words = len(ids)
    # a (source word, target word) pair as one code e * n_words + f
    code_type = np.int32 if n_words * n_words < 2**31 else np.int64
    src_len = np.asarray(src_len, dtype=np.int64)
    group_pair = np.repeat(np.arange(len(pairs)), tgt_len)
    group_len = src_len[group_pair]
    group_start = np.cumsum(group_len) - group_len
    # entry i of group g reads source word src_start[pair of g] + i - group_start[g]
    at = np.repeat((np.cumsum(src_len) - src_len)[group_pair] - group_start, group_len)
    at += np.arange(len(at))
    codes = np.asarray(src_flat, dtype=code_type)[at]
    del at, src_flat
    codes *= n_words
    codes += np.repeat(np.asarray(tgt_flat, dtype=code_type), group_len)
    keys, inv = np.unique(codes, return_inverse=True)
    inv = inv.astype(np.int32 if len(keys) < 2**31 else np.int64)
    del codes
    key_e = keys // n_words
    key_f = (keys % n_words).astype(np.int32)
    row_len = np.bincount(key_e, minlength=n_words)
    prob = 1.0 / row_len[key_e]

    # Entry j of every group at least j + 1 long, longest groups first: the
    # denominators add column by column, left to right as the row is read.
    by_len = np.argsort(-group_len, kind="stable")
    by_len_start = group_start[by_len]
    longer = (len(group_len) - np.cumsum(np.bincount(group_len))).tolist()

    lls = []
    for _ in range(iterations):
        by_len_denom = np.zeros(len(group_len))
        for j, n in enumerate(longer):
            by_len_denom[:n] += prob[inv[by_len_start[:n] + j]]
        denom = np.empty(len(group_len))
        denom[by_len] = by_len_denom
        ok = denom > 0.0
        ll = 0.0
        for x in (denom[ok] / group_len[ok]).tolist():
            ll += math.log(x)
        lls.append(ll)
        denom[~ok] = 1.0  # every entry of such a group has p = 0 and adds 0.0
        share = prob[inv]
        share /= np.repeat(denom, group_len)
        totals = np.bincount(key_e[inv], weights=share, minlength=n_words)
        counts = np.bincount(inv, weights=share, minlength=len(key_e))
        del share
        row_total = totals[key_e]
        np.divide(counts, row_total, out=prob, where=row_total > 0.0)
        del counts, row_total  # before the next iteration's per-entry arrays

    indptr = np.zeros(n_words + 1, dtype=np.int64)
    np.cumsum(row_len, out=indptr[1:])
    return AlignmentModel(ids, indptr, key_f, prob, lls)


def _edit_distances(pattern: np.ndarray, pattern_lengths: np.ndarray, text: np.ndarray,
                    text_lengths: np.ndarray) -> np.ndarray:
    """Levenshtein distance between each row's pattern and text, word ids
    laid end to end in rows of ``pattern_lengths`` and ``text_lengths``, for
    all rows at once.

    Myers' bit-vector algorithm (J. ACM 1999) in Hyyrö's edit-distance form
    (2003): a text word's mask marks the positions of its row's pattern that
    hold the same word.  ``pv``/``mv`` hold the +1/-1 vertical deltas of each
    row's current DP column and ``score`` its last cell; step j reads the
    j-th text word of every row at least j + 1 long, longest rows first.  The
    masks are uint64 while every pattern fits in 64 words, Python ints
    (object arrays) otherwise.
    """
    n_rows = len(pattern_lengths)
    row_of = np.repeat(np.arange(n_rows), pattern_lengths)
    position = _room(pattern_lengths) - 1
    if pattern_lengths.max(initial=0) > 64:
        bits = np.array([1 << j for j in position.tolist()], dtype=object)
        mask = np.array([(1 << m) - 1 for m in pattern_lengths.tolist()], dtype=object)
        high = np.array([1 << max(m - 1, 0) for m in pattern_lengths.tolist()], dtype=object)
    else:
        one = np.uint64(1)
        bits = np.left_shift(one, position.astype(np.uint64))
        # a shift by 64 gives 0, and 0 - 1 wraps to the 64-bit mask
        mask = np.left_shift(one, pattern_lengths.astype(np.uint64)) - one
        high = np.left_shift(one, np.maximum(pattern_lengths - 1, 0).astype(np.uint64))
    # each (row, word) of the patterns with the mask of its positions
    width = int(max(pattern.max(initial=0), text.max(initial=0))) + 1
    key = row_of * width + pattern
    order = np.argsort(key, kind="stable")
    first = np.flatnonzero(np.diff(key[order], prepend=-1))
    words = key[order][first]
    masks = np.append(np.bitwise_or.reduceat(bits[order], first) if len(first)
                      else bits[:0], np.zeros(1, dtype=bits.dtype))
    found = _find(words, np.repeat(np.arange(n_rows), text_lengths) * width + text)
    eq = masks[found]  # -1: the zero mask after the last word

    by_len = np.argsort(-text_lengths, kind="stable")
    text_start = (np.cumsum(text_lengths) - text_lengths)[by_len]
    mask, high = mask[by_len], high[by_len]
    pv, mv = mask.copy(), np.zeros(n_rows, dtype=bits.dtype)
    score = pattern_lengths[by_len].copy()
    longer = n_rows - np.cumsum(np.bincount(text_lengths, minlength=1))
    for j, n in enumerate(longer.tolist()):
        if not n:
            break
        e = eq[text_start[:n] + j]
        p, m, full, top = pv[:n], mv[:n], mask[:n], high[:n]
        xv = e | m
        xh = (((e & p) + p) ^ p) | e
        ph = m | (~(xh | p) & full)
        mh = p & xh
        up = (ph & top) != 0
        score[:n] += up
        score[:n] -= ~up & ((mh & top) != 0)
        ph = ((ph << 1) | 1) & full  # row 0 grows by 1 per text word
        mh = (mh << 1) & full
        pv[:n] = mh | (~(xv | ph) & full)
        mv[:n] = ph & xv
    out = np.empty(n_rows, dtype=np.int64)
    out[by_len] = score
    return out


def _edit_distance(text, pattern) -> int:
    """Levenshtein distance between two token sequences; one row of
    ``_edit_distances``, with the longer sequence as the pattern."""
    if len(text) > len(pattern):
        text, pattern = pattern, text
    types: dict = {}
    ids = np.array([types.setdefault(tok, len(types)) for tok in (*pattern, *text)],
                   dtype=np.int64)
    m = len(pattern)
    return int(_edit_distances(ids[:m], np.array([m]), ids[m:], np.array([len(text)]))[0])


def _alignment(model: AlignmentModel, types: list[str], src: _Seqs, tgt: _Seqs,
               tgt_of_row: np.ndarray) -> np.ndarray:
    """(1 - WER, alignment F1) of the Viterbi alignment of each row's target
    onto its source, in blocks of rows whose alignment entries stay within
    ``_BLOCK_BYTES``.

    The aligned sequence is the source tokens hit by each target token in
    target order (null links dropped); WER is its Levenshtein distance to the
    source over max(len(src), 1).  F1 combines target coverage (non-null
    fraction) with source coverage (fraction of source positions hit).
    """
    ids = _ids(model._ids, types)
    words = ids[src.ids]
    row_len = np.where(words >= 0, model.indptr[words + 1] - model.indptr[words], 0)
    row_of = src.rows()
    n_tgt = tgt.lengths[tgt_of_row]
    items = np.bincount(row_of, weights=np.minimum(row_len, n_tgt[row_of]),
                        minlength=len(tgt_of_row)) + src.lengths
    bounds = np.append(0, np.cumsum(src.lengths))
    out = np.zeros((len(tgt_of_row), 2))
    for rows in _count_blocks(items, 96):
        s = _Seqs(src.ids[bounds[rows.start] : bounds[rows.stop]], src.lengths[rows],
                  src.chars[rows])
        row, _, source = _links(model, ids, s, tgt, tgt_of_row[rows])
        n = n_tgt[rows]
        hits = np.bincount(row, minlength=len(n))
        at = (np.cumsum(s.lengths) - s.lengths)[row] + source
        dist = _edit_distances(s.ids, s.lengths, s.ids[at], hits)
        covered = np.zeros(len(s.ids), dtype=bool)
        covered[at] = True
        distinct = np.bincount(s.rows()[covered], minlength=len(n))
        m = s.lengths
        with np.errstate(divide="ignore", invalid="ignore"):
            one_minus_wer = np.minimum(1.0, np.maximum(0.0, 1.0 - dist / np.maximum(m, 1)))
            tgt_cov = hits / n
            src_cov = np.where(m > 0, distinct / m, 0.0)
            both = tgt_cov + src_cov
            f1 = np.where(both > 0, 2.0 * tgt_cov * src_cov / both, 0.0)
        scores = np.column_stack([one_minus_wer, np.minimum(1.0, np.maximum(0.0, f1))])
        out[rows] = np.where((n > 0)[:, None], scores, 0.0)
    return out


def alignment_features(model: AlignmentModel, src: TokenSeq, tgt: TokenSeq) -> tuple[float, float]:
    """(1 - WER, alignment F1) of the Viterbi alignment of tgt onto src; one
    row of ``_alignment``."""
    types, src_seqs, tgt_seqs = _split([src], [tgt])
    return tuple(_alignment(model, types, src_seqs, tgt_seqs, np.zeros(1, dtype=np.int64))[0]
                 .tolist())


def _lengths(src: _Seqs, tgt: _Seqs, tgt_of_row: np.ndarray) -> np.ndarray:
    """Token/char counts of both sides and src/tgt ratios (0 when tgt empty)."""
    tgt_tokens, tgt_chars = tgt.lengths[tgt_of_row], tgt.chars[tgt_of_row]
    with np.errstate(divide="ignore", invalid="ignore"):
        token_ratio = np.where(tgt_tokens > 0, src.lengths / tgt_tokens, 0.0)
        char_ratio = np.where(tgt_chars > 0, src.chars / tgt_chars, 0.0)
    return np.column_stack([src.lengths, tgt_tokens, src.chars, tgt_chars, token_ratio,
                            char_ratio]).astype(float)


def length_features(src: TokenSeq, tgt: TokenSeq) -> tuple[float, ...]:
    """Token/char counts of both sides and src/tgt ratios (0 when tgt empty)."""
    _, src_seqs, tgt_seqs = _split([src], [tgt])
    return tuple(_lengths(src_seqs, tgt_seqs, np.zeros(1, dtype=np.int64))[0].tolist())


def _encode_words(words) -> tuple[np.ndarray, np.ndarray]:
    """``words`` as their UTF-8 bytes laid end to end, and each one's end."""
    encoded = [w.encode("utf-8") for w in words]
    ends = np.cumsum([len(b) for b in encoded], dtype=np.int64)
    return np.frombuffer(b"".join(encoded), dtype=np.uint8), ends


def _decode_words(data: np.ndarray, ends: np.ndarray) -> tuple[str, ...]:
    raw, ends = data.tobytes(), ends.tolist()
    return tuple(raw[a:b].decode("utf-8") for a, b in zip([0, *ends], ends))


@dataclass
class FeatureResources:
    """Everything feature extraction needs, trained on the interpretants."""

    weight_table: NGramWeightTable
    lm: WittenBellLM
    aligner: AlignmentModel

    def to_arrays(self) -> dict[str, np.ndarray]:
        """The resources as named arrays: the vocabulary the weight table and
        the LM share, once; each order's keys with the table's weights and
        the LM's counts; and the aligner's vocabulary and CSR table."""
        table, lm, aligner = self.weight_table, self.lm, self.aligner
        if table.words != lm.words:
            raise ValueError("the weight table and the LM hold different vocabularies")
        words, ends = _encode_words(table.words)
        arrays = {"words": words, "word_ends": ends,
                  "table_totals": np.array(table.totals, dtype=np.int64),
                  "lm_n_words": np.array(lm.n_words, dtype=np.int64)}
        for n, (keys, weights) in enumerate(zip(table.keys, table.weights), start=1):
            arrays[f"table_keys_{n}"], arrays[f"table_weights_{n}"] = keys, weights
        for n, (keys, counts) in enumerate(zip(lm.keys, lm.counts), start=1):
            arrays[f"lm_keys_{n}"], arrays[f"lm_counts_{n}"] = keys, counts
        words, ends = _encode_words(aligner.vocab)
        arrays.update(aligner_words=words, aligner_word_ends=ends, aligner_indptr=aligner.indptr,
                      aligner_targets=aligner.targets, aligner_probs=aligner.probs,
                      aligner_log_likelihoods=np.array(aligner.log_likelihoods, dtype=float))
        return arrays

    @classmethod
    def from_arrays(cls, arrays: dict[str, np.ndarray]) -> FeatureResources:
        """The resources ``to_arrays`` wrote; a missing array raises KeyError."""
        words = _decode_words(arrays["words"], arrays["word_ends"])
        totals = arrays["table_totals"].tolist()
        orders = range(1, len(totals) + 1)
        table = NGramWeightTable(words, [arrays[f"table_keys_{n}"] for n in orders],
                                 [arrays[f"table_weights_{n}"] for n in orders], totals)
        lm_orders = range(1, sum(name.startswith("lm_keys_") for name in arrays) + 1)
        lm = WittenBellLM.from_counts(words, int(arrays["lm_n_words"]),
                                      [arrays[f"lm_keys_{n}"] for n in lm_orders],
                                      [arrays[f"lm_counts_{n}"] for n in lm_orders])
        aligner = AlignmentModel(_decode_words(arrays["aligner_words"], arrays["aligner_word_ends"]),
                                 arrays["aligner_indptr"], arrays["aligner_targets"],
                                 arrays["aligner_probs"],
                                 arrays["aligner_log_likelihoods"].tolist())
        return cls(table, lm, aligner)


def _check_resources(resources: FeatureResources):
    for name in ("weight_table", "lm", "aligner"):
        if getattr(resources, name, None) is None:
            raise ValueError(f"missing resource: {name}")


def _finite(matrix: np.ndarray) -> np.ndarray:
    """``matrix``, after refusing its first NaN or inf by feature name and row."""
    bad = np.argwhere(~np.isfinite(matrix))
    if bad.size:
        i, j = bad[0]
        raise AssertionError(f"non-finite feature {FEATURE_NAMES[j]} in row {i}")
    return matrix


def extract_feature_vector(src: TokenSeq, tgt: TokenSeq, resources: FeatureResources) -> np.ndarray:
    """The full 41-feature vector for one (src, tgt) pair; never NaN/inf."""
    return build_feature_matrix([(src, tgt)], resources)[0]


def build_feature_matrix(rows: list[tuple[TokenSeq, TokenSeq]], resources: FeatureResources) -> np.ndarray:
    """The 41 features of each (src, tgt) row, in row order.

    Each column family is one array pass over the whole split; each distinct
    target is taken once, whatever number of rows share it.  The matrix is
    checked for NaN and inf once.
    """
    _check_resources(resources)
    targets: dict[TokenSeq, int] = {}
    tgt_of_row = np.fromiter((targets.setdefault(tgt, len(targets)) for _, tgt in rows),
                             dtype=np.int64, count=len(rows))
    types, src, tgt = _split([src for src, _ in rows], list(targets))
    matrix = np.empty((len(rows), N_FEATURES))
    if rows:
        matrix[:, :30] = _overlap(resources.weight_table, types, src, tgt, tgt_of_row, ORDER_SETS)
        matrix[:, 30:33] = _lm(resources.lm, types, src)
        matrix[:, 33:35] = _alignment(resources.aligner, types, src, tgt, tgt_of_row)
        matrix[:, 35:] = _lengths(src, tgt, tgt_of_row)
    return _finite(matrix)
