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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .corpus import TokenSeq
from .interpretants import NGramWeightTable, WittenBellLM

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


class TokenTypes(NamedTuple):
    """A sequence's distinct tokens in first-occurrence order."""

    zeros: dict  # type -> 0.0
    index: dict  # type -> its position
    of_token: list  # each token's type position


def _token_types(seq: TokenSeq) -> TokenTypes:
    index: dict = {}
    of_token = [index.setdefault(f, len(index)) for f in seq.tokens]
    return TokenTypes(dict.fromkeys(index, 0.0), index, of_token)


class NGramSide:
    """One side of an overlap: its distinct n-grams per order with their weights.

    Orders are filled on first use, in first-occurrence order, and the count
    and total weight of each order set are kept, so a side shared by many
    rows (a lexicon target) is built once.  The weights of the n-grams a
    side shares with another are kept per (other side, order), so the order
    sets of one row intersect each order once.  A target side also keeps
    its token types for alignment (``types``).
    """

    def __init__(self, seq: TokenSeq, table: NGramWeightTable):
        self.seq = seq
        self.table = table
        self._weights: dict[int, dict] = {}
        self._totals: dict[tuple, tuple[int, float]] = {}
        self._common: dict[tuple, list] = {}
        self._types: TokenTypes | None = None

    def types(self) -> TokenTypes:
        if self._types is None:
            self._types = _token_types(self.seq)
        return self._types

    def weights(self, n: int) -> dict:
        """Distinct n-grams of order ``n`` mapped to their table weights."""
        got = self._weights.get(n)
        if got is None:
            if n < 1:
                raise ValueError("n must be >= 1")
            toks, weight = self.seq.tokens, self.table.weight
            grams = dict.fromkeys(toks[i : i + n] for i in range(len(toks) - n + 1))
            got = self._weights[n] = {g: weight(g) for g in grams}
        return got

    def total(self, orders: tuple) -> tuple[int, float]:
        """(number, total weight) of the distinct n-grams of ``orders``.

        Grams of different orders differ, so the total is the fsum over the
        union; fsum is exactly rounded, so it does not depend on iteration
        order.
        """
        got = self._totals.get(orders)
        if got is None:
            values = [w for n in orders for w in self.weights(n).values()]
            got = self._totals[orders] = (len(values), math.fsum(values))
        return got

    def common(self, other: NGramSide, n: int) -> list[float]:
        """Weights of the order-``n`` grams this side shares with ``other``."""
        key = (other, n)
        got = self._common.get(key)
        if got is None:
            small, large = self.weights(n), other.weights(n)
            if len(large) < len(small):
                small, large = large, small
            got = self._common[key] = [w for g, w in small.items() if g in large]
        return got


_NO_OVERLAP = OverlapScores(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)


def _side(seq: TokenSeq | NGramSide, table: NGramWeightTable) -> NGramSide:
    if not isinstance(seq, NGramSide):
        return NGramSide(seq, table)
    if seq.table is not table:
        raise ValueError("n-gram side was built from another weight table")
    return seq


def weighted_overlap(
    src: TokenSeq | NGramSide, tgt: TokenSeq | NGramSide, table: NGramWeightTable, orders
) -> OverlapScores:
    """Likelihood-weighted and plain n-gram overlap over the given orders.

    ``src`` and ``tgt`` are TokenSeqs or NGramSides built from ``table``.
    wrec sums the weights of target n-grams also present in the source over
    the total target weight; wprec mirrors it on the source side.  Any empty
    denominator makes all six outputs 0.  The shared n-grams of an order
    are found once per pair of sides and serve every order set that holds
    the order; a union's common weight is the fsum over its orders' pieces,
    the same exactly rounded value as over the union.
    """
    orders = tuple(orders)
    if not orders:
        raise ValueError("orders must be nonempty")
    src, tgt = _side(src, table), _side(tgt, table)
    n_tgt, tgt_total = tgt.total(orders)
    if not n_tgt or tgt_total == 0.0:
        return _NO_OVERLAP
    n_src, src_total = src.total(orders)
    if not n_src or src_total == 0.0:
        return _NO_OVERLAP
    common = [w for n in orders for w in src.common(tgt, n)]
    common_w = math.fsum(common)
    wprec = common_w / src_total
    wrec = common_w / tgt_total
    wf1 = 2.0 * wprec * wrec / (wprec + wrec) if wprec + wrec > 0 else 0.0
    wgm = math.sqrt(wprec * wrec)
    rec = len(common) / n_tgt
    prec = len(common) / n_src
    return OverlapScores(wprec, wrec, wf1, wgm, rec, prec)


def lm_features(lm: WittenBellLM, seq: TokenSeq) -> tuple[float, float, float]:
    """(log2 prob, bits per word, OOV rate) of ``seq`` under ``lm``."""
    logprob, n_events = lm.sequence_logprob2(seq)
    bpw = -logprob / n_events
    if len(seq):
        oov = sum(1 for t in seq.tokens if not lm.in_vocab(t)) / len(seq)
    else:
        oov = 0.0
    return logprob, bpw, oov


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

    def align(self, src: TokenSeq, tgt: TokenSeq | NGramSide) -> list[int | None]:
        """Viterbi link per target token: source index, or None for null.

        Ties prefer the lowest source index; null wins only by a strictly
        higher probability.  Target words with no probability mass anywhere
        go to null.  ``tgt`` may be an NGramSide, whose token types are built
        once for all the rows that share it.
        """
        types = tgt.types() if isinstance(tgt, NGramSide) else _token_types(tgt)
        # Per target type, the first source index with the highest positive
        # probability.  Each source position walks the smaller of its table
        # row and the target's types; the strict > keeps the lowest index.
        best_p = types.zeros.copy()
        best_i: dict[str, int] = {}
        row_of = self.row
        for i, e in enumerate(src.tokens):
            row = row_of(e)
            if len(row) < len(best_p):
                for f, p in row.items():
                    if p > best_p.get(f, math.inf):
                        best_p[f] = p
                        best_i[f] = i
            else:
                for f, bp in best_p.items():
                    p = row.get(f, 0.0)
                    if p > bp:
                        best_p[f] = p
                        best_i[f] = i
        null_row = row_of(NULL)
        links: list[int | None] = [None] * len(best_p)  # per type
        index = types.index
        for f, i in best_i.items():
            if null_row.get(f, 0.0) <= best_p[f]:
                links[index[f]] = i
        return [links[k] for k in types.of_token]


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


def _edit_distance(text, pattern) -> int:
    """Levenshtein distance between two token sequences.

    Myers' bit-vector algorithm (J. ACM 1999) in Hyyrö's edit-distance form
    (2003): ``pattern`` is a Python-int bit mask per token, so any length
    works, and each ``text`` token costs a few word operations.  The
    distance is symmetric, so the loop runs over the shorter sequence, with
    the longer one as the pattern.  ``pv``/``mv`` hold the +1/-1 vertical
    deltas of the current DP column; ``score`` is its last cell.
    """
    if len(text) > len(pattern):
        text, pattern = pattern, text
    m = len(pattern)
    if not m:
        return len(text)
    peq: dict = {}
    for i, tok in enumerate(pattern):
        peq[tok] = peq.get(tok, 0) | (1 << i)
    mask = (1 << m) - 1
    high = 1 << (m - 1)
    pv, mv, score = mask, 0, m
    for tok in text:
        eq = peq.get(tok, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | (~(xh | pv) & mask)
        mh = pv & xh
        if ph & high:
            score += 1
        elif mh & high:
            score -= 1
        ph = ((ph << 1) | 1) & mask  # row 0 grows by 1 per text token
        mh = (mh << 1) & mask
        pv = mh | (~(xv | ph) & mask)
        mv = ph & xv
    return score


def alignment_features(
    model: AlignmentModel, src: TokenSeq, tgt: TokenSeq | NGramSide
) -> tuple[float, float]:
    """(1 - WER, alignment F1) of the Viterbi alignment of tgt onto src.

    The aligned sequence is the source tokens hit by each target token in
    target order (null links dropped); WER is its Levenshtein distance to the
    source over max(len(src), 1).  F1 combines target coverage (non-null
    fraction) with source coverage (fraction of source positions hit).
    """
    n_tgt = len(tgt.seq if isinstance(tgt, NGramSide) else tgt)
    if n_tgt == 0:
        return 0.0, 0.0
    hits = [i for i in model.align(src, tgt) if i is not None]
    wer = _edit_distance([src.tokens[i] for i in hits], src.tokens) / max(len(src), 1)
    one_minus_wer = min(1.0, max(0.0, 1.0 - wer))
    tgt_cov = len(hits) / n_tgt
    src_cov = len(set(hits)) / len(src) if len(src) else 0.0
    f1 = 2.0 * tgt_cov * src_cov / (tgt_cov + src_cov) if tgt_cov + src_cov > 0 else 0.0
    return one_minus_wer, min(1.0, max(0.0, f1))


def length_features(src: TokenSeq, tgt: TokenSeq) -> tuple[float, ...]:
    """Token/char counts of both sides and src/tgt ratios (0 when tgt empty)."""
    token_ratio = len(src) / len(tgt) if len(tgt) else 0.0
    char_ratio = src.char_count / tgt.char_count if tgt.char_count else 0.0
    return (
        float(len(src)),
        float(len(tgt)),
        float(src.char_count),
        float(tgt.char_count),
        token_ratio,
        char_ratio,
    )


@dataclass
class FeatureResources:
    """Everything feature extraction needs, trained on the interpretants."""

    weight_table: NGramWeightTable
    lm: WittenBellLM
    aligner: AlignmentModel


def _check_resources(resources: FeatureResources):
    for name in ("weight_table", "lm", "aligner"):
        if getattr(resources, name, None) is None:
            raise ValueError(f"missing resource: {name}")


def _feature_row(src: TokenSeq, tgt: NGramSide, resources: FeatureResources) -> list[float]:
    """The 41 features of one (src, tgt) pair as Python floats; ``tgt`` is an
    NGramSide built from the resources' weight table."""
    table = resources.weight_table
    src_side = NGramSide(src, table)
    row: list[float] = []
    for orders in ORDER_SETS:
        row.extend(weighted_overlap(src_side, tgt, table, orders))
    row.extend(lm_features(resources.lm, src))
    row.extend(alignment_features(resources.aligner, src, tgt))
    row.extend(length_features(src, tgt.seq))
    return row


def _finite(matrix: np.ndarray) -> np.ndarray:
    """``matrix``, after refusing its first NaN or inf by feature name and row."""
    bad = np.argwhere(~np.isfinite(matrix))
    if bad.size:
        i, j = bad[0]
        raise AssertionError(f"non-finite feature {FEATURE_NAMES[j]} in row {i}")
    return matrix


def extract_feature_vector(
    src: TokenSeq, tgt: TokenSeq | NGramSide, resources: FeatureResources
) -> np.ndarray:
    """The full 41-feature vector for one (src, tgt) pair; never NaN/inf.

    ``tgt`` is a TokenSeq or an NGramSide of it built from the resources'
    weight table, which lets many rows share one target's n-grams.
    """
    _check_resources(resources)
    tgt = _side(tgt, resources.weight_table)
    return _finite(np.array([_feature_row(src, tgt, resources)]))[0]


def build_feature_matrix(rows: list[tuple[TokenSeq, TokenSeq]], resources: FeatureResources) -> np.ndarray:
    """Stack feature vectors for each (src, tgt) row, preserving order.

    Each distinct target's n-gram side is built once and shared by its rows;
    the matrix is assembled and checked for NaN and inf once.
    """
    _check_resources(resources)
    sides: dict[TokenSeq, NGramSide] = {}
    matrix = np.empty((len(rows), N_FEATURES))
    for i, (src, tgt) in enumerate(rows):
        side = sides.get(tgt)
        if side is None:
            side = sides[tgt] = NGramSide(tgt, resources.weight_table)
        matrix[i] = _feature_row(src, side, resources)
    return _finite(matrix)
