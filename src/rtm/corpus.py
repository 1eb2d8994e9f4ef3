"""Text normalization, n-gram extraction and file ingestion.

Everything downstream works on :class:`TokenSeq` objects.  The tokenizer is
deliberately simple and fully deterministic: lowercase, split on Unicode
whitespace, then split punctuation into single-character tokens.  The one
tweet-flavoured exception is that ``#`` and ``@`` stay glued to the word they
introduce (``#joy`` is one token).
"""

from __future__ import annotations

import collections
from dataclasses import dataclass, field


class DataFormatError(ValueError):
    """Raised for malformed dataset/lexicon/corpus files, with file position."""


def _fail(path, lineno: int, msg: str):
    raise DataFormatError(f"{path}:{lineno}: {msg}")


@dataclass(frozen=True)
class TokenSeq:
    """A normalized token sequence plus the character count of its source text."""

    tokens: tuple[str, ...]
    char_count: int

    def __post_init__(self):
        if self.char_count < 0:
            raise ValueError("char_count must be >= 0")
        for tok in self.tokens:
            if not tok or tok.split() != [tok]:
                raise ValueError(f"bad token {tok!r}: empty or contains whitespace")
        if self.tokens and self.char_count < len(self.tokens) - 1:
            raise ValueError("char_count too small for token count")

    @classmethod
    def from_tokens(cls, tokens) -> "TokenSeq":
        """Build a TokenSeq from bare tokens, counting chars as if space-joined."""
        toks = tuple(tokens)
        return cls(toks, len(" ".join(toks)))

    def __len__(self) -> int:
        return len(self.tokens)

    def __iter__(self):
        return iter(self.tokens)

    def text(self) -> str:
        return " ".join(self.tokens)


@dataclass(frozen=True)
class IntensityInstance:
    """One text-to-score row: a tweet/text, its affect label and gold in [0, 1]."""

    id: str
    source: TokenSeq
    affect: str
    gold: float | None

    def __post_init__(self):
        if self.gold is not None and not 0.0 <= self.gold <= 1.0:
            raise ValueError(f"gold {self.gold} outside [0, 1]")


@dataclass(frozen=True)
class TripleInstance:
    """One word/word/attribute row with a binary discriminativeness label."""

    id: str
    w1: TokenSeq
    w2: TokenSeq
    attribute: TokenSeq
    gold: int | None

    def __post_init__(self):
        for name in ("w1", "w2", "attribute"):
            if len(getattr(self, name)) == 0:
                raise ValueError(f"{name} must be nonempty")
        if self.gold is not None and self.gold not in (0, 1):
            raise ValueError(f"label {self.gold} not in {{0, 1}}")


@dataclass
class Lexicon:
    """Emotion label -> ordered words (each word a TokenSeq, possibly multi-token)."""

    entries: dict[str, tuple[TokenSeq, ...]] = field(default_factory=dict)

    def emotions(self) -> list[str]:
        return list(self.entries)


@dataclass
class Corpus:
    """Ordered nonempty sentences from a one-sentence-per-line file."""

    sentences: list[TokenSeq]

    def __len__(self) -> int:
        return len(self.sentences)


_WORD_PREFIXES = "#@"


def _is_word_char(ch: str) -> bool:
    return ch.isalnum() or ch == "_"


def _split_chunk(chunk: str) -> list[str]:
    if chunk.isalnum():  # every character is a word character
        return [chunk]
    out: list[str] = []
    buf: list[str] = []
    for i, ch in enumerate(chunk):
        if _is_word_char(ch):
            buf.append(ch)
            continue
        if buf:
            out.append("".join(buf))
            buf = []
        if ch in _WORD_PREFIXES and i + 1 < len(chunk) and _is_word_char(chunk[i + 1]):
            buf.append(ch)
        else:
            out.append(ch)
    if buf:
        out.append("".join(buf))
    return out


def tokenize(text: str) -> TokenSeq:
    """Normalize ``text`` into a TokenSeq.

    Rules: lowercase, split on Unicode whitespace, then each non-alphanumeric
    character becomes its own token except that a ``#`` or ``@`` introducing a
    word run stays attached to it.  The char count is taken from the raw
    input, whitespace included.
    """
    tokens: list[str] = []
    for chunk in text.lower().split():
        tokens.extend(_split_chunk(chunk))
    return TokenSeq(tuple(tokens), len(text))


def extract_ngrams(seq: TokenSeq, n: int) -> collections.Counter:
    """Contiguous n-grams of ``seq`` with multiplicity, as a Counter of tuples."""
    if n < 1:
        raise ValueError("n must be >= 1")
    toks = seq.tokens
    return collections.Counter(toks[i : i + n] for i in range(len(toks) - n + 1))


# ---------------------------------------------------------------------------
# File formats (see README): all files are UTF-8, tab-separated where tabular.

INTENSITY_HEADER = ("id", "text", "affect", "score")


def _read_lines(path) -> list[str]:
    """The lines of a UTF-8 text file, the one line rule of every reader.

    Lines end at ``\\n`` (``\\r\\n`` and a lone ``\\r`` read as ``\\n``); no other
    character ends a line, unlike ``str.splitlines``, which also breaks at
    ``\\x0c``, ``\\x85``, U+2028 and other characters a field may hold.
    """
    with open(path, encoding="utf-8") as fh:
        return fh.read().split("\n")


def _check_new_id(path, lineno: int, rid: str, first_line: dict[str, int]):
    """Reject an instance id already seen; ids key gold and prediction maps."""
    if rid in first_line:
        _fail(path, lineno, f"duplicate id {rid!r} (first on line {first_line[rid]})")
    first_line[rid] = lineno


def _dataset_rows(path, task: str):
    """Yield ``(line number, fields, gold)`` for each row of a dataset file.

    ``task`` is ``"intensity"`` (header ``id\\ttext\\taffect[\\tscore]``, gold a
    float in [0, 1]) or ``"triples"`` (no header, five columns, gold ``0`` or
    ``1``); gold is None for ``NONE`` or a missing score column.  Blank lines
    are skipped.  Rows are checked, not tokenized: the column count, unique
    ids, no id starting with ``#`` (it marks comments in every file rtm
    writes, so such a row would read back as one), the score or label, and
    for triples that no word is empty (no non-whitespace character, which is
    exactly when ``tokenize`` makes no token of it).
    """
    lines = _read_lines(path)
    if task == "intensity":
        if not lines[0].strip():
            _fail(path, 1, "missing header row")
        header = tuple(lines[0].split("\t"))
        if header not in (INTENSITY_HEADER, INTENSITY_HEADER[:3]):
            _fail(path, 1, f"bad header {header!r}")
        ncols, first_row = len(header), 2
    else:
        ncols, first_row = 5, 1
    first_line: dict[str, int] = {}
    for lineno, line in enumerate(lines[first_row - 1 :], start=first_row):
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) != ncols:
            _fail(path, lineno, f"expected {ncols} columns, got {len(fields)}")
        if fields[0].startswith("#"):
            _fail(path, lineno, f"id {fields[0]!r} starts with '#', which marks a comment")
        _check_new_id(path, lineno, fields[0], first_line)
        gold = None
        if task == "triples":
            if fields[4] in ("0", "1"):
                gold = int(fields[4])
            elif fields[4] != "NONE":
                _fail(path, lineno, f"label {fields[4]!r} not in {{0, 1, NONE}}")
            for name, text in zip(("word1", "word2", "attribute"), fields[1:4]):
                if not text.split():
                    _fail(path, lineno, f"empty {name}")
        elif ncols == 4 and fields[3] != "NONE":
            try:
                gold = float(fields[3])
            except ValueError:
                _fail(path, lineno, f"bad score {fields[3]!r}")
            if not 0.0 <= gold <= 1.0:
                _fail(path, lineno, f"score {gold} outside [0, 1]")
        yield lineno, fields, gold


def load_intensity_dataset(path) -> list[IntensityInstance]:
    """Load an intensity TSV: header ``id\\ttext\\taffect\\tscore`` then rows.

    The score column may be omitted entirely or hold ``NONE`` per row (test
    mode).  Scores must lie in [0, 1] and ids must be unique.
    """
    return [IntensityInstance(id=f[0], source=tokenize(f[1]), affect=f[2], gold=gold)
            for _, f, gold in _dataset_rows(path, "intensity")]


def load_triple_dataset(path) -> list[TripleInstance]:
    """Load a triples TSV: ``id\\tword1\\tword2\\tattribute\\tlabel``, no header.

    Labels are ``0``, ``1`` or ``NONE``; ids must be unique.
    """
    return [TripleInstance(f[0], *(tokenize(text) for text in f[1:4]), gold)
            for _, f, gold in _dataset_rows(path, "triples")]


def load_lexicon(path) -> Lexicon:
    """Load an emotion lexicon: ``#<emotion>`` headers, then one entry per line.

    Entries may be multi-word.  Duplicate entries within a section are
    rejected; every section must contain at least one entry.
    """
    entries: dict[str, list[TokenSeq]] = {}
    seen: dict[str, set] = {}
    current = None
    last_header_line = 0
    for lineno, line in enumerate(_read_lines(path), start=1):
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("#"):
            if current is not None and not entries[current]:
                _fail(path, last_header_line, f"emotion {current!r} has no entries")
            current = stripped[1:].strip().lower()
            if not current:
                _fail(path, lineno, "empty emotion name")
            if current in entries:
                _fail(path, lineno, f"duplicate emotion section {current!r}")
            entries[current] = []
            seen[current] = set()
            last_header_line = lineno
            continue
        if current is None:
            _fail(path, lineno, "entry before any #<emotion> header")
        word = tokenize(stripped)
        if word.tokens in seen[current]:
            _fail(path, lineno, f"duplicate entry {stripped!r} in {current!r}")
        seen[current].add(word.tokens)
        entries[current].append(word)
    if current is None:
        _fail(path, 1, "no emotion sections found")
    if not entries[current]:
        _fail(path, last_header_line, f"emotion {current!r} has no entries")
    return Lexicon({emo: tuple(words) for emo, words in entries.items()})


def _corpus_lines(path) -> list[str]:
    # A line holds a sentence when it has a non-whitespace character, which
    # is exactly when ``tokenize`` makes a token of it (same whitespace rule).
    return [line for line in _read_lines(path) if line.split()]


def load_corpus(path) -> Corpus:
    """Load a one-sentence-per-line corpus, skipping empty lines."""
    return Corpus([tokenize(line) for line in _corpus_lines(path)])


def load_corpus_sentences(path, indices) -> list[TokenSeq]:
    """``[load_corpus(path).sentences[i] for i in indices]``, tokenizing only
    those lines.  The first index outside ``range(n)`` for an n-sentence
    corpus raises ``IndexError(position in indices, n)``."""
    lines = _corpus_lines(path)
    for pos, i in enumerate(indices):
        if not 0 <= i < len(lines):
            raise IndexError(pos, len(lines))
    return [tokenize(lines[i]) for i in indices]


def lexicon_to_target(lexicon: Lexicon, emotions) -> TokenSeq:
    """Render the words of the requested emotions as one long token sequence.

    Concatenation follows lexicon file order (sections, then entries within a
    section), not the order of the request.
    """
    requested = set(emotions)
    if not requested:
        raise ValueError("no emotions requested")
    unknown = requested - set(lexicon.entries)
    if unknown:
        raise ValueError(f"unknown emotions: {sorted(unknown)}")
    tokens: list[str] = []
    for emo, words in lexicon.entries.items():
        if emo in requested:
            for word in words:
                tokens.extend(word.tokens)
    return TokenSeq.from_tokens(tokens)
