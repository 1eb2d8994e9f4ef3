"""Text normalization, n-gram extraction and file ingestion.

Everything downstream works on :class:`TokenSeq` objects, made by one
tokenizer core that works on a block of lines (``_tokenize_block``).  The
tokenizer is deliberately simple and fully deterministic: remove invisible
controls, NFC-normalize, lowercase, split on Unicode whitespace, then split
punctuation into single-character tokens, keeping marks, format characters
and emoji sequences in their token as UAX #29 does.  The one tweet-flavoured
exception is that ``#`` and ``@`` stay glued to the word they introduce
(``#joy`` is one token).
"""

from __future__ import annotations

import bisect
import collections
import functools
import itertools
import re
import unicodedata
from collections.abc import Iterator
from dataclasses import dataclass


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
        # Joined by spaces, tokens split back into themselves exactly when
        # none is empty or holds whitespace; the walk only names the bad one.
        if " ".join(self.tokens).split() != list(self.tokens):
            bad = next(tok for tok in self.tokens if not tok or tok.split() != [tok])
            raise ValueError(f"bad token {bad!r}: empty or contains whitespace")
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


# Unicode general category M (Mn, Mc, Me) as code point ranges, from the
# Unicode 14.0 database of Python 3.11's ``unicodedata``; a test checks them
# against ``unicodedata.category`` over every code point.
_MARK_RANGES = """
0300-036F 0483-0489 0591-05BD 05BF 05C1-05C2 05C4-05C5 05C7 0610-061A
064B-065F 0670 06D6-06DC 06DF-06E4 06E7-06E8 06EA-06ED 0711 0730-074A
07A6-07B0 07EB-07F3 07FD 0816-0819 081B-0823 0825-0827 0829-082D 0859-085B
0898-089F 08CA-08E1 08E3-0903 093A-093C 093E-094F 0951-0957 0962-0963
0981-0983 09BC 09BE-09C4 09C7-09C8 09CB-09CD 09D7 09E2-09E3 09FE 0A01-0A03
0A3C 0A3E-0A42 0A47-0A48 0A4B-0A4D 0A51 0A70-0A71 0A75 0A81-0A83 0ABC
0ABE-0AC5 0AC7-0AC9 0ACB-0ACD 0AE2-0AE3 0AFA-0AFF 0B01-0B03 0B3C 0B3E-0B44
0B47-0B48 0B4B-0B4D 0B55-0B57 0B62-0B63 0B82 0BBE-0BC2 0BC6-0BC8 0BCA-0BCD
0BD7 0C00-0C04 0C3C 0C3E-0C44 0C46-0C48 0C4A-0C4D 0C55-0C56 0C62-0C63
0C81-0C83 0CBC 0CBE-0CC4 0CC6-0CC8 0CCA-0CCD 0CD5-0CD6 0CE2-0CE3 0D00-0D03
0D3B-0D3C 0D3E-0D44 0D46-0D48 0D4A-0D4D 0D57 0D62-0D63 0D81-0D83 0DCA
0DCF-0DD4 0DD6 0DD8-0DDF 0DF2-0DF3 0E31 0E34-0E3A 0E47-0E4E 0EB1 0EB4-0EBC
0EC8-0ECD 0F18-0F19 0F35 0F37 0F39 0F3E-0F3F 0F71-0F84 0F86-0F87 0F8D-0F97
0F99-0FBC 0FC6 102B-103E 1056-1059 105E-1060 1062-1064 1067-106D 1071-1074
1082-108D 108F 109A-109D 135D-135F 1712-1715 1732-1734 1752-1753 1772-1773
17B4-17D3 17DD 180B-180D 180F 1885-1886 18A9 1920-192B 1930-193B 1A17-1A1B
1A55-1A5E 1A60-1A7C 1A7F 1AB0-1ACE 1B00-1B04 1B34-1B44 1B6B-1B73 1B80-1B82
1BA1-1BAD 1BE6-1BF3 1C24-1C37 1CD0-1CD2 1CD4-1CE8 1CED 1CF4 1CF7-1CF9
1DC0-1DFF 20D0-20F0 2CEF-2CF1 2D7F 2DE0-2DFF 302A-302F 3099-309A A66F-A672
A674-A67D A69E-A69F A6F0-A6F1 A802 A806 A80B A823-A827 A82C A880-A881
A8B4-A8C5 A8E0-A8F1 A8FF A926-A92D A947-A953 A980-A983 A9B3-A9C0 A9E5
AA29-AA36 AA43 AA4C-AA4D AA7B-AA7D AAB0 AAB2-AAB4 AAB7-AAB8 AABE-AABF AAC1
AAEB-AAEF AAF5-AAF6 ABE3-ABEA ABEC-ABED FB1E FE00-FE0F FE20-FE2F 101FD 102E0
10376-1037A 10A01-10A03 10A05-10A06 10A0C-10A0F 10A38-10A3A 10A3F
10AE5-10AE6 10D24-10D27 10EAB-10EAC 10F46-10F50 10F82-10F85 11000-11002
11038-11046 11070 11073-11074 1107F-11082 110B0-110BA 110C2 11100-11102
11127-11134 11145-11146 11173 11180-11182 111B3-111C0 111C9-111CC
111CE-111CF 1122C-11237 1123E 112DF-112EA 11300-11303 1133B-1133C
1133E-11344 11347-11348 1134B-1134D 11357 11362-11363 11366-1136C
11370-11374 11435-11446 1145E 114B0-114C3 115AF-115B5 115B8-115C0
115DC-115DD 11630-11640 116AB-116B7 1171D-1172B 1182C-1183A 11930-11935
11937-11938 1193B-1193E 11940 11942-11943 119D1-119D7 119DA-119E0 119E4
11A01-11A0A 11A33-11A39 11A3B-11A3E 11A47 11A51-11A5B 11A8A-11A99
11C2F-11C36 11C38-11C3F 11C92-11CA7 11CA9-11CB6 11D31-11D36 11D3A
11D3C-11D3D 11D3F-11D45 11D47 11D8A-11D8E 11D90-11D91 11D93-11D97
11EF3-11EF6 16AF0-16AF4 16B30-16B36 16F4F 16F51-16F87 16F8F-16F92 16FE4
16FF0-16FF1 1BC9D-1BC9E 1CF00-1CF2D 1CF30-1CF46 1D165-1D169 1D16D-1D172
1D17B-1D182 1D185-1D18B 1D1AA-1D1AD 1D242-1D244 1DA00-1DA36 1DA3B-1DA6C
1DA75 1DA84 1DA9B-1DA9F 1DAA1-1DAAF 1E000-1E006 1E008-1E018 1E01B-1E021
1E023-1E024 1E026-1E02A 1E130-1E136 1E2AE 1E2EC-1E2EF 1E8D0-1E8D6
1E944-1E94A E0100-E01EF
"""
# Unicode general category Cf (format characters, ZWJ among them), as _MARK_RANGES.
_FORMAT_RANGES = """
00AD 0600-0605 061C 06DD 070F 0890-0891 08E2 180E 200B-200F 202A-202E 2060-2064
2066-206F FEFF FFF9-FFFB 110BD 110CD 13430-13438 1BCA0-1BCA3 1D173-1D17A E0001
E0020-E007F
"""
# Unicode general category So (other symbols, emoji among them), as _MARK_RANGES.
_SYMBOL_RANGES = """
00A6 00A9 00AE 00B0 0482 058D-058E 060E-060F 06DE 06E9 06FD-06FE 07F6 09FA
0B70 0BF3-0BF8 0BFA 0C7F 0D4F 0D79 0F01-0F03 0F13 0F15-0F17 0F1A-0F1F 0F34
0F36 0F38 0FBE-0FC5 0FC7-0FCC 0FCE-0FCF 0FD5-0FD8 109E-109F 1390-1399 166D
1940 19DE-19FF 1B61-1B6A 1B74-1B7C 2100-2101 2103-2106 2108-2109 2114
2116-2117 211E-2123 2125 2127 2129 212E 213A-213B 214A 214C-214D 214F
218A-218B 2195-2199 219C-219F 21A1-21A2 21A4-21A5 21A7-21AD 21AF-21CD
21D0-21D1 21D3 21D5-21F3 2300-2307 230C-231F 2322-2328 232B-237B 237D-239A
23B4-23DB 23E2-2426 2440-244A 249C-24E9 2500-25B6 25B8-25C0 25C2-25F7
2600-266E 2670-2767 2794-27BF 2800-28FF 2B00-2B2F 2B45-2B46 2B4D-2B73
2B76-2B95 2B97-2BFF 2CE5-2CEA 2E50-2E51 2E80-2E99 2E9B-2EF3 2F00-2FD5
2FF0-2FFB 3004 3012-3013 3020 3036-3037 303E-303F 3190-3191 3196-319F
31C0-31E3 3200-321E 322A-3247 3250 3260-327F 328A-32B0 32C0-33FF 4DC0-4DFF
A490-A4C6 A828-A82B A836-A837 A839 AA77-AA79 FD40-FD4F FDCF FDFD-FDFF FFE4
FFE8 FFED-FFEE FFFC-FFFD 10137-1013F 10179-10189 1018C-1018E 10190-1019C 101A0
101D0-101FC 10877-10878 10AC8 1173F 11FD5-11FDC 11FE1-11FF1 16B3C-16B3F 16B45
1BC9C 1CF50-1CFC3 1D000-1D0F5 1D100-1D126 1D129-1D164 1D16A-1D16C 1D183-1D184
1D18C-1D1A9 1D1AE-1D1EA 1D200-1D241 1D245 1D300-1D356 1D800-1D9FF 1DA37-1DA3A
1DA6D-1DA74 1DA76-1DA83 1DA85-1DA86 1E14F 1ECAC 1ED2E 1F000-1F02B 1F030-1F093
1F0A0-1F0AE 1F0B1-1F0BF 1F0C1-1F0CF 1F0D1-1F0F5 1F10D-1F1AD 1F1E6-1F202
1F210-1F23B 1F240-1F248 1F250-1F251 1F260-1F265 1F300-1F3FA 1F400-1F6D7
1F6DD-1F6EC 1F6F0-1F6FC 1F700-1F773 1F780-1F7D8 1F7E0-1F7EB 1F7F0 1F800-1F80B
1F810-1F847 1F850-1F859 1F860-1F887 1F890-1F8AD 1F8B0-1F8B1 1F900-1FA53
1FA60-1FA6D 1FA70-1FA74 1FA78-1FA7C 1FA80-1FA86 1FA90-1FAAC 1FAB0-1FABA
1FAC0-1FAC5 1FAD0-1FAD9 1FAE0-1FAE7 1FAF0-1FAF6 1FB00-1FB92 1FB94-1FBCA
"""


def _class(ranges: str) -> str:
    """A regex class body of the code point ranges ``ranges``."""
    return "".join("-".join(chr(int(cp, 16)) for cp in r.split("-")) for r in ranges.split())


_MARK, _FORMAT, _SYMBOL = map(_class, (_MARK_RANGES, _FORMAT_RANGES, _SYMBOL_RANGES))
# The invisible controls, removed before NFC: the directional marks,
# embeddings and isolates, the byte order mark and the soft hyphen.
_INVISIBLE = dict.fromkeys([0x00AD, 0x200E, 0x200F, *range(0x202A, 0x202F),
                            *range(0x2066, 0x206A), 0xFEFF])
_BLOCK_CHARS = 1 << 16  # a block of lines ends at the first line end past this


@functools.cache
def _token_pattern() -> re.Pattern:
    """The tokens of a chunk that is not all alphanumeric (compiled on first
    use, as few stages need it).  UAX #29's Extend class (marks, format
    characters with ZWJ, the emoji modifiers) extends the token before it
    (WB4); a symbol right after a ZWJ joins it (WB3c); two regional
    indicators are one token (WB15/16)."""
    ext = rf"{_MARK}{_FORMAT}\U0001f3fb-\U0001f3ff"
    joined = rf"(?:(?<=\u200d)[{_SYMBOL}][{{}}]*)*"
    word = rf"[#@]?\w[\w{ext}]*" + joined.format(rf"\w{ext}")
    other = rf"(?:[\U0001f1e6-\U0001f1ff]{{2}}|[^\w\s])[{ext}]*" + joined.format(ext)
    return re.compile(f"{word}|{other}")


def _tokenize_block(lines: list[str]) -> tuple[list[str], list[int], list[int]]:
    """The tokenizer core: the tokens of ``lines`` laid end to end, each
    line's token count and each line's char count (rules: ``tokenize``), in
    one pass over the block.  Lines hold no ``\\n``, except the line of a
    one-line block."""
    text = "\n".join(lines)
    if not text.isascii():
        text = unicodedata.normalize("NFC", text.translate(_INVISIBLE))
    text = text.lower()
    if len(lines) == 1:
        lines = [text]
    else:  # "\n" is not case-ignorable, and NFC does not cross it
        n, lines = len(lines), text.split("\n") if lines else []
        if len(lines) != n:
            raise ValueError("a line of a block of lines holds '\\n'")
    tokens = text.split()
    if not tokens or "".join(tokens).isalnum():  # the common case, no pattern needed
        counts = list(map(len, map(str.split, lines)))
    else:
        per_line = list(map(_token_pattern().findall, lines))
        tokens = list(itertools.chain.from_iterable(per_line))
        counts = list(map(len, per_line))
    return tokens, counts, list(map(len, lines))


def _seqs(tokens: list[str], counts: list[int], chars: list[int]) -> list[TokenSeq]:
    """The TokenSeq of each line of a block ``_tokenize_block`` returned."""
    rest = iter(tokens)
    return [TokenSeq(tuple(itertools.islice(rest, n)), c) for n, c in zip(counts, chars)]


def _blocks(lines) -> Iterator[list[str]]:
    """``lines`` in blocks, each ending at the first line end past
    ``_BLOCK_CHARS`` characters."""
    block, size = [], 0
    for line in lines:
        block.append(line)
        size += len(line)
        if size > _BLOCK_CHARS:
            yield block
            block, size = [], 0
    if block:
        yield block


def tokenize(text: str) -> TokenSeq:
    """Normalize ``text`` into a TokenSeq.

    Rules: remove the invisible controls (``_INVISIBLE``), NFC-normalize,
    lowercase, split on Unicode whitespace, then split each chunk that is
    not all alphanumeric with ``_token_pattern``: a ``#`` or ``@`` glued to
    the word run after it, a run of alphanumeric or ``_`` characters, two
    regional indicators, or any other character alone, each extended as
    UAX #29 extends a word.  The char count is that of the text after the
    removal, normalized and lowercased, whitespace included.
    """
    return _seqs(*_tokenize_block([text]))[0]


def tokenize_lines(lines) -> Iterator[TokenSeq]:
    """``map(tokenize, lines)`` for lines that hold no ``\\n``, tokenized a
    block at a time."""
    return itertools.chain.from_iterable(_seqs(*_tokenize_block(block)) for block in _blocks(lines))


def _text_lines(lines: list[str]) -> list[str]:
    """The lines of ``lines`` (none holding ``\\n``) that have a
    non-whitespace character once the invisible controls are removed:
    exactly the lines the tokenizer makes a token of."""
    text = "\n".join(lines)
    seen = lines if text.isascii() else text.translate(_INVISIBLE).split("\n")
    return list(itertools.compress(lines, map(str.strip, seen)))


def extract_ngrams(seq: TokenSeq, n: int) -> collections.Counter:
    """Contiguous n-grams of ``seq`` with multiplicity, as a Counter of tuples."""
    if n < 1:
        raise ValueError("n must be >= 1")
    toks = seq.tokens
    return collections.Counter(toks[i : i + n] for i in range(len(toks) - n + 1))


# ---------------------------------------------------------------------------
# File formats (see README): all files are UTF-8, tab-separated where tabular.

INTENSITY_HEADER = ("id", "text", "affect", "score")


def _read_blocks(path) -> Iterator[list[str]]:
    """The lines of a UTF-8 text file, in blocks, one per read of
    ``_BLOCK_CHARS`` characters that ends a line: the one line rule of every
    reader.

    Lines end at ``\\n`` (``\\r\\n`` and a lone ``\\r`` read as ``\\n``); no other
    character ends a line, unlike ``str.splitlines``, which also breaks at
    ``\\x0c``, ``\\x85``, U+2028 and other characters a field may hold.  The
    lines are those of ``text.split("\\n")``: a file ending in ``\\n``, or an
    empty file, ends with an empty line.  One leading byte order mark
    (U+FEFF) is dropped, as the ``utf-8-sig`` codec does.
    """
    with open(path, encoding="utf-8-sig") as fh:
        head = []  # the start of a line that no block read so far has ended
        while chunk := fh.read(_BLOCK_CHARS):
            if "\n" not in chunk:
                head.append(chunk)
                continue
            lines = "".join([*head, chunk]).split("\n")
            head = [lines.pop()]
            yield lines
        yield ["".join(head)]


def _read_lines(path) -> Iterator[str]:
    """The lines of a UTF-8 text file (``_read_blocks``), one at a time."""
    return itertools.chain.from_iterable(_read_blocks(path))


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
    for triples that no word is empty (``_text_lines``: no non-whitespace
    character once the invisible controls are removed, which is exactly when
    the tokenizer makes no token of it).
    """
    lines = _read_lines(path)
    if task == "intensity":
        head = next(lines)
        if not head.strip():
            _fail(path, 1, "missing header row")
        header = tuple(head.split("\t"))
        if header not in (INTENSITY_HEADER, INTENSITY_HEADER[:3]):
            _fail(path, 1, f"bad header {header!r}")
        ncols, first_row = len(header), 2
    else:
        ncols, first_row = 5, 1
    first_line: dict[str, int] = {}
    for lineno, line in enumerate(lines, start=first_row):
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
                if not _text_lines([text]):
                    _fail(path, lineno, f"empty {name}")
        elif ncols == 4 and fields[3] != "NONE":
            try:
                gold = float(fields[3])
            except ValueError:
                _fail(path, lineno, f"bad score {fields[3]!r}")
            if not 0.0 <= gold <= 1.0:
                _fail(path, lineno, f"score {gold} outside [0, 1]")
        yield lineno, fields, gold


def load_lexicon(path) -> dict[str, tuple[TokenSeq, ...]]:
    """Load an emotion lexicon: ``#<emotion>`` headers, then one entry per line.

    Returns emotion -> its entries, both in file order.  Entries may be
    multi-word.  A line the tokenizer makes no token of is blank.  Duplicate
    entries within a section are rejected; every section must contain at
    least one entry.
    """
    entries: dict[str, list[TokenSeq]] = {}
    seen: dict[str, set] = {}
    current = None
    last_header_line = 0
    lines = [line.strip() for line in _read_lines(path)]
    words = tokenize_lines("" if line.startswith("#") else line for line in lines)
    for lineno, (stripped, word) in enumerate(zip(lines, words), start=1):
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
        if not word.tokens:
            continue
        if current is None:
            _fail(path, lineno, "entry before any #<emotion> header")
        if word.tokens in seen[current]:
            _fail(path, lineno, f"duplicate entry {stripped!r} in {current!r}")
        seen[current].add(word.tokens)
        entries[current].append(word)
    if current is None:
        _fail(path, 1, "no emotion sections found")
    if not entries[current]:
        _fail(path, last_header_line, f"emotion {current!r} has no entries")
    return {emo: tuple(words) for emo, words in entries.items()}


class Corpus:
    """The sentences of a one-sentence-per-line corpus file: its lines that
    have a non-whitespace character once the invisible controls are removed
    (``_text_lines``).  A pass reads and tokenizes the file a block of lines
    at a time (``_read_blocks``) and keeps no sentence: ``blocks`` yields
    each block's tokens laid end to end with each sentence's token count,
    and iterating yields each sentence's TokenSeq.  ``sentences`` tokenizes
    the whole file on first use and keeps the list."""

    def __init__(self, path):
        self.path = path

    @functools.cached_property
    def sentences(self) -> list[TokenSeq]:
        return list(self)

    def _tokenized(self) -> Iterator[tuple[list[str], list[int], list[int]]]:
        return (_tokenize_block(_text_lines(lines)) for lines in _read_blocks(self.path))

    def blocks(self) -> Iterator[tuple[list[str], list[int]]]:
        return (block[:2] for block in self._tokenized())

    def __iter__(self) -> Iterator[TokenSeq]:
        return itertools.chain.from_iterable(itertools.starmap(_seqs, self._tokenized()))


def load_corpus(path) -> Corpus:
    """The corpus of the file at ``path``, read when it is used: one pass over
    it holds one block of lines at a time."""
    return Corpus(path)


def load_corpus_sentences(path, indices) -> list[TokenSeq]:
    """``[load_corpus(path).sentences[i] for i in indices]``, tokenizing only
    those lines and keeping only those lines.  The first index outside
    ``range(n)`` for an n-sentence corpus raises ``IndexError(position in
    indices, n)``."""
    wanted = sorted({i for i in indices if i >= 0})
    found: dict[int, str] = {}  # index -> line, in index order
    n = 0
    for lines in _read_blocks(path):
        lines = _text_lines(lines)
        n += len(lines)
        for i in wanted[len(found) : bisect.bisect_left(wanted, n)]:
            found[i] = lines[i - n]  # counted from the block's end
    for pos, i in enumerate(indices):
        if i not in found:
            raise IndexError(pos, n)
    seqs = dict(zip(found, tokenize_lines(found.values())))
    return [seqs[i] for i in indices]


def lexicon_to_target(lexicon: dict[str, tuple[TokenSeq, ...]], emotions) -> TokenSeq:
    """Render the words of the requested emotions as one long token sequence.

    Concatenation follows lexicon file order (sections, then entries within a
    section), not the order of the request.
    """
    requested = set(emotions)
    if not requested:
        raise ValueError("no emotions requested")
    unknown = requested - set(lexicon)
    if unknown:
        raise ValueError(f"unknown emotions: {sorted(unknown)}")
    tokens: list[str] = []
    for emo, words in lexicon.items():
        if emo in requested:
            for word in words:
                tokens.extend(word.tokens)
    return TokenSeq.from_tokens(tokens)
