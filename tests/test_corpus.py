import re
import tempfile
from pathlib import Path

import pytest
import rtm.corpus
from hypothesis import given, settings, strategies as st

from rtm.corpus import (
    DataFormatError,
    TokenSeq,
    _dataset_rows,
    _read_lines,
    extract_ngrams,
    lexicon_to_target,
    load_corpus,
    load_corpus_sentences,
    load_lexicon,
    tokenize,
    tokenize_lines,
)
from rtm.interpretants import FdaConfig, select_interpretants
from rtm.pipeline import read_golds


class TestTokenize:
    def test_punctuation_split(self):
        seq = tokenize("Red apple!")
        assert seq.tokens == ("red", "apple", "!")
        assert seq.char_count == 10

    def test_empty(self):
        seq = tokenize("")
        assert seq.tokens == ()
        assert seq.char_count == 0

    def test_tweet_prefixes(self):
        # ':)' splits into two punctuation tokens; prefixes stay attached
        seq = tokenize("@sam #JOY :)")
        assert seq.tokens == ("@sam", "#joy", ":", ")")
        assert seq.char_count == 12

    def test_prefix_without_word(self):
        assert tokenize("# #").tokens == ("#", "#")
        assert tokenize("##joy").tokens == ("#", "#joy")

    def test_dotted_capital_i_counts_lowered_chars(self):
        # "İ" lowercases to "i" plus a combining dot, two code points from one
        # raw character; the count follows the lowered text, and the dot, a
        # mark, stays in its word
        seq = tokenize("İİ")
        assert seq.tokens == ("i\u0307i\u0307",)
        assert seq.char_count == 4

    @pytest.mark.parametrize("text, tokens", [
        ("مَرْحَبًا بِكُمْ", ("مَرْحَبًا", "بِكُمْ")),  # Arabic harakat
        ("cafe\u0301", ("café",)),  # decomposed, composed by NFC
        ("café", ("café",)),
        ("नमस्ते दुनिया", ("नमस्ते", "दुनिया")),  # Devanagari vowel signs and virama
        ("\u0301a #\u0301b", ("\u0301", "a", "#\u0301", "b")),  # nothing before, a '#'
    ])
    def test_combining_marks_stay_in_their_word(self, text, tokens):
        assert tokenize(text).tokens == tokens

    @given(st.text(" \t\x0b\x0c\x1c\x85\u2028\u3000a!#@", max_size=8))
    def test_no_token_exactly_when_no_non_whitespace(self, text):
        # the dataset row parser finds an empty word with str.split, untokenized
        assert (len(tokenize(text)) == 0) == (not text.split())

    def test_unicode_whitespace(self):
        assert tokenize("a b\tc").tokens == ("a", "b", "c")

    @given(st.lists(st.sampled_from(["red", "#tag", "@who", "!", "x1", ":", "don't"]), max_size=8))
    def test_idempotent_on_own_output(self, parts):
        first = tokenize(" ".join(parts))
        again = tokenize(" ".join(first.tokens))
        assert again.tokens == first.tokens

    @pytest.mark.parametrize("text, tokens", [
        ("مرحبا\u200f بكم", tokenize("مرحبا بكم").tokens),  # a right-to-left mark is removed
        ("می\u200cخواهم", ("می\u200cخواهم",)),  # ZWNJ (Cf) inside one word
        ("👍\U0001f3fd", ("👍\U0001f3fd",)),  # an emoji modifier extends
        ("🇪🇸", ("🇪🇸",)),  # two regional indicators
        ("👨\u200d👩\u200d👧", ("👨\u200d👩\u200d👧",)),  # ZWJ joins the next symbol
        ("ab\xadcd", ("abcd",)),  # a soft hyphen is removed
        ("e\xad\u0301", ("é",)),  # removed before NFC, which then composes
        ("🇪🇸🇫🇷🇩", ("🇪🇸", "🇫🇷", "🇩")),  # indicators pair from the left
        ("\u202bx\u202c \u2067y\u2069 \ufeffz", ("x", "y", "z")),
    ])
    def test_uax29_words(self, text, tokens):
        assert tokenize(text).tokens == tokens

    def test_char_count_after_removal(self):
        assert tokenize("ab\xadcd \u200e").char_count == 5


# Lines for the block tokenizer: whitespace (every str.split separator
# class), marks, '#'/'@', the removed controls, ZWNJ, ZWJ, emoji, a modifier,
# regional indicators, capital sigma (its lowercase depends on what follows)
# and a dotted capital I (two code points once lowered).
_LINE_CHARS = st.sampled_from(
    list(" \t\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u2028\u2029\u3000") + list("aZ9_#@!.")
    + ["\u0301", "\u064e", "\u093e", "\u200e", "\u200f", "\u202a", "\u202e", "\u2066",
       "\u2069", "\ufeff", "\xad", "\u200c", "\u200d", "👍", "👩", "\U0001f3fd",
       "\U0001f1ea", "\U0001f1f8", "Σ", "σ", "İ", "é", "e\u0301"])
_LINES = st.lists(st.lists(_LINE_CHARS, max_size=10).map("".join) | st.just(""), max_size=25)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_LINES, st.integers(1, 24))
def test_blocks_tokenize_as_lines_one_at_a_time(lines, block_chars):
    # Blocks of lines give each line the tokens and char count the line
    # gets alone, however the lines fall into blocks; the corpus reads the
    # same blocks from its file and skips the lines with no token.
    expected = [tokenize(line) for line in lines]
    assert all(tok and tok.split() == [tok] for seq in expected for tok in seq.tokens)
    kept = [seq for seq in expected if seq.tokens]
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        patch.setattr(rtm.corpus, "_BLOCK_CHARS", block_chars)
        assert list(tokenize_lines(lines)) == expected
        path = Path(tmp) / "c.txt"
        path.write_text("\n".join(lines), encoding="utf-8")
        corpus = load_corpus(path)
        assert corpus.sentences == kept
        blocks = list(corpus.blocks())
        assert [tok for tokens, _ in blocks for tok in tokens] == [
            tok for seq in kept for tok in seq.tokens]
        assert [n for _, counts in blocks for n in counts] == [len(seq) for seq in kept]
        assert load_corpus_sentences(path, list(range(len(kept)))[::-1]) == kept[::-1]


class TestTokenSeq:
    def test_rejects_bad_tokens(self):
        with pytest.raises(ValueError):
            TokenSeq(("a b",), 3)
        with pytest.raises(ValueError):
            TokenSeq(("",), 1)

    @pytest.mark.parametrize("bad", ["", "b\u00a0c", "b "])
    def test_bad_token_named(self, bad):
        # the one joined check finds the fault; the message names the token
        with pytest.raises(ValueError, match=re.escape(f"bad token {bad!r}: empty or contains "
                                                       "whitespace")):
            TokenSeq(("a", bad, "d"), 10)

    def test_char_count_floor(self):
        with pytest.raises(ValueError):
            TokenSeq(("a", "b", "c"), 1)

    def test_from_tokens(self):
        seq = TokenSeq.from_tokens(["a", "bc"])
        assert seq.char_count == 4 and len(seq) == 2


class TestNGrams:
    def test_unigrams_with_multiplicity(self):
        counts = extract_ngrams(TokenSeq.from_tokens(["a", "b", "a"]), 1)
        assert counts == {("a",): 2, ("b",): 1}

    def test_short_sequence(self):
        assert extract_ngrams(TokenSeq.from_tokens(["a", "b"]), 3) == {}

    def test_bigram_windows(self):
        counts = extract_ngrams(TokenSeq.from_tokens(["a", "b", "a", "b"]), 2)
        assert counts == {("a", "b"): 2, ("b", "a"): 1}

    @given(st.lists(st.sampled_from("abc"), max_size=10), st.integers(1, 4))
    def test_window_count(self, tokens, n):
        seq = TokenSeq.from_tokens(tokens)
        assert sum(extract_ngrams(seq, n).values()) == max(0, len(tokens) - n + 1)


def _rows(path, task):
    """(line number, fields, gold) of each row ``_dataset_rows`` yields."""
    return list(_dataset_rows(path, task))


class TestIntensityDataset:
    def test_load_in_order(self, tmp_path):
        path = tmp_path / "d.tsv"
        path.write_text(
            "id\ttext\taffect\tscore\n"
            "a\tgood day\tjoy\t0.0\n"
            "b\tbad day\tsadness\t0.5\n"
            "\n"
            "c\tok day\tjoy\t1.0\n"
        )
        assert _rows(path, "intensity") == [
            (2, ["a", "good day", "joy", "0.0"], 0.0),
            (3, ["b", "bad day", "sadness", "0.5"], 0.5),
            (5, ["c", "ok day", "joy", "1.0"], 1.0),
        ]
        assert read_golds(path, "intensity") == {"a": 0.0, "b": 0.5, "c": 1.0}

    def test_score_out_of_range(self, tmp_path):
        path = tmp_path / "d.tsv"
        for score, message in [("1.2", r"score 1.2 outside \[0, 1\]"),
                               ("-0.1", r"score -0.1 outside \[0, 1\]"),
                               ("high", "bad score 'high'")]:
            path.write_text(f"id\ttext\taffect\tscore\na\they\tjoy\t{score}\n")
            with pytest.raises(DataFormatError, match=rf"d.tsv:2: {message}$"):
                _rows(path, "intensity")

    def test_none_and_missing_column(self, tmp_path):
        path = tmp_path / "d.tsv"
        path.write_text("id\ttext\taffect\tscore\na\they\tjoy\tNONE\n")
        assert _rows(path, "intensity") == [(2, ["a", "hey", "joy", "NONE"], None)]
        path.write_text("id\ttext\taffect\na\they\tjoy\n")
        assert _rows(path, "intensity") == [(2, ["a", "hey", "joy"], None)]
        assert read_golds(path, "intensity") == {"a": None}

    def test_header_required(self, tmp_path):
        path = tmp_path / "d.tsv"
        for text, message in [("a\they\tjoy\t0.5\n", "d.tsv:1: bad header"),
                              ("\n", "d.tsv:1: missing header row")]:
            path.write_text(text)
            with pytest.raises(DataFormatError, match=message):
                _rows(path, "intensity")

    def test_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "d.tsv"
        path.write_text(
            "id\ttext\taffect\tscore\na\tone\tjoy\t0.1\n\nb\ttwo\tjoy\t0.2\na\tthree\tjoy\t0.3\n"
        )
        with pytest.raises(DataFormatError, match=r"d.tsv:5: duplicate id 'a' \(first on line 2\)"):
            _rows(path, "intensity")
        path.write_text("id\ttext\taffect\tscore\na\tone\tjoy\t0.1\n#b\ttwo\tjoy\t0.2\n")
        with pytest.raises(DataFormatError, match=r"d.tsv:3: id '#b' starts with '#'"):
            _rows(path, "intensity")


class TestTripleDataset:
    def test_load(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("q1\tapple\tbanana\tred\t1\nq2\tdog\tcat\tbark\tNONE\nq3\tx\ty\tz\t0\n")
        assert _rows(path, "triples") == [(1, ["q1", "apple", "banana", "red", "1"], 1),
                                          (2, ["q2", "dog", "cat", "bark", "NONE"], None),
                                          (3, ["q3", "x", "y", "z", "0"], 0)]
        assert read_golds(path, "triples") == {"q1": 1.0, "q2": None, "q3": 0.0}

    def test_bad_label_names_line(self, tmp_path):
        path = tmp_path / "t.tsv"
        for label in ["2", "", "yes"]:
            path.write_text(f"q1\tapple\tbanana\tred\t1\nq2\tdog\tcat\tbark\t{label}\n")
            with pytest.raises(DataFormatError, match=rf"t.tsv:2: label '{label}' not in"):
                _rows(path, "triples")

    def test_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("q1\tapple\tbanana\tred\t1\nq2\tdog\tcat\tbark\t0\nq1\tsun\tmoon\thot\t1\n")
        with pytest.raises(DataFormatError, match=r"t.tsv:3: duplicate id 'q1' \(first on line 1\)"):
            _rows(path, "triples")
        path.write_text("q1\tapple\tbanana\tred\t1\n#q2\tdog\tcat\tbark\t0\n")
        with pytest.raises(DataFormatError, match=r"t.tsv:2: id '#q2' starts with '#'"):
            _rows(path, "triples")

    def test_word_of_removed_controls_rejected(self, tmp_path):
        # no token once the invisible controls go, so it is empty
        path = tmp_path / "t.tsv"
        path.write_text("q0\tx\ty\tz\t0\nq1\t\u200f\xad\ty\tz\t1\n", encoding="utf-8")
        with pytest.raises(DataFormatError, match=r"t.tsv:2: empty word1"):
            _rows(path, "triples")

    @pytest.mark.parametrize("col, name", [(1, "word1"), (2, "word2"), (3, "attribute")])
    def test_empty_word_rejected(self, tmp_path, col, name):
        fields = ["q1", "apple", "banana", "red", "1"]
        fields[col] = " \u3000"
        path = tmp_path / "t.tsv"
        path.write_text("q0\tx\ty\tz\t0\n" + "\t".join(fields) + "\n", encoding="utf-8")
        with pytest.raises(DataFormatError, match=rf"t.tsv:2: empty {name}"):
            _rows(path, "triples")


class TestLexicon:
    def test_sections(self, tmp_path):
        path = tmp_path / "lex.txt"
        path.write_text("#joy\nglad\nmerry\ncheerful\n#sadness\nblue\n")
        lex = load_lexicon(path)
        assert len(lex["joy"]) == 3
        assert list(lex) == ["joy", "sadness"]

    def test_multiword_entries(self, tmp_path):
        path = tmp_path / "lex.txt"
        path.write_text("#joy\nover the moon\n")
        lex = load_lexicon(path)
        assert lex["joy"][0].tokens == ("over", "the", "moon")

    def test_duplicate_entry_rejected(self, tmp_path):
        path = tmp_path / "lex.txt"
        path.write_text("#joy\nglad\nglad\n")
        with pytest.raises(DataFormatError, match="lex.txt:3"):
            load_lexicon(path)

    def test_empty_section_rejected(self, tmp_path):
        path = tmp_path / "lex.txt"
        path.write_text("#joy\n#sadness\nblue\n")
        with pytest.raises(DataFormatError, match="no entries"):
            load_lexicon(path)

    def test_line_of_removed_controls_is_blank(self, tmp_path):
        path = tmp_path / "lex.txt"
        path.write_text("\u200e\n#joy\n\ufeff\xad\nglad\n\u2066 \u2069\n", encoding="utf-8")
        assert [w.tokens for w in load_lexicon(path)["joy"]] == [("glad",)]

    def test_entry_before_header_rejected(self, tmp_path):
        path = tmp_path / "lex.txt"
        path.write_text("glad\n#joy\nmerry\n")
        with pytest.raises(DataFormatError, match="before any"):
            load_lexicon(path)


class TestLexiconToTarget:
    def _lex(self, tmp_path):
        path = tmp_path / "lex.txt"
        path.write_text("#joy\nglad\nmerry\n#sadness\nblue\ndown\n")
        return load_lexicon(path)

    def test_single_emotion(self, tmp_path):
        assert lexicon_to_target(self._lex(tmp_path), {"joy"}).tokens == ("glad", "merry")

    def test_file_order(self, tmp_path):
        target = lexicon_to_target(self._lex(tmp_path), {"sadness", "joy"})
        assert target.tokens == ("glad", "merry", "blue", "down")

    def test_empty_request(self, tmp_path):
        with pytest.raises(ValueError):
            lexicon_to_target(self._lex(tmp_path), set())

    def test_unknown_emotion(self, tmp_path):
        with pytest.raises(ValueError, match="anger"):
            lexicon_to_target(self._lex(tmp_path), {"anger"})


class TestCorpus:
    def test_skips_empty_lines(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("a b\n\n   \nc d\n")
        corpus = load_corpus(path)
        assert len(corpus.sentences) == 2
        assert corpus.sentences[1].tokens == ("c", "d")

    def test_selected_sentences_match_full_load(self, tmp_path):
        # whitespace-only lines (ASCII, \r, ideographic space, \x1c) hold no
        # sentence; whitespace inside a line separates tokens
        path = tmp_path / "c.txt"
        lines = ["a b", "", "  \t", "\r", "c d\r", "\u3000", "\x1c", "e\u3000f",
                 " \x1cg ", "\x85\u2028", "H i!", "\x0b\x0c", "j"]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        corpus = load_corpus(path)
        assert [s.tokens for s in corpus.sentences] == [
            ("a", "b"), ("c", "d"), ("e", "f"), ("g",), ("h", "i", "!"), ("j",)]
        indices = [5, 0, 3, 3, 1]
        assert load_corpus_sentences(path, indices) == [corpus.sentences[i] for i in indices]

    def test_line_of_removed_controls_holds_no_sentence(self, tmp_path):
        # Both stages skip it, so an index names one sentence in both, and no
        # sentence has length 0, which FDA would divide by (0 ** 0.5).
        path = tmp_path / "c.txt"
        lines = ["a b", "\u200e", "\ufeff\xad \u2066", "c", "\u200f\u200f", "\u2069"]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        corpus = load_corpus(path)
        assert [s.tokens for s in corpus.sentences] == [("a", "b"), ("c",)]
        assert load_corpus_sentences(path, [1, 0]) == corpus.sentences[::-1]
        with pytest.raises(IndexError):
            load_corpus_sentences(path, [2])
        selection = select_interpretants(corpus, [tokenize("a c")], FdaConfig(budget=2))
        assert selection.selected_indices == [1, 0]
        assert selection.selection_scores == [1.0, 1 / 2 ** 0.5]

    def test_loaded_corpus_reads_its_file_per_pass(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("a b\n\nc\n")
        corpus = load_corpus(path)
        assert [s.tokens for s in corpus] == [("a", "b"), ("c",)]
        path.write_text("d\n")  # a pass reads the file as it is then
        assert [s.tokens for s in corpus] == [("d",)]
        assert len(corpus.sentences) == 1 and corpus.sentences[0].tokens == ("d",)


@pytest.mark.parametrize("text", ["", "\n", "a", "a\n", "a\nb", "a\r\nb\r", "a\rb\r\n\n", "\r",
                                  "x\x0cy\x85z\u2028w\n", "\n\n"])
def test_lines_read_one_at_a_time_are_the_split_lines(tmp_path, text):
    path = tmp_path / "f.txt"
    path.write_bytes(text.encode("utf-8"))
    whole = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    assert list(_read_lines(path)) == whole


@pytest.mark.parametrize("block_chars", [1, 2, 3])
def test_lines_read_in_small_blocks_are_the_split_lines(tmp_path, monkeypatch, block_chars):
    # reads that end inside a line, inside "\r\n" and just after a "\n"
    monkeypatch.setattr(rtm.corpus, "_BLOCK_CHARS", block_chars)
    text = "\ufeffab\r\ncd\r\r\nefgh\n\nx\x0cy\x85z\u2028w\rlast"
    path = tmp_path / "f.txt"
    path.write_bytes(text.encode("utf-8"))
    whole = text[1:].replace("\r\n", "\n").replace("\r", "\n").split("\n")
    assert list(_read_lines(path)) == whole
