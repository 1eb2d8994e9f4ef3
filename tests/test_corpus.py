import re

import pytest
from hypothesis import given, strategies as st

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
)
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
