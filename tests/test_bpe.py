"""Byte-level BPE: byte mapping, pretokenization, merges, round-trips.

Small vocabularies are written out by hand so every expected token id
is derivable by eye; the trained fixture from conftest exercises the
full load / encode / decode path on arbitrary unicode.
"""

from __future__ import annotations

import json
import random
import sys
import tempfile
import tracemalloc
from collections import Counter
from itertools import chain
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import regex
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import TRAINING_TEXT, apply_merge
from tokscope import bpe, byte_to_unicode, decode, encode, encode_lines, load_bpe, pretokenize


def write_pair(tmp_path, vocab: dict[str, int], merges: list[str], header=True):
    vocab_path = tmp_path / "vocab.json"
    merges_path = tmp_path / "merges.txt"
    vocab_path.write_text(json.dumps(vocab, ensure_ascii=False), encoding="utf-8")
    lines = (["#version: 0.2"] if header else []) + merges
    merges_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return vocab_path, merges_path


TOY_VOCAB = {"l": 0, "o": 1, "w": 2, "e": 3, "r": 4, "lo": 5, "low": 6, "er": 7}
TOY_MERGES = ["l o", "lo w", "e r"]


class TestByteAlphabet:
    def test_bijection_over_all_bytes(self):
        mapping = byte_to_unicode()
        assert len(mapping) == 256
        assert len(set(mapping.values())) == 256

    def test_printable_bytes_map_to_themselves(self):
        mapping = byte_to_unicode()
        for ch in "aZ09!~":
            assert mapping[ord(ch)] == ch

    def test_displaced_bytes(self):
        mapping = byte_to_unicode()
        assert mapping[ord(" ")] == "Ġ"
        assert mapping[ord("\n")] == "Ċ"
        assert mapping[0xAD] == chr(323)


class TestPretokenize:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("Hello world!", ["Hello", " world", "!"]),
            ("don't", ["don", "'t"]),
            ("a  b", ["a", " ", " b"]),
            ("abc123", ["abc", "123"]),
            ("  leading", [" ", " leading"]),
            ("tail  ", ["tail", "  "]),
            ("x\n\ny", ["x", "\n", "\n", "y"]),
        ],
    )
    def test_known_splits(self, text, expected):
        assert pretokenize(text) == expected

    @given(st.text(max_size=200))
    def test_pieces_concatenate_to_input(self, text):
        assert "".join(pretokenize(text)) == text


class TestLoadErrors:
    def test_duplicate_id_rejected(self, tmp_path):
        vocab_path, merges_path = write_pair(tmp_path, {"a": 0, "b": 0}, [])
        with pytest.raises(ValueError, match="id 0 assigned to both"):
            load_bpe(vocab_path, merges_path)

    def test_invalid_id_rejected(self, tmp_path):
        vocab_path, merges_path = write_pair(tmp_path, {"a": -1}, [])
        with pytest.raises(ValueError, match="invalid id"):
            load_bpe(vocab_path, merges_path)

    def test_id_beyond_int64_rejected(self, tmp_path):
        largest = 2**63 - 1
        vocab_path, merges_path = write_pair(tmp_path, {"a": 0, "b": largest}, [])
        assert load_bpe(vocab_path, merges_path).ids.tolist() == [0, largest]
        vocab_path, merges_path = write_pair(tmp_path, {"a": 0, "b": largest + 1}, [])
        with pytest.raises(ValueError, match=f"token 'b' has id {largest + 1}, "
                                             "which exceeds the int64 range"):
            load_bpe(vocab_path, merges_path)

    def test_malformed_vocab_json(self, tmp_path):
        vocab_path = tmp_path / "vocab.json"
        vocab_path.write_text("{not json", encoding="utf-8")
        merges_path = tmp_path / "merges.txt"
        merges_path.write_text("", encoding="utf-8")
        with pytest.raises(ValueError, match="malformed JSON"):
            load_bpe(vocab_path, merges_path)

    def test_vocab_must_be_object(self, tmp_path):
        vocab_path = tmp_path / "vocab.json"
        vocab_path.write_text("[1, 2]", encoding="utf-8")
        merges_path = tmp_path / "merges.txt"
        merges_path.write_text("", encoding="utf-8")
        with pytest.raises(ValueError, match="JSON object"):
            load_bpe(vocab_path, merges_path)

    @pytest.mark.parametrize("vocab", [{"a": True}, {"a": True, "b": 1}, {"a": False}])
    def test_boolean_id_rejected(self, tmp_path, vocab):
        vocab_path, merges_path = write_pair(tmp_path, vocab, [])
        with pytest.raises(ValueError, match="token 'a' has invalid id"):
            load_bpe(vocab_path, merges_path)

    def test_merge_part_must_exist(self, tmp_path):
        vocab_path, merges_path = write_pair(tmp_path, {"a": 0, "ab": 1}, ["a b"])
        with pytest.raises(ValueError, match="line 2: 'b' is not in the vocabulary"):
            load_bpe(vocab_path, merges_path)

    def test_merge_result_must_exist(self, tmp_path):
        vocab_path, merges_path = write_pair(tmp_path, {"a": 0, "b": 1}, ["a b"])
        with pytest.raises(ValueError, match="line 2.*not in the vocabulary"):
            load_bpe(vocab_path, merges_path)

    def test_three_field_merge_line(self, tmp_path):
        vocab_path, merges_path = write_pair(
            tmp_path, {"a": 0, "b": 1, "ab": 2}, ["a b extra"]
        )
        with pytest.raises(ValueError, match="two fields"):
            load_bpe(vocab_path, merges_path)

    def test_duplicate_merge_rejected(self, tmp_path):
        vocab_path, merges_path = write_pair(
            tmp_path, {"a": 0, "b": 1, "ab": 2}, ["a b", "a b"]
        )
        with pytest.raises(ValueError, match="duplicate merge"):
            load_bpe(vocab_path, merges_path)

    def test_header_is_optional(self, tmp_path):
        vocab = {"a": 0, "b": 1, "ab": 2}
        for sub in ("h", "n"):
            (tmp_path / sub).mkdir()
        tok_h = load_bpe(*write_pair(tmp_path / "h", vocab, ["a b"], header=True))
        tok_n = load_bpe(*write_pair(tmp_path / "n", vocab, ["a b"], header=False))
        for tok in (tok_h, tok_n):
            # The key of (a, b) over three dense indices is 0 * (3 + 1) + 1.
            assert tok.pair_keys.tolist() == [1]
            assert tok.pair_ranks.tolist() == [0]
            assert tok.rank_merged.tolist() == [2]


class TestEncode:
    def test_hand_derived_merge_sequence(self, tmp_path):
        vocab_path, merges_path = write_pair(tmp_path, TOY_VOCAB, TOY_MERGES)
        tok = load_bpe(vocab_path, merges_path)
        seq = encode(tok, "lower")
        assert seq.tokens.tolist() == [6, 7]
        assert decode(tok, seq) == "lower"

    def test_all_occurrences_merge_in_one_pass(self, tmp_path):
        vocab = {"a": 0, "b": 1, "ab": 2, "abab": 3}
        vocab_path, merges_path = write_pair(tmp_path, vocab, ["a b", "ab ab"])
        tok = load_bpe(vocab_path, merges_path)
        # Pass 1 fuses both "a b" occurrences, pass 2 joins the results.
        assert encode(tok, "abab").tokens.tolist() == [3]
        assert encode(tok, "ababab").tokens.tolist() == [3, 2]

    def test_lowest_rank_takes_precedence(self, tmp_path):
        vocab = {"a": 0, "b": 1, "c": 2, "bc": 3, "ab": 4}
        vocab_path, merges_path = write_pair(tmp_path, vocab, ["b c", "a b"])
        tok = load_bpe(vocab_path, merges_path)
        assert encode(tok, "abc").tokens.tolist() == [0, 3]

    def test_missing_base_byte_reported(self, tmp_path):
        vocab_path, merges_path = write_pair(tmp_path, {"a": 0}, [])
        tok = load_bpe(vocab_path, merges_path)
        with pytest.raises(ValueError, match="inconsistent"):
            encode(tok, "ax")

    def test_source_name_recorded(self, tmp_path):
        vocab_path, merges_path = write_pair(tmp_path, TOY_VOCAB, TOY_MERGES)
        tok = load_bpe(vocab_path, merges_path)
        assert encode(tok, "lower", name="toy").source_tokenizer == "toy"

    def test_empty_text_encodes_to_empty_stream(self, tmp_path):
        vocab_path, merges_path = write_pair(tmp_path, TOY_VOCAB, TOY_MERGES)
        tok = load_bpe(vocab_path, merges_path)
        assert len(encode(tok, "")) == 0


class TestDecode:
    def test_unknown_id_rejected(self, tmp_path):
        vocab_path, merges_path = write_pair(tmp_path, TOY_VOCAB, TOY_MERGES)
        tok = load_bpe(vocab_path, merges_path)
        with pytest.raises(ValueError, match="unknown token id 99"):
            decode(tok, [6, 99])

    def test_accepts_plain_iterables(self, tmp_path):
        vocab_path, merges_path = write_pair(tmp_path, TOY_VOCAB, TOY_MERGES)
        tok = load_bpe(vocab_path, merges_path)
        assert decode(tok, [6, 7]) == "lower"

    def test_token_outside_byte_alphabet(self, tmp_path):
        tok = load_bpe(*write_pair(tmp_path, {"☃": 0}, []))
        with pytest.raises(ValueError, match="byte alphabet"):
            decode(tok, [0])


class TestTrainedRoundTrip:
    def test_mixed_script_round_trip(self, trained_bpe):
        tok, _, _ = trained_bpe
        text = "Die Katze schläft.  Чёрный кот 猫が好き 123 !?"
        assert decode(tok, encode(tok, text)) == text

    @settings(deadline=None)
    @given(st.text(max_size=120))
    def test_arbitrary_unicode_round_trip(self, trained_bpe, text):
        tok, _, _ = trained_bpe
        assert decode(tok, encode(tok, text)) == text

    def test_loading_is_deterministic(self, trained_bpe):
        _, vocab_path, merges_path = trained_bpe
        a = load_bpe(vocab_path, merges_path)
        b = load_bpe(vocab_path, merges_path)
        assert a.id_to_token == b.id_to_token
        assert a.id_text == b.id_text
        for field in ("ids", "byte_index", "pair_keys", "pair_ranks", "rank_merged"):
            assert np.array_equal(getattr(a, field), getattr(b, field))

    def test_tokenizer_is_read_only(self, trained_bpe):
        tok, _, _ = trained_bpe
        with pytest.raises(ValueError, match="read-only"):
            tok.pair_keys[0] = 0
        with pytest.raises(TypeError):
            tok.id_to_token[0] = "x"


def reference_encode(text, vocab_path, merges_path) -> list[int]:
    """BPE over the files' token strings: the lowest-rank pair merges first."""
    vocab = json.loads(vocab_path.read_text(encoding="utf-8"))
    lines = merges_path.read_text(encoding="utf-8").splitlines()[1:]
    ranks = {tuple(line.split()): rank for rank, line in enumerate(lines)}
    enc = byte_to_unicode()
    ids = []
    for piece in pretokenize(text):
        symbols = tuple(enc[b] for b in piece.encode("utf-8"))
        while pairs := [p for p in zip(symbols, symbols[1:]) if p in ranks]:
            symbols = apply_merge(symbols, min(pairs, key=ranks.__getitem__))
        ids.extend(vocab[s] for s in symbols)
    return ids


class TestTrainedIds:
    # Arbitrary text rarely meets a multi-byte merge, so words of the
    # training text are drawn too.
    @settings(deadline=None)
    @given(
        st.text(max_size=120)
        | st.lists(st.sampled_from(TRAINING_TEXT.split()), max_size=20).map(" ".join)
    )
    def test_encode_matches_string_reference(self, trained_bpe, text):
        tok, vocab_path, merges_path = trained_bpe
        expected = reference_encode(text, vocab_path, merges_path)
        assert encode(tok, text).tokens.tolist() == expected


# Pieces that recur within a text, with tabs, runs of spaces, trailing
# whitespace, several scripts and emoji between them.
MIXED_PIECES = [
    "the", " the", " quick", " schläft", "Чёрный", " кот", "猫が好き", "。",
    "🙂", " 🚀", "🎉🎉", "123", " 2.71828", "!!", "'ll", "\t", " ", "  ", "\t ",
]


class TestEncodeLine:
    @settings(deadline=None)
    @given(st.lists(
        st.text(max_size=120)
        | st.lists(st.sampled_from(MIXED_PIECES), max_size=30).map("".join),
        max_size=5,
    ))
    def test_matches_encode(self, trained_bpe, texts):
        tok, _, _ = trained_bpe
        expected = [" ".join(map(str, encode(tok, t).tokens.tolist())) for t in texts]
        # Texts repeat, so later ones read pieces from the call's memo.
        assert list(encode_lines(tok, texts + texts)) == expected + expected

    def test_empty_text_is_an_empty_line(self, trained_bpe):
        tok, _, _ = trained_bpe
        assert list(encode_lines(tok, ["", "the", ""]))[::2] == ["", ""]
        assert list(encode_lines(tok, [])) == []

    def test_lines_across_batches_match_encode(self, trained_bpe):
        tok, _, _ = trained_bpe
        words = TRAINING_TEXT.split()
        rng = random.Random(7)

        def text(chars):
            # Numbers make pieces that no earlier batch has merged.
            out = []
            while sum(map(len, out)) < chars:
                out.append(rng.choice(words) if rng.random() < 0.8 else str(rng.randrange(10**6)))
            return " ".join(out)

        half = bpe.BATCH_CHARS // 2
        texts = [text(40), text(half), text(half), text(40), text(half), "", text(3 * half)]
        expected = [" ".join(map(str, encode(tok, t).tokens.tolist())) for t in texts]
        assert list(encode_lines(tok, texts)) == expected


def greedy_merge(byte_ids, merges, piece):
    """The ids of one piece: fuse every occurrence of the adjacent pair of
    lowest rank, left to right, until no adjacent pair has a rank.

    `merges` maps (left id, right id) to (rank, merged id).
    """
    ids = [byte_ids[b] for b in piece.encode("utf-8")]
    while len(ids) > 1:
        best = None
        for pair in zip(ids, ids[1:]):
            found = merges.get(pair)
            if found is not None and (best is None or found < best):
                best, (left, right) = found, pair
        if best is None:
            break
        out, i = [], 0
        while i < len(ids):
            if i + 1 < len(ids) and ids[i] == left and ids[i + 1] == right:
                out.append(best[1])
                i += 2
            else:
                out.append(ids[i])
                i += 1
        ids = out
    return ids


BYTE = byte_to_unicode()
# One-, two- and three-byte UTF-8 characters; the space's byte is displaced.
ALPHABET = "ab é猫"
SYMBOLS = list(dict.fromkeys(BYTE[b] for b in ALPHABET.encode("utf-8")))
E1, E2 = (BYTE[b] for b in "é".encode("utf-8"))
C1, C2, C3 = (BYTE[b] for b in "猫".encode("utf-8"))


@st.composite
def merge_lists(draw):
    """Merges over the alphabet's byte symbols, in any order, so a merge may
    come before the merge that makes one of its parts."""
    tokens, merges = list(SYMBOLS), []
    for _ in range(draw(st.integers(0, 16))):
        pair = (draw(st.sampled_from(tokens)), draw(st.sampled_from(tokens)))
        if pair not in merges:
            merges.append(pair)
            tokens.append(pair[0] + pair[1])
    return draw(st.permutations(merges))


PIECE_LISTS = st.lists(
    st.text(ALPHABET, min_size=1, max_size=10)
    | st.tuples(st.sampled_from(ALPHABET), st.integers(2, 7)).map(lambda cn: cn[0] * cn[1]),
    min_size=1,
    max_size=60,
)


class TestBatchMerge:
    """The merge of many pieces at once against the per-piece greedy loop."""

    @settings(deadline=None, max_examples=150)
    @given(merges=merge_lists(), pieces=PIECE_LISTS, id_seed=st.integers(0, 2**32 - 1))
    @example(  # merges listed before the merge that makes their part
        merges=[("ab", "a"), ("ba", "b"), ("a", "b"), ("b", "a")],
        pieces=["aba", "ab", "bab", "abab", "ba"], id_seed=0,
    )
    @example(  # self-pairs on runs of 2-7 equal bytes
        merges=[("a", "a"), ("aa", "aa"), ("aa", "a"), ("b", "b"), ("bb", "b")],
        pieces=["a" * n for n in range(2, 8)] + ["b" * n for n in range(2, 8)] + ["baaab"],
        id_seed=1,
    )
    @example(  # one-byte and multi-byte UTF-8 pieces
        merges=[(E1, E2), (C1, C2), (C1 + C2, C3), ("Ġ", E1 + E2), ("a", E1 + E2)],
        pieces=["a", "b", " ", "é", " é", "aé", "猫", "猫猫", "é猫"], id_seed=2,
    )
    @example(  # many pieces per call
        merges=[("a", "b"), ("ab", "a"), ("b", "b"), ("Ġ", "ab"), ("a", "a")],
        pieces=[ALPHABET[i % 5] * (1 + i % 7) + ALPHABET[i * 3 % 5] + "ab" * (i % 4)
                for i in range(400)],
        id_seed=3,
    )
    def test_matches_greedy_oracle(self, merges, pieces, id_seed):
        tokens = list(dict.fromkeys([*SYMBOLS, *(left + right for left, right in merges)]))
        # Sparse, shuffled ids: the merge works on dense indices.
        vocab = dict(zip(tokens, random.Random(id_seed).sample(range(2**40), len(tokens))))
        with tempfile.TemporaryDirectory() as tmp:
            tok = load_bpe(*write_pair(Path(tmp), vocab, [f"{l} {r}" for l, r in merges]))
        byte_ids = {b: vocab[BYTE[b]] for b in ALPHABET.encode("utf-8")}
        table = {(vocab[l], vocab[r]): (rank, vocab[l + r]) for rank, (l, r) in enumerate(merges)}

        merged, ends = bpe._merge(tok, pieces)
        got = [part.tolist() for part in np.split(tok.ids[merged], ends[:-1])]
        assert got == [greedy_merge(byte_ids, table, piece) for piece in pieces]
        text = "".join(pieces)
        assert encode(tok, text).tokens.tolist() == [
            i for piece in pretokenize(text) for i in greedy_merge(byte_ids, table, piece)]

    def test_no_pieces_and_unknown_bytes(self, tmp_path):
        tok = load_bpe(*write_pair(tmp_path, {"a": 5, "b": 9, "ab": 7}, ["a b"]))
        merged, ends = bpe._merge(tok, [])
        assert merged.tolist() == ends.tolist() == []
        assert bpe._merge(tok, ["ab", "ba", "ac", "ab"]) is None


# Blanks that join words or stand at a text's ends: the space, runs of it,
# and whitespace that the pattern's \s matches (tab, U+00A0, U+0085,
# U+2028, U+3000) or that only str.isspace takes (U+001C).
BLANKS = [" ", " ", " ", "  ", "\t", " \t", "\u00a0", " \u00a0", "\u0085", "\u2028",
          "\u3000", " \u3000", "\u001c", " \u001c"]
WORDS = st.sampled_from(
    [*TRAINING_TEXT.split(), "'s", "x's", "123", "猫", "🙂", "a\tb", "c\u001cd", "\u00ad"]
) | st.text(max_size=6)


@st.composite
def blank_joined_texts(draw):
    """Words joined by blanks, with a blank at either end or not."""
    parts = [draw(st.sampled_from(BLANKS))] if draw(st.booleans()) else []
    for i, word in enumerate(draw(st.lists(WORDS, max_size=12))):
        if i:
            parts.append(draw(st.sampled_from(BLANKS)))
        parts.append(word)
    if draw(st.booleans()):
        parts.append(draw(st.sampled_from(BLANKS)))
    return "".join(parts)


EACH_WORD_PATH_CALL = pytest.mark.parametrize("run", [
    lambda tok, texts: sum(1 for _ in encode_lines(tok, texts)),
    lambda tok, texts: bpe.count_encoded(tok, texts),
], ids=["encode_lines", "count_encoded"])


class TestWordPath:
    """Texts cut at their spaces encode like the texts pre-tokenized whole."""

    @given(blank_joined_texts())
    @example("the dog's  bone\u3000 ran")
    def test_words_pretokenize_like_their_text(self, text):
        words = bpe._words(text)
        if words is not None:
            later = chain.from_iterable(pretokenize(" " + w) for w in words[1:])
            assert pretokenize(text) == [*pretokenize(words[0]), *later]

    @pytest.mark.parametrize("text, words", [
        ("a b", ["a", "b"]), ("a\u00adb c", ["a\u00adb", "c"]), ("a\tb c", ["a\tb", "c"]),
        ("", None), (" a", None), ("a ", None), ("a  b", None), ("a \tb", None),
        ("a\u3000 b", None), ("a \u001cb", None),
    ])
    def test_which_texts_take_the_word_path(self, text, words):
        assert bpe._words(text) == words

    @settings(deadline=None, max_examples=150)
    @given(texts=st.lists(blank_joined_texts(), max_size=12), batch_chars=st.integers(1, 120))
    @example(texts=["the cat", " the cat", "the cat ", "the  cat", "cat the"], batch_chars=8)
    def test_lines_and_counts_match_each_text_encoded_whole(self, trained_bpe, texts, batch_chars):
        tok, _, _ = trained_bpe
        texts = texts + texts  # later texts read their words from the call's memos
        encoded = [encode(tok, text).tokens.tolist() for text in texts]
        with mock.patch.object(bpe, "BATCH_CHARS", batch_chars):
            lines = list(encode_lines(tok, texts))
            counts = bpe.count_encoded(tok, texts)
        assert lines == [" ".join(map(str, e)) for e in encoded]
        expected = np.zeros(len(tok.ids), dtype=np.int64)
        for token, count in Counter(chain.from_iterable(encoded)).items():
            expected[tok.ids.tolist().index(token)] = count
        assert counts.dtype == np.int64
        np.testing.assert_array_equal(counts, expected)

    def test_every_character_the_pattern_takes_for_whitespace_is_isspace(self):
        every = "".join(map(chr, range(sys.maxunicode + 1)))
        blanks = regex.compile(r"\s", bpe._PRETOKENIZER.flags).findall(every)
        assert len(blanks) > 20
        assert all(c.isspace() for c in blanks)

    @EACH_WORD_PATH_CALL
    def test_memory_grows_with_distinct_words_not_repeats(self, trained_bpe, run):
        tok, _, _ = trained_bpe

        def peak(n_texts, n_words):
            rng = random.Random(0)
            letters = "abcdefghijklmnopqrstuvwxyz"
            words = ["".join(rng.choices(letters, k=6)) for _ in range(n_words)]
            texts = (" ".join(rng.choices(words, k=20)) for _ in range(n_texts))
            tracemalloc.start()
            try:
                run(tok, texts)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        few = peak(1_000, 500)
        assert peak(10_000, 500) < few + 100_000
        assert peak(1_000, 20_000) > few + 1_000_000

    def test_counting_holds_no_more_than_encoding(self, trained_bpe):
        # Counting holds each distinct word and piece once, with its count,
        # and merges the distinct pieces a slice at a time; encoding holds
        # each distinct word and piece with its ids as text.
        tok, _, _ = trained_bpe
        rng = random.Random(1)
        letters = "abcdefghijklmnopqrstuvwxyz"
        words = ["".join(rng.choices(letters, k=rng.randint(3, 9))) for _ in range(30_000)]
        texts = [" ".join(rng.choices(words, k=30)) for _ in range(2_000)]

        def peak(run):
            tracemalloc.start()
            try:
                run(tok, iter(texts))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        encoding = peak(lambda tok, texts: sum(1 for _ in encode_lines(tok, texts)))
        assert peak(bpe.count_encoded) <= 1.1 * encoding

    @EACH_WORD_PATH_CALL
    def test_one_batch_is_held_at_a_time(self, trained_bpe, run):
        tok, _, _ = trained_bpe
        line = "the quick brown fox jumps over the lazy dogs"

        def peak(n_batches):
            n_texts = n_batches * (bpe.BATCH_CHARS // len(line) + 1)
            tracemalloc.start()
            try:
                run(tok, (line for _ in range(n_texts)))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # Two batches held at once would take about twice the peak of one.
        assert peak(6) < 1.25 * peak(1)
