"""Byte-level BPE: byte mapping, pretokenization, merges, round-trips.

Small vocabularies are written out by hand so every expected token id
is derivable by eye; the trained fixture from conftest exercises the
full load / encode / decode path on arbitrary unicode.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import TRAINING_TEXT, apply_merge
from tokscope import byte_to_unicode, decode, encode, encode_line, load_bpe, pretokenize


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
        assert tok_h.merges == tok_n.merges == {(0, 1): (0, 2)}


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
        assert a.byte_ids == b.byte_ids
        assert a.merges == b.merges


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
    @given(
        st.text(max_size=120)
        | st.lists(st.sampled_from(MIXED_PIECES), max_size=30).map("".join)
    )
    def test_matches_encode(self, trained_bpe, text):
        tok, _, _ = trained_bpe
        expected = " ".join(map(str, encode(tok, text).tokens.tolist()))
        # The second call reads every piece from the memo.
        assert encode_line(tok, text) == expected
        assert encode_line(tok, text) == expected

    def test_empty_text_is_an_empty_line(self, trained_bpe):
        tok, _, _ = trained_bpe
        assert encode_line(tok, "") == ""
