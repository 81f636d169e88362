"""Loading corpora, token streams, and the downstream-score fixture."""

from __future__ import annotations

import re
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tokscope import corpus_io
from tokscope import (
    DIRECTIONS,
    DownstreamFixture,
    ScoreEntry,
    TokenSequence,
    load_bundled_fixture,
    load_corpus,
    load_downstream_fixture,
    load_token_stream,
    read_documents,
    save_downstream_fixture,
    save_token_stream,
)
from tokscope.corpus_io import read_text


class TestTokenSequence:
    def test_holds_tokens(self):
        seq = TokenSequence(tokens=np.array([5, 1, 5]), source_tokenizer="toy")
        assert len(seq) == 3
        assert seq.tokens.tolist() == [5, 1, 5]

    def test_rejects_negative_ids(self):
        with pytest.raises(ValueError, match="non-negative"):
            TokenSequence(tokens=np.array([3, -1]))

    def test_rejects_matrix_input(self):
        with pytest.raises(ValueError):
            TokenSequence(tokens=np.zeros((2, 2)))


class TestLoadCorpus:
    def test_plaintext_skips_empty_lines(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("alpha\n\ngamma\n", encoding="utf-8")
        docs = load_corpus(path)
        assert [(d.id, d.text) for d in docs] == [("1", "alpha"), ("3", "gamma")]

    def test_plaintext_splits_on_line_feeds_only(self, tmp_path):
        # U+2028, U+0085, VT and FF are text; CR LF ends a line like LF,
        # and only the one CR before the LF goes.
        path = tmp_path / "c.txt"
        path.write_text("one\u2028two\nthree\x85four\r\nfive\x0bsix\x0cseven\neight\r\r\n",
                        encoding="utf-8", newline="")
        assert path.read_bytes().count(b"\n") == 4
        docs = load_corpus(path)
        assert [(d.id, d.text) for d in docs] == [
            ("1", "one\u2028two"), ("2", "three\x85four"),
            ("3", "five\x0bsix\x0cseven"), ("4", "eight\r")]

    def test_jsonl_text_may_hold_a_raw_line_separator(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"text": "one\u2028two\x85three"}\r\n{"text": "four"}\n',
                        encoding="utf-8")
        docs = load_corpus(path, format="jsonl")
        assert [(d.id, d.text) for d in docs] == [("1", "one\u2028two\x85three"), ("2", "four")]

    def test_jsonl_with_and_without_ids(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(
            '{"id": "a", "text": "one"}\n{"text": "two"}\n', encoding="utf-8"
        )
        docs = load_corpus(path, format="jsonl")
        assert [(d.id, d.text) for d in docs] == [("a", "one"), ("2", "two")]

    def test_jsonl_empty_text_skipped(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"text": ""}\n{"text": "kept"}\n', encoding="utf-8")
        assert [d.text for d in load_corpus(path, format="jsonl")] == ["kept"]

    def test_jsonl_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(
            '{"id": "x", "text": "one"}\n{"id": "x", "text": "two"}\n',
            encoding="utf-8",
        )
        with pytest.raises(ValueError, match="line 2.*duplicate"):
            load_corpus(path, format="jsonl")

    def test_jsonl_malformed_names_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"text": "ok"}\n{not json}\n', encoding="utf-8")
        with pytest.raises(ValueError, match="line 2"):
            load_corpus(path, format="jsonl")

    def test_jsonl_missing_text_field(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"id": "a"}\n', encoding="utf-8")
        with pytest.raises(ValueError, match='"text"'):
            load_corpus(path, format="jsonl")

    def test_invalid_utf8_rejected(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_bytes(b"ok\n\xff\xfe broken\n")
        with pytest.raises(ValueError, match="invalid UTF-8"):
            load_corpus(path)

    def test_unknown_format_rejected(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("x\n", encoding="utf-8")
        with pytest.raises(ValueError, match="format"):
            load_corpus(path, format="parquet")


# Bytes that make valid and invalid UTF-8, line ends among them.
CORPUS_BYTES = [b"a", b" ", b"\n", b"\r", b"\r\n", b"\x0b", b"\xe2\x80\xa8", b"\xc3\xa9",
                b"\xe4\xb8\xad", b"\xf0\x9f\x99\x82", b"\xff", b"\xc3", b"\xe4\xb8",
                b"\xa9", b"\xf0\x9f", b"\xed\xa0\x80", b"\xc0\x80", b"\xf4\x90\x80\x80"]


class TestReadDocuments:
    """The corpus read a line at a time, as it was read whole before."""

    @given(data=st.lists(st.sampled_from(CORPUS_BYTES), max_size=40).map(b"".join))
    def test_matches_the_whole_file_read(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "c.txt"
            path.write_bytes(data)
            try:
                text = read_text(path)
            except ValueError as e:
                with pytest.raises(ValueError) as got:
                    load_corpus(path)
                assert str(got.value) == str(e)  # the position is in the whole file
                return
            docs = load_corpus(path)
        lines = [line[:-1] if line.endswith("\r") else line for line in text.split("\n")]
        assert [(d.id, d.text) for d in docs] == [
            (str(n), line) for n, line in enumerate(lines, start=1) if line]

    def test_bad_byte_far_into_the_file_has_its_whole_file_position(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_bytes("line \u00e9\n".encode() * 100_001 + b"ok \xc3(\n")
        with pytest.raises(ValueError) as whole:
            read_text(path)
        assert "position 800011:" in str(whole.value)
        with pytest.raises(ValueError) as got:
            load_corpus(path)
        assert str(got.value) == str(whole.value)

    def test_line_longer_than_64_kib_is_one_document(self, tmp_path):
        long_line = "\u4e2d" * 30_000  # 90,000 bytes
        path = tmp_path / "c.txt"
        path.write_bytes(f"a\r\n{long_line}\r\nb\r\n".encode())
        assert [(d.id, d.text) for d in read_documents(path)] == [
            ("1", "a"), ("2", long_line), ("3", "b")]

    def test_blank_and_crlf_lines(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_bytes(b"one\r\n\r\n \t\r\n\ntwo  \r\r\nthree")
        assert [(d.id, d.text) for d in read_documents(path)] == [
            ("1", "one"), ("3", " \t"), ("5", "two  \r"), ("6", "three")]

    def test_documents_come_before_a_later_line_is_read(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"text": "one"}\n{"text": "two"}\n{not json}\n', encoding="utf-8")
        docs = read_documents(path, format="jsonl")
        assert [next(docs).text, next(docs).text] == ["one", "two"]
        with pytest.raises(ValueError, match="line 3: malformed JSON"):
            next(docs)


def old_parser(text: str) -> tuple[list[int] | None, int | None]:
    """The line-and-split loop load_token_stream used before it parsed in
    numpy blocks, with int() narrowed to the ASCII-digit grammar.

    Returns (ids, None) for a well-formed file and (None, number) when
    entry `number` is malformed.
    """
    body = "\n".join(
        line for line in text.splitlines() if not line.lstrip().startswith("#")
    )
    tokens = []
    for offset, entry in enumerate(body.split(), start=1):
        if not (entry.isascii() and entry.isdigit()):
            return None, offset
        tokens.append(int(entry))
    return tokens, None


BREAKS = ["\n", "\r\n", "\r", "\v", "\f"]
BLANKS = st.text(alphabet=" \t", max_size=3)
ID = st.integers(0, 2**63 - 1)  # up to 19 digits
SEPARATOR = st.sampled_from([" ", "\t", "  \t"])
ENTRY_LINE = st.tuples(BLANKS, st.lists(st.tuples(ID, SEPARATOR), max_size=8))
COMMENT_LINE = st.tuples(BLANKS, st.text(alphabet=" \t#0123456789abc", max_size=12)).map(
    lambda t: f"{t[0]}#{t[1]}"
)
BAD_ENTRIES = ["two", "-1", "+2", "3_0", "#x", "\u0663"]


@st.composite
def token_files(draw):
    """Token-file text: entry, comment and blank lines under mixed line breaks,
    with at most one malformed entry placed after a well-formed one."""
    lines = draw(st.lists(st.one_of(ENTRY_LINE, COMMENT_LINE, BLANKS), max_size=8))
    bad = draw(st.none() | st.sampled_from(BAD_ENTRIES))
    if bad is not None:
        entry_lines = [i for i, line in enumerate(lines) if isinstance(line, tuple) and line[1]]
        if entry_lines:
            i = draw(st.sampled_from(entry_lines))
            indent, entries = lines[i]
            at = draw(st.integers(1, len(entries)))
            lines[i] = (indent, entries[:at] + [(bad, " ")] + entries[at:])
        else:
            lines.append(("", [(7, " "), (bad, " ")]))
    texts = [
        line if isinstance(line, str) else line[0] + "".join(f"{e}{sep}" for e, sep in line[1])
        for line in lines
    ]
    breaks = draw(st.lists(st.sampled_from(BREAKS), min_size=len(texts), max_size=len(texts)))
    text = "".join(t + b for t, b in zip(texts, breaks))
    if draw(st.booleans()):  # no line break, or whitespace, at the end of the file
        text = text.rstrip()
    return text


class TestTokenStreams:
    def test_whitespace_and_newline_separated(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("5 1 5\n3\t2\n", encoding="utf-8")
        seq = load_token_stream(path)
        assert seq.tokens.tolist() == [5, 1, 5, 3, 2]
        assert seq.source_tokenizer == "s"

    def test_comment_lines_skipped(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text('# {"tool": "tokscope"}\n1 2 3\n', encoding="utf-8")
        assert load_token_stream(path).tokens.tolist() == [1, 2, 3]

    def test_negative_entry_offset_reported(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("3 -1 2\n", encoding="utf-8")
        with pytest.raises(ValueError, match="entry 2"):
            load_token_stream(path)

    def test_non_integer_rejected(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("1 two 3\n", encoding="utf-8")
        with pytest.raises(ValueError, match="entry 2"):
            load_token_stream(path)

    @pytest.mark.parametrize(
        "content, message",
        [
            (b"1 2 99999999999999999999 3",
             "entry 3: token id 99999999999999999999 exceeds the int64 range"),
            (b"9223372036854775807 9223372036854775808",
             "entry 2: token id 9223372036854775808 exceeds"),
            (b"5 0100000000000000000000", "entry 2: token id 0100000000000000000000 exceeds"),
            (b"1 \xff\xfe 3\n", "entry 2: not an integer: b'\\xff\\xfe' (invalid UTF-8)"),
            (b"4 -1 2", "entry 2: negative token id -1"),
            (b"4 +2", "entry 2: not an integer: '+2'"),
            (b"4 3_0", "entry 2: not an integer: '3_0'"),
            (b"4 \xd9\xa3", "entry 2: not an integer: '\u0663'"),
            (b"# header\n4 5 #x\n", "entry 3: not an integer: '#x'"),
        ],
    )
    def test_malformed_entry_located(self, tmp_path, content, message):
        path = tmp_path / "s.txt"
        path.write_bytes(content)
        with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
            load_token_stream(path)

    def test_ids_at_the_int64_edge(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_bytes(b"0000000000000000000000000012 9223372036854775807 0\n")
        assert load_token_stream(path).tokens.tolist() == [12, 2**63 - 1, 0]

    def test_comments_only_is_an_empty_stream(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("# header\n\n   \n\t# another\n", encoding="utf-8")
        assert len(load_token_stream(path)) == 0

    @given(token_files(), st.integers(1, 16))
    def test_block_parse_matches_old_parser(self, text, block_bytes):
        ids, bad_entry = old_parser(text)
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "stream.txt"
            path.write_bytes(text.encode("utf-8"))
            with mock.patch.object(corpus_io, "READ_BLOCK_BYTES", block_bytes):
                if bad_entry is None:
                    assert load_token_stream(path).tokens.tolist() == ids
                else:
                    with pytest.raises(ValueError, match=re.escape(f"{path}: entry {bad_entry}: ")):
                        load_token_stream(path)

    @pytest.mark.parametrize(
        "content, expected",
        [
            (b"1\n#" + b"a" * 2000 + b"\n5 6", [1, 5, 6]),
            (b"1\n \t#" + b"a" * 2000 + b" b" * 50 + b"\r\n5", [1, 5]),
            (b"1 " + b"0" * 2000 + b"7 8", [1, 7, 8]),
            (b"1 " + b"0" * 2000, [1, 0]),
            (b"1 2 " + b"x" * 2000 + b" 9", "entry 3: not an integer: 'xxxx"),
            (b"1 " + b"0" * 2000 + b"1" * 20, "entry 2: token id "),
            (b"1 -" + b"0" * 2000, "entry 2: negative token id -0000"),
            (b"1 #" + b"a" * 2000, "entry 2: not an integer: '#aaa"),
        ],
        ids=["comment", "indented-comment", "leading-zeros", "zeros", "not-an-integer",
             "overflow", "negative", "mid-line-hash"],
    )
    def test_long_run_without_whitespace(self, tmp_path, content, expected):
        # However long a run with no whitespace is, the reader keeps at
        # most one block of it between reads.
        path = tmp_path / "s.txt"
        path.write_bytes(content)
        block = 8
        with mock.patch.object(corpus_io, "READ_BLOCK_BYTES", block), mock.patch.object(
            corpus_io, "_strip_comments", wraps=corpus_io._strip_comments
        ) as strip:
            if isinstance(expected, list):
                assert load_token_stream(path).tokens.tolist() == expected
            else:
                with pytest.raises(ValueError, match=re.escape(f"{path}: {expected}")):
                    load_token_stream(path)
        assert max(len(call.args[0]) for call in strip.call_args_list) <= 2 * block

    def test_long_entries_are_cut_in_messages(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_bytes(b"1 " + b"1" * 5000 + b" 2")  # past int()'s 4300-digit limit
        with pytest.raises(
            ValueError, match=re.escape(f"{path}: entry 2: token id {'1' * 40}... exceeds")
        ):
            load_token_stream(path)

    def test_writer_blocks_join_into_one_line(self, tmp_path):
        tokens = np.arange(7, dtype=np.int64) * 11
        path = tmp_path / "s.txt"
        with mock.patch.object(corpus_io, "WRITE_BLOCK_TOKENS", 3):
            save_token_stream(TokenSequence(tokens=tokens), path, header="h")
        assert path.read_text(encoding="utf-8") == "# h\n0 11 22 33 44 55 66\n"

    @given(st.lists(st.integers(0, 2**31), min_size=0, max_size=200))
    def test_save_load_round_trip(self, tokens):
        seq = TokenSequence(tokens=np.asarray(tokens, dtype=np.int64), source_tokenizer="t")
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "stream.txt"
            save_token_stream(seq, path, header='{"k": 1}')
            loaded = load_token_stream(path, name="t")
        assert loaded.tokens.tolist() == tokens
        assert loaded.source_tokenizer == "t"


# Runs at the edges of `_parse_block`'s 8-digit windows: one below and at
# 10**k, the int64 edge, and a 1 after 7 to 23 leading zeros.
WINDOW_EDGE_RUNS = (
    [str(10**k + d) for k in (7, 8, 9, 15, 16, 17, 18) for d in (-1, 0)]
    + [str(2**63 - 1), str(2**63)]
    + ["0" * n + "1" for n in (7, 8, 15, 16, 23)]
)


@st.composite
def digit_runs(draw):
    """1 to 25 ASCII digits, often with leading zeros."""
    length = draw(st.integers(1, 25))
    zeros = draw(st.integers(0, length - 1))
    rest = length - zeros
    return "0" * zeros + draw(st.text("0123456789", min_size=rest, max_size=rest))


def int_parse(runs: list[str]) -> list[int] | None:
    """The ids of the runs by int(), or None if one is past 2**63 - 1."""
    ids = [int(run) for run in runs]
    return None if any(i > 2**63 - 1 for i in ids) else ids


class TestParseBlock:
    """`_parse_block`'s 8-digit windows against int()."""

    @given(st.lists(st.tuples(digit_runs() | st.sampled_from(WINDOW_EDGE_RUNS),
                              st.text(" \t\n\r\v\f", min_size=1, max_size=3)),
                    min_size=1, max_size=12),
           st.booleans())
    def test_matches_int(self, runs, trailing):
        # The first run starts at byte 0 of the block.
        head = "".join(run + sep for run, sep in runs)
        if not trailing:
            head = head.rstrip()
        got = corpus_io._parse_block(head.encode())
        want = int_parse([run for run, _ in runs])
        if want is None:
            assert got is None
        else:
            assert got.dtype == np.int64 and got.tolist() == want

    @pytest.mark.parametrize("run", WINDOW_EDGE_RUNS)
    @pytest.mark.parametrize("before", ["", "5 ", "1234567890123456789\t"])
    def test_window_edges(self, run, before):
        got = corpus_io._parse_block(f"{before}{run}".encode())
        want = int_parse(before.split() + [run])
        assert (got is None) if want is None else got.tolist() == want


class TestDownstreamFixture:
    def test_bundled_shape(self):
        fx = load_bundled_fixture()
        assert len(fx.entries) == 96
        assert len(fx.tokenizers()) == 6
        assert fx.languages() == ["cs", "de", "ru", "zh"]
        assert fx.scales() == ["2.7B", "350M"]

    def test_known_cell(self):
        fx = load_bundled_fixture()
        entry = fx.get("Phi-3-mini", "2.7B", "cs", "en-xx")
        assert entry.metricx == 8.98
        assert entry.chrf == 37.2

    def test_mean_metricx_known_value(self):
        fx = load_bundled_fixture()
        assert fx.mean_metricx("Phi-3-mini", "2.7B", "cs") == pytest.approx(7.135)

    def test_missing_key_reported(self):
        fx = load_bundled_fixture()
        with pytest.raises(KeyError, match="no score"):
            fx.get("Phi-3-mini", "2.7B", "fr", "en-xx")

    def test_round_trip(self, tmp_path):
        fx = load_bundled_fixture()
        path = tmp_path / "scores.csv"
        save_downstream_fixture(fx, path)
        again = load_downstream_fixture(path)
        assert again.entries == fx.entries

    def test_duplicate_row_rejected(self, tmp_path):
        path = tmp_path / "scores.csv"
        row = "tok,1B,aa,en-xx,5.0,40.0\n"
        path.write_text(
            "tokenizer,scale,language,direction,metricx,chrf\n" + row + row,
            encoding="utf-8",
        )
        with pytest.raises(ValueError, match="line 3.*duplicate"):
            load_downstream_fixture(path)

    def test_missing_column_rejected(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("tokenizer,scale,language,metricx,chrf\n", encoding="utf-8")
        with pytest.raises(ValueError, match="missing columns"):
            load_downstream_fixture(path)

    def test_bad_direction_rejected(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text(
            "tokenizer,scale,language,direction,metricx,chrf\n"
            "tok,1B,aa,en-fr,5.0,40.0\n",
            encoding="utf-8",
        )
        with pytest.raises(ValueError, match="direction"):
            load_downstream_fixture(path)

    def test_non_numeric_score_rejected(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text(
            "tokenizer,scale,language,direction,metricx,chrf\n"
            "tok,1B,aa,en-xx,high,40.0\n",
            encoding="utf-8",
        )
        with pytest.raises(ValueError, match="line 2"):
            load_downstream_fixture(path)

    @pytest.mark.parametrize("row, got", [
        ("alpha,1B,aa,en-xx,10.25", 5),
        ("alpha,1B,aa,en-xx,10.25,40,extra", 7),
        ("alpha,1B,aa,en-xx,10.25,40,,", 8),
        ("alpha", 1),
    ])
    def test_row_with_wrong_field_count_rejected(self, tmp_path, row, got):
        path = tmp_path / "scores.csv"
        path.write_text(
            "tokenizer,scale,language,direction,metricx,chrf\n"
            "tok,1B,aa,en-xx,5.0,40.0\n" + row + "\n",
            encoding="utf-8",
        )
        message = re.escape(f"{path} line 3: expected 6 fields, got {got}")
        with pytest.raises(ValueError, match="^" + message + "$"):
            load_downstream_fixture(path)

    @pytest.mark.parametrize("row, column", [
        (",1B,aa,en-xx,10.25,40", "tokenizer"),
        ("alpha,,aa,en-xx,10.25,40", "scale"),
        ("alpha,1B,,en-xx,10.25,40", "language"),
    ])
    def test_empty_key_cell_rejected(self, tmp_path, row, column):
        path = tmp_path / "scores.csv"
        path.write_text(
            "tokenizer,scale,language,direction,metricx,chrf\n" + row + "\n",
            encoding="utf-8",
        )
        message = re.escape(f"{path} line 2: column {column!r} is empty")
        with pytest.raises(ValueError, match="^" + message + "$"):
            load_downstream_fixture(path)

    def test_column_named_twice_rejected(self, tmp_path):
        # csv.DictReader would keep the last of the two metricx cells.
        path = tmp_path / "scores.csv"
        path.write_text(
            "tokenizer,scale,language,direction,metricx,chrf,metricx\n"
            "alpha,1B,aa,en-xx,10.25,40,99\n",
            encoding="utf-8",
        )
        message = re.escape(f"{path}: column 'metricx' appears twice in the header")
        with pytest.raises(ValueError, match="^" + message + "$"):
            load_downstream_fixture(path)

    def test_negative_score_rejected(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text(
            "tokenizer,scale,language,direction,metricx,chrf\n"
            "tok,1B,aa,en-xx,-1.0,40.0\n",
            encoding="utf-8",
        )
        with pytest.raises(ValueError, match="non-negative"):
            load_downstream_fixture(path)

    @pytest.mark.parametrize("scores", ["nan,40.0", "1.0,inf", "1.0,NaN"])
    def test_non_finite_score_rejected(self, tmp_path, scores):
        path = tmp_path / "scores.csv"
        path.write_text(
            "tokenizer,scale,language,direction,metricx,chrf\n"
            "tok,1B,aa,en-xx,1.0,40.0\n"
            f"tok,1B,bb,en-xx,{scores}\n",
            encoding="utf-8",
        )
        message = re.escape(f"{path} line 3: scores must be finite")
        with pytest.raises(ValueError, match="^" + message):
            load_downstream_fixture(path)

    def test_error_line_counts_comment_lines(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text(
            "# note\n"
            "tokenizer,scale,language,direction,metricx,chrf\n"
            "tok,1B,aa,en-xx,1.0,40.0\n"
            "tok,1B,bb,en-xx,nan,40.0\n",
            encoding="utf-8",
        )
        message = re.escape(f"{path} line 4: scores must be finite")
        with pytest.raises(ValueError, match="^" + message):
            load_downstream_fixture(path)

    def test_directions_constant(self):
        assert DIRECTIONS == ("en-xx", "xx-en")

    def test_entry_key(self):
        e = ScoreEntry("tok", "1B", "aa", "en-xx", 5.0, 40.0)
        assert e.key == ("tok", "1B", "aa", "en-xx")

    def test_mean_uses_both_directions(self):
        entries = {}
        for d, v in zip(DIRECTIONS, (4.0, 6.0)):
            e = ScoreEntry("tok", "1B", "aa", d, v, 40.0)
            entries[e.key] = e
        fx = DownstreamFixture(entries=entries)
        assert fx.mean_metricx("tok", "1B", "aa") == 5.0
