"""End-to-end command-line behavior, driven through main().

Each command writes a file; tests parse the file back and check values
against the library functions the command wraps. Byte-identity checks
always pass --no-timestamp, which is the documented way to make reruns
reproducible.
"""

from __future__ import annotations

import contextlib
import dataclasses
import importlib
import importlib.metadata
import io
import json
import math
import os
import resource
import runpy
import shutil
import subprocess
import sys
import tempfile
import time
import tracemalloc
import warnings
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tokscope
from tokscope import (
    METRIC_NAMES,
    RunConfig,
    generate_zipf_stream,
    load_token_stream,
    main,
    run,
    save_downstream_fixture,
    spearman,
)
from tokscope import bpe, corpus_io
import tokscope.cli as tokscope_cli
from tokscope.bpe import BATCH_CHARS
from tokscope.cli import _build_parser, config_from_args, load_metric_dir

from conftest import (
    SYNTH_SCALE,
    SYNTH_TOKENIZERS,
    make_synthetic_fixture,
    make_synthetic_metrics,
    write_metrics_dir,
)


def cli(*args) -> int:
    return main([str(a) for a in args])


def cli_process(*args, **run_args) -> subprocess.CompletedProcess:
    """Run `python -m tokscope` in a fresh interpreter, as a user would."""
    package_root = str(Path(tokscope.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-m", "tokscope", *map(str, args)],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": package_root}, **run_args,
    )


SYMBOL_B_MISSING = ("symbol 'b' is not in the vocabulary; "
                    "vocab and merges files are inconsistent")
# Corpora for the vocabulary {"a": 0}, which is missing 'b' and 'c'. In the
# first, the first bad document lies in the second batch of texts; in the
# second, one batch holds two bad documents.
FAILURES_ACROSS_BATCHES = [
    pytest.param("plaintext-lines", "a" * BATCH_CHARS + "\na\nabc\nc\n", "3",
                 id="second-batch"),
    pytest.param("jsonl", '{"id": "x1", "text": "a"}\n{"id": "x2", "text": "ab c"}\n'
                 '{"id": "x3", "text": "c"}\n', "x2", id="two-in-one-batch"),
]


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("metrics", "--truncation-bound", "nan"),
        ("metrics", "--truncation-bound", "inf"),
        ("metrics", "--truncation-bound", "0.5"),
        ("metrics", "--truncation-bound", "abc"),
        ("gen-zipf", "--exponent", "nan"),
        ("gen-zipf", "--exponent", "1e308"),
        ("gen-zipf", "--n-tokens", "-5"),
        ("gen-zipf", "--n-types", "0"),
        ("gen-zipf", "--seed", "-1"),
        ("predict", "--seed", "-3"),
        ("rank", "--seed", "-1"),
    ],
)
def test_bad_numeric_flag_fails_with_its_name(tmp_path, command, flag, value):
    stream = tmp_path / "s.txt"
    stream.write_text("5 1 5 2\n", encoding="utf-8")
    inputs = ["--tokens", stream] if command == "metrics" else []
    proc = cli_process(command, *inputs, flag, value, "--out", tmp_path / "out")
    assert proc.returncode != 0
    assert flag.lstrip("-") in proc.stderr
    assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr
    assert not (tmp_path / "out").exists()


@pytest.fixture()
def synth_cli_world(tmp_path):
    """Metrics directory and fixture CSV for predict/rank commands."""
    metrics_dir = tmp_path / "metrics"
    write_metrics_dir(make_synthetic_metrics(), metrics_dir)
    fixture_path = tmp_path / "scores.csv"
    save_downstream_fixture(make_synthetic_fixture(), fixture_path)
    return metrics_dir, fixture_path


class TestGenZipf:
    def test_counts_are_exact(self, tmp_path):
        out = tmp_path / "stream.txt"
        assert cli("gen-zipf", "--n-tokens", 1000, "--n-types", 10,
                   "--exponent", 1.0, "--out", out) == 0
        seq = load_token_stream(out)
        counted = Counter(seq.tokens.tolist())
        for rank in range(1, 11):
            assert counted[rank - 1] == round(1000 / rank)

    def test_same_seed_reruns_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        args = ["gen-zipf", "--n-tokens", 500, "--n-types", 5,
                "--seed", 3, "--no-timestamp"]
        assert cli(*args, "--out", a) == 0
        assert cli(*args, "--out", b) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_seed_changes_order_not_counts(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        cli("gen-zipf", "--n-tokens", 500, "--n-types", 5, "--seed", 0,
            "--no-timestamp", "--out", a)
        cli("gen-zipf", "--n-tokens", 500, "--n-types", 5, "--seed", 1,
            "--no-timestamp", "--out", b)
        sa, sb = load_token_stream(a), load_token_stream(b)
        assert sa.tokens.tolist() != sb.tokens.tolist()
        assert Counter(sa.tokens.tolist()) == Counter(sb.tokens.tolist())

    @pytest.mark.parametrize("n_tokens", [10**20, 2**63 - 1])
    def test_n_tokens_past_int64_fails_named(self, tmp_path, capsys, n_tokens):
        out = tmp_path / "stream.txt"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli("gen-zipf", "--n-tokens", n_tokens, "--n-types", 50, "--out", out)
        assert code == 1 and not caught
        assert capsys.readouterr().err == (
            f"tokscope: error: n_tokens must be at most 2^62, got {n_tokens}\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("n_types", [2**62 + 1, 10**20 - 1, 2**60 - 1])
    def test_n_types_numpy_cannot_address_fails_named(self, tmp_path, capsys, n_types):
        out = tmp_path / "stream.txt"
        assert cli("gen-zipf", "--n-tokens", 1, "--n-types", n_types, "--exponent", 0,
                   "--out", out) == 1
        assert capsys.readouterr().err == (
            f"tokscope: error: n_types must be at most 2^59, got {n_types}\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("n_tokens, n_types", [
        (1, 10**10),  # the ranks alone take 80 GB
        (1000, 10**7),  # the ranks fit; the stream takes 80 GB
    ])
    def test_stream_too_large_for_memory_fails_named(self, tmp_path, n_tokens, n_types):
        def cap_address_space():
            # The kernel refuses the allocation, so nothing is allocated.
            resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

        out = tmp_path / "stream.txt"
        proc = cli_process("gen-zipf", "--n-tokens", n_tokens, "--n-types", n_types,
                           "--exponent", 0, "--out", out, preexec_fn=cap_address_space)
        assert proc.returncode == 1
        assert proc.stderr == (
            f"tokscope: error: not enough memory for a stream of n_tokens={n_tokens} "
            f"over n_types={n_types}\n"
        )
        assert not out.exists()

    def test_generator_validation(self):
        with pytest.raises(ValueError, match="at least 3"):
            generate_zipf_stream(100, 2, 1.0)
        with pytest.raises(ValueError, match="non-negative"):
            generate_zipf_stream(100, 5, -0.5)
        with pytest.raises(ValueError, match="zero count"):
            generate_zipf_stream(10, 100, 2.0)

    def test_exponent_zero_is_uniform(self):
        seq = generate_zipf_stream(300, 3, 0.0, seed=0)
        assert Counter(seq.tokens.tolist()) == {0: 300, 1: 300, 2: 300}


def run_quietly(*argv) -> tuple[int, str, list]:
    """Run a command in process; return its exit code, stderr and warnings."""
    with contextlib.redirect_stderr(io.StringIO()) as err, \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli(*argv)
    return code, err.getvalue(), caught


def assert_clean_outcome(code, err, written, *culprits):
    """A run either succeeds silently with output, or fails with one error
    line that names one of `culprits` and leaves no output."""
    assert code in (0, 1, 2)
    if code == 0:
        assert written and not err
    else:
        lines = err.splitlines(keepends=True)
        assert len(lines) == 1 and lines[0].endswith("\n")
        assert lines[0].startswith(tuple(f"tokscope: error: {c}" for c in culprits))
        assert not written


# Values gen-zipf accepts are drawn small, n_tokens * n_types <= 10^6; the
# large ones are refused before anything is allocated.
ZIPF_REFUSED_TOKENS = [2**62 + 1, 2**63, 10**20]
ZIPF_REFUSED_TYPES = [2**59 + 1, 2**60, 2**62 + 1, 10**20 - 1]
ZIPF_EXPONENTS = ["0", "0.5", "1", "2.5", "60", "1e308", "-1", "-0.0", "nan", "inf", "-inf"]


@st.composite
def zipf_flags(draw):
    n_types = draw(st.integers(-2, 1000))
    n_tokens = draw(st.integers(-2, 10**6 // max(n_types, 1)))
    refuse = draw(st.sampled_from([None, "n_tokens", "n_types"]))
    if refuse == "n_tokens":
        n_tokens = draw(st.sampled_from(ZIPF_REFUSED_TOKENS))
    elif refuse == "n_types":
        n_types = draw(st.sampled_from(ZIPF_REFUSED_TYPES))
    # With "=", argparse reads "-inf" as a value, not as an unknown flag.
    return [f"--n-tokens={n_tokens}", f"--n-types={n_types}",
            f"--exponent={draw(st.sampled_from(ZIPF_EXPONENTS))}",
            f"--seed={draw(st.integers(-1, 3))}"]


@settings(max_examples=100, deadline=None)
@given(flags=zipf_flags())
def test_fuzzed_gen_zipf_flags_fail_cleanly(flags):
    # Numeric flags either generate a stream or fail with one error line.
    with tempfile.TemporaryDirectory() as d:
        out = Path(d) / "stream.txt"
        code, err, caught = run_quietly("gen-zipf", *flags, "--out", out)
        written = out.exists()
    assert not caught
    assert_clean_outcome(code, err, written, "")


class TestMetricsCommand:
    def test_from_token_stream(self, tmp_path):
        stream = tmp_path / "s.txt"
        stream.write_text("5 1 5\n", encoding="utf-8")
        out = tmp_path / "m.json"
        assert cli("metrics", "--tokens", stream, "--tokenizer-name", "toy",
                   "--language", "xx", "--out", out) == 0
        data = json.loads(out.read_text(encoding="utf-8"))
        assert data["tokenizer"] == "toy"
        assert data["language"] == "xx"
        assert data["compression"] == 3
        assert data["cardinality"] == 2
        assert data["slope"] == pytest.approx(-1.0, abs=1e-12)
        assert data["auc"] == pytest.approx(math.log(2) ** 2 / 2, abs=1e-12)
        meta = data["metadata"]
        assert meta["tool"] == "tokscope"
        assert meta["log_base"] == "e"
        assert meta["truncation_bound"] == 6
        assert meta["simpson_grid"] == 2049
        assert "timestamp" in meta

    def test_no_timestamp_flag(self, tmp_path):
        stream = tmp_path / "s.txt"
        stream.write_text("5 1 5\n", encoding="utf-8")
        out = tmp_path / "m.json"
        cli("metrics", "--tokens", stream, "--no-timestamp", "--out", out)
        data = json.loads(out.read_text(encoding="utf-8"))
        assert "timestamp" not in data["metadata"]

    def test_tokens_conflicts_with_vocab(self, tmp_path, capsys):
        stream = tmp_path / "s.txt"
        stream.write_text("1 2\n", encoding="utf-8")
        code = cli("metrics", "--tokens", stream, "--vocab", tmp_path / "v.json",
                   "--out", tmp_path / "m.json")
        assert code == 1
        assert "conflicts" in capsys.readouterr().err

    def test_truncation_bound_ln2_keeps_two_points(self, tmp_path):
        stream = tmp_path / "s.txt"
        stream.write_text("5 1 5 2\n", encoding="utf-8")
        out = tmp_path / "m.json"
        assert cli("metrics", "--tokens", stream, "--truncation-bound", math.log(2),
                   "--out", out) == 0
        assert json.loads(out.read_text(encoding="utf-8"))["slope"] == pytest.approx(-1.0)

    def test_missing_out_flag(self, tmp_path, capsys):
        stream = tmp_path / "s.txt"
        stream.write_text("1 2\n", encoding="utf-8")
        assert cli("metrics", "--tokens", stream) == 1
        assert "--out" in capsys.readouterr().err

    def test_from_corpus(self, tmp_path, trained_bpe):
        _, vocab_path, merges_path = trained_bpe
        corpus = tmp_path / "c.txt"
        corpus.write_text("the dog saw the fox\nthe fox ran away\n", encoding="utf-8")
        out = tmp_path / "m.json"
        assert cli("metrics", "--vocab", vocab_path, "--merges", merges_path,
                   "--corpus", corpus, "--out", out) == 0
        data = json.loads(out.read_text(encoding="utf-8"))
        assert data["compression"] > 0
        assert data["tokenizer"] == "vocab"


    def test_corpus_counts_match_the_encoded_stream(self, tmp_path, trained_bpe):
        _, vocab_path, merges_path = trained_bpe
        rng = np.random.default_rng(3)
        words = ["the", "dog", "saw", "fox", "ran", "away", "no", "猫", "🙂", "it's"]
        # Half the texts join their words with single spaces (the word
        # path); the others also with double spaces and tabs, and some lead
        # with a blank. Numbers make pieces that no earlier batch has.
        texts = ["the dog saw the fox", "the fox ran away", "no"]
        while sum(map(len, texts)) < 3 * BATCH_CHARS:
            n = int(rng.integers(1, 40))
            chosen = [w if rng.random() < 0.9 else str(rng.integers(10**5)) for w in
                      rng.choice(words, n)]
            blanks = [" "] * n
            if rng.random() < 0.5:
                blanks = rng.choice([" ", " ", " ", "  ", "\t", " \t"], n)
            text = "".join(b + w for b, w in zip(blanks, chosen))
            texts.append(text if rng.random() < 0.3 else text[len(blanks[0]):])
        assert sum(bpe._words(t) is None for t in texts) > len(texts) // 3
        jsonl = [json.dumps({"id": str(i), "text": t}) for i, t in enumerate(texts)]
        for corpus_format, lines in (("plaintext-lines", texts), ("jsonl", jsonl)):
            corpus = tmp_path / "c.txt"
            corpus.write_text("\n".join(lines) + "\n", encoding="utf-8")
            stream = tmp_path / "s.txt"
            flags = ["--vocab", vocab_path, "--merges", merges_path, "--corpus", corpus,
                     "--format", corpus_format]
            assert cli("encode", *flags, "--out", stream) == 0
            out_corpus, out_tokens = tmp_path / "a.json", tmp_path / "b.json"
            with mock.patch.object(bpe, "MERGE_PIECES", 50):  # the pieces merge in several slices
                assert cli("metrics", *flags, "--out", out_corpus) == 0
            assert cli("metrics", "--tokens", stream, "--out", out_tokens) == 0
            a = json.loads(out_corpus.read_text(encoding="utf-8"))
            b = json.loads(out_tokens.read_text(encoding="utf-8"))
            assert {n: a[n] for n in METRIC_NAMES} == {n: b[n] for n in METRIC_NAMES}

    @pytest.mark.parametrize("corpus_format, text, doc_id", [
        ("plaintext-lines", "a\nabc\n", "2"),
        ("jsonl", '{"id": "x1", "text": "a"}\n{"id": "x2", "text": "abc"}\n', "x2"),
        *FAILURES_ACROSS_BATCHES,
    ])
    def test_corpus_failure_names_the_document(
            self, tmp_path, capsys, corpus_format, text, doc_id):
        vocab, merges = tmp_path / "v.json", tmp_path / "m.txt"
        vocab.write_text('{"a": 0}', encoding="utf-8")
        merges.write_text("", encoding="utf-8")
        corpus = tmp_path / "c.txt"
        corpus.write_text(text, encoding="utf-8")
        out = tmp_path / "m.json"
        assert cli("metrics", "--vocab", vocab, "--merges", merges, "--corpus", corpus,
                   "--format", corpus_format, "--out", out) == 1
        err = capsys.readouterr().err
        assert err == f"tokscope: error: {corpus} document {doc_id}: {SYMBOL_B_MISSING}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command, fault", [
        ("encode", " document 2: " + SYMBOL_B_MISSING),
        ("metrics", ": invalid UTF-8: 'utf-8' codec can't decode byte 0xff in position "
                    f"{5 + BATCH_CHARS + 1}: invalid start byte"),
    ])
    def test_two_faults_in_different_batches(self, tmp_path, capsys, command, fault):
        # An unknown symbol in the first batch and a bad byte in the next:
        # encode merges the first batch before it reads the next, while
        # metrics reads the whole corpus before it merges.
        vocab, merges = tmp_path / "v.json", tmp_path / "m.txt"
        vocab.write_text('{"a": 0}', encoding="utf-8")
        merges.write_text("", encoding="utf-8")
        corpus = tmp_path / "c.txt"
        corpus.write_bytes(b"a\nab\n" + b"a" * BATCH_CHARS + b"\n\xff\n")
        out = tmp_path / "out"
        assert cli(command, "--vocab", vocab, "--merges", merges, "--corpus", corpus,
                   "--out", out) == 1
        assert capsys.readouterr().err == f"tokscope: error: {corpus}{fault}\n"
        assert not out.exists()

    @pytest.mark.parametrize("corpus_format, text", [
        ("plaintext-lines", "\n\n\n"),
        ("jsonl", '{"id": "x1", "text": ""}\n{"id": "x2", "text": ""}\n'),
    ])
    def test_empty_corpus_fails_named(self, tmp_path, capsys, trained_bpe, corpus_format, text):
        _, vocab_path, merges_path = trained_bpe
        corpus = tmp_path / "c.txt"
        corpus.write_text(text, encoding="utf-8")
        out = tmp_path / "m.json"
        assert cli("metrics", "--vocab", vocab_path, "--merges", merges_path, "--corpus", corpus,
                   "--format", corpus_format, "--out", out) == 1
        err = capsys.readouterr().err
        assert err == f"tokscope: error: {corpus}: cannot count frequencies of an empty stream\n"
        assert not out.exists()


@pytest.mark.parametrize("command", ["encode", "metrics"])
def test_unknown_symbol_in_a_piped_corpus_names_the_corpus(tmp_path, command):
    # A pipe cannot be read again to find the document that holds the symbol.
    vocab, merges = tmp_path / "v.json", tmp_path / "m.txt"
    vocab.write_text('{"a": 0}', encoding="utf-8")
    merges.write_text("", encoding="utf-8")
    out = tmp_path / "out"
    proc = cli_process(command, "--vocab", vocab, "--merges", merges, "--corpus", "/dev/stdin",
                       "--out", out, input="a\nab\n")
    assert proc.returncode == 1
    assert proc.stderr == f"tokscope: error: /dev/stdin: {SYMBOL_B_MISSING}\n"
    assert not out.exists()


@pytest.mark.parametrize("source", ["tokens", "corpus"])
def test_one_distinct_id_fails_named(tmp_path, capsys, source):
    vocab, merges = tmp_path / "v.json", tmp_path / "m.txt"
    vocab.write_text('{"a": 0}', encoding="utf-8")
    merges.write_text("", encoding="utf-8")
    stream = tmp_path / "s.txt"
    stream.write_text("7 7 7\n" if source == "tokens" else "aaa\n", encoding="utf-8")
    inputs = (["--tokens", stream] if source == "tokens"
              else ["--vocab", vocab, "--merges", merges, "--corpus", stream])
    out = tmp_path / "m.json"
    assert cli("metrics", *inputs, "--out", out) == 1
    assert capsys.readouterr().err == (
        f"tokscope: error: {stream}: the stream has one distinct token id; "
        "a rank-frequency line needs at least 2\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("command", ["encode", "metrics"])
def test_vocab_id_beyond_int64_fails_named(tmp_path, capsys, command):
    vocab, merges = tmp_path / "v.json", tmp_path / "m.txt"
    vocab.write_text('{"a": 0, "b": 100000000000000000000000000000}', encoding="utf-8")
    merges.write_text("", encoding="utf-8")
    corpus = tmp_path / "c.txt"
    corpus.write_text("ab\n", encoding="utf-8")
    out = tmp_path / "out"
    assert cli(command, "--vocab", vocab, "--merges", merges, "--corpus", corpus,
               "--out", out) == 1
    assert capsys.readouterr().err == (
        f"tokscope: error: {vocab}: token 'b' has id 100000000000000000000000000000, "
        "which exceeds the int64 range\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("command", ["metrics", "export-curve"])
@pytest.mark.parametrize(
    "content, message",
    [
        (b"1 2 99999999999999999999 3\n",
         "entry 3: token id 99999999999999999999 exceeds the int64 range"),
        (b"1 \xff\xfe 3\n", "entry 2: not an integer: b'\\xff\\xfe' (invalid UTF-8)"),
        (b"# comments only\n\n", "cannot count frequencies of an empty stream"),
    ],
    ids=["overflow", "utf-8", "empty"],
)
def test_bad_token_file_fails_located(tmp_path, capsys, command, content, message):
    stream = tmp_path / "s.txt"
    stream.write_bytes(content)
    assert cli(command, "--tokens", stream, "--out", tmp_path / "out") == 1
    assert capsys.readouterr().err == f"tokscope: error: {stream}: {message}\n"
    assert not (tmp_path / "out").exists()


# Pieces a valid token file is mutated with: digits, whitespace, bytes the
# grammar rejects, ids at and past 2**63 - 1, and a run of 30 zeros.
FUZZ_PIECES = [b"0", b"7", b"9", b" ", b"\t", b"\n", b"\r\n", b"#", b"-", b"+", b"\x00",
               b"\xff", b"9223372036854775807", b"9223372036854775808",
               b"18446744073709551616", b"0" * 30]
FUZZ_SEED_FILE = b"# a header\n3 1 4 1 5 9 2 6\n5 3 5 8\t9 7\n"


@st.composite
def mutated_files(draw, seed=FUZZ_SEED_FILE, pieces=FUZZ_PIECES):
    data = bytearray(seed)
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(data)))
        piece = draw(st.sampled_from(pieces))
        edit = draw(st.sampled_from(["insert", "replace", "delete"]))
        if edit == "insert":
            data[at:at] = piece
        elif edit == "replace":
            data[at : at + len(piece)] = piece
        else:
            del data[at : at + draw(st.integers(1, 4))]
    return bytes(data)


@settings(max_examples=150, deadline=None)
@given(content=mutated_files(), command=st.sampled_from(["metrics", "export-curve"]),
       block_bytes=st.sampled_from([4, 16, corpus_io.READ_BLOCK_BYTES]))
def test_fuzzed_token_file_fails_cleanly(content, command, block_bytes):
    # A token file either passes or fails with one located line and no output.
    with tempfile.TemporaryDirectory() as d, \
            mock.patch.object(corpus_io, "READ_BLOCK_BYTES", block_bytes), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        stream, out = Path(d) / "s.txt", Path(d) / "out"
        stream.write_bytes(content)
        code = cli(command, "--tokens", stream, "--out", out)
        written = out.exists()
    assert code in (0, 1)
    if code == 0:
        assert written and not err.getvalue()
    else:
        lines = err.getvalue().splitlines(keepends=True)
        assert len(lines) == 1 and lines[0].endswith("\n")
        assert lines[0].startswith(f"tokscope: error: {stream}")
        assert not written


class TestExportCurve:
    def test_header_and_log_columns(self, tmp_path):
        stream = tmp_path / "s.txt"
        cli("gen-zipf", "--n-tokens", 100, "--n-types", 6, "--out", stream)
        out = tmp_path / "curve.csv"
        assert cli("export-curve", "--tokens", stream, "--out", out) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0].startswith("# {")
        meta = json.loads(lines[0][2:])
        assert meta["tool"] == "tokscope"
        assert lines[1] == "rank,count,log_rank,log_count"
        rows = [line.split(",") for line in lines[2:]]
        assert [int(r[0]) for r in rows] == list(range(1, 7))
        counts = [int(r[1]) for r in rows]
        assert counts == sorted(counts, reverse=True)
        for r in rows:
            assert float(r[2]) == math.log(int(r[0]))
            assert float(r[3]) == math.log(int(r[1]))


@pytest.mark.parametrize(
    "case",
    ["missing input", "out is a directory", "vocab", "merges", "metric record",
     "correlate csv", "fixture csv"],
)
def test_file_error_names_the_file(tmp_path, capsys, trained_bpe, synth_cli_world, case):
    _, vocab, merges = trained_bpe
    metrics_dir, fixture = synth_cli_world
    corpus = tmp_path / "c.txt"
    corpus.write_text("some text\n", encoding="utf-8")
    missing, directory = tmp_path / "none.tokens", tmp_path / "dir"
    directory.mkdir()
    bad = metrics_dir / "zz.json" if case == "metric record" else tmp_path / "bad"
    bad.write_bytes(b"\xff\n")
    encode = ["encode", "--corpus", corpus]
    argv, culprit, message = {
        "missing input": (["metrics", "--tokens", missing], missing,
                          "[Errno 2] No such file or directory"),
        "out is a directory": (["gen-zipf", "--out", directory], directory,
                               "[Errno 21] Is a directory"),
        "vocab": (encode + ["--vocab", bad, "--merges", merges], bad, "invalid UTF-8"),
        "merges": (encode + ["--vocab", vocab, "--merges", bad], bad, "invalid UTF-8"),
        "metric record": (["predict", "--fixture", fixture, "--metrics-dir", metrics_dir],
                          bad, "invalid UTF-8"),
        "correlate csv": (["correlate", "--csv", bad, "--x-col", "x", "--y-col", "y"],
                          bad, "invalid UTF-8"),
        "fixture csv": (["predict", "--fixture", bad, "--metrics-dir", metrics_dir],
                        bad, "invalid UTF-8"),
    }[case]
    out = tmp_path / "out"
    if case != "out is a directory":
        argv += ["--out", out]
    assert cli(*argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("tokscope: error: ") and err.endswith("\n")
    assert str(culprit) in err and message in err
    assert not out.exists()


# An integer of more than int()'s 4,300-digit limit, in each JSON reader.
@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="this Python has no int() digit limit")
@pytest.mark.parametrize("reader", ["vocab", "jsonl corpus", "metric record"])
def test_json_integer_past_the_digit_limit_is_malformed(
        tmp_path, capsys, synth_cli_world, reader):
    metrics_dir, fixture = synth_cli_world
    huge = "1" + "0" * 5000
    vocab, merges, corpus = tmp_path / "v.json", tmp_path / "m.txt", tmp_path / "c.jsonl"
    vocab.write_text('{"a": 0, "b": 1}', encoding="utf-8")
    merges.write_text("", encoding="utf-8")
    corpus.write_text('{"text": "ab"}\n', encoding="utf-8")
    record = metrics_dir / "zz.json"
    culprit = {"vocab": f"{vocab}:", "jsonl corpus": f"{corpus} line 2:",
               "metric record": f"{record}:"}[reader]
    if reader == "vocab":
        vocab.write_text(f'{{"a": 0, "b": {huge}}}', encoding="utf-8")
    elif reader == "jsonl corpus":
        with corpus.open("a", encoding="utf-8") as fh:
            fh.write(f'{{"id": {huge}, "text": "a"}}\n')
    else:
        record.write_text(f'{{"tokenizer": "t", "language": "aa", "compression": {huge}}}',
                          encoding="utf-8")
    argv = (["predict", "--fixture", fixture, "--metrics-dir", metrics_dir]
            if reader == "metric record"
            else ["metrics", "--vocab", vocab, "--merges", merges, "--corpus", corpus,
                  "--format", "jsonl"])
    out = tmp_path / "out"
    assert cli(*argv, "--out", out) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"tokscope: error: {culprit} malformed JSON: Exceeds the limit")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert not out.exists()


# JSON nested past the decoder's recursion limit, in each JSON reader.
@pytest.mark.parametrize("reader", ["vocab", "jsonl corpus", "metric record"])
def test_deeply_nested_json_is_malformed(tmp_path, capsys, synth_cli_world, reader):
    metrics_dir, fixture = synth_cli_world
    nested = "[" * 100_000 + "]" * 100_000
    vocab, merges, corpus = tmp_path / "v.json", tmp_path / "m.txt", tmp_path / "c.jsonl"
    record = metrics_dir / "zz.json"
    vocab.write_text(nested if reader == "vocab" else '{"a": 0}', encoding="utf-8")
    merges.write_text("", encoding="utf-8")
    corpus.write_text('{"text": "a"}\n' + (nested if reader == "jsonl corpus" else ""),
                      encoding="utf-8")
    if reader == "metric record":
        record.write_text(nested, encoding="utf-8")
    culprit = {"vocab": f"{vocab}:", "jsonl corpus": f"{corpus} line 2:",
               "metric record": f"{record}:"}[reader]
    argv = (["predict", "--fixture", fixture, "--metrics-dir", metrics_dir]
            if reader == "metric record"
            else ["metrics", "--vocab", vocab, "--merges", merges, "--corpus", corpus,
                  "--format", "jsonl"])
    out = tmp_path / "out"
    assert cli(*argv, "--out", out) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"tokscope: error: {culprit} malformed JSON: maximum recursion depth")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["encode", "metrics"])
def test_lone_surrogate_in_jsonl_text_fails_located(tmp_path, capsys, trained_bpe, command):
    _, vocab, merges = trained_bpe
    corpus, out = tmp_path / "c.jsonl", tmp_path / "out"
    corpus.write_text('{"text": "ok"}\n{"text": "ab \\udc80"}\n', encoding="utf-8")
    assert cli(command, "--vocab", vocab, "--merges", merges, "--corpus", corpus,
               "--format", "jsonl", "--out", out) == 1
    assert capsys.readouterr().err == (
        f'tokscope: error: {corpus} line 2: "text" holds the lone surrogate U+DC80\n'
    )
    assert not out.exists()


# A tiny byte-level BPE (U+0120 is the space symbol) and two corpora for it,
# mutated with bytes that are not UTF-8, lone CRs, JSON syntax, lone
# surrogate escapes and characters the vocabulary lacks.
FUZZ_VOCAB = '{"a": 0, "b": 1, "c": 2, "\u0120": 3, "ab": 4, "\u0120a": 5}\n'.encode()
FUZZ_MERGES = "#version: 0.2\na b\n\u0120 a\n".encode()
FUZZ_CORPORA = {
    "plaintext-lines": b"ab c\nabc ab\r\n\nca b\n",
    "jsonl": b'{"id": "d1", "text": "ab c"}\n{"text": "abc ab"}\r\n\n{"id": 7, "text": "ca b"}\n',
}
BPE_FUZZ_PIECES = [b"a", b"b", b" ", b"\n", b"\r", b"\r\n", b"\xff", b"\xc3\xa9", b"\xc4\xa0",
                   b"\\ud800", b"\\udc80", b"\\u00e9", b'"', b"{", b"}", b",", b":", b"[", b"#",
                   b"x", b"-1", b"9223372036854775808", b'"text"', b'"id"', b"\x00"]


@st.composite
def bpe_inputs(draw):
    """A corpus format, and the vocabulary, merges and corpus bytes, each
    kept or mutated."""
    corpus_format = draw(st.sampled_from(sorted(FUZZ_CORPORA)))
    seeds = FUZZ_VOCAB, FUZZ_MERGES, FUZZ_CORPORA[corpus_format]
    return corpus_format, [draw(st.one_of(st.just(seed), mutated_files(seed, BPE_FUZZ_PIECES)))
                           for seed in seeds]


@settings(max_examples=150, deadline=None)
@given(command=st.sampled_from(["encode", "metrics"]), inputs=bpe_inputs())
def test_fuzzed_bpe_inputs_fail_cleanly(command, inputs):
    # Vocabulary, merges and corpus either encode (or count) or fail with
    # one line that names one of them, and no output.
    corpus_format, contents = inputs
    with tempfile.TemporaryDirectory() as d:
        paths = [Path(d) / name for name in ("vocab.json", "merges.txt", "corpus")]
        for path, content in zip(paths, contents):
            path.write_bytes(content)
        out = Path(d) / "out"
        code, err, caught = run_quietly(command, "--vocab", paths[0], "--merges", paths[1],
                                        "--corpus", paths[2], "--format", corpus_format,
                                        "--out", out)
        written = out.exists()
    assert not caught
    assert_clean_outcome(code, err, written, *paths)


@pytest.mark.parametrize("command", ["predict", "rank"])
@pytest.mark.parametrize("case", ["fixture row", "metric record", "bundled fixture",
                                  "1 fold", "0 folds", "-3 folds"])
def test_mismatched_inputs_fail_named(tmp_path, capsys, synth_cli_world, command, case):
    metrics_dir, fixture = synth_cli_world
    argv = [command, "--metrics-dir", metrics_dir, "--scale", SYNTH_SCALE, "--out",
            tmp_path / "out"] + (["--heldout-language", "bb"] if command == "rank" else [])
    if case == "fixture row":
        lines = fixture.read_text(encoding="utf-8").splitlines(keepends=True)
        fixture.write_text("".join(line for line in lines
                                   if not line.startswith("carol,1B,bb,en-xx,")),
                           encoding="utf-8")
        message = f"{fixture}: no score for ('carol', '1B', 'bb', 'en-xx')"
    elif case == "metric record":
        (metrics_dir / "alpha_aa.json").unlink()
        message = (f"{metrics_dir}: missing metrics for ('alpha', 'aa'), "
                   f"a tokenizer and language of {fixture}")
    elif case == "bundled fixture":
        message = (f"{metrics_dir}: missing metrics for ('Aya 23', 'cs'), "
                   "a tokenizer and language of wmt21_mt_scores.csv")
    else:
        folds = int(case.split()[0])
        argv += ["--cv-folds", folds]
        message = f"cv_folds must be at least 2, got {folds}"
    if case != "bundled fixture":
        argv += ["--fixture", fixture]
    assert cli(*argv) == 1
    assert capsys.readouterr().err == f"tokscope: error: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["predict", "rank"])
def test_huge_metric_value_fails_named(tmp_path, capsys, synth_cli_world, command):
    metrics_dir, fixture = synth_cli_world
    for name, value in (("carol_bb", 1e300), ("alpha_aa", 1e308), ("bravo_aa", -1e308)):
        record = metrics_dir / f"{name}.json"
        data = json.loads(record.read_text(encoding="utf-8"))
        record.write_text(json.dumps({**data, "auc": value}), encoding="utf-8")
    heldout = ["--heldout-language", "cc"] if command == "rank" else []
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli(command, "--fixture", fixture, "--metrics-dir", metrics_dir,
                   "--scale", SYNTH_SCALE, "--cv-folds", 2, *heldout, "--out", out)
    assert code == 1 and not caught and not out.exists()
    assert capsys.readouterr().err == (
        "tokscope: error: metric values of magnitude above 1e+100 cannot be standardized: "
        "('alpha', 'aa') auc=1e+308; ('bravo', 'aa') auc=-1e+308; ('carol', 'bb') auc=1e+300\n"
    )


# Values a metric record's field is set to: huge, tiny, negative, non-finite
# and non-numeric ones, and nested arrays.
FUZZ_VALUES = [1e300, -1e308, 1e99, 10**400, 2**63, 1e-320, 5e-324, -1e-300, -7, 0, -0.0,
               float("inf"), float("-inf"), float("nan"), "abc", "", None, True, [], [[1.0]],
               {"a": 1}]
FUZZ_FIELDS = ["tokenizer", "language", *METRIC_NAMES]


@st.composite
def record_mutations(draw):
    """(record index, kind, argument) edits, each of one record's JSON text."""
    edits = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["set", "delete", "duplicate", "truncate", "nest"]))
        if kind in ("set", "duplicate"):
            arg = (draw(st.sampled_from(FUZZ_FIELDS)), draw(st.sampled_from(FUZZ_VALUES)))
        elif kind == "delete":
            arg = draw(st.sampled_from(FUZZ_FIELDS))
        else:
            arg = draw(st.integers(0, 200) if kind == "truncate" else st.integers(1, 3))
        edits.append((draw(st.integers(0, 23)), kind, arg))
    return edits


def mutate_record(text, kind, arg):
    if kind == "truncate":
        return text[:arg]
    if kind == "nest":
        return "[" * arg + text + "]" * arg
    try:
        data = json.loads(text)
    except ValueError:  # truncated by an earlier edit
        return text
    if not isinstance(data, dict):  # nested by an earlier edit
        return text
    if kind == "set":
        return json.dumps({**data, arg[0]: arg[1]})
    if kind == "delete":
        data.pop(arg, None)
        return json.dumps(data)
    # A duplicate key: the decoder keeps the last of two equal keys.
    return text.rstrip()[:-1] + f", {json.dumps(arg[0])}: {json.dumps(arg[1])}}}"


@settings(max_examples=100, deadline=None)
@given(edits=record_mutations())
def test_fuzzed_metric_records_fail_cleanly(edits):
    # A metrics directory either predicts or fails with one error line and no output.
    with tempfile.TemporaryDirectory() as d:
        metrics_dir, fixture, out = Path(d) / "metrics", Path(d) / "scores.csv", Path(d) / "out"
        write_metrics_dir(make_synthetic_metrics(), metrics_dir)
        save_downstream_fixture(make_synthetic_fixture(), fixture)
        records = sorted(metrics_dir.glob("*.json"))
        for index, kind, arg in edits:
            text = mutate_record(records[index].read_text(encoding="utf-8"), kind, arg)
            records[index].write_text(text, encoding="utf-8")
        with contextlib.redirect_stderr(io.StringIO()) as err, \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli("predict", "--fixture", fixture, "--metrics-dir", metrics_dir,
                       "--scale", SYNTH_SCALE, "--model", "logistic", "--cv-folds", 2,
                       "--out", out)
        written = out.exists()
    assert code in (0, 1) and not caught
    if code == 0:
        assert written and not err.getvalue()
    else:
        lines = err.getvalue().splitlines(keepends=True)
        assert len(lines) == 1 and lines[0].endswith("\n")
        assert lines[0].startswith("tokscope: error: ")
        assert not written


# A fixture row's cell is set to one of these: empty, non-numeric, negative,
# non-finite and out-of-range scores, unknown directions and scales, extra
# separators and quotes.
FIXTURE_GARBLE = ["", "x", "-1", "nan", "inf", "1e309", "0", "en-fr", "2.7B", "a,b", '"', "#"]


@st.composite
def fixture_edits(draw):
    """Edits of the synthetic world: ("row", kind, index, arg) edits of the
    fixture CSV's data rows, and ("record", index, edit) edits of its
    metric records, where edit is None to delete the record."""
    edits = []
    for _ in range(draw(st.integers(0, 3))):
        if draw(st.booleans()):
            kind = draw(st.sampled_from(["drop", "duplicate", "garble"]))
            arg = (draw(st.integers(0, 5)), draw(st.sampled_from(FIXTURE_GARBLE)))
            edits.append(("row", kind, draw(st.integers(0, 47)), arg))
        else:
            one_edit = record_mutations().map(lambda edits: edits[0][1:])  # (kind, arg)
            edit = draw(st.one_of(st.none(), one_edit))
            edits.append(("record", draw(st.integers(0, 23)), edit))
    return edits


@settings(max_examples=80, deadline=None)
@given(edits=fixture_edits(), command=st.sampled_from(["predict", "rank"]),
       scale=st.sampled_from([SYNTH_SCALE, SYNTH_SCALE, "XX"]),
       heldout=st.sampled_from(["aa", "dd", "zz"]), folds=st.integers(-2, 4))
def test_fuzzed_fixture_and_metrics_fail_cleanly(edits, command, scale, heldout, folds):
    # A fixture and metrics directory either predict or rank, or fail with
    # one error line and no output.
    with tempfile.TemporaryDirectory() as d:
        metrics_dir, fixture, out = Path(d) / "metrics", Path(d) / "scores.csv", Path(d) / "out"
        write_metrics_dir(make_synthetic_metrics(), metrics_dir)
        save_downstream_fixture(make_synthetic_fixture(), fixture)
        header, *rows = fixture.read_text(encoding="utf-8").splitlines()
        records = sorted(metrics_dir.glob("*.json"))
        for edit in edits:
            if edit[0] == "row":
                _, kind, index, (column, value) = edit
                index %= len(rows)
                if kind == "drop":
                    del rows[index]
                elif kind == "duplicate":
                    rows.insert(index, rows[index])
                else:
                    cells = rows[index].split(",")
                    cells[column % len(cells)] = value
                    rows[index] = ",".join(cells)
            elif not records[edit[1]].exists():
                continue
            elif edit[2] is None:
                records[edit[1]].unlink()
            else:
                text = mutate_record(records[edit[1]].read_text(encoding="utf-8"), *edit[2])
                records[edit[1]].write_text(text, encoding="utf-8")
        fixture.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
        argv = [command, "--fixture", fixture, "--metrics-dir", metrics_dir, "--scale", scale,
                "--cv-folds", folds, "--out", out]
        if command == "rank":
            argv += ["--heldout-language", heldout]
        else:
            argv += ["--model", "logistic"]
        code, err, caught = run_quietly(*argv)
        written = out.exists()
    assert not caught
    assert_clean_outcome(code, err, written, "")


class TestEncode:
    def test_one_line_per_document(self, tmp_path, trained_bpe):
        tok, vocab_path, merges_path = trained_bpe
        corpus = tmp_path / "c.txt"
        corpus.write_text("first document\nsecond document\n", encoding="utf-8")
        out = tmp_path / "enc.txt"
        assert cli("encode", "--vocab", vocab_path, "--merges", merges_path,
                   "--corpus", corpus, "--out", out) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0].startswith("# {")
        assert len(lines) == 3
        from tokscope import encode
        expected = encode(tok, "first document").tokens.tolist()
        assert [int(t) for t in lines[1].split()] == expected

    def test_each_line_is_its_document_encoded(self, tmp_path, trained_bpe):
        tok, vocab_path, merges_path = trained_bpe
        docs = [f"document number {i} with words" for i in range(12)]
        corpus = tmp_path / "c.txt"
        corpus.write_text("\n".join(docs) + "\n", encoding="utf-8")
        out = tmp_path / "enc.txt"
        assert cli("encode", "--vocab", vocab_path, "--merges", merges_path,
                   "--corpus", corpus, "--no-timestamp", "--out", out) == 0
        lines = out.read_text(encoding="utf-8").split("\n")
        assert lines[0].startswith("# {") and lines[-1] == ""
        from tokscope import encode
        assert lines[1:-1] == [
            " ".join(map(str, encode(tok, d).tokens.tolist())) for d in docs
        ]

    def test_each_distinct_piece_is_merged_once(self, tmp_path, trained_bpe, monkeypatch):
        _, vocab_path, merges_path = trained_bpe
        docs = ["the cat and the dog", "the dog\tand  the cat ", "猫 猫 🙂🙂 the cat",
                "the cat and the dog"]
        corpus = tmp_path / "c.txt"
        corpus.write_text("\n".join(docs) + "\n", encoding="utf-8")
        from tokscope import bpe
        merged = Counter()
        merge = bpe._merge

        def counting(tokenizer, pieces):
            merged.update(pieces)
            return merge(tokenizer, pieces)

        monkeypatch.setattr(bpe, "_merge", counting)
        pieces = [p for d in docs for p in bpe.pretokenize(d)]
        assert len(pieces) > len(set(pieces))
        for command in ("encode", "metrics"):
            merged.clear()
            assert cli(command, "--vocab", vocab_path, "--merges", merges_path,
                       "--corpus", corpus, "--out", tmp_path / "out") == 0
            assert merged == Counter(set(pieces))

    @pytest.mark.parametrize("corpus_format, text, doc_id", [
        ("plaintext-lines", "a\n\nabc\n", "3"),
        ("jsonl", '{"id": "x1", "text": "a"}\n{"id": "x2", "text": "abc"}\n', "x2"),
        *FAILURES_ACROSS_BATCHES,
    ])
    def test_failure_names_the_document_and_leaves_no_output(
            self, tmp_path, capsys, corpus_format, text, doc_id):
        vocab, merges = tmp_path / "v.json", tmp_path / "m.txt"
        vocab.write_text('{"a": 0}', encoding="utf-8")
        merges.write_text("", encoding="utf-8")
        corpus = tmp_path / "c.txt"
        corpus.write_text(text, encoding="utf-8")
        out = tmp_path / "enc.txt"
        assert cli("encode", "--vocab", vocab, "--merges", merges, "--corpus", corpus,
                   "--format", corpus_format, "--out", out) == 1
        err = capsys.readouterr().err
        assert err == f"tokscope: error: {corpus} document {doc_id}: {SYMBOL_B_MISSING}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["encode", "metrics"])
    def test_corpus_is_read_as_it_is_encoded(self, tmp_path, trained_bpe, command):
        _, vocab_path, merges_path = trained_bpe

        def peak(lines):
            corpus = tmp_path / f"c{lines}.txt"
            corpus.write_text("the quick brown fox jumps over the lazy dog\n" * lines,
                              encoding="utf-8")
            tracemalloc.start()
            try:
                assert cli(command, "--vocab", vocab_path, "--merges", merges_path,
                           "--corpus", corpus, "--out", tmp_path / "out") == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(4_000)  # imports the modules the command needs
        # Holding 40,000 documents would take about 8 MB.
        assert peak(40_000) < peak(4_000) + 300_000

    @pytest.mark.parametrize("corpus_format, text, message", [
        pytest.param("jsonl", '{"text": "a"}\n' * BATCH_CHARS + '{"text": 1}\n',
                     f' line {BATCH_CHARS + 1}: "text" must be a string', id="jsonl"),
        pytest.param("plaintext-lines", "a\n" * BATCH_CHARS + "\xff\n",
                     f": invalid UTF-8: 'utf-8' codec can't decode byte 0xff in position "
                     f"{2 * BATCH_CHARS}: invalid start byte", id="utf-8"),
    ])
    def test_corpus_error_after_a_batch_leaves_no_output(
            self, tmp_path, capsys, corpus_format, text, message):
        vocab, merges = tmp_path / "v.json", tmp_path / "m.txt"
        vocab.write_text('{"a": 0}', encoding="utf-8")
        merges.write_text("", encoding="utf-8")
        corpus = tmp_path / "c.txt"
        corpus.write_bytes(text.encode("utf-8").replace(b"\xc3\xbf", b"\xff"))
        out = tmp_path / "enc.txt"
        assert cli("encode", "--vocab", vocab, "--merges", merges, "--corpus", corpus,
                   "--format", corpus_format, "--out", out) == 1
        assert capsys.readouterr().err == f"tokscope: error: {corpus}{message}\n"
        assert not out.exists()

    def test_tokenizer_name_flag_is_gone(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            cli("encode", "--tokenizer-name", "x", "--out", tmp_path / "enc.txt")
        assert exc.value.code == 2
        assert "--tokenizer-name" in capsys.readouterr().err

    def test_stream_loads_back(self, tmp_path, trained_bpe):
        _, vocab_path, merges_path = trained_bpe
        corpus = tmp_path / "c.txt"
        corpus.write_text("round trip text\n", encoding="utf-8")
        out = tmp_path / "enc.txt"
        cli("encode", "--vocab", vocab_path, "--merges", merges_path,
            "--corpus", corpus, "--out", out)
        seq = load_token_stream(out)
        assert len(seq) > 0


def split_encoding(monkeypatch, cpus: int, part_bytes: int) -> None:
    """Make `encode` see `cpus` CPUs and split at `part_bytes` bytes a range."""
    monkeypatch.setattr(tokscope_cli, "MIN_PART_BYTES", part_bytes)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)


def assert_nothing_left(out: Path, fds: list) -> None:
    """No --out file, no child process and no open temporary file remain."""
    assert not out.exists()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert open_fds() == fds


def open_fds() -> list:
    return sorted(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else []


# Lines that a cut can fall next to: CRLF, empty and blank lines, lines off
# the word path (double spaces, tabs, leading or trailing blanks) and
# multibyte characters at either end.
RANGE_LINES = st.lists(
    st.one_of(
        st.text(st.sampled_from("ab  \t\ré猫🙂"), max_size=12),
        st.sampled_from(["the dog saw the fox", "猫", "🙂 the", "é\r", "\r", " ", ""]),
    ),
    max_size=40,
)


class TestEncodeRanges:
    """`encode` splits a plaintext corpus file into byte ranges, one process each."""

    def encode(self, trained_bpe, corpus, out) -> int:
        _, vocab, merges = trained_bpe
        return cli("encode", "--vocab", vocab, "--merges", merges, "--corpus", corpus,
                   "--no-timestamp", "--out", out)

    @settings(max_examples=40, deadline=None)
    @given(lines=RANGE_LINES, cpus=st.integers(2, 4), part_bytes=st.integers(1, 64),
           crlf=st.booleans())
    def test_ranges_write_what_one_range_writes(self, trained_bpe, lines, cpus, part_bytes,
                                                crlf):
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as monkeypatch:
            corpus, one, split = (Path(tmp) / name for name in ("c.txt", "one.tok", "split.tok"))
            data = "".join(line + ("\r\n" if crlf else "\n") for line in lines).encode()
            corpus.write_bytes(data)
            split_encoding(monkeypatch, 1, part_bytes)
            assert self.encode(trained_bpe, corpus, one) == 0
            split_encoding(monkeypatch, cpus, part_bytes)
            ranges = tokscope_cli._corpus_ranges(RunConfig(command="encode", corpus=corpus))
            assert self.encode(trained_bpe, corpus, split) == 0
            assert split.read_bytes() == one.read_bytes()
        # The ranges cover the file in order, and range k starts just after
        # the first LF at or past max(k * size // parts, the start of range
        # k - 1); the ranges end where no LF lies before the last byte.
        parts = min(cpus, len(data) // part_bytes)
        starts = [start for start, _ in ranges]
        assert starts[0] == 0 and [stop for _, stop in ranges] == [*starts[1:], None]
        expected = [0]
        while len(expected) < parts:
            cut = data.find(b"\n", max(len(expected) * len(data) // parts, expected[-1])) + 1
            if not cut or cut == len(data):
                break
            expected.append(cut)
        assert starts == expected

    def test_each_range_ends_after_the_first_lf_past_its_share(self, tmp_path, monkeypatch):
        corpus = tmp_path / "c.txt"
        corpus.write_bytes(b"aaaaaaaaa\n" * 100)
        split_encoding(monkeypatch, 4, 100)
        assert tokscope_cli._corpus_ranges(RunConfig(command="encode", corpus=corpus)) == [
            (0, 260), (260, 510), (510, 760), (760, None)]

    @pytest.mark.parametrize("case", ["jsonl", "pipe", "small", "one-cpu", "no-fork"])
    def test_inputs_that_stay_in_one_range(self, tmp_path, monkeypatch, case):
        corpus = tmp_path / "c.txt"
        corpus.write_bytes(b'{"text": "a"}\n' * 100)
        split_encoding(monkeypatch, 1 if case == "one-cpu" else 4,
                       800 if case == "small" else 100)
        if case == "pipe":
            corpus = tmp_path / "fifo"
            os.mkfifo(corpus)
        if case == "no-fork":
            monkeypatch.delattr(os, "fork")
        config = RunConfig(command="encode", corpus=corpus,
                           corpus_format="jsonl" if case == "jsonl" else "plaintext-lines")
        assert tokscope_cli._corpus_ranges(config) == [(0, None)]

    @pytest.mark.parametrize("line", [3, 4000, 7000])
    @pytest.mark.parametrize("fault, message", [
        pytest.param("ab", " document {line}: " + SYMBOL_B_MISSING, id="symbol"),
        pytest.param("\udcff", ": invalid UTF-8: 'utf-8' codec can't decode byte 0xff in "
                     "position {offset}: invalid start byte", id="utf-8"),
    ])
    def test_one_fault_fails_as_in_one_process(
            self, tmp_path, capsys, monkeypatch, line, fault, message):
        vocab, merges = tmp_path / "v.json", tmp_path / "m.txt"
        vocab.write_text('{"a": 0}', encoding="utf-8")
        merges.write_text("", encoding="utf-8")
        lines = ["a" * 9] * 8000
        lines[line - 1] = fault
        corpus = tmp_path / "c.txt"
        corpus.write_bytes("\n".join(lines).encode("utf-8", "surrogateescape") + b"\n")
        expected = f"tokscope: error: {corpus}" + message.format(
            line=line, offset=10 * (line - 1)) + "\n"
        out = tmp_path / "enc.txt"
        fds = open_fds()
        for cpus in (1, 3):
            split_encoding(monkeypatch, cpus, 10_000)
            assert cli("encode", "--vocab", vocab, "--merges", merges, "--corpus", corpus,
                       "--out", out) == 1
            assert capsys.readouterr().err == expected
            assert_nothing_left(out, fds)

    @pytest.mark.parametrize("first, later, message", [
        pytest.param("ab", "\udcff", " document 2: " + SYMBOL_B_MISSING, id="symbol-first"),
        pytest.param("\udcff", "ab", ": invalid UTF-8: 'utf-8' codec can't decode byte 0xff "
                     "in position 10: invalid start byte", id="utf-8-first"),
    ])
    def test_faults_in_two_ranges_report_the_earlier(
            self, tmp_path, capsys, monkeypatch, first, later, message):
        vocab, merges = tmp_path / "v.json", tmp_path / "m.txt"
        vocab.write_text('{"a": 0}', encoding="utf-8")
        merges.write_text("", encoding="utf-8")
        lines = ["a" * 9] * 8000
        lines[1], lines[6000] = first, later
        corpus = tmp_path / "c.txt"
        corpus.write_bytes("\n".join(lines).encode("utf-8", "surrogateescape") + b"\n")
        split_encoding(monkeypatch, 2, 10_000)
        assert len(tokscope_cli._corpus_ranges(RunConfig(command="encode", corpus=corpus))) == 2
        out = tmp_path / "enc.txt"
        fds = open_fds()
        assert cli("encode", "--vocab", vocab, "--merges", merges, "--corpus", corpus,
                   "--out", out) == 1
        assert capsys.readouterr().err == f"tokscope: error: {corpus}{message}\n"
        assert_nothing_left(out, fds)

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("data, message", [
        pytest.param(b"aaaaaaaaa\n" * 130_999 + b"ab\n" + b"aaaaaaaaa\n" * 99 + b"\xff\n"
                     + b"aaaaaaaaa\n" * 118_900, " document 131000: " + SYMBOL_B_MISSING,
                     id="in-a-later-range"),
        pytest.param(b"a\nab\na\n\xff\n", " document 2: " + SYMBOL_B_MISSING, id="in-one-batch"),
    ])
    def test_the_first_fault_in_the_file_is_reported(
            self, tmp_path, capsys, monkeypatch, cpus, data, message):
        # An unknown symbol and, after it, a bad byte. Both lie in one batch
        # of texts in the short corpus, and in the long one at 2 CPUs, where
        # the later range's batches start at its first line: the texts read
        # before a bad byte are encoded before it is reported.
        vocab, merges = tmp_path / "v.json", tmp_path / "m.txt"
        vocab.write_text('{"a": 0}', encoding="utf-8")
        merges.write_text("", encoding="utf-8")
        corpus = tmp_path / "c.txt"
        corpus.write_bytes(data)
        split_encoding(monkeypatch, cpus, tokscope_cli.MIN_PART_BYTES)
        out = tmp_path / "enc.txt"
        fds = open_fds()
        assert cli("encode", "--vocab", vocab, "--merges", merges, "--corpus", corpus,
                   "--out", out) == 1
        assert capsys.readouterr().err == f"tokscope: error: {corpus}{message}\n"
        assert_nothing_left(out, fds)

    @pytest.mark.parametrize("crash, status", [("raise", 2), ("kill", -9)])
    def test_a_child_that_crashes_fails_named(
            self, tmp_path, capsys, monkeypatch, trained_bpe, crash, status):
        corpus = tmp_path / "c.txt"
        corpus.write_bytes(b"the dog saw the fox\n" * 100)
        parent, encode_range = os.getpid(), tokscope_cli._encode_range

        def crashing(config, tokenizer, part, fh):
            if os.getpid() != parent:
                if crash == "kill":
                    os.kill(os.getpid(), 9)
                raise TypeError("a bug")
            encode_range(config, tokenizer, part, fh)

        monkeypatch.setattr(tokscope_cli, "_encode_range", crashing)
        split_encoding(monkeypatch, 2, 1000)
        out = tmp_path / "enc.txt"
        fds = open_fds()
        assert self.encode(trained_bpe, corpus, out) == 1
        assert capsys.readouterr().err == (
            f"tokscope: error: {corpus}: the process that encoded it from byte 1020 "
            f"ended with status {status}\n")
        assert_nothing_left(out, fds)

    def test_interrupt_kills_and_reaps_the_children(self, tmp_path, monkeypatch, trained_bpe):
        corpus = tmp_path / "c.txt"
        corpus.write_bytes(b"the dog saw the fox\n" * 100)
        parent = os.getpid()

        def interrupted(config, tokenizer, part, fh):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            time.sleep(60)  # a child still at work

        monkeypatch.setattr(tokscope_cli, "_encode_range", interrupted)
        split_encoding(monkeypatch, 4, 100)
        out = tmp_path / "enc.txt"
        fds = open_fds()
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            self.encode(trained_bpe, corpus, out)
        assert time.monotonic() - start < 30
        assert_nothing_left(out, fds)

    def test_sigterm_kills_and_reaps_the_children(self, tmp_path, trained_bpe):
        # The parent sends itself SIGTERM once it has forked, while its
        # children are still at work.
        _, vocab, merges = trained_bpe
        corpus, out = tmp_path / "c.txt", tmp_path / "enc.txt"
        corpus.write_bytes(b"the dog saw the fox\n" * 100)
        script = (
            "import os, signal, sys, time\n"
            "import tokscope.cli as cli\n"
            "cli.MIN_PART_BYTES = 100\n"
            "os.sched_getaffinity = lambda pid: set(range(4))\n"
            "parent = os.getpid()\n"
            "def terminated(config, tokenizer, part, fh):\n"
            "    if os.getpid() == parent:\n"
            "        os.kill(parent, signal.SIGTERM)\n"
            "    time.sleep(60)\n"
            "cli._encode_range = terminated\n"
            "sys.exit(cli.main(sys.argv[1:]))\n")
        package_root = str(Path(tokscope.__file__).resolve().parents[1])
        proc = subprocess.Popen(
            [sys.executable, "-c", script, "encode", "--vocab", str(vocab), "--merges",
             str(merges), "--corpus", str(corpus), "--out", str(out)],
            stderr=subprocess.PIPE, start_new_session=True,
            env={**os.environ, "PYTHONPATH": package_root})
        try:
            assert (proc.communicate(timeout=15)[1], proc.returncode) == (b"", 128 + 15)
            assert not out.exists()
            deadline = time.monotonic() + 5
            with pytest.raises(ProcessLookupError):  # no process is left in its group
                while time.monotonic() < deadline:
                    os.killpg(proc.pid, 0)
                    time.sleep(0.05)
        finally:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, 9)
            proc.wait()


class TestCorrelate:
    def write_csv(self, path, rows, header="x,y"):
        path.write_text(
            "\n".join([header] + [f"{a},{b}" for a, b in rows]) + "\n",
            encoding="utf-8",
        )

    def test_matches_library_spearman(self, tmp_path):
        rows = [(1, 2), (2, 1), (3, 4), (4, 3)]
        csv_path = tmp_path / "data.csv"
        self.write_csv(csv_path, rows)
        out = tmp_path / "corr.json"
        assert cli("correlate", "--csv", csv_path, "--x-col", "x", "--y-col", "y",
                   "--out", out) == 0
        data = json.loads(out.read_text(encoding="utf-8"))
        expected = spearman([r[0] for r in rows], [r[1] for r in rows])
        assert data["method"] == "spearman"
        assert data["coefficient"] == expected.coefficient
        assert data["p_value"] == expected.p_value
        assert data["n"] == 4
        assert data["coefficient"] == pytest.approx(0.6)

    def test_kendall_method(self, tmp_path):
        rows = [(1, 1), (2, 2), (3, 4), (4, 3), (5, 5)]
        csv_path = tmp_path / "data.csv"
        self.write_csv(csv_path, rows)
        out = tmp_path / "corr.json"
        assert cli("correlate", "--csv", csv_path, "--x-col", "x", "--y-col", "y",
                   "--method", "kendall", "--out", out) == 0
        data = json.loads(out.read_text(encoding="utf-8"))
        assert data["method"] == "kendall"
        assert data["coefficient"] == pytest.approx(0.8)

    def test_comment_lines_skipped(self, tmp_path):
        csv_path = tmp_path / "data.csv"
        csv_path.write_text(
            '# {"tool": "tokscope"}\nx,y\n1,1\n2,2\n3,3\n', encoding="utf-8"
        )
        out = tmp_path / "corr.json"
        assert cli("correlate", "--csv", csv_path, "--x-col", "x", "--y-col", "y",
                   "--out", out) == 0
        assert json.loads(out.read_text(encoding="utf-8"))["n"] == 3

    def test_non_numeric_cell_fails(self, tmp_path, capsys):
        csv_path = tmp_path / "data.csv"
        csv_path.write_text("x,y\n1,2\n2,high\n", encoding="utf-8")
        code = cli("correlate", "--csv", csv_path, "--x-col", "x", "--y-col", "y",
                   "--out", tmp_path / "corr.json")
        assert code == 1
        err = capsys.readouterr().err
        assert "non-numeric" in err and "line 3" in err

    @pytest.mark.parametrize("method", ["spearman", "kendall"])
    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cell_fails_located(self, tmp_path, capsys, method, cell):
        csv_path = tmp_path / "data.csv"
        self.write_csv(csv_path, [(1, cell), (2, 3), (3, 4), (4, 1)])
        out = tmp_path / "corr.json"
        assert cli("correlate", "--csv", csv_path, "--x-col", "x", "--y-col", "y",
                   "--method", method, "--out", out) == 1
        assert capsys.readouterr().err == (
            f"tokscope: error: {csv_path} line 2: "
            f"non-numeric or non-finite value {cell!r} in column 'y'\n"
        )
        assert not out.exists()

    def test_error_line_counts_comment_lines(self, tmp_path, capsys):
        csv_path = tmp_path / "data.csv"
        csv_path.write_text('# {"tool": "tokscope"}\nx,y\n1,2\n2,nan\n', encoding="utf-8")
        assert cli("correlate", "--csv", csv_path, "--x-col", "x", "--y-col", "y",
                   "--out", tmp_path / "corr.json") == 1
        assert capsys.readouterr().err == (
            f"tokscope: error: {csv_path} line 4: "
            "non-numeric or non-finite value 'nan' in column 'y'\n"
        )

    def test_missing_column_fails(self, tmp_path, capsys):
        csv_path = tmp_path / "data.csv"
        csv_path.write_text("x,y\n1,2\n", encoding="utf-8")
        code = cli("correlate", "--csv", csv_path, "--x-col", "x", "--y-col", "z",
                   "--out", tmp_path / "corr.json")
        assert code == 1
        assert "no column" in capsys.readouterr().err

    def test_column_named_twice_fails_named(self, tmp_path, capsys):
        csv_path = tmp_path / "data.csv"
        csv_path.write_text("x,y,x\n1,2,5\n2,1,6\n3,3,7\n", encoding="utf-8")
        out = tmp_path / "corr.json"
        assert cli("correlate", "--csv", csv_path, "--x-col", "x", "--y-col", "y",
                   "--out", out) == 1
        assert capsys.readouterr().err == (
            f"tokscope: error: {csv_path}: column 'x' appears twice in the header\n")
        assert not out.exists()

    def test_unknown_method_via_config(self, tmp_path, capsys):
        csv_path = tmp_path / "data.csv"
        self.write_csv(csv_path, [(1, 1), (2, 2), (3, 3)])
        config = RunConfig(command="correlate", csv_path=csv_path, x_col="x",
                           y_col="y", method="pearson", out=tmp_path / "o.json")
        assert run(config) == 1
        assert "unknown correlation method" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["spearman", "kendall"])
    def test_header_only_csv_names_the_file(self, tmp_path, capsys, method):
        csv_path = tmp_path / "data.csv"
        csv_path.write_text("x,y\n", encoding="utf-8")
        out = tmp_path / "corr.json"
        assert cli("correlate", "--csv", csv_path, "--x-col", "x", "--y-col", "y",
                   "--method", method, "--out", out) == 1
        assert capsys.readouterr().err == (
            f"tokscope: error: {csv_path}: need at least 3 observations, got 0\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("method", ["spearman", "kendall"])
    @pytest.mark.parametrize("rows, column", [
        ([(1, 5), (2, 5), (3, 5)], "y"),
        ([(4, 1), (4, 2), (4, 3), (4, 1)], "x"),
    ], ids=["y", "x"])
    def test_constant_column_names_file_and_column(self, tmp_path, capsys, method, rows, column):
        csv_path = tmp_path / "data.csv"
        self.write_csv(csv_path, rows)
        out = tmp_path / "corr.json"
        assert cli("correlate", "--csv", csv_path, "--x-col", "x", "--y-col", "y",
                   "--method", method, "--out", out) == 1
        assert capsys.readouterr().err == (
            f"tokscope: error: {csv_path}: undefined correlation: "
            f"zero variance in column {column!r}\n"
        )
        assert not out.exists()


# Pieces a valid correlate CSV is mutated with: separators, quotes, comment
# marks, bytes that are not UTF-8, and values that are not finite, sit at the
# edge of the float range or repeat.
CSV_FUZZ_PIECES = [b"0", b"1", b"7", b",", b"\n", b"\r\n", b'"', b"#", b" ", b"x", b"y", b"-",
                   b"\x00", b"\xff", b"nan", b"inf", b"-inf", b"1e308", b"-1e308", b"1e309",
                   b"5e-324", b"\n1,1", b"\n2,2"]
CSV_FUZZ_SEED = b"# a header\nx,y\n1,2\n2,1\n3,4\n4,3\n5,5\n"


@settings(max_examples=150, deadline=None)
@given(content=mutated_files(CSV_FUZZ_SEED, CSV_FUZZ_PIECES),
       method=st.sampled_from(["spearman", "kendall"]))
# Differences of values near the float limit overflow, which Kendall's tau
# once reported as a numpy RuntimeWarning.
@example(content=b"x,y\n1e308,1\n-1e308,2\n3,3\n", method="kendall")
def test_fuzzed_correlate_csv_fails_cleanly(content, method):
    # A CSV either correlates or fails with one line that names it, and no output.
    with tempfile.TemporaryDirectory() as d, \
            contextlib.redirect_stderr(io.StringIO()) as err, \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        csv_path, out = Path(d) / "data.csv", Path(d) / "out"
        csv_path.write_bytes(content)
        code = cli("correlate", "--csv", csv_path, "--x-col", "x", "--y-col", "y",
                   "--method", method, "--out", out)
        written = out.exists()
    assert code in (0, 1, 2) and not caught
    if code == 0:
        assert written and not err.getvalue()
    else:
        lines = err.getvalue().splitlines(keepends=True)
        assert len(lines) == 1 and lines[0].endswith("\n")
        assert lines[0].startswith(f"tokscope: error: {csv_path}")
        assert not written


class TestPredictCommand:
    def test_end_to_end_on_synthetic_world(self, tmp_path, synth_cli_world):
        metrics_dir, fixture_path = synth_cli_world
        out = tmp_path / "predict.json"
        assert cli("predict", "--fixture", fixture_path, "--metrics-dir", metrics_dir,
                   "--scale", SYNTH_SCALE, "--model", "logistic", "--out", out) == 0
        data = json.loads(out.read_text(encoding="utf-8"))
        assert data["command"] == "predict"
        assert data["model"] == "logistic"
        assert data["feature_set"] == list(METRIC_NAMES)
        assert data["mean_f1"] == 1.0
        assert set(data["per_heldout"]) == set(SYNTH_TOKENIZERS)
        assert data["metadata"]["seed"] == 0

    def test_feature_subset_flag(self, tmp_path, synth_cli_world):
        metrics_dir, fixture_path = synth_cli_world
        out = tmp_path / "predict.json"
        assert cli("predict", "--fixture", fixture_path, "--metrics-dir", metrics_dir,
                   "--scale", SYNTH_SCALE, "--features", "compression", "slope",
                   "--out", out) == 0
        data = json.loads(out.read_text(encoding="utf-8"))
        assert data["feature_set"] == ["compression", "slope"]
        assert data["mean_f1"] == 1.0

    def test_unknown_scale_fails(self, tmp_path, synth_cli_world, capsys):
        metrics_dir, fixture_path = synth_cli_world
        out = tmp_path / "predict.json"
        assert cli("predict", "--fixture", fixture_path, "--metrics-dir", metrics_dir,
                   "--scale", "XX", "--out", out) == 1
        assert capsys.readouterr().err == (
            f"tokscope: error: scale 'XX' is not in the fixture (has [{SYNTH_SCALE!r}])\n"
        )
        assert not out.exists()


class TestRankCommand:
    def test_end_to_end_on_synthetic_world(self, tmp_path, synth_cli_world):
        metrics_dir, fixture_path = synth_cli_world
        out = tmp_path / "rank.json"
        assert cli("rank", "--fixture", fixture_path, "--metrics-dir", metrics_dir,
                   "--scale", SYNTH_SCALE, "--heldout-language", "aa",
                   "--out", out) == 0
        data = json.loads(out.read_text(encoding="utf-8"))
        assert data["command"] == "rank"
        assert data["truth"] == list(SYNTH_TOKENIZERS)
        assert data["predicted"] == list(SYNTH_TOKENIZERS)
        assert data["kendall_tau"] == pytest.approx(1.0)
        assert 0.0 < data["p_value_one_sided"] <= data["p_value_two_sided"] <= 1.0
        assert len(data["probabilities"]) == 30
        for key, p in data["probabilities"].items():
            first, second = key.split("|")
            assert 0.0 < p < 1.0
            assert p + data["probabilities"][f"{second}|{first}"] == pytest.approx(1.0)
        assert set(data["strengths"]) == set(SYNTH_TOKENIZERS)

    def test_unknown_language_fails(self, tmp_path, synth_cli_world, capsys):
        metrics_dir, fixture_path = synth_cli_world
        code = cli("rank", "--fixture", fixture_path, "--metrics-dir", metrics_dir,
                   "--scale", SYNTH_SCALE, "--heldout-language", "zz",
                   "--out", tmp_path / "rank.json")
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("tokscope: error: language 'zz' is not in the fixture (has ")
        assert not (tmp_path / "rank.json").exists()

    def test_unknown_scale_fails(self, tmp_path, synth_cli_world, capsys):
        metrics_dir, fixture_path = synth_cli_world
        out = tmp_path / "rank.json"
        assert cli("rank", "--fixture", fixture_path, "--metrics-dir", metrics_dir,
                   "--scale", "XX", "--heldout-language", "aa", "--out", out) == 1
        assert capsys.readouterr().err == (
            f"tokscope: error: scale 'XX' is not in the fixture (has [{SYNTH_SCALE!r}])\n"
        )
        assert not out.exists()


class TestMetricDir:
    def test_duplicate_records_rejected(self, tmp_path):
        payload = {"tokenizer": "t", "language": "aa", "compression": 3,
                   "cardinality": 2, "auc": 0.2, "slope": -1.0, "power_law": 0.0}
        for name in ("a.json", "b.json"):
            (tmp_path / name).write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ValueError, match="duplicate metrics"):
            load_metric_dir(tmp_path)

    def test_missing_identity_fields_rejected(self, tmp_path):
        (tmp_path / "a.json").write_text('{"compression": 3}', encoding="utf-8")
        with pytest.raises(ValueError, match="tokenizer/language"):
            load_metric_dir(tmp_path)

    @pytest.mark.parametrize(
        "field, text", [("compression", '"abc"'), ("auc", "NaN"), ("slope", "-Infinity")]
    )
    def test_bad_metric_value_names_file_and_field(self, tmp_path, field, text):
        payload = {"tokenizer": "t", "language": "aa", "compression": 3,
                   "cardinality": 2, "auc": 0.2, "slope": -1.0, "power_law": 0.0}
        path = tmp_path / "a.json"
        path.write_text(json.dumps({**payload, field: "BAD"}).replace('"BAD"', text),
                        encoding="utf-8")
        with pytest.raises(ValueError) as exc:
            load_metric_dir(tmp_path)
        bad = json.loads(text)
        assert str(exc.value) == f"{path}: field {field!r} is not a finite number: {bad!r}"

    @pytest.mark.parametrize("text", ["5", '"x"', "null"])
    def test_record_that_is_not_an_object_rejected(self, tmp_path, text):
        path = tmp_path / "a.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError) as exc:
            load_metric_dir(tmp_path)
        assert str(exc.value) == f"{path}: record is not a JSON object"

    def test_empty_directory_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="no \\*.json"):
            load_metric_dir(tmp_path)

    def test_non_directory_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="not a directory"):
            load_metric_dir(tmp_path / "nowhere")


class TestSeedEnvironment:
    def test_env_overrides_flag(self, tmp_path, monkeypatch):
        from_env = tmp_path / "env.txt"
        from_flag = tmp_path / "flag.txt"
        monkeypatch.setenv("TOKSCOPE_SEED", "7")
        cli("gen-zipf", "--n-tokens", 500, "--n-types", 5, "--seed", 0,
            "--no-timestamp", "--out", from_env)
        monkeypatch.delenv("TOKSCOPE_SEED")
        cli("gen-zipf", "--n-tokens", 500, "--n-types", 5, "--seed", 7,
            "--no-timestamp", "--out", from_flag)
        assert from_env.read_bytes() == from_flag.read_bytes()

    def test_invalid_env_value(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("TOKSCOPE_SEED", "lots")
        code = cli("gen-zipf", "--n-tokens", 100, "--n-types", 3,
                   "--out", tmp_path / "s.txt")
        assert code == 2
        assert "TOKSCOPE_SEED" in capsys.readouterr().err


    @pytest.mark.parametrize("command", ["gen-zipf", "predict", "rank"])
    def test_negative_env_value(self, tmp_path, monkeypatch, capsys, command):
        monkeypatch.setenv("TOKSCOPE_SEED", "-1")
        assert cli(command, "--out", tmp_path / "out") == 2
        assert capsys.readouterr().err == (
            "tokscope: error: TOKSCOPE_SEED must be non-negative, got -1\n")
        assert not (tmp_path / "out").exists()


class TestParserDefaults:
    """A flag left off the command line takes its RunConfig default."""

    REQUIRED = {
        "encode": {"vocab": "v.json", "merges": "m.txt", "corpus": "c.txt", "out": "o"},
        "metrics": {"tokens": "t.tokens", "out": "o"},
        "export-curve": {"tokens": "t.tokens", "out": "o"},
        "correlate": {"csv_path": "d.csv", "x_col": "x", "y_col": "y", "out": "o"},
        "predict": {"metrics_dir": "m", "out": "o"},
        "rank": {"metrics_dir": "m", "heldout_language": "aa", "out": "o"},
        "gen-zipf": {"out": "o"},
    }

    @pytest.mark.parametrize("command", sorted(REQUIRED))
    def test_required_flags_only(self, command, monkeypatch):
        monkeypatch.delenv("TOKSCOPE_SEED", raising=False)
        given = self.REQUIRED[command]
        argv = [command]
        for name, value in given.items():
            argv += ["--csv" if name == "csv_path" else "--" + name.replace("_", "-"), value]
        config = config_from_args(_build_parser().parse_args(argv))
        defaults = RunConfig(command=command)
        for f in dataclasses.fields(RunConfig):
            if f.name in given:
                assert str(getattr(config, f.name)) == given[f.name]
            else:
                assert getattr(config, f.name) == getattr(defaults, f.name), f.name


class TestRunDispatch:
    def test_unknown_command(self, capsys):
        assert run(RunConfig(command="frobnicate")) == 2
        assert "unknown command" in capsys.readouterr().err

    def test_console_script_version(self, monkeypatch, capsys):
        # Make the call the wrapper script generated from [project.scripts]
        # makes, so the check needs no install.
        target, version = declared_console_script()
        module, _, name = target.partition(":")
        func = getattr(importlib.import_module(module), name)
        monkeypatch.setattr(sys, "argv", ["tokscope", "--version"])
        with pytest.raises(SystemExit) as exc:
            sys.exit(func())
        assert exc.value.code in (0, None)
        assert capsys.readouterr().out.strip() == f"tokscope {version}"

    def test_python_m_tokscope_version(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "argv", ["tokscope", "--version"])
        with pytest.raises(SystemExit) as exc:
            runpy.run_module("tokscope", run_name="__main__")
        assert exc.value.code in (0, None)
        assert capsys.readouterr().out == f"tokscope {tokscope.__version__}\n"

    @pytest.mark.skipif(shutil.which("tokscope") is None,
                        reason="tokscope console script not on PATH")
    def test_installed_console_script_version(self):
        proc = subprocess.run([shutil.which("tokscope"), "--version"],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == f"tokscope {importlib.metadata.version('tokscope')}"

    def test_cli_import_leaves_bpe_unloaded(self):
        # Only encode and metrics --corpus need bpe and, with it, regex.
        proc = fresh_python(
            "-c", "import sys; from tokscope.cli import main; "
            "print(sorted(m for m in ('regex', 'tokscope.bpe') if m in sys.modules))")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_cli_import_leaves_predictor_and_ranking_unloaded(self):
        # Only predict and rank need them.
        proc = fresh_python(
            "-c", "import sys; import tokscope.cli; "
            "print(sorted(m for m in ('tokscope.predictor', 'tokscope.ranking') "
            "if m in sys.modules))")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_cli_import_leaves_multiprocessing_unloaded(self):
        # encode forks its workers itself and never needs multiprocessing.
        proc = fresh_python(
            "-c", "import sys; import tokscope.cli; "
            "print('multiprocessing' in sys.modules)")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_model_choices_are_the_predictor_kinds(self):
        from tokscope.predictor import MODEL_KINDS

        predict = _build_parser()._subparsers._group_actions[0].choices["predict"]
        (model,) = [a for a in predict._actions if a.dest == "model"]
        assert tuple(model.choices) == MODEL_KINDS

    def test_python_m_tokscope_cli_warns_nothing(self):
        proc = fresh_python("-W", "error::RuntimeWarning", "-m", "tokscope.cli", "--version")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == f"tokscope {tokscope.__version__}\n"

    def test_every_public_name_imports(self):
        proc = fresh_python(
            "-c", "import tokscope; "
            "exec('from tokscope import ' + ', '.join(tokscope.__all__)); "
            "print(len(tokscope.__all__))")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == str(len(tokscope.__all__))

    def test_cli_import_leaves_scipy_unloaded(self):
        # scipy is needed only for spearman's large-n p-value; loading it
        # with the CLI would cost every command about 0.3 s.
        package_root = str(Path(tokscope.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, tokscope.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
            capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": package_root},
        )
        assert proc.stdout.strip() == "[]"

    def test_predict_leaves_numpy_ma_unloaded(self, synth_cli_world, tmp_path):
        # np.setdiff1d would load numpy.ma through np.unique, about 10 ms of
        # import in each predict process.
        metrics_dir, fixture = synth_cli_world
        proc = fresh_python(
            "-c", "import sys; from tokscope.cli import main; "
            f"code = main(['predict', '--fixture', {str(fixture)!r}, '--metrics-dir', "
            f"{str(metrics_dir)!r}, '--scale', {SYNTH_SCALE!r}, '--cv-folds', '2', "
            f"'--out', {str(tmp_path / 'p.json')!r}]); "
            "print(code, 'numpy.ma' in sys.modules)")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "0 False"


def fresh_python(*args) -> subprocess.CompletedProcess:
    """Run a new interpreter that imports tokscope from this checkout."""
    package_root = str(Path(tokscope.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": package_root})


def declared_console_script():
    """Return ([project.scripts] tokscope, project.version) of the checkout
    that holds the imported package."""
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(tokscope.__file__).resolve().parents[2] / "pyproject.toml"
    if not pyproject.is_file():
        pytest.skip(f"tokscope is not imported from a source checkout: no {pyproject}")
    project = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]
    return project["scripts"]["tokscope"], project["version"]


def test_demo_pipeline_recovers_the_planted_order(tmp_path):
    # The demo drives metrics, predict and rank through the CLI on a world
    # whose quality order is planted, so every held-out F1 is 1.0.
    script = Path(__file__).resolve().parents[1] / "scripts" / "demo_pipeline.py"
    proc = fresh_python(str(script), "--workdir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert "mean F1 = 1.000" in proc.stdout
    assert json.loads((tmp_path / "predict.json").read_text())["mean_f1"] == 1.0
    rank = json.loads((tmp_path / "rank.json").read_text())
    assert rank["predicted"] == rank["truth"]
