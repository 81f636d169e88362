"""Byte-level BPE encoding and decoding.

Works with the common two-file format: a JSON vocabulary mapping token
string to id, and a merges text file with one "left right" pair per
line in priority order (earlier lines merge first), optionally preceded
by a "#" header line. Loading turns the merges into a table over ids,
(left id, right id) -> (rank, merged id), and rejects a merge whose
parts or result are not in the vocabulary.

Text is pre-tokenized with a regex, and each piece starts as the ids of
the one-byte tokens of its UTF-8 bytes, whose strings are printable
unicode stand-ins for the bytes. Merges are applied by repeatedly
picking the adjacent pair with the lowest merge rank and fusing every
occurrence of it left to right. Decoding inverts the byte mapping, so
decode(encode(text)) == text for any vocabulary whose merges were built
over the same byte alphabet.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import regex

from .corpus_io import TokenSequence, read_text

# Splits text into contractions, letter runs, digit runs, punctuation
# runs, and whitespace, with a single optional leading space attached
# to each run. The trailing alternates keep inter-word spaces separate
# from a final space that precedes a word.
_PRETOKENIZER = regex.compile(
    r"""'s|'t|'re|'ve|'m|'ll|'d| ?\p{L}+| ?\p{N}+| ?[^\s\p{L}\p{N}]+|\s+(?!\S)|\s+"""
)


@dataclass(frozen=True)
class BpeTokenizer:
    """A vocabulary and its merge table over ids, plus memos of merged pieces.

    `_cache` holds each piece's ids for `encode`; `_lines` holds the same
    ids as space-separated decimal text for `encode_line`.
    """

    id_to_token: dict[int, str]
    byte_ids: tuple[int | None, ...]  # the id of each byte's one-byte token, or None
    merges: dict[tuple[int, int], tuple[int, int]]  # (left, right) -> (rank, merged)
    _cache: dict[str, tuple[int, ...]] = field(default_factory=dict, repr=False)
    _lines: dict[str, str] = field(default_factory=dict, repr=False)


def byte_to_unicode() -> dict[int, str]:
    """Bijection from byte values to printable unicode characters.

    Printable bytes map to themselves; the rest are displaced upward to
    256 + k in order of appearance, so every byte has a distinct,
    visible stand-in.
    """
    printable = (
        list(range(ord("!"), ord("~") + 1))
        + list(range(ord("\xa1"), ord("\xac") + 1))
        + list(range(ord("\xae"), ord("\xff") + 1))
    )
    mapping = {b: chr(b) for b in printable}
    shift = 0
    for b in range(256):
        if b not in mapping:
            mapping[b] = chr(256 + shift)
            shift += 1
    return mapping


_BYTE_ENCODER = byte_to_unicode()
_BYTE_DECODER = {c: b for b, c in _BYTE_ENCODER.items()}


def pretokenize(text: str) -> list[str]:
    """Split text into pieces whose concatenation is exactly the text."""
    return _PRETOKENIZER.findall(text)


def load_bpe(vocab_path, merges_path) -> BpeTokenizer:
    vocab_path, merges_path = Path(vocab_path), Path(merges_path)
    try:
        raw = json.loads(read_text(vocab_path))
    except json.JSONDecodeError as e:
        raise ValueError(f"{vocab_path}: malformed JSON: {e.msg}") from e
    if not isinstance(raw, dict):
        raise ValueError(f"{vocab_path}: vocabulary must be a JSON object")
    id_to_token: dict[int, str] = {}
    for token, token_id in raw.items():
        # bool is a subclass of int, so true and false are not ids.
        if type(token_id) is not int or token_id < 0:
            raise ValueError(
                f"{vocab_path}: token {token!r} has invalid id {token_id!r}"
            )
        if token_id in id_to_token:
            raise ValueError(
                f"{vocab_path}: id {token_id} assigned to both "
                f"{id_to_token[token_id]!r} and {token!r}"
            )
        id_to_token[token_id] = token
    token_to_id = {token: token_id for token_id, token in id_to_token.items()}

    merges: dict[tuple[int, int], tuple[int, int]] = {}
    lines = read_text(merges_path).splitlines()
    start = 1 if lines and lines[0].startswith("#") else 0
    for lineno, line in enumerate(lines[start:], start=start + 1):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(
                f"{merges_path} line {lineno}: expected two fields, got {len(parts)}"
            )
        for part in parts:
            if part not in token_to_id:
                raise ValueError(
                    f"{merges_path} line {lineno}: {part!r} is not in the vocabulary"
                )
        pair = (token_to_id[parts[0]], token_to_id[parts[1]])
        if pair in merges:
            raise ValueError(
                f"{merges_path} line {lineno}: duplicate merge {tuple(parts)}"
            )
        merged = parts[0] + parts[1]
        if merged not in token_to_id:
            raise ValueError(
                f"{merges_path} line {lineno}: merge result {merged!r} "
                "is not in the vocabulary"
            )
        merges[pair] = (len(merges), token_to_id[merged])
    byte_ids = tuple(token_to_id.get(_BYTE_ENCODER[b]) for b in range(256))
    return BpeTokenizer(id_to_token=id_to_token, byte_ids=byte_ids, merges=merges)


def _merge_piece(tokenizer: BpeTokenizer, piece: str) -> tuple[int, ...]:
    data = piece.encode("utf-8")
    ids = [tokenizer.byte_ids[b] for b in data]
    if None in ids:
        symbol = _BYTE_ENCODER[data[ids.index(None)]]
        raise ValueError(
            f"symbol {symbol!r} is not in the vocabulary; "
            "vocab and merges files are inconsistent"
        )
    merges = tokenizer.merges
    while len(ids) > 1:
        best = None
        for pair in zip(ids, ids[1:]):
            found = merges.get(pair)
            # Ranks are distinct, so the (rank, merged) tuples order by rank.
            if found is not None and (best is None or found < best):
                best, (left, right) = found, pair
        if best is None:
            break
        merged = best[1]
        out = []
        i, last = 0, len(ids) - 1
        while i < last:
            if ids[i] == left and ids[i + 1] == right:
                out.append(merged)
                i += 2
            else:
                out.append(ids[i])
                i += 1
        if i == last:
            out.append(ids[last])
        ids = out
    return tuple(ids)


def encode(tokenizer: BpeTokenizer, text: str, name: str = "") -> TokenSequence:
    ids: list[int] = []
    cache = tokenizer._cache
    for piece in pretokenize(text):
        cached = cache.get(piece)
        if cached is None:
            cached = _merge_piece(tokenizer, piece)
            cache[piece] = cached
        ids.extend(cached)
    return TokenSequence(tokens=np.asarray(ids, dtype=np.int64), source_tokenizer=name)


def encode_line(tokenizer: BpeTokenizer, text: str) -> str:
    """The ids of `encode(tokenizer, text)` as space-separated decimals.

    Each distinct piece is merged and rendered once; a line joins the
    rendered pieces, so no id passes through a list or an array.
    """
    memo = tokenizer._lines
    pieces = pretokenize(text)
    for piece in pieces:
        if piece not in memo:
            memo[piece] = " ".join(map(str, _merge_piece(tokenizer, piece)))
    return " ".join([memo[piece] for piece in pieces])


def decode(tokenizer: BpeTokenizer, tokens) -> str:
    if isinstance(tokens, TokenSequence):
        tokens = tokens.tokens
    id_to_token = tokenizer.id_to_token
    chunks = []
    for token_id in (int(t) for t in tokens):
        if token_id not in id_to_token:
            raise ValueError(f"unknown token id {token_id}")
        chunks.append(id_to_token[token_id])
    text = "".join(chunks)
    try:
        data = bytes(_BYTE_DECODER[c] for c in text)
    except KeyError as e:
        raise ValueError(
            f"token text contains {e.args[0]!r}, which is outside the byte alphabet"
        ) from None
    return data.decode("utf-8", errors="replace")
