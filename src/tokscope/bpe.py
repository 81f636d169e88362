"""Byte-level BPE encoding and decoding.

Works with the common two-file format: a JSON vocabulary mapping token
string to id, and a merges text file with one "left right" pair per
line in priority order (earlier lines merge first), optionally preceded
by a "#" header line.

Text is pre-tokenized with a regex, each piece is mapped to printable
unicode stand-ins for its UTF-8 bytes, and merges are applied by
repeatedly picking the adjacent pair with the lowest merge rank and
fusing every occurrence of it left to right. Decoding inverts the byte
mapping, so decode(encode(text)) == text for any vocabulary whose
merges were built over the same byte alphabet.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path

import numpy as np
import regex

from .corpus_io import TokenSequence

# Splits text into contractions, letter runs, digit runs, punctuation
# runs, and whitespace, with a single optional leading space attached
# to each run. The trailing alternates keep inter-word spaces separate
# from a final space that precedes a word.
PRETOKENIZE_PATTERN = (
    r"""'s|'t|'re|'ve|'m|'ll|'d| ?\p{L}+| ?\p{N}+| ?[^\s\p{L}\p{N}]+|\s+(?!\S)|\s+"""
)


@dataclass(frozen=True)
class Vocabulary:
    size: int
    id_to_token: dict[int, str]


@dataclass(frozen=True)
class BpeTokenizer:
    """A vocabulary and merge ranks, plus a memo of merged pieces."""

    token_to_id: dict[str, int]
    merge_ranks: dict[tuple[str, str], int]
    pattern: str = PRETOKENIZE_PATTERN
    id_to_token: dict[int, str] = field(default_factory=dict)
    _cache: dict[str, tuple[int, ...]] = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if not self.id_to_token:
            object.__setattr__(
                self, "id_to_token", {i: t for t, i in self.token_to_id.items()}
            )

    @property
    def vocabulary(self) -> Vocabulary:
        return Vocabulary(size=len(self.token_to_id), id_to_token=self.id_to_token)


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


@lru_cache(maxsize=8)
def _compiled(pattern: str):
    return regex.compile(pattern)


def pretokenize(text: str, pattern: str = PRETOKENIZE_PATTERN) -> list[str]:
    """Split text into pieces whose concatenation is exactly the text."""
    return _compiled(pattern).findall(text)


def load_bpe(vocab_path, merges_path, pattern: str = PRETOKENIZE_PATTERN) -> BpeTokenizer:
    vocab_path, merges_path = Path(vocab_path), Path(merges_path)
    with vocab_path.open(encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as e:
            raise ValueError(f"{vocab_path}: malformed JSON: {e.msg}") from e
    if not isinstance(raw, dict):
        raise ValueError(f"{vocab_path}: vocabulary must be a JSON object")
    token_to_id: dict[str, int] = {}
    seen_ids: dict[int, str] = {}
    for token, token_id in raw.items():
        if not isinstance(token_id, int) or token_id < 0:
            raise ValueError(
                f"{vocab_path}: token {token!r} has invalid id {token_id!r}"
            )
        if token_id in seen_ids:
            raise ValueError(
                f"{vocab_path}: id {token_id} assigned to both "
                f"{seen_ids[token_id]!r} and {token!r}"
            )
        seen_ids[token_id] = token
        token_to_id[token] = token_id

    merge_ranks: dict[tuple[str, str], int] = {}
    with merges_path.open(encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    start = 1 if lines and lines[0].startswith("#") else 0
    for lineno, line in enumerate(lines[start:], start=start + 1):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(
                f"{merges_path} line {lineno}: expected two fields, got {len(parts)}"
            )
        pair = (parts[0], parts[1])
        if pair in merge_ranks:
            raise ValueError(f"{merges_path} line {lineno}: duplicate merge {pair}")
        merged = parts[0] + parts[1]
        if merged not in token_to_id:
            raise ValueError(
                f"{merges_path} line {lineno}: merge result {merged!r} "
                "is not in the vocabulary"
            )
        merge_ranks[pair] = len(merge_ranks)
    return BpeTokenizer(token_to_id=token_to_id, merge_ranks=merge_ranks, pattern=pattern)


def _merge_piece(tokenizer: BpeTokenizer, piece: str) -> tuple[int, ...]:
    symbols = [_BYTE_ENCODER[b] for b in piece.encode("utf-8")]
    ranks = tokenizer.merge_ranks
    while len(symbols) > 1:
        best_rank = None
        best_pair = None
        for pair in zip(symbols, symbols[1:]):
            rank = ranks.get(pair)
            if rank is not None and (best_rank is None or rank < best_rank):
                best_rank, best_pair = rank, pair
        if best_pair is None:
            break
        merged = best_pair[0] + best_pair[1]
        out = []
        i = 0
        while i < len(symbols):
            if (
                i + 1 < len(symbols)
                and symbols[i] == best_pair[0]
                and symbols[i + 1] == best_pair[1]
            ):
                out.append(merged)
                i += 2
            else:
                out.append(symbols[i])
                i += 1
        symbols = out
    ids = []
    for sym in symbols:
        if sym not in tokenizer.token_to_id:
            raise ValueError(
                f"symbol {sym!r} is not in the vocabulary; "
                "vocab and merges files are inconsistent"
            )
        ids.append(tokenizer.token_to_id[sym])
    return tuple(ids)


def encode(tokenizer: BpeTokenizer, text: str, name: str = "") -> TokenSequence:
    ids: list[int] = []
    cache = tokenizer._cache
    for piece in pretokenize(text, tokenizer.pattern):
        cached = cache.get(piece)
        if cached is None:
            cached = _merge_piece(tokenizer, piece)
            cache[piece] = cached
        ids.extend(cached)
    return TokenSequence(tokens=np.asarray(ids, dtype=np.int64), source_tokenizer=name)


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
