"""Byte-level BPE encoding and decoding.

Works with the common two-file format: a JSON vocabulary mapping token
string to id, and a merges text file with one "left right" pair per
line in priority order (earlier lines merge first), optionally preceded
by a "#" header line. Loading rejects a merge whose parts or result are
not in the vocabulary, and turns the merges into sorted arrays over
dense vocabulary indices (see `BpeTokenizer`).

Text is pre-tokenized with a regex, and each piece starts as the
indices of the one-byte tokens of its UTF-8 bytes, whose strings are
printable unicode stand-ins for the bytes. Merges are applied by
repeatedly picking the adjacent pair with the lowest merge rank and
fusing every occurrence of it left to right. A piece always merges to
the same ids, so a call merges each distinct piece once, and merges a
batch's new pieces together in one numpy pass: each round fuses the
best pair of every piece at once and ranks again only the pairs next to
a merge, until no piece has a ranked pair.

`encode_lines` and `count_encoded` work on words: the chunks of a text
split at its spaces. When each space has non-whitespace on both sides,
the text's pieces are those of its words, each after the first with its
leading space (see `_words`), so each distinct word is pre-tokenized
once. `encode_lines` renders a batch of texts at a time from memos of
words and pieces that live as long as the call; `count_encoded` counts
the words of all the texts first, then merges each distinct piece once.
Any other text is pre-tokenized whole. Decoding inverts the byte mapping, so
decode(encode(text)) == text for any vocabulary whose merges were built
over the same byte alphabet.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass
from itertools import chain, islice
from pathlib import Path
from types import MappingProxyType

import numpy as np
import regex

from .corpus_io import _INT64_MAX, TokenSequence, _shown, parse_json, read_text

# Splits text into contractions, letter runs, digit runs, punctuation
# runs, and whitespace, with a single optional leading space attached
# to each run. The trailing alternates keep inter-word spaces separate
# from a final space that precedes a word.
_PRETOKENIZER = regex.compile(
    r"""'s|'t|'re|'ve|'m|'ll|'d| ?\p{L}+| ?\p{N}+| ?[^\s\p{L}\p{N}]+|\s+(?!\S)|\s+"""
)

# Texts are pre-tokenized and their new pieces merged in batches of at
# least this many characters (the last batch may hold fewer).
BATCH_CHARS = 1 << 16

# `count_encoded` merges its distinct pieces this many at a time, so that
# the merge's arrays stay about as small as a batch's.
MERGE_PIECES = 1 << 13

_NO_RANK = np.iinfo(np.int64).max


@dataclass(frozen=True, eq=False)
class BpeTokenizer:
    """A vocabulary and its merge table, as read-only values; no memo of
    merged pieces outlives a call.

    Dense index j stands for the j-th smallest vocabulary id, `ids[j]`.
    The merge of (left, right) has the key left * (len(ids) + 1) + right,
    which fits in int64 whatever the ids are; no key holds the index
    len(ids), which the merge puts after each piece. `pair_keys` holds the
    keys in ascending order and `pair_ranks` the rank of each, its line
    order in the merges file; `rank_merged` holds the merged index of each
    rank.
    """

    id_to_token: Mapping[int, str]
    ids: np.ndarray  # the vocabulary id of each index, ascending
    id_text: tuple[str, ...]  # the decimal text of each index's id
    byte_index: np.ndarray  # the index of each byte's one-byte token, or -1
    pair_keys: np.ndarray
    pair_ranks: np.ndarray
    rank_merged: np.ndarray


class UnknownSymbolError(ValueError):
    """A text holds a byte whose one-byte token is not in the vocabulary."""


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


def _read_only(values) -> np.ndarray:
    arr = np.array(values, dtype=np.int64)
    arr.flags.writeable = False
    return arr


def load_bpe(vocab_path, merges_path) -> BpeTokenizer:
    vocab_path, merges_path = Path(vocab_path), Path(merges_path)
    raw = parse_json(read_text(vocab_path), vocab_path)
    if not isinstance(raw, dict):
        raise ValueError(f"{vocab_path}: vocabulary must be a JSON object")
    id_to_token: dict[int, str] = {}
    for token, token_id in raw.items():
        # bool is a subclass of int, so true and false are not ids.
        if type(token_id) is not int or token_id < 0:
            raise ValueError(
                f"{vocab_path}: token {token!r} has invalid id {token_id!r}"
            )
        if token_id > _INT64_MAX:
            raise ValueError(
                f"{vocab_path}: token {token!r} has id {_shown(str(token_id))}, "
                "which exceeds the int64 range"
            )
        if token_id in id_to_token:
            raise ValueError(
                f"{vocab_path}: id {token_id} assigned to both "
                f"{id_to_token[token_id]!r} and {token!r}"
            )
        id_to_token[token_id] = token
    ids = sorted(id_to_token)
    index_of = {id_to_token[token_id]: j for j, token_id in enumerate(ids)}

    merges: dict[tuple[int, int], int] = {}  # (left, right) -> merged, in rank order
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
            if part not in index_of:
                raise ValueError(
                    f"{merges_path} line {lineno}: {part!r} is not in the vocabulary"
                )
        pair = (index_of[parts[0]], index_of[parts[1]])
        if pair in merges:
            raise ValueError(
                f"{merges_path} line {lineno}: duplicate merge {tuple(parts)}"
            )
        merged = parts[0] + parts[1]
        if merged not in index_of:
            raise ValueError(
                f"{merges_path} line {lineno}: merge result {merged!r} "
                "is not in the vocabulary"
            )
        merges[pair] = index_of[merged]
    keys = np.array([left * (len(ids) + 1) + right for left, right in merges], dtype=np.int64)
    order = np.argsort(keys)
    return BpeTokenizer(
        id_to_token=MappingProxyType(id_to_token),
        ids=_read_only(ids),
        id_text=tuple(map(str, ids)),
        byte_index=_read_only([index_of.get(_BYTE_ENCODER[b], -1) for b in range(256)]),
        pair_keys=_read_only(keys[order]),
        pair_ranks=_read_only(order),
        rank_merged=_read_only(list(merges.values())),
    )


def _pair_ranks(tokenizer: BpeTokenizer, left, right) -> np.ndarray:
    """The merge rank of each pair (left[i], right[i]) of indices, or _NO_RANK."""
    keys = tokenizer.pair_keys
    if not len(keys):
        return np.full(len(left), _NO_RANK)
    key = left * (len(tokenizer.ids) + 1) + right
    found = np.minimum(keys.searchsorted(key), len(keys) - 1)
    return np.where(keys[found] == key, tokenizer.pair_ranks[found], _NO_RANK)


def _merge(tokenizer: BpeTokenizer, pieces: list[str]):
    """The merged indices of the pieces end to end and each piece's end
    offset in them, or None if a byte has no one-byte token.

    Each round merges, in every piece, all occurrences of the piece's
    pair of lowest rank, and re-ranks only the pairs next to a merge.
    """
    end = len(tokenizer.ids)  # the index that ends each piece; no merge has it
    # UTF-8 never uses the byte 0xFF, so it can stand for the end.
    lookup = np.append(tokenizer.byte_index[:0xFF], end)
    sym = lookup[np.frombuffer(b"\xff".join([*map(str.encode, pieces), b""]), dtype=np.uint8)]
    if (sym < 0).any():
        return None
    rank = np.concatenate([_pair_ranks(tokenizer, sym[:-1], sym[1:]), [_NO_RANK]])
    while len(sym):
        first = np.concatenate([[True], sym[:-1] == end])  # where each piece starts
        best = np.minimum.reduceat(rank, first.nonzero()[0])[first.cumsum() - 1]
        hit = ((rank == best) & (rank < _NO_RANK)).nonzero()[0]
        if not len(hit):
            break
        # Occurrences of one pair overlap only for a self-pair such as
        # (a, a); a run of them merges at every other position from its left.
        first = np.concatenate([[True], hit[1:] - hit[:-1] != 1])  # where each run of hits starts
        if not first.all():
            run_start = hit[np.maximum.accumulate(np.where(first, np.arange(len(hit)), 0))]
            hit = hit[(hit - run_start) % 2 == 0]
        sym[hit] = tokenizer.rank_merged[rank[hit]]
        keep = np.ones(len(sym), dtype=bool)
        keep[hit + 1] = False
        sym, rank = sym[keep], rank[keep]
        # Only the pairs that start at a merge or just before one change;
        # each merge moved the ones after it left by one.
        hit -= np.arange(len(hit))
        stale = np.concatenate([hit, np.maximum(hit - 1, 0)])
        rank[stale] = _pair_ranks(tokenizer, sym[stale], sym[stale + 1])
    kept = sym != end
    return sym[kept], np.cumsum(kept)[~kept]


def _words(text: str) -> list[str] | None:
    """The words of `text` between its spaces, or None if a space has
    whitespace or nothing on one side.

    A space with non-whitespace on both sides starts a piece: the pattern
    has no lookbehind, only its whitespace runs hold a space other than
    as their first character, and its (?!\\S) cannot look past a
    non-space. So the pieces of such a text are those of its first word
    followed by those of each later word with its leading space.
    `str.isspace` holds for every character that the pattern's \\s
    matches, so taking it as the test of whitespace may leave a text off
    the word path, but never cuts one at a wrong place.
    """
    if not text or text[0] == " " or text[-1] == " " or "  " in text:
        return None
    words = text.split(" ")
    # A printable text holds no whitespace but the space.
    if not text.isprintable() and any(w[0].isspace() or w[-1].isspace() for w in words):
        return None
    return words


def _batches(texts: Iterable[str]) -> Iterator[list]:
    """Batches of texts, each text with its words (None off the word
    path). The list is emptied and refilled for the next batch, so only
    one batch is held at a time. When reading a text fails, the texts
    read before it are yielded as a last batch before the error is
    raised, so a fault in an earlier text is found first."""
    batch, chars = [], 0
    try:
        for text in texts:
            batch.append((text, _words(text)))
            chars += len(text)
            if chars >= BATCH_CHARS:
                yield batch
                batch.clear()
                chars = 0
    except Exception:
        if batch:
            yield batch
        raise
    if batch:
        yield batch


def _unknown_symbol(tokenizer: BpeTokenizer, text: str) -> str | None:
    """The error message for the first byte of `text` that has no one-byte
    token, or None if every byte has one."""
    data = text.encode("utf-8")
    missing = np.flatnonzero(tokenizer.byte_index[np.frombuffer(data, dtype=np.uint8)] < 0)
    if not len(missing):
        return None
    return (f"symbol {_BYTE_ENCODER[data[missing[0]]]!r} is not in the vocabulary; "
            "vocab and merges files are inconsistent")


def _merged(tokenizer: BpeTokenizer, pieces: list[str], texts: Iterable[str]):
    """`_merge` of the pieces, which come from `texts`; a byte that has no
    one-byte token raises UnknownSymbolError for the first text holding one."""
    merged = _merge(tokenizer, pieces)
    if merged is None:
        raise UnknownSymbolError(next(filter(None, (_unknown_symbol(tokenizer, t) for t in texts))))
    return merged


def _parts(new: list[str], values: list, ends: np.ndarray) -> Iterator[tuple[str, list]]:
    """Each new piece and its slice of `values`, which ends at its end offset."""
    bounds = ends.tolist()
    return zip(new, map(values.__getitem__, map(slice, [0, *bounds], bounds)))


def encode(tokenizer: BpeTokenizer, text: str, name: str = "") -> TokenSequence:
    """The ids of `text`; the call merges each of its distinct pieces once."""
    pieces = pretokenize(text)
    new = list(set(pieces))
    merged, ends = _merged(tokenizer, new, [text])
    memo = dict(_parts(new, tokenizer.ids[merged].tolist(), ends))
    ids = np.fromiter(chain.from_iterable(map(memo.__getitem__, pieces)), dtype=np.int64)
    return TokenSequence(tokens=ids, source_tokenizer=name)


def encode_lines(tokenizer: BpeTokenizer, texts: Iterable[str]) -> Iterator[str]:
    """The ids of `encode(tokenizer, text)` of each text, as space-separated decimals.

    Within the call each distinct word (see `_words`) is pre-tokenized
    and rendered once and each distinct piece merged once, a batch's new
    pieces together; a line joins the rendered words of its text, so no
    id passes through a list or an array. A text off the word path is
    pre-tokenized whole each time. An UnknownSymbolError is raised for
    the first text of the failing batch that holds an unknown byte.
    """
    words, firsts, pieces = {}, {}, {}  # each one's ids as text
    id_text = tokenizer.id_text
    for batch in _batches(texts):
        # The units are each word that `words` lacks, with its leading
        # space, each first word that `firsts` lacks, and each text off
        # the word path, whole.
        new_words = list(set(chain.from_iterable(w[1:] for _, w in batch if w)).difference(words))
        new_firsts = list({w[0] for _, w in batch if w}.difference(firsts))
        units = [*(pretokenize(" " + word) for word in new_words), *map(pretokenize, new_firsts),
                 *(pretokenize(text) for text, w in batch if w is None)]
        new_pieces = list(set(chain.from_iterable(units)).difference(pieces))
        merged, ends = _merged(tokenizer, new_pieces, (text for text, _ in batch))
        id_texts = [id_text[j] for j in merged.tolist()]
        pieces.update((piece, " ".join(part)) for piece, part in _parts(new_pieces, id_texts, ends))
        rendered = [" ".join(map(pieces.__getitem__, unit)) for unit in units]
        words.update(zip(new_words, rendered))
        firsts.update(zip(new_firsts, rendered[len(new_words):]))
        others = iter(rendered[len(new_words) + len(new_firsts):])
        for _, text_words in batch:
            if text_words is None:
                yield next(others)
            else:
                yield " ".join([firsts[text_words[0]], *map(words.__getitem__, text_words[1:])])


def count_encoded(tokenizer: BpeTokenizer, texts: Iterable[str]) -> np.ndarray:
    """How often each vocabulary index occurs in the texts' encoding: an
    int64 array of length len(tokenizer.ids), whose entry j counts the id
    tokenizer.ids[j].

    One pass counts the later and first words of the texts on the word
    path and the pieces of the others. Each distinct word's pieces then
    count as often as the word, and the distinct pieces merge
    `MERGE_PIECES` at a time. So the texts are read to the end before any
    merge, and memory grows with the distinct words and pieces, not with
    the texts. An UnknownSymbolError names the symbol, not the text.
    """
    later, firsts, pieces = Counter(), Counter(), Counter()
    for text in texts:
        words = _words(text)
        if words is None:
            pieces.update(pretokenize(text))
        else:
            firsts[words[0]] += 1
            later.update(words[1:])
    for counted, lead in ((later, " "), (firsts, "")):
        for word, n in counted.items():
            for piece in pretokenize(lead + word):
                pieces[piece] += n
        counted.clear()  # the words are not held while the pieces merge
    by_index = np.zeros(len(tokenizer.ids), dtype=np.int64)
    items = iter(pieces.items())
    while part := list(islice(items, MERGE_PIECES)):
        distinct, counts = zip(*part)
        merged, ends = _merged(tokenizer, list(distinct), distinct)
        np.add.at(by_index, merged, np.repeat(counts, np.diff(ends, prepend=0)))
    return by_index


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
