"""Corpus, token-stream, and downstream-score ingestion.

All loaded values are plain frozen dataclasses, immutable after
construction.

Token files are text, so they stay inspectable. An entry is a run of
ASCII digits, entries are separated by ASCII whitespace (space, tab,
LF, CR, VT, FF), and a line whose first non-blank byte is "#" is a
comment. Any other byte, a "#" after an entry included, is an error
that names the file and the entry; so is an id above 2**63 - 1.
`read_token_blocks` parses a file in fixed-size binary blocks with
vectorized numpy, so a caller that folds the blocks (such as
`zipf_metrics.count_token_file`) needs memory for one block only.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from collections.abc import Iterator
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np

SCALES = ("350M", "2.7B")
LANGUAGES = ("cs", "de", "ru", "zh")
DIRECTIONS = ("en-xx", "xx-en")

FIXTURE_COLUMNS = ("tokenizer", "scale", "language", "direction", "metricx", "chrf")

# MT scores bundled with the package (six public tokenizers, two model
# scales, four language pairs, both translation directions).
BUNDLED_SCORES = "wmt21_mt_scores.csv"

# Token files are read this many bytes at a time and written this many ids
# per write call, which bounds the memory a file costs beyond its ids.
READ_BLOCK_BYTES = 1 << 20
WRITE_BLOCK_TOKENS = 1 << 20

_WHITESPACE = b" \t\n\r\v\f"
_LINE_BREAKS = b"\n\r\v\f"
# A line break and the comment line after it; the reader puts a line break
# before a block that starts a line, so the first line of a file needs no \A.
_COMMENT_LINE = re.compile(rb"([\n\r\v\f])[ \t]*#[^\n\r\v\f]*")
_INT64_MAX = np.iinfo(np.int64).max
_MAX_DIGITS = len(str(_INT64_MAX))  # 19: wider values never fit in int64
# 2**63 - 1 as its top 3 digits (922) and its low 16.
_INT64_TOP, _INT64_LOW = map(np.uint64, divmod(int(_INT64_MAX), 10**16))
# Whitespace put before a block: `_parse_block` reads no window that starts
# more than 7 bytes before the first digit of its run.
_PAD = b" " * 7
# Entry w is 0x0F in each of the top w bytes of a 64-bit window, the bytes
# of a run of w digits that ends the window; `_eight_digits` uses it.
_DIGIT_MASKS = np.array(
    [0x0F0F0F0F0F0F0F0F >> 8 * (8 - w) << 8 * (8 - w) for w in range(9)], dtype=np.uint64)
_SHOWN_CHARS = 40  # error messages cut a longer entry to this many characters
# Where the line open at a block cut stands.
_BLANK, _CONTENT, _COMMENT = range(3)


@dataclass(frozen=True)
class Document:
    id: str
    text: str


@dataclass(frozen=True)
class TokenSequence:
    """An ordered stream of non-negative token ids."""

    tokens: np.ndarray
    source_tokenizer: str = ""

    def __post_init__(self):
        arr = np.asarray(self.tokens, dtype=np.int64)
        if arr.ndim != 1:
            raise ValueError("tokens must be a 1-D sequence")
        if len(arr) and arr.min() < 0:
            raise ValueError("token ids must be non-negative")
        object.__setattr__(self, "tokens", arr)

    def __len__(self) -> int:
        return len(self.tokens)


@dataclass(frozen=True)
class ScoreEntry:
    tokenizer: str
    scale: str
    language: str
    direction: str
    metricx: float
    chrf: float

    @property
    def key(self) -> tuple[str, str, str, str]:
        return (self.tokenizer, self.scale, self.language, self.direction)


@dataclass(frozen=True)
class DownstreamFixture:
    """Downstream MT scores keyed by (tokenizer, scale, language, direction).

    MetricX is lower-is-better; chrF is higher-is-better. Consumers that
    define "wins" do so on MetricX.
    """

    entries: dict[tuple[str, str, str, str], ScoreEntry] = field(default_factory=dict)
    source: str = ""  # the file the scores were read from, named in errors

    def get(self, tokenizer: str, scale: str, language: str, direction: str) -> ScoreEntry:
        key = (tokenizer, scale, language, direction)
        if key not in self.entries:
            where = f"{self.source}: " if self.source else ""
            raise KeyError(f"{where}no score for {key}")
        return self.entries[key]

    def mean_metricx(self, tokenizer: str, scale: str, language: str) -> float:
        """MetricX averaged over both translation directions."""
        return 0.5 * sum(
            self.get(tokenizer, scale, language, d).metricx for d in DIRECTIONS
        )

    def tokenizers(self) -> list[str]:
        return sorted({k[0] for k in self.entries})

    def languages(self) -> list[str]:
        return sorted({k[2] for k in self.entries})

    def scales(self) -> list[str]:
        return sorted({k[1] for k in self.entries})


def read_text(path) -> str:
    """A UTF-8 file's text, with line endings as they are in the file."""
    try:
        return Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as e:
        raise ValueError(f"{path}: invalid UTF-8: {e}") from None


def load_corpus(path, format: str = "plaintext-lines") -> list[Document]:
    """The documents of a plaintext-lines or jsonl file (see `read_documents`)."""
    return list(read_documents(path, format))


def read_documents(path, format: str = "plaintext-lines", start: int = 0,
                   stop: int | None = None) -> Iterator[Document]:
    """Yield the documents of a plaintext-lines or jsonl file, reading one
    line at a time.

    Lines end at LF, and one CR before it is dropped; other line
    separators (VT, FF, U+0085, U+2028, ...) are text, so line numbers are
    those of `wc -l`. Empty lines (and jsonl records with empty text) are
    skipped: they contribute no tokens and would distort per-document
    statistics. Bytes that are not UTF-8 raise the error `read_text`
    raises, with their position in the whole file. jsonl text with a
    lone surrogate (an escape such as "\\udc80") has no UTF-8 form and is
    refused, naming its line.

    Only the lines from byte `start` up to byte `stop` (the end of the
    file if None) are read; `start` and `stop` must each be 0, the end of
    the file or just after an LF. Lines are numbered from 1 at `start`,
    while byte positions in errors stay those of the whole file.
    Duplicate jsonl ids are found only within the range.
    """
    with Path(path).open("rb") as fh:
        if format not in ("plaintext-lines", "jsonl"):
            raise ValueError(f"unknown corpus format {format!r}")
        if start:
            fh.seek(start)
        end = math.inf if stop is None else stop
        seen_ids: set[str] = set()
        offset = start
        for lineno, raw in enumerate(fh, start=1):
            if offset >= end:
                return
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as e:
                raise _decode_error(path, e, offset) from None
            offset += len(raw)
            line = line.removesuffix("\n").removesuffix("\r")
            if format == "plaintext-lines":
                if line:
                    yield Document(id=str(lineno), text=line)
                continue
            if not line.strip():
                continue
            record = parse_json(line, path, lineno)
            if not isinstance(record, dict) or "text" not in record:
                raise ValueError(f'{path} line {lineno}: record lacks a "text" field')
            text = record["text"]
            if not isinstance(text, str):
                raise ValueError(f'{path} line {lineno}: "text" must be a string')
            if not text:
                continue
            try:
                text.encode("utf-8")
            except UnicodeEncodeError as e:
                raise ValueError(f'{path} line {lineno}: "text" holds the lone surrogate '
                                 f"U+{ord(text[e.start]):04X}") from None
            doc_id = str(record.get("id", lineno))
            if doc_id in seen_ids:
                raise ValueError(f"{path} line {lineno}: duplicate document id {doc_id!r}")
            seen_ids.add(doc_id)
            yield Document(id=doc_id, text=text)


def parse_json(text: str, source, line: int | None = None):
    """The value of a JSON text; malformed JSON raises ValueError naming
    `source` and, if given, the line."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as e:  # digit limit, deep nesting
        where = source if line is None else f"{source} line {line}"
        raise ValueError(f"{where}: malformed JSON: {getattr(e, 'msg', e)}") from e


def _decode_error(path, e: UnicodeDecodeError, offset: int) -> ValueError:
    """The error of `read_text` for a decoding error in a line that starts
    `offset` bytes into the file, in the words of UnicodeDecodeError."""
    start = e.start + offset
    if e.end == e.start + 1:
        where = f"byte 0x{e.object[e.start]:02x} in position {start}"
    else:
        where = f"bytes in position {start}-{e.end - 1 + offset}"
    return ValueError(
        f"{path}: invalid UTF-8: '{e.encoding}' codec can't decode {where}: {e.reason}")


def read_token_blocks(path) -> Iterator[np.ndarray]:
    """Yield the ids of a token file as int64 arrays, one per block read
    (at least one, possibly empty).

    The file is read READ_BLOCK_BYTES at a time and each block is cut
    after its last whitespace byte, so no entry straddles two blocks.
    Malformed entries raise ValueError naming the file and the entry's
    1-based number in the whole file; an entry that runs past a block
    is reported as soon as it cannot be valid, showing what was read of
    it.
    """
    path = Path(path)
    state, carry, entries = _BLANK, b"", 0
    with path.open("rb") as fh:
        while True:
            chunk = fh.read(READ_BLOCK_BYTES)
            data = carry + chunk
            cut = max(map(data.rfind, _WHITESPACE)) + 1 if chunk else len(data)
            head, carry = data[:cut], data[cut:]
            head, state = _strip_comments(head, state)
            ids = _parse_block(head)
            if ids is None:
                raise ValueError(f"{path}: {_first_bad_entry(head, entries)}")
            entries += len(ids)
            # The carry continues the open line. Keep it short, so that a
            # long run with no whitespace costs linear time: a comment is
            # dropped, and an entry longer than a block is valid only as
            # leading zeros and at most 19 further digits.
            if state == _BLANK and carry.startswith(b"#"):
                state = _COMMENT
            if state == _COMMENT:
                carry = b""
            elif len(carry) > READ_BLOCK_BYTES:
                significant = carry.lstrip(b"0")
                if not carry.isdigit() or len(significant) > _MAX_DIGITS:
                    raise ValueError(f"{path}: {_first_bad_entry(carry, entries)}")
                carry = significant or b"0"
            yield ids
            if not chunk:
                return


def _strip_comments(head: bytes, state: int) -> tuple[bytes, int]:
    """Drop the comment lines of a block; also return the state at its end.

    `state` says where the line open at the start of the block stands.
    """
    if state == _COMMENT:
        breaks = [i for i in map(head.find, _LINE_BREAKS) if i >= 0]
        if not breaks:
            return b"", _COMMENT
        head = head[min(breaks) :]
    elif state == _BLANK:
        head = b"\n" + head
    last_break = max(map(head.rfind, _LINE_BREAKS))
    if last_break < 0:  # a line with content runs through the whole block
        state = _CONTENT
    else:
        last_line = head[last_break + 1 :].lstrip(b" \t")
        if not last_line:
            state = _BLANK
        else:
            state = _COMMENT if last_line.startswith(b"#") else _CONTENT
    if b"#" in head:
        head = _COMMENT_LINE.sub(rb"\1", head)
    return head, state


def _parse_block(head: bytes) -> np.ndarray | None:
    """The ids of a comment-free block, or None if any entry is malformed."""
    # With whitespace at both ends every digit run starts and ends inside
    # the block, and `_PAD` keeps every window read below inside it too.
    block = _PAD + head + b" "
    raw = np.frombuffer(block, dtype=np.uint8)
    is_digit = raw - np.uint8(ord("0")) < 10  # wraps, so only "0".."9" fall below 10
    # Whitespace is the space and bytes 9..13 (\t \n \v \f \r).
    if not (is_digit | (raw == ord(" ")) | (raw - np.uint8(9) < 5)).all():
        return None
    # Each digit run is the bytes after `before` up to `last`.
    edges = np.flatnonzero(is_digit[1:] != is_digit[:-1])
    before, last = edges[0::2], edges[1::2]
    lengths = last - before
    # Window i is bytes i..i+7 of the block read as one little-endian
    # uint64, so byte i is its lowest. The window that ends at a run's last
    # byte holds its last 8 digits, or all of a shorter run after the bytes
    # before it; `_eight_digits` zeroes those and says why its steps are exact.
    windows = np.ndarray((len(block) - 7,), dtype="<u8", buffer=block, strides=(1,))
    values = _eight_digits(windows[last - 7], lengths)
    longest = int(lengths.max(initial=0))
    if longest > 8:
        # The 8 digits before the last 8 count 10**8 times, and up to 3
        # before those 10**16 times. Digits left of the last 19 are
        # checked apart, below.
        wide = np.flatnonzero(lengths > 8)
        at, width = last[wide], np.minimum(lengths[wide], _MAX_DIGITS)
        values[wide] += _eight_digits(windows[at - 15], width - 8) * np.uint64(10**8)
        if longest > 16:
            top = width > 16
            wide, low = wide[top], values[wide[top]]
            high = _eight_digits(windows[at[top] - 23], width[top] - 16)
            # Compared with 2**63 - 1 by its top 3 and low 16 digits, so
            # no out-of-range sum is formed.
            if ((high > _INT64_TOP) | ((high == _INT64_TOP) & (low > _INT64_LOW))).any():
                return None
            values[wide] = low + high * np.uint64(10**16)
    if longest > _MAX_DIGITS:
        # Leading zeros are allowed; any other digit left of the last 19
        # puts the id out of range.
        nonzero = np.concatenate(([0], np.cumsum(is_digit & (raw != ord("0")))))
        wide = lengths > _MAX_DIGITS
        if (nonzero[last[wide] + 1 - _MAX_DIGITS] > nonzero[before[wide] + 1]).any():
            return None
    return values.view(np.int64)  # every value is at most _INT64_MAX


def _eight_digits(windows: np.ndarray, widths: np.ndarray) -> np.ndarray:
    """The values of the last min(width, 8) bytes of each window, which are
    ASCII digits; `windows` is overwritten.

    This is simdjson's SWAR parse. The AND with `_DIGIT_MASKS` zeroes the
    bytes before the run and turns "0".."9" into 0..9: one digit a byte,
    the first in the lowest byte. Multiplying by 10 * 2**8 + 1 adds ten
    times each byte to the byte above it, `>> 8` moves those sums down,
    and the mask keeps every other one, so each 16-bit lane holds the
    value of two digits. Multiplying by 100 * 2**16 + 1 and by
    10**4 * 2**32 + 1 joins lanes the same way into 4 and then 8 digits.
    Each sum stays below its lane's limit (99 < 2**8, 9999 < 2**16,
    10**8 - 1 < 2**32), so no carry crosses a lane, and the uint64
    wrap-around drops only bits above the top lane. Every operand is
    uint64: numpy computes uint64 with int64 in float64, losing digits.
    """
    windows &= _DIGIT_MASKS.take(widths, mode="clip")
    windows *= np.uint64(10 << 8 | 1)
    windows >>= np.uint64(8)
    windows &= np.uint64(0x00FF00FF00FF00FF)
    windows *= np.uint64(100 << 16 | 1)
    windows >>= np.uint64(16)
    windows &= np.uint64(0x0000FFFF0000FFFF)
    windows *= np.uint64(10_000 << 32 | 1)
    windows >>= np.uint64(32)
    return windows


def _first_bad_entry(head: bytes, entries_before: int) -> str:
    """Name the first malformed entry of a block that failed to parse."""
    for number, entry in enumerate(head.split(), start=entries_before + 1):
        if entry.isdigit():
            if len(entry.lstrip(b"0")) <= _MAX_DIGITS and int(entry) <= _INT64_MAX:
                continue
            return f"entry {number}: token id {_shown(entry.decode())} exceeds the int64 range"
        if entry[:1] == b"-" and entry[1:].isdigit():
            return f"entry {number}: negative token id {_shown(entry.decode())}"
        try:
            shown = _shown(repr(entry.decode("utf-8")))
        except UnicodeDecodeError:
            shown = f"{_shown(repr(entry))} (invalid UTF-8)"
        return f"entry {number}: not an integer: {shown}"
    raise AssertionError("a block that failed to parse has no malformed entry")


def _shown(text: str) -> str:
    """`text` cut to _SHOWN_CHARS characters, ending in "..." if it was cut."""
    return text if len(text) <= _SHOWN_CHARS else text[:_SHOWN_CHARS] + "..."


def load_token_stream(path, name: str | None = None) -> TokenSequence:
    """Read a token file (grammar in the module docstring) as a TokenSequence."""
    path = Path(path)
    return TokenSequence(
        tokens=np.concatenate(list(read_token_blocks(path))),
        source_tokenizer=name if name is not None else path.stem,
    )


def save_token_stream(seq: TokenSequence, path, header: str | None = None) -> None:
    """Write the ids space-separated on one line, after an optional "# header" line."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        if header is not None:
            fh.write(f"# {header}\n")
        for lo in range(0, len(seq.tokens), WRITE_BLOCK_TOKENS):
            if lo:
                fh.write(" ")
            fh.write(" ".join(map(str, seq.tokens[lo : lo + WRITE_BLOCK_TOKENS].tolist())))
        fh.write("\n")


def load_downstream_fixture(path) -> DownstreamFixture:
    """Load a downstream-score CSV (header: tokenizer,scale,language,direction,metricx,chrf)."""
    return _parse_fixture(read_text(path), str(path))


def load_bundled_fixture() -> DownstreamFixture:
    """The MT-score table shipped with the package."""
    ref = resources.files("tokscope").joinpath("data", BUNDLED_SCORES)
    return _parse_fixture(ref.read_bytes().decode("utf-8"), BUNDLED_SCORES)


def read_commented_csv(text: str, source) -> tuple[list[str], Iterator[tuple[int, dict]]]:
    """The header and (line number, row) pairs of CSV text with "#" comment lines.

    A line that starts with "#" is skipped. Line numbers are physical:
    they count the comment lines too, and a row that spans lines gets the
    number of its last line. A header that names a column twice raises
    ValueError naming `source`, the file the text was read from.
    """
    lineno = 0

    def lines():
        nonlocal lineno
        for lineno, line in enumerate(io.StringIO(text, newline=""), start=1):
            if not line.startswith("#"):
                yield line

    reader = csv.DictReader(lines())
    header = reader.fieldnames or []
    for i, column in enumerate(header):
        if column in header[:i]:
            raise ValueError(f"{source}: column {column!r} appears twice in the header")
    return header, ((lineno, row) for row in reader)


def _parse_fixture(text: str, source: str) -> DownstreamFixture:
    header, rows = read_commented_csv(text, source)
    missing = set(FIXTURE_COLUMNS) - set(header)
    if missing:
        raise ValueError(f"{source}: missing columns: {sorted(missing)}")
    entries: dict[tuple[str, str, str, str], ScoreEntry] = {}
    for lineno, row in rows:
        # csv fills a short row's missing fields with None and keeps a long
        # row's extra fields in a list under the key None.
        extra, short = row.pop(None, []), list(row.values()).count(None)
        if extra or short:
            raise ValueError(f"{source} line {lineno}: expected {len(header)} fields, "
                             f"got {len(header) + len(extra) - short}")
        for column in ("tokenizer", "scale", "language"):
            if not row[column]:
                raise ValueError(f"{source} line {lineno}: column {column!r} is empty")
        try:
            entry = ScoreEntry(
                tokenizer=row["tokenizer"],
                scale=row["scale"],
                language=row["language"],
                direction=row["direction"],
                metricx=float(row["metricx"]),
                chrf=float(row["chrf"]),
            )
        except ValueError as e:
            raise ValueError(f"{source} line {lineno}: bad row: {e}") from None
        if entry.direction not in DIRECTIONS:
            raise ValueError(
                f"{source} line {lineno}: direction must be one of {DIRECTIONS}, "
                f"got {entry.direction!r}"
            )
        if not (0 <= entry.metricx < math.inf and 0 <= entry.chrf < math.inf):
            raise ValueError(f"{source} line {lineno}: scores must be finite and non-negative")
        if entry.key in entries:
            raise ValueError(f"{source} line {lineno}: duplicate key {entry.key}")
        entries[entry.key] = entry
    return DownstreamFixture(entries=entries, source=source)


def save_downstream_fixture(fixture: DownstreamFixture, path) -> None:
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(FIXTURE_COLUMNS)
        for entry in sorted(fixture.entries.values(), key=lambda e: e.key):
            writer.writerow(
                [entry.tokenizer, entry.scale, entry.language, entry.direction,
                 repr(entry.metricx), repr(entry.chrf)]
            )
