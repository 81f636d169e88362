"""Seeded input generators for the benchmark.

Everything the program under test reads is produced here from a numpy
Generator, with no import of the program itself, so a change to the
program cannot change its own inputs. Each generator also returns the
facts an independent oracle needs (exact counts, the decoding table,
the planted order).
"""

from __future__ import annotations

import csv
import hashlib
import json
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np
import regex

# --- token streams ---------------------------------------------------------

TOKENS_PER_LINE = 1000
WRITE_CHUNK = 1000 * TOKENS_PER_LINE


def stream_counts(rng, kind: str, n_tokens: int, n_types: int, exponent: float, offset: float):
    """Counts per rank: exact power law, or a multinomial Zipf-Mandelbrot sample."""
    ranks = np.arange(1, n_types + 1, dtype=np.float64)
    if kind == "exact":
        weights = ranks**-exponent
        counts = np.rint(n_tokens * weights / weights.sum()).astype(np.int64)
        if counts.min() < 1:
            raise ValueError(f"exact stream {n_tokens}/{n_types}/{exponent} has an empty tail")
        return counts
    if kind == "zipf-mandelbrot":
        p = (ranks + offset) ** -exponent
        return rng.multinomial(n_tokens, p / p.sum()).astype(np.int64)
    raise ValueError(f"unknown stream kind {kind!r}")


def make_stream(rng, kind, n_tokens, n_types, exponent, offset):
    """A shuffled token stream and its exact count per token id.

    Ranks are assigned to token ids in a shuffled order. The ids are the
    block of equal-width numbers starting at 10^(digits of n_types - 1),
    for example 10000-59999 for 50 k types, so the seed does not decide how
    many bytes a token takes or whether the top ranks get Python's cached
    small ints; either would move a stream's size and the parser's memory.
    Returns the stream and the count of each id (zero below the block).
    """
    counts_by_rank = stream_counts(rng, kind, n_tokens, n_types, exponent, offset)
    first = 10 ** (len(str(n_types)) - 1)
    ids = first + rng.permutation(n_types)
    counts_by_id = np.zeros(first + n_types, dtype=np.int64)
    counts_by_id[ids] = counts_by_rank
    tokens = np.repeat(ids, counts_by_rank)
    rng.shuffle(tokens)
    return tokens, counts_by_id


def write_token_file(path: Path, tokens: np.ndarray, n_ids: int, header: str) -> int:
    """Write ids as decimal text, TOKENS_PER_LINE per line, after a '#' header.

    Each id's text is gathered from a table of all ids' digits, which is
    several times faster than formatting ids one by one. Returns bytes written.
    """
    digits = [str(i).encode() for i in range(n_ids)]
    widths = np.fromiter(map(len, digits), dtype=np.int64, count=n_ids) + 1
    table = np.frombuffer(b" ".join(digits) + b" ", dtype=np.uint8)
    starts = np.cumsum(widths) - widths
    written = 0
    with path.open("wb") as fh:
        written += fh.write(f"# {header}\n".encode())
        for lo in range(0, len(tokens), WRITE_CHUNK):
            ids = tokens[lo : lo + WRITE_CHUNK]
            w = widths[ids]
            ends = np.cumsum(w)
            gather = np.repeat(starts[ids] - (ends - w), w) + np.arange(ends[-1])
            out = table[gather]
            out[ends[TOKENS_PER_LINE - 1 :: TOKENS_PER_LINE] - 1] = ord("\n")
            out[-1] = ord("\n")
            written += fh.write(out.tobytes())
    return written


# --- mixed-script lexicon and corpus ---------------------------------------

# The pre-tokenizer the BPE files are trained for (the GPT-2 pattern).
PRETOKENIZE_PATTERN = regex.compile(
    r"""'s|'t|'re|'ve|'m|'ll|'d| ?\p{L}+| ?\p{N}+| ?[^\s\p{L}\p{N}]+|\s+(?!\S)|\s+"""
)

_LATIN = "etaoinshrdlcumwfgypbvkjxqz"
_SCRIPTS = (
    # (alphabet, shortest word, longest word, share of the lexicon). Each
    # length range leaves room for many more distinct words than it gets.
    (_LATIN, 3, 12, 0.40),
    (_LATIN[:12] + "éèàçüöäñôâîßøåœ", 3, 11, 0.15),
    ("оеаинтсрвлкмдпуяызьбгчйхжшюцщэфёъ", 3, 11, 0.20),
    ("".join(chr(0x4E00 + 7 * i) for i in range(400)), 2, 4, 0.12),
    ("0123456789", 4, 8, 0.06),
    (".,;:!?-()[]/&%*+=", 3, 5, 0.04),
    ("".join(chr(0x1F600 + i) for i in range(64)), 2, 3, 0.03),
)
# The script and length of the word at each Zipf rank come from this fixed
# seed; the benchmark's seed draws the letters. So every seed yields a
# corpus with the same bytes, pieces and memo hit ratio per rank, and
# timings and memory compare across seeds.
LEXICON_SHAPE_SEED = 20_250_603


def make_lexicon(rng, n_words: int) -> list[str]:
    """Distinct single-script words, in Zipf-rank order.

    Letters within a script are Zipf-weighted; a word that repeats an
    earlier one is drawn again.
    """
    shape = np.random.default_rng(LEXICON_SHAPE_SEED)
    script = shape.choice(len(_SCRIPTS), size=n_words, p=[s[3] for s in _SCRIPTS])
    lengths = np.array([shape.integers(_SCRIPTS[k][1], _SCRIPTS[k][2] + 1) for k in script])
    words: list[str | None] = [None] * n_words
    seen: set[str] = set()
    for k, (alphabet, _, _, _) in enumerate(_SCRIPTS):
        letters = np.array(list(alphabet))
        weights = 1.0 / np.arange(1, len(letters) + 1) ** 0.8
        todo = np.flatnonzero(script == k)
        while len(todo):
            drawn = rng.choice(letters, size=int(lengths[todo].sum()), p=weights / weights.sum())
            again = []
            for i, chunk in zip(todo, np.split(drawn, np.cumsum(lengths[todo])[:-1])):
                word = "".join(chunk)
                if word in seen:
                    again.append(i)
                else:
                    seen.add(word)
                    words[i] = word
            todo = np.array(again, dtype=np.int64)
    return words


def zipf_weights(n: int, exponent: float) -> np.ndarray:
    w = np.arange(1, n + 1, dtype=np.float64) ** -exponent
    return w / w.sum()


def make_corpus_lines(rng, lexicon, weights, target_bytes: int) -> list[str]:
    """Lines of 8-40 Zipf-drawn words until the UTF-8 size reaches target_bytes."""
    word_bytes = np.array([len(w.encode()) + 1 for w in lexicon])
    n_words = int(target_bytes / float(weights @ word_bytes))
    drawn = rng.choice(len(lexicon), size=n_words, p=weights)
    lengths = rng.integers(8, 41, size=n_words // 8)
    cuts = np.cumsum(lengths)
    cuts = cuts[cuts < n_words]
    return [" ".join(lexicon[i] for i in line) for line in np.split(drawn, cuts)]


def byte_to_unicode() -> dict[int, str]:
    """The byte-to-printable-character map of byte-level BPE files."""
    printable = [*range(ord("!"), ord("~") + 1), *range(0xA1, 0xAD), *range(0xAE, 0x100)]
    mapping = {b: chr(b) for b in printable}
    shift = 0
    for b in range(256):
        if b not in mapping:
            mapping[b] = chr(256 + shift)
            shift += 1
    return mapping


def train_bpe(piece_counts: Counter, n_merges: int):
    """Greedy BPE: repeatedly merge the most frequent adjacent symbol pair.

    Pair counts are updated only for the pieces that contain the merged
    pair. Ties go to the lexically smallest pair. Returns (vocab, merges)
    with the 256 byte symbols as ids 0-255.
    """
    enc = byte_to_unicode()
    pieces = [[enc[b] for b in p.encode()] for p in piece_counts]
    freqs = list(piece_counts.values())
    pair_counts: Counter = Counter()
    where: defaultdict = defaultdict(set)
    for i, syms in enumerate(pieces):
        for pair in zip(syms, syms[1:]):
            pair_counts[pair] += freqs[i]
            where[pair].add(i)
    vocab = {enc[b]: b for b in range(256)}
    merges = []
    for _ in range(n_merges):
        if not pair_counts:
            break
        best = min(pair_counts.items(), key=lambda kv: (-kv[1], kv[0]))[0]
        merged = best[0] + best[1]
        merges.append(best)
        vocab[merged] = len(vocab)
        for i in where.pop(best):
            syms = pieces[i]
            for pair in zip(syms, syms[1:]):
                pair_counts[pair] -= freqs[i]
                if pair_counts[pair] <= 0:
                    del pair_counts[pair]
            out, j = [], 0
            while j < len(syms):
                if j + 1 < len(syms) and (syms[j], syms[j + 1]) == best:
                    out.append(merged)
                    j += 2
                else:
                    out.append(syms[j])
                    j += 1
            pieces[i] = out
            for pair in zip(out, out[1:]):
                pair_counts[pair] += freqs[i]
                where[pair].add(i)
    return vocab, merges


def write_bpe_files(vocab, merges, directory: Path) -> tuple[Path, Path]:
    vocab_path, merges_path = directory / "vocab.json", directory / "merges.txt"
    vocab_path.write_text(json.dumps(vocab, ensure_ascii=False), encoding="utf-8")
    merges_path.write_text(
        "#version: 0.2\n" + "".join(f"{a} {b}\n" for a, b in merges), encoding="utf-8"
    )
    return vocab_path, merges_path


# --- planted predictor world -----------------------------------------------

WORLD_SCALE = "1B"
DIRECTIONS = ("en-xx", "xx-en")


def build_world(rng, directory: Path, n_tokenizers: int, n_languages: int):
    """A separable world built like acceptance criterion 7.

    Tokenizer k has quality k (0 is best): mean MetricX is 10 + k on every
    language and the compression feature is (10 + k) * (100 + language
    index). Every other feature is a seeded constant shared by all
    tokenizers of a language, so its pairwise differences are exactly zero.
    The seed therefore changes the files but not the learning problem,
    which keeps every held-out F1 at 1.0 and the solver work the same on
    every seed. Returns the fixture path, the metrics directory, the
    planted order (best first), the tokenizers and the languages.
    """
    tokenizers = [f"tok-{chr(ord('a') + k)}" for k in range(n_tokenizers)]
    languages = [f"lang{li}" for li in range(n_languages)]
    metrics_dir = directory / "metrics"
    metrics_dir.mkdir(parents=True, exist_ok=True)
    fixture_path = directory / "fixture.csv"
    with fixture_path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["tokenizer", "scale", "language", "direction", "metricx", "chrf"])
        for k, tok in enumerate(tokenizers):
            for li, lang in enumerate(languages):
                for direction, offset in zip(DIRECTIONS, (0.25, -0.25)):
                    metricx = 10.0 + k + offset + 0.01 * li
                    writer.writerow([tok, WORLD_SCALE, lang, direction, repr(metricx), repr(50.0 - k)])
    for li, lang in enumerate(languages):
        shared = rng.normal(size=3)
        constants = {
            "cardinality": int(rng.integers(100, 500)),
            "auc": float(shared[0]),
            "slope": float(-1.0 + 0.1 * shared[1]),
            "power_law": float(abs(shared[2])) * 0.01,
        }
        for k, tok in enumerate(tokenizers):
            record = dict(constants, tokenizer=tok, language=lang)
            record["compression"] = (10 + k) * (100 + li)
            (metrics_dir / f"{tok}_{lang}.json").write_text(
                json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8"
            )
    return fixture_path, metrics_dir, list(tokenizers), tokenizers, languages


def content_hash(paths) -> str:
    """sha256 over the named files' relative names and bytes, in sorted order."""
    digest = hashlib.sha256()
    for path, label in sorted(paths, key=lambda p: p[1]):
        digest.update(label.encode() + b"\0")
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                digest.update(block)
    return digest.hexdigest()
