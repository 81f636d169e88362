"""Command-line surface for the analysis pipeline.

Subcommands: encode, metrics, export-curve, correlate, predict, rank,
gen-zipf. JSON reports carry a metadata block (tool version, seed, log
base, truncation bound); text outputs carry the same block on a single
leading "#" comment line so re-runs with --no-timestamp are
byte-identical. The TOKSCOPE_SEED environment variable overrides
--seed.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import datetime, timezone
from itertools import product
from pathlib import Path

import numpy as np

from . import __version__
from .corpus_io import (
    TokenSequence,
    load_bundled_fixture,
    load_downstream_fixture,
    parse_json,
    read_commented_csv,
    read_documents,
    read_text,
    save_token_stream,
)
from .stats import kendall, spearman
from .zipf_metrics import (
    DEFAULT_TRUNCATION_BOUND,
    METRIC_NAMES,
    MetricVector,
    TokenFrequencyTable,
    count_token_file,
    metadata_block,
    metric_vector_from_dict,
    metric_vector_from_table,
    metric_vector_to_dict,
    ranked_counts,
)

SEED_ENV_VAR = "TOKSCOPE_SEED"
CURVE_BLOCK_ROWS = 1 << 16  # export-curve rows formatted per writerows call
# `encode` splits a plaintext corpus into at most one byte range per CPU,
# each of at least this many bytes, so that each range's work outweighs
# the fork and the fresh memo it costs.
MIN_PART_BYTES = 1 << 20
# The faults `run` reports in one line; any other exception is a bug.
_REPORTED = (ValueError, KeyError, OSError, RuntimeError)


@dataclass
class RunConfig:
    command: str
    corpus: Path | None = None
    corpus_format: str = "plaintext-lines"
    tokens: Path | None = None
    vocab: Path | None = None
    merges: Path | None = None
    tokenizer_name: str | None = None
    language: str | None = None
    fixture: Path | None = None
    metrics_dir: Path | None = None
    csv_path: Path | None = None
    x_col: str | None = None
    y_col: str | None = None
    method: str = "spearman"
    features: tuple[str, ...] = METRIC_NAMES
    model: str = "logistic"
    scale: str = "2.7B"
    heldout_language: str | None = None
    cv_folds: int = 5
    seed: int = 0
    truncation_bound: float = DEFAULT_TRUNCATION_BOUND
    n_tokens: int = 1_000_000
    n_types: int = 403
    exponent: float = 1.0
    timestamp: bool = True
    out: Path | None = None


def generate_zipf_stream(
    n_tokens: int, n_types: int, exponent: float, seed: int = 0
) -> TokenSequence:
    """A stream whose rank-r type occurs exactly round(n_tokens / r^exponent) times.

    Counts are constructed, not sampled, then shuffled with the seed, so
    fitted slopes are analytic up to integer rounding.
    """
    if n_types < 3:
        raise ValueError("n_types must be at least 3")
    if not 0 <= exponent < math.inf:
        raise ValueError(f"exponent must be finite and non-negative, got {exponent}")
    if n_tokens < 1:
        raise ValueError(f"n_tokens must be positive, got {n_tokens}")
    # The head count is n_tokens itself; past 2^62 its float64 round trip
    # could leave the int64 range.
    if n_tokens > 2**62:
        raise ValueError(f"n_tokens must be at most 2^62, got {n_tokens}")
    # numpy cannot address 2^60 float64 ranks (2^63 bytes), and it counts
    # them from n_types rounded to a float, so 2^60 - 1 counts as 2^60.
    if n_types > 2**59:
        raise ValueError(f"n_types must be at most 2^59, got {n_types}")
    try:
        ranks = np.arange(1, n_types + 1, dtype=np.float64)
        # The tail count n_tokens / n_types^exponent is the least. Below 1/e
        # it is zero for certain, and that is checked in logs first, before
        # ranks**exponent can overflow.
        if math.log(n_tokens) - exponent * math.log(n_types) < -1.0 or (
            counts := np.rint(n_tokens / ranks**exponent).astype(np.int64)
        ).min() <= 0:
            raise ValueError(
                "parameters yield a zero count at the tail; "
                "increase n_tokens or reduce n_types/exponent"
            )
        stream = np.repeat(np.arange(n_types, dtype=np.int64), counts)
    except MemoryError:
        raise ValueError(
            f"not enough memory for a stream of n_tokens={n_tokens} over n_types={n_types}"
        ) from None
    np.random.default_rng(seed).shuffle(stream)
    return TokenSequence(tokens=stream, source_tokenizer=f"zipf-{exponent}")


def _metadata(config: RunConfig) -> dict:
    meta = {"tool": "tokscope", "version": __version__, "seed": config.seed}
    meta.update(metadata_block(config.truncation_bound))
    if config.timestamp:
        meta["timestamp"] = datetime.now(timezone.utc).isoformat()
    return meta


def _write_json(path: Path, payload: dict) -> None:
    with path.open("w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _comment_line(config: RunConfig) -> str:
    return "# " + json.dumps(_metadata(config), sort_keys=True)


def _require(config: RunConfig, *names: str) -> None:
    missing = [n for n in names if getattr(config, n) is None]
    if missing:
        flags = ", ".join("--" + n.replace("_", "-") for n in missing)
        raise ValueError(f"{config.command}: missing required flags: {flags}")


def _count_tokenizer_inputs(config: RunConfig) -> tuple[TokenFrequencyTable, str]:
    """The count table of a token stream and the tokenizer's name.

    The stream is either a token file, counted block by block, or a
    corpus whose distinct pieces are encoded once each and counted as
    often as they occur, by vocabulary index.
    """
    if config.tokens is not None:
        if config.vocab is not None or config.corpus is not None:
            raise ValueError("--tokens conflicts with --vocab/--merges/--corpus")
        name = config.tokenizer_name
        if name is None:
            name = Path(config.tokens).stem
        return count_token_file(config.tokens), name
    _require(config, "vocab", "merges", "corpus")
    from . import bpe  # regex is loaded only by the commands that encode

    name = config.tokenizer_name or Path(config.vocab).stem
    tokenizer = bpe.load_bpe(config.vocab, config.merges)
    docs = read_documents(config.corpus, config.corpus_format)
    with _naming_the_document(config, tokenizer):
        counts = bpe.count_encoded(tokenizer, (doc.text for doc in docs))
    used = np.flatnonzero(counts)
    if not len(used):
        raise ValueError(f"{config.corpus}: cannot count frequencies of an empty stream")
    return TokenFrequencyTable(tokenizer.ids[used], counts[used]), name


@contextmanager
def _naming_the_document(config: RunConfig, tokenizer, stop: int | None = None):
    """A failure to encode a document of the corpus names the corpus and
    the first document that holds a byte with no one-byte token, which is
    found by reading the corpus again from its top up to byte `stop`, the
    end of the failing range of `_corpus_ranges` (no earlier range holds
    a fault, see `_cmd_encode`), so its number is its line in the file."""
    from .bpe import UnknownSymbolError, _unknown_symbol

    try:
        yield
    except UnknownSymbolError as e:
        for doc in read_documents(config.corpus, config.corpus_format, 0, stop):
            if message := _unknown_symbol(tokenizer, doc.text):
                raise ValueError(f"{config.corpus} document {doc.id}: {message}") from None
        raise ValueError(f"{config.corpus}: {e}") from None  # a pipe reads as empty again


@contextmanager
def _sigterm_raising():
    """Within the block (or the call it decorates) SIGTERM raises
    SystemExit(128 + SIGTERM), as SIGINT raises KeyboardInterrupt, so that
    the block's cleanup runs. Python takes signal handlers only in the
    main thread; elsewhere SIGTERM keeps its handler."""
    import signal
    import threading

    if threading.current_thread() is not threading.main_thread():
        yield
        return

    def terminate(signum, frame):
        raise SystemExit(128 + signum)

    previous = signal.signal(signal.SIGTERM, terminate)
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, previous)


@_sigterm_raising()
def _cmd_encode(config: RunConfig) -> int:
    """Write the token file of the corpus: one line of ids per document.

    The corpus is encoded in the byte ranges of `_corpus_ranges`. The
    process forks a child for each range after the first, encodes the
    first range into --out itself, then waits for the children in order
    and appends the lines each wrote, so the file is the one a single
    process writes. The first range that holds a fault reports it. A
    failed or interrupted run, or one ended by SIGTERM, leaves no --out
    file and no child.
    """
    _require(config, "vocab", "merges", "corpus", "out")
    import shutil
    import signal

    from . import bpe

    tokenizer = bpe.load_bpe(config.vocab, config.merges)
    first, *rest = _corpus_ranges(config)
    children = []  # (pid, lines file, range) of each child not yet waited for
    out = Path(config.out)
    with out.open("w", encoding="utf-8") as fh:
        try:
            fh.write(_comment_line(config) + "\n")
            for part in rest:
                _fork_encoder(config, tokenizer, part, children)
            _encode_range(config, tokenizer, first, fh)
            fh.flush()
            while children:
                pid, lines, (start, _) = children[0]
                status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                del children[0]
                with lines:
                    lines.seek(0)
                    if status == 1:
                        raise ValueError(lines.read().decode("utf-8"))
                    if status:
                        raise RuntimeError(f"{config.corpus}: the process that encoded it "
                                           f"from byte {start} ended with status {status}")
                    shutil.copyfileobj(lines, fh.buffer)
        except BaseException:
            for pid, lines, _ in children:  # kill and reap each child not yet waited for
                lines.close()
                try:
                    if not os.waitpid(pid, os.WNOHANG)[0]:  # it has not ended
                        os.kill(pid, signal.SIGKILL)
                        os.waitpid(pid, 0)
                except ChildProcessError:  # reaped already
                    pass
            # A failed run leaves no token file, not a partial one. Only a
            # regular file is removed: --out may name a device or a link.
            fh.close()
            if out.is_file() and not out.is_symlink():
                out.unlink()
            raise
    return 0


def _corpus_ranges(config: RunConfig) -> list[tuple[int, int | None]]:
    """The byte ranges that `encode` splits its corpus into, each as
    (start, stop); see `read_documents`.

    A plaintext corpus in a regular file is split, on a host that can
    fork, into min(CPUs, size // MIN_PART_BYTES) ranges of about equal
    size, each ending just after the first LF past its share, which is
    found by seeking there and reading one line. Any other corpus is one
    range: jsonl, whose duplicate ids need every earlier line, a pipe, or
    a file too small for two ranges.
    """
    corpus = Path(config.corpus)
    if config.corpus_format != "plaintext-lines" or not hasattr(os, "fork") or not corpus.is_file():
        return [(0, None)]
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    size = corpus.stat().st_size
    parts = min(cpus, size // MIN_PART_BYTES)
    starts = [0]
    with corpus.open("rb") as fh:
        while len(starts) < parts:
            fh.seek(max(len(starts) * size // parts, starts[-1]))
            fh.readline()
            if fh.tell() == size:  # no LF before the last byte
                break
            starts.append(fh.tell())
    return list(zip(starts, [*starts[1:], None]))


def _encode_range(config: RunConfig, tokenizer, part, fh) -> None:
    """Write the encoded lines of the documents in one byte range of the corpus."""
    from .bpe import encode_lines

    docs = read_documents(config.corpus, config.corpus_format, *part)
    with _naming_the_document(config, tokenizer, part[1]):
        for line in encode_lines(tokenizer, (doc.text for doc in docs)):
            fh.write(line + "\n")


def _fork_encoder(config: RunConfig, tokenizer, part, children: list) -> None:
    """Fork a child that encodes a byte range of the corpus into an
    anonymous temporary file, and add (pid, file, range) to `children`.

    The child leaves only through os._exit: with status 0 when the file
    holds its lines, 1 when it holds the message of the fault that `run`
    would report. It ignores SIGINT and dies of SIGTERM: on either the
    parent kills it.
    """
    import io
    import signal
    import tempfile

    lines = tempfile.TemporaryFile()
    # SIGINT and SIGTERM are blocked across the fork, so that neither
    # reaches the child before it sets its own handlers nor the parent
    # before it records the child.
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT, signal.SIGTERM})
    try:
        pid = os.fork()
        if pid:
            children.append((pid, lines, part))
        else:
            signal.signal(signal.SIGINT, signal.SIG_IGN)
            signal.signal(signal.SIGTERM, signal.SIG_DFL)
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
    if pid:
        return
    status = 2
    try:
        text = io.TextIOWrapper(lines, encoding="utf-8")
        _encode_range(config, tokenizer, part, text)
        text.flush()
        status = 0
    except _REPORTED as e:
        os.ftruncate(lines.fileno(), 0)
        os.pwrite(lines.fileno(), str(_message(e)).encode("utf-8"), 0)
        status = 1
    except BaseException:
        import traceback

        traceback.print_exc()
    finally:
        os._exit(status)


def _cmd_metrics(config: RunConfig) -> int:
    _require(config, "out")
    # Below ln 2 the curve keeps fewer than the two points a line needs.
    if not math.log(2) <= config.truncation_bound < math.inf:
        raise ValueError(f"--truncation-bound must be finite and at least ln 2, "
                         f"got {config.truncation_bound}")
    table, name = _count_tokenizer_inputs(config)
    if len(table.ids) < 2:
        source = config.tokens if config.tokens is not None else config.corpus
        raise ValueError(f"{source}: the stream has one distinct token id; "
                         "a rank-frequency line needs at least 2")
    mv = metric_vector_from_table(table, config.truncation_bound)
    payload = metric_vector_to_dict(
        mv,
        truncation_bound=config.truncation_bound,
        tokenizer=name or "unknown",
        language=config.language or "unknown",
    )
    payload["metadata"] = _metadata(config)
    _write_json(Path(config.out), payload)
    return 0


def _cmd_export_curve(config: RunConfig) -> int:
    _require(config, "tokens", "out")
    counts = ranked_counts(count_token_file(config.tokens))
    with Path(config.out).open("w", encoding="utf-8", newline="") as fh:
        fh.write(_comment_line(config) + "\n")
        writer = csv.writer(fh)
        writer.writerow(["rank", "count", "log_rank", "log_count"])
        ranks = np.arange(1, len(counts) + 1)
        log_ranks, log_counts = np.log(ranks), np.log(counts)
        # csv writes a float as its repr. Rows become Python objects one
        # block at a time, so memory stays that of the arrays.
        for lo in range(0, len(counts), CURVE_BLOCK_ROWS):
            block = slice(lo, lo + CURVE_BLOCK_ROWS)
            writer.writerows(zip(ranks[block].tolist(), counts[block].tolist(),
                                 log_ranks[block].tolist(), log_counts[block].tolist()))
    return 0


def _cmd_correlate(config: RunConfig) -> int:
    _require(config, "csv_path", "x_col", "y_col", "out")
    xs, ys = [], []
    _, rows = read_commented_csv(read_text(config.csv_path), config.csv_path)
    for lineno, row in rows:
        for col, dest in ((config.x_col, xs), (config.y_col, ys)):
            if col not in row or row[col] is None:
                raise ValueError(f"{config.csv_path} line {lineno}: no column {col!r}")
            try:
                value = float(row[col])
            except ValueError:
                value = math.nan
            if not math.isfinite(value):
                raise ValueError(
                    f"{config.csv_path} line {lineno}: "
                    f"non-numeric or non-finite value {row[col]!r} in column {col!r}"
                )
            dest.append(value)
    correlation = {"spearman": spearman, "kendall": kendall}.get(config.method)
    if correlation is None:
        raise ValueError(f"unknown correlation method {config.method!r}")
    for col, values in ((config.x_col, xs), (config.y_col, ys)):
        if len(set(values)) == 1:
            raise ValueError(
                f"{config.csv_path}: undefined correlation: zero variance in column {col!r}"
            )
    try:
        result = correlation(xs, ys)
    except ValueError as e:
        raise ValueError(f"{config.csv_path}: {e}") from None
    payload = {
        "command": "correlate",
        "method": config.method,
        "coefficient": result.coefficient,
        "p_value": result.p_value,
        "n": result.n,
        "metadata": _metadata(config),
    }
    _write_json(Path(config.out), payload)
    return 0


def _load_scored_metrics(config: RunConfig):
    """The fixture and the metric records of predict and rank; the records
    must cover every tokenizer and language of the fixture."""
    fixture = (load_bundled_fixture() if config.fixture is None
               else load_downstream_fixture(config.fixture))
    metrics = load_metric_dir(config.metrics_dir)
    for key in product(fixture.tokenizers(), fixture.languages()):
        if key not in metrics:
            raise ValueError(f"{config.metrics_dir}: missing metrics for {key}, "
                             f"a tokenizer and language of {fixture.source}")
    return fixture, metrics


def load_metric_dir(path) -> dict[tuple[str, str], MetricVector]:
    """Read every *.json metric record under a directory.

    Each file must carry tokenizer and language fields alongside the
    metric values; the map is keyed by (tokenizer, language).
    """
    path = Path(path)
    if not path.is_dir():
        raise ValueError(f"{path} is not a directory")
    metrics = {}
    for child in sorted(path.glob("*.json")):
        data = parse_json(read_text(child), child)
        if not isinstance(data, dict):
            raise ValueError(f"{child}: record is not a JSON object")
        if "tokenizer" not in data or "language" not in data:
            raise ValueError(f"{child}: record lacks tokenizer/language fields")
        key = (str(data["tokenizer"]), str(data["language"]))
        if key in metrics:
            raise ValueError(f"{child}: duplicate metrics for {key}")
        try:
            metrics[key] = metric_vector_from_dict(data)
        except ValueError as e:
            raise ValueError(f"{child}: {e}") from None
    if not metrics:
        raise ValueError(f"{path}: no *.json metric files found")
    return metrics


def _cmd_predict(config: RunConfig) -> int:
    _require(config, "metrics_dir", "out")
    from .predictor import leave_one_tokenizer_out  # only predict and rank load it

    fixture, metrics = _load_scored_metrics(config)
    report = leave_one_tokenizer_out(
        metrics,
        fixture,
        scale=config.scale,
        feature_set=config.features,
        model_kind=config.model,
        cv_folds=config.cv_folds,
        seed=config.seed,
    )
    payload = {
        "command": "predict",
        "model": report.model_kind,
        "scale": config.scale,
        "feature_set": list(report.feature_set),
        "per_heldout": report.per_heldout,
        "mean_f1": report.mean_f1,
        "metadata": _metadata(config),
    }
    _write_json(Path(config.out), payload)
    return 0


def _cmd_rank(config: RunConfig) -> int:
    _require(config, "metrics_dir", "heldout_language", "out")
    from .predictor import heldout_language_probabilities
    from .ranking import (
        evaluate_ranking, fit_bradley_terry, ground_truth_ranking, ranking_from_ratings,
    )

    fixture, metrics = _load_scored_metrics(config)
    probs = heldout_language_probabilities(
        metrics, fixture, config.scale, config.heldout_language,
        cv_folds=config.cv_folds, seed=config.seed,
    )
    ratings = fit_bradley_terry(probs.matrix, probs.names)
    predicted = ranking_from_ratings(ratings)
    truth = ground_truth_ranking(fixture, config.heldout_language, config.scale)
    two_sided = evaluate_ranking(predicted, truth, alternative="two-sided")
    one_sided = evaluate_ranking(predicted, truth, alternative="greater")
    pair_probs = {
        f"{probs.names[i]}|{probs.names[j]}": float(probs.matrix[i, j])
        for i in range(len(probs.names))
        for j in range(len(probs.names))
        if i != j
    }
    payload = {
        "command": "rank",
        "heldout_language": config.heldout_language,
        "scale": config.scale,
        "predicted": list(predicted.ordered),
        "strengths": {n: ratings.values[n] for n in probs.names},
        "truth": list(truth.ordered),
        "kendall_tau": two_sided.coefficient,
        "p_value_one_sided": one_sided.p_value,
        "p_value_two_sided": two_sided.p_value,
        "probabilities": pair_probs,
        "metadata": _metadata(config),
    }
    _write_json(Path(config.out), payload)
    return 0


def _cmd_gen_zipf(config: RunConfig) -> int:
    _require(config, "out")
    if config.n_tokens < 1:
        raise ValueError(f"--n-tokens must be positive, got {config.n_tokens}")
    if config.n_types < 3:
        raise ValueError(f"--n-types must be at least 3, got {config.n_types}")
    seq = generate_zipf_stream(
        config.n_tokens, config.n_types, config.exponent, config.seed
    )
    save_token_stream(seq, config.out, header=json.dumps(_metadata(config), sort_keys=True))
    return 0


_COMMANDS = {
    "encode": _cmd_encode,
    "metrics": _cmd_metrics,
    "export-curve": _cmd_export_curve,
    "correlate": _cmd_correlate,
    "predict": _cmd_predict,
    "rank": _cmd_rank,
    "gen-zipf": _cmd_gen_zipf,
}


def run(config: RunConfig) -> int:
    if config.command not in _COMMANDS:
        print(f"tokscope: unknown command {config.command!r}", file=sys.stderr)
        return 2
    try:
        return _COMMANDS[config.command](config)
    except _REPORTED as e:
        print(f"tokscope: error: {_message(e)}", file=sys.stderr)
        return 1


def _message(e: BaseException):
    # str() of a KeyError is the repr of its message, quotes and all.
    return e.args[0] if isinstance(e, KeyError) and e.args else e


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tokscope",
        description="Intrinsic tokenizer statistics and downstream-quality prediction.",
    )
    parser.add_argument("--version", action="version", version=f"tokscope {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int)
        p.add_argument("--out", type=Path, required=False)
        p.add_argument(
            "--no-timestamp",
            dest="timestamp",
            action="store_false",
            help="omit the timestamp so reruns are byte-identical",
        )

    p = sub.add_parser("encode", help="encode a corpus with a BPE tokenizer")
    p.add_argument("--vocab", type=Path)
    p.add_argument("--merges", type=Path)
    p.add_argument("--corpus", type=Path)
    p.add_argument("--format", dest="corpus_format", choices=["plaintext-lines", "jsonl"])
    common(p)

    p = sub.add_parser("metrics", help="compute the metric vector of a token stream")
    p.add_argument("--tokens", type=Path)
    p.add_argument("--vocab", type=Path)
    p.add_argument("--merges", type=Path)
    p.add_argument("--corpus", type=Path)
    p.add_argument("--format", dest="corpus_format", choices=["plaintext-lines", "jsonl"])
    p.add_argument("--tokenizer-name")
    p.add_argument("--language")
    p.add_argument("--truncation-bound", type=float)
    common(p)

    p = sub.add_parser("export-curve", help="dump the full rank-frequency curve as CSV")
    p.add_argument("--tokens", type=Path)
    common(p)

    p = sub.add_parser("correlate", help="rank correlation between two CSV columns")
    p.add_argument("--csv", dest="csv_path", type=Path)
    p.add_argument("--x-col")
    p.add_argument("--y-col")
    p.add_argument("--method", choices=["spearman", "kendall"])
    common(p)

    p = sub.add_parser("predict", help="leave-one-tokenizer-out F1 evaluation")
    p.add_argument("--fixture", type=Path)
    p.add_argument("--metrics-dir", type=Path)
    p.add_argument("--features", nargs="+", choices=list(METRIC_NAMES))
    # predictor.MODEL_KINDS, spelled out so that the parser does not load
    # predictor for every command; a test pins the two equal.
    p.add_argument("--model", choices=["logistic", "linear-svm", "rbf-svm"])
    p.add_argument("--scale")
    p.add_argument("--cv-folds", type=int)
    common(p)

    p = sub.add_parser("rank", help="Bradley-Terry ranking for a held-out language")
    p.add_argument("--fixture", type=Path)
    p.add_argument("--metrics-dir", type=Path)
    p.add_argument("--scale")
    p.add_argument("--heldout-language")
    p.add_argument("--cv-folds", type=int)
    common(p)

    p = sub.add_parser("gen-zipf", help="generate an exact Zipf-count token stream")
    p.add_argument("--n-tokens", type=int)
    p.add_argument("--n-types", type=int)
    p.add_argument("--exponent", type=float)
    common(p)

    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    fields_ = {f for f in RunConfig.__dataclass_fields__}
    payload = {k: v for k, v in vars(args).items() if k in fields_ and v is not None}
    if "features" in payload:
        payload["features"] = tuple(payload["features"])
    config = RunConfig(**payload)
    if SEED_ENV_VAR in os.environ:
        try:
            config.seed = int(os.environ[SEED_ENV_VAR])
        except ValueError:
            raise ValueError(
                f"{SEED_ENV_VAR} must be an integer, got {os.environ[SEED_ENV_VAR]!r}"
            ) from None
    if config.seed < 0:
        source = SEED_ENV_VAR if SEED_ENV_VAR in os.environ else "--seed"
        raise ValueError(f"{source} must be non-negative, got {config.seed}")
    return config


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = config_from_args(args)
    except ValueError as e:
        print(f"tokscope: error: {e}", file=sys.stderr)
        return 2
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
