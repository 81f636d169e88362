"""The benchmark's three workloads.

Each workload makes its inputs from a seeded Generator, lists the CLI
commands a user would run on them, checks each command's output against
an oracle of its own, and can replay the same commands in-process
through the program's public functions under a Tracer. Most of each
workload's time falls on a different set of modules, so a change to one
layer has a workload that exercises it and workloads that should not move.
"""

from __future__ import annotations

import json
import statistics
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.integrate import simpson

import gen

TRUNCATION_BOUND = 6.0
SIMPSON_GRID = 2049
METRIC_TOL = 1e-9


@dataclass
class Command:
    label: str
    args: list[str]
    out: Path
    item: int  # index of the input the command reads


@dataclass
class Inputs:
    """What setup wrote, plus the oracle facts the checks need."""

    items: list
    files: list[Path]
    extra: dict = field(default_factory=dict)


def _close(got, want) -> bool:
    return abs(got - want) <= METRIC_TOL * max(1.0, abs(want))


# --- stream-metrics ---------------------------------------------------------


@dataclass
class Stream:
    path: Path
    counts: np.ndarray  # the nonzero count of every token id
    nbytes: int
    _oracle: dict | None = None

    def oracle(self) -> dict:
        """The five metrics from the known counts, computed with numpy/scipy."""
        if self._oracle is None:
            counts = np.sort(self.counts)[::-1].astype(np.float64)
            x = np.log(np.arange(1, len(counts) + 1, dtype=np.float64))
            keep = x <= TRUNCATION_BOUND
            x, y = x[keep], np.log(counts[keep])
            slope, intercept = np.polyfit(x, y, 1)
            grid = np.linspace(x[0], x[-1], SIMPSON_GRID)
            self._oracle = {
                "compression": int(self.counts.sum()),
                "cardinality": len(self.counts),
                "slope": float(slope),
                "power_law": float(np.mean(np.abs(y - (intercept + slope * x)))),
                "auc": float(simpson(np.interp(grid, x, y), x=grid)),
            }
        return self._oracle


def compare_metrics(got: dict, want: dict) -> str | None:
    for name in ("compression", "cardinality"):
        if got.get(name) != want[name]:
            return f"{name} is {got.get(name)!r}, the stream has {want[name]}"
    for name in ("slope", "power_law", "auc"):
        value = got.get(name)
        if not isinstance(value, (int, float)) or not _close(value, want[name]):
            return f"{name} is {value!r}, the oracle gives {want[name]!r}"
    return None


class StreamMetrics:
    """`tokscope metrics --tokens F` on each stream.

    Token-file parsing (corpus_io) and counting (zipf_metrics) do nearly
    all the work. Streams vary in length, which stresses the parse and its
    O(stream) memory, and in vocabulary size, which stresses the count
    table; exact power-law counts alternate with multinomial
    Zipf-Mandelbrot samples, whose noisy tails have many count ties.
    """

    name = "stream-metrics"
    # (kind, tokens, types, exponent, Zipf-Mandelbrot offset); 12 M tokens in
    # all, so that three passes of a run fit the benchmark's time budget.
    SIZES = {
        "full": [
            ("exact", 1_000_000, 5_000, 1.0, 0.0),
            ("zipf-mandelbrot", 1_000_000, 20_000, 1.1, 2.7),
            ("exact", 1_500_000, 50_000, 0.9, 0.0),
            ("zipf-mandelbrot", 2_000_000, 100_000, 1.05, 5.0),
            ("exact", 3_000_000, 200_000, 1.0, 0.0),
            ("zipf-mandelbrot", 3_500_000, 200_000, 1.2, 1.5),
        ],
        "tiny": [
            ("exact", 20_000, 500, 1.0, 0.0),
            ("zipf-mandelbrot", 30_000, 2_000, 1.1, 2.7),
        ],
    }

    def setup(self, rng, work: Path, scale: str) -> Inputs:
        streams = []
        for i, (kind, n_tokens, n_types, exponent, offset) in enumerate(self.SIZES[scale]):
            tokens, counts = gen.make_stream(rng, kind, n_tokens, n_types, exponent, offset)
            path = work / f"stream{i}.txt"
            header = f"perfbench stream {i}: {kind}, {n_types} types, exponent {exponent}"
            nbytes = gen.write_token_file(path, tokens, len(counts), header)
            streams.append(Stream(path, counts[counts > 0], nbytes))
        return Inputs(items=streams, files=[s.path for s in streams])

    def summary(self, inputs: Inputs) -> dict:
        streams = inputs.items
        return {
            "streams": len(streams),
            "tokens": int(sum(s.counts.sum() for s in streams)),
            "types": int(sum(len(s.counts) for s in streams)),
            "bytes": sum(s.nbytes for s in streams),
            "per_stream": [
                {"tokens": int(s.counts.sum()), "types": len(s.counts), "bytes": s.nbytes}
                for s in streams
            ],
        }

    def commands(self, inputs: Inputs, out: Path) -> list[Command]:
        return [
            Command(
                f"metrics stream{i}",
                ["metrics", "--tokens", str(s.path), "--no-timestamp", "--out", str(out / f"stream{i}.json")],
                out / f"stream{i}.json",
                i,
            )
            for i, s in enumerate(inputs.items)
        ]

    def check(self, inputs: Inputs, cmd: Command) -> str | None:
        try:
            got = json.loads(cmd.out.read_text(encoding="utf-8"))
        except (OSError, ValueError) as e:
            return f"unreadable report: {e}"
        return compare_metrics(got, inputs.items[cmd.item].oracle())

    def replay(self, inputs: Inputs, tracer, tk) -> list[str]:
        targets = [
            (tk.corpus_io, "load_token_stream", lambda seq: {"tokens": len(seq)}),
            *((tk.zipf_metrics, f, None) for f in (
                "count_frequencies", "rank_frequency_curve", "zipf_fit", "auc", "power_law_deviation",
            )),
            (tk.zipf_metrics, "metric_vector",
             lambda mv: {"tokens": mv.compression, "types": mv.cardinality}),
        ]
        errors = []
        with tracer.instrument(targets):
            for i, stream in enumerate(inputs.items):
                with tracer.command(f"metrics stream{i}"):
                    mv = tk.zipf_metrics.metric_vector(tk.corpus_io.load_token_stream(stream.path))
                got = {n: getattr(mv, n) for n in ("compression", "cardinality", "slope", "power_law", "auc")}
                error = compare_metrics(got, stream.oracle())
                if error:
                    errors.append(f"replay stream{i}: {error}")
        return errors

    def layer_metrics(self, tracer) -> dict:
        load = tracer.total("corpus_io.load_token_stream")
        out = {
            "corpus_io.load_token_stream_s": load,
            "corpus_io.parse_tokens_per_s": tracer.count("corpus_io.load_token_stream", "tokens") / load,
        }
        for f in ("count_frequencies", "rank_frequency_curve", "zipf_fit", "auc",
                  "power_law_deviation", "metric_vector"):
            out[f"zipf_metrics.{f}_s"] = tracer.total(f"zipf_metrics.{f}")
        out["zipf_metrics.tokens"] = tracer.count("zipf_metrics.metric_vector", "tokens")
        out["zipf_metrics.types"] = tracer.count("zipf_metrics.metric_vector", "types")
        return out

    def figures(self, inputs: Inputs, medians: dict) -> dict:
        tokens = sum(int(s.counts.sum()) for s in inputs.items)
        return {"tokens_per_s": tokens / sum(medians.values())}


# --- bpe-encode -------------------------------------------------------------


@dataclass
class Corpus:
    path: Path
    lines: list[str]
    nbytes: int


class BpeEncode:
    """`tokscope encode` of each corpus file with the benchmark's own tokenizer.

    The merge loop and its per-tokenizer memo (hit ratio about 0.9, tens of
    thousands of misses per file) do most of the work, and the command
    writes token files, the opposite direction to stream-metrics' reads.
    """

    name = "bpe-encode"
    ZIPF_EXPONENT = 1.05
    SIZES = {
        "full": dict(lexicon=50_000, files=3, file_bytes=4_500_000, train_words=3_000, merges=300),
        "tiny": dict(lexicon=2_000, files=2, file_bytes=50_000, train_words=300, merges=60),
    }

    def setup(self, rng, work: Path, scale: str) -> Inputs:
        size = self.SIZES[scale]
        lexicon = gen.make_lexicon(rng, size["lexicon"])
        weights = gen.zipf_weights(len(lexicon), self.ZIPF_EXPONENT)
        corpora = []
        for i in range(size["files"]):
            lines = gen.make_corpus_lines(rng, lexicon, weights, size["file_bytes"])
            data = ("\n".join(lines) + "\n").encode("utf-8")
            path = work / f"corpus{i}.txt"
            path.write_bytes(data)
            corpora.append(Corpus(path, lines, len(data)))
        # The tokenizer is trained on the most frequent words, each as the
        # space-led piece it mostly appears as, weighted by its frequency.
        pieces = Counter({" " + lexicon[i]: max(1, round(weights[i] * 1e7))
                          for i in range(size["train_words"])})
        vocab, merges = gen.train_bpe(pieces, size["merges"])
        vocab_path, merges_path = gen.write_bpe_files(vocab, merges, work)
        enc = gen.byte_to_unicode()
        extra = {
            "vocab": vocab_path,
            "merges": merges_path,
            "id_to_token": {str(i): tok for tok, i in vocab.items()},
            "to_bytes": {ord(c): b for b, c in enc.items()},
        }
        return Inputs(items=corpora, files=[c.path for c in corpora] + [vocab_path, merges_path], extra=extra)

    def summary(self, inputs: Inputs) -> dict:
        per_file = []
        for c in inputs.items:
            pieces, distinct = 0, set()
            for line in c.lines:
                found = gen.PRETOKENIZE_PATTERN.findall(line)
                pieces += len(found)
                distinct.update(found)
            per_file.append({"bytes": c.nbytes, "documents": len(c.lines), "pieces": pieces,
                             "distinct_pieces": len(distinct),
                             "memo_hit_ratio": 1 - len(distinct) / pieces})
        pieces = sum(f["pieces"] for f in per_file)
        distinct = sum(f["distinct_pieces"] for f in per_file)
        return {
            "files": len(per_file),
            "bytes": sum(f["bytes"] for f in per_file),
            "documents": sum(f["documents"] for f in per_file),
            "pieces": pieces,
            "distinct_pieces": distinct,
            "memo_hit_ratio": 1 - distinct / pieces,
            "merges": len(inputs.extra["id_to_token"]) - 256,
            "per_file": per_file,
        }

    def commands(self, inputs: Inputs, out: Path) -> list[Command]:
        vocab, merges = str(inputs.extra["vocab"]), str(inputs.extra["merges"])
        return [
            Command(
                f"encode corpus{i}",
                ["encode", "--vocab", vocab, "--merges", merges, "--corpus", str(c.path),
                 "--no-timestamp", "--out", str(out / f"corpus{i}.tok")],
                out / f"corpus{i}.tok",
                i,
            )
            for i, c in enumerate(inputs.items)
        ]

    def decode(self, inputs: Inputs, line: str) -> str:
        tokens = map(inputs.extra["id_to_token"].__getitem__, line.split())
        return "".join(tokens).translate(inputs.extra["to_bytes"]).encode("latin-1").decode("utf-8")

    def check_lines(self, inputs: Inputs, item: int, lines: list[str]) -> str | None:
        docs = inputs.items[item].lines
        if len(lines) != len(docs):
            return f"{len(lines)} token lines for {len(docs)} documents"
        for n, (line, doc) in enumerate(zip(lines, docs), start=1):
            try:
                text = self.decode(inputs, line)
            except KeyError as e:
                return f"line {n}: unknown token id {e.args[0]}"
            except UnicodeError as e:
                return f"line {n}: does not decode: {e}"
            if text != doc:
                return f"line {n}: decodes to a different text than document {n}"
        return None

    def check(self, inputs: Inputs, cmd: Command) -> str | None:
        try:
            text = cmd.out.read_text(encoding="utf-8")
        except (OSError, ValueError) as e:
            return f"unreadable token file: {e}"
        header, _, body = text.partition("\n")
        if not header.startswith("#"):
            return "first line is not a '#' header"
        if not body.endswith("\n"):
            return "token file does not end with a newline"
        return self.check_lines(inputs, cmd.item, body[:-1].split("\n"))

    def replay(self, inputs: Inputs, tracer, tk) -> list[str]:
        distinct: set = set()

        def count_pieces(pieces):
            distinct.update(pieces)
            return {"pieces": len(pieces)}

        targets = [
            (tk.bpe, "load_bpe", None),
            (tk.corpus_io, "load_corpus", lambda docs: {"documents": len(docs)}),
            (tk.bpe, "pretokenize", count_pieces),
            (tk.bpe, "encode", None),
        ]
        vocab, merges = inputs.extra["vocab"], inputs.extra["merges"]
        errors = []
        with tracer.instrument(targets):
            for i, corpus in enumerate(inputs.items):
                distinct.clear()
                # As the CLI runs it: a fresh tokenizer, so its memo starts empty.
                with tracer.command(f"encode corpus{i}") as counts:
                    tokenizer = tk.bpe.load_bpe(vocab, merges)
                    docs = tk.corpus_io.load_corpus(corpus.path)
                    with tracer.span("bpe.fresh"):
                        sequences = [tk.bpe.encode(tokenizer, d.text) for d in docs]
                    counts["distinct_pieces"] = len(distinct)
                with tracer.span("bpe.warm"):
                    for d in docs:
                        tk.bpe.encode(tokenizer, d.text)
                lines = [" ".join(map(str, s.tokens.tolist())) for s in sequences]
                error = self.check_lines(inputs, i, lines)
                if error:
                    errors.append(f"replay corpus{i}: {error}")
        return errors

    def layer_metrics(self, tracer) -> dict:
        def within(phase, name):
            return [s for p in tracer.select(phase) for s in tracer.select(name, within=p)]

        pieces = sum(s[6]["pieces"] for s in within("bpe.fresh", "bpe.pretokenize"))
        distinct = sum(s[6]["distinct_pieces"] for s in tracer.spans if s[4] is None and s[5])
        return {
            "bpe.load_bpe_s": tracer.total("bpe.load_bpe"),
            "bpe.pretokenize_s": sum(map(tracer.duration, within("bpe.fresh", "bpe.pretokenize"))),
            "bpe.encode_fresh_s": sum(map(tracer.duration, within("bpe.fresh", "bpe.encode"))),
            "bpe.encode_warm_s": sum(map(tracer.duration, within("bpe.warm", "bpe.encode"))),
            "bpe.pieces": pieces,
            "bpe.distinct_pieces": distinct,
            "bpe.memo_hit_ratio": 1 - distinct / pieces,
            "corpus_io.load_corpus_s": tracer.total("corpus_io.load_corpus"),
        }

    def figures(self, inputs: Inputs, medians: dict) -> dict:
        mb = sum(c.nbytes for c in inputs.items) / 2**20
        return {"encode_mb_per_s": mb / sum(medians.values())}


# --- predict-rank -----------------------------------------------------------

MODEL_KINDS = ("logistic", "linear-svm", "rbf-svm")
FITTERS = {"logistic": "fit_logistic", "linear-svm": "fit_linear_svm", "rbf-svm": "fit_rbf_svm_platt"}


class PredictRank:
    """`tokscope predict --model K` for each model kind, then one `tokscope rank`.

    The predictor's solvers and CV loops take almost all the time and
    ranking a little. The inputs are tiny JSON files, so a parse or BPE
    change should not move this workload.
    """

    name = "predict-rank"
    # One size serves both scales. The linear SVM's fixed iteration count
    # makes a fit cost about the same at any world size, so only fewer CV
    # folds make a pass cheaper; smaller worlds stop being separable under
    # the CV tie-break. Two folds keep a pass near 13 s on a 2-core Xeon,
    # where the default five take 25-70 s.
    N_TOKENIZERS, N_LANGUAGES, CV_FOLDS = 6, 4, 2

    def setup(self, rng, work: Path, scale: str) -> Inputs:
        fixture, metrics_dir, planted, tokenizers, languages = gen.build_world(
            rng, work / "world", self.N_TOKENIZERS, self.N_LANGUAGES
        )
        heldout = languages[int(rng.integers(len(languages)))]
        files = [fixture, *sorted(metrics_dir.glob("*.json"))]
        extra = {"fixture": fixture, "metrics_dir": metrics_dir, "planted": planted,
                 "tokenizers": tokenizers, "languages": languages, "heldout": heldout}
        return Inputs(items=[*MODEL_KINDS, "rank"], files=files, extra=extra)

    def summary(self, inputs: Inputs) -> dict:
        x = inputs.extra
        return {"tokenizers": len(x["tokenizers"]), "languages": len(x["languages"]),
                "metric_files": len(inputs.files) - 1, "heldout_language": x["heldout"],
                "planted_order": x["planted"], "bytes": sum(p.stat().st_size for p in inputs.files)}

    def commands(self, inputs: Inputs, out: Path) -> list[Command]:
        x = inputs.extra
        common = ["--fixture", str(x["fixture"]), "--metrics-dir", str(x["metrics_dir"]),
                  "--scale", gen.WORLD_SCALE, "--cv-folds", str(self.CV_FOLDS), "--no-timestamp"]
        cmds = [
            Command(f"predict {kind}", ["predict", "--model", kind, *common, "--out", str(out / f"predict-{kind}.json")],
                    out / f"predict-{kind}.json", i)
            for i, kind in enumerate(MODEL_KINDS)
        ]
        cmds.append(Command("rank", ["rank", "--heldout-language", x["heldout"], *common,
                                     "--out", str(out / "rank.json")], out / "rank.json", len(MODEL_KINDS)))
        return cmds

    def check_predict(self, inputs: Inputs, per_heldout: dict, mean_f1) -> str | None:
        if sorted(per_heldout) != inputs.extra["tokenizers"]:
            return f"held-out tokenizers {sorted(per_heldout)}"
        low = {t: f for t, f in per_heldout.items() if f != 1.0}
        if low or mean_f1 != 1.0:
            return f"held-out F1 below 1.0: {low or mean_f1}"
        return None

    def check_rank(self, inputs: Inputs, predicted, truth, tau) -> str | None:
        planted = inputs.extra["planted"]
        if list(predicted) != planted or list(truth) != planted or tau != 1.0:
            return f"predicted {list(predicted)}, truth {list(truth)}, tau {tau}; planted {planted}"
        return None

    def check(self, inputs: Inputs, cmd: Command) -> str | None:
        try:
            got = json.loads(cmd.out.read_text(encoding="utf-8"))
            if cmd.label == "rank":
                return self.check_rank(inputs, got["predicted"], got["truth"], got["kendall_tau"])
            return self.check_predict(inputs, got["per_heldout"], got["mean_f1"])
        except (OSError, ValueError, KeyError, TypeError) as e:
            return f"unreadable report: {e!r}"

    def replay(self, inputs: Inputs, tracer, tk) -> list[str]:
        x = inputs.extra
        targets = [
            (tk.corpus_io, "load_downstream_fixture", None),
            (tk.predictor, "build_pairwise_dataset", lambda d: {"examples": len(d)}),
            *((tk.predictor, f, None) for f in FITTERS.values()),
            (tk.predictor, "leave_one_tokenizer_out", None),
            (tk.predictor, "leave_one_language_out", None),
            (tk.ranking, "fit_bradley_terry", lambda r: {"sweeps": r.iterations}),
            (tk.ranking, "evaluate_ranking", None),
            (tk.stats, "kendall", None),
        ]
        errors = []
        with tracer.instrument(targets):
            for kind in MODEL_KINDS:
                with tracer.command(f"predict {kind}"):
                    fixture = tk.corpus_io.load_downstream_fixture(x["fixture"])
                    metrics = tk.cli.load_metric_dir(x["metrics_dir"])
                    report = tk.predictor.leave_one_tokenizer_out(
                        metrics, fixture, scale=gen.WORLD_SCALE, model_kind=kind, cv_folds=self.CV_FOLDS
                    )
                error = self.check_predict(inputs, report.per_heldout, report.mean_f1)
                if error:
                    errors.append(f"replay predict {kind}: {error}")
            with tracer.command("rank"):
                fixture = tk.corpus_io.load_downstream_fixture(x["fixture"])
                metrics = tk.cli.load_metric_dir(x["metrics_dir"])
                probs = tk.predictor.leave_one_language_out(
                    metrics, fixture, scale=gen.WORLD_SCALE, cv_folds=self.CV_FOLDS
                )[x["heldout"]]
                ratings = tk.ranking.fit_bradley_terry(probs.matrix, probs.names)
                predicted = tk.ranking.ranking_from_ratings(ratings)
                truth = tk.ranking.ground_truth_ranking(fixture, x["heldout"], gen.WORLD_SCALE)
                tau = tk.ranking.evaluate_ranking(predicted, truth, alternative="two-sided")
                tk.ranking.evaluate_ranking(predicted, truth, alternative="greater")
            error = self.check_rank(inputs, predicted.ordered, truth.ordered, tau.coefficient)
            if error:
                errors.append(f"replay rank: {error}")
        return errors

    def layer_metrics(self, tracer) -> dict:
        out = {"predictor.build_pairwise_dataset_s": tracer.total("predictor.build_pairwise_dataset"),
               "predictor.examples": tracer.select("predictor.build_pairwise_dataset")[0][6]["examples"]}
        for kind in MODEL_KINDS:
            fits = tracer.select(f"predictor.{FITTERS[kind]}", run=f"predict {kind}")
            out[f"predictor.fit.{kind}_s"] = statistics.median(map(tracer.duration, fits))
            out[f"predictor.loto.{kind}_s"] = tracer.total("predictor.leave_one_tokenizer_out", run=f"predict {kind}")
        out["predictor.lolo_s"] = tracer.total("predictor.leave_one_language_out")
        out["ranking.fit_bradley_terry_s"] = tracer.total("ranking.fit_bradley_terry")
        out["ranking.bt_sweeps"] = tracer.count("ranking.fit_bradley_terry", "sweeps")
        out["ranking.evaluate_ranking_s"] = tracer.total("ranking.evaluate_ranking")
        out["stats.kendall_s"] = tracer.total("stats.kendall")
        return out

    def figures(self, inputs: Inputs, medians: dict) -> dict:
        predict = sum(t for label, t in medians.items() if label.startswith("predict"))
        return {"predict_s": predict, "rank_s": medians["rank"]}


WORKLOADS = {w.name: w for w in (StreamMetrics(), BpeEncode(), PredictRank())}
