"""tokscope: intrinsic tokenizer statistics and downstream-quality prediction.

The pipeline in one breath: encode text with a byte-level BPE tokenizer
(or take any token stream), summarize its rank-frequency structure into
five scalar metrics, learn pairwise tokenizer preferences from metric
differences against downstream MT scores, and aggregate the predicted
preferences into Bradley-Terry rankings scored with Kendall's tau.

Importing the package loads none of its modules: each public name is
imported from its module on first access, so a command pays only for
the modules it runs.
"""

import importlib

__version__ = "0.1.0"

_PUBLIC = {
    "corpus_io": (
        "DIRECTIONS", "LANGUAGES", "SCALES",
        "Document", "DownstreamFixture", "ScoreEntry", "TokenSequence",
        "load_bundled_fixture", "load_corpus", "load_downstream_fixture",
        "load_token_stream", "read_documents", "save_downstream_fixture", "save_token_stream",
    ),
    "bpe": (
        "BpeTokenizer", "UnknownSymbolError", "byte_to_unicode", "count_encoded",
        "decode", "encode", "encode_lines", "load_bpe", "pretokenize",
    ),
    "zipf_metrics": (
        "DEFAULT_TRUNCATION_BOUND", "LOG_BASE", "METRIC_NAMES", "SIMPSON_GRID",
        "MetricVector", "RankFrequencyCurve", "TokenFrequencyTable", "ZipfFit",
        "auc", "count_frequencies", "count_token_file", "metadata_block",
        "metric_vector", "metric_vector_from_dict", "metric_vector_from_table",
        "metric_vector_to_dict", "power_law_deviation", "rank_frequency_curve",
        "ranked_counts", "zipf_fit",
    ),
    "stats": (
        "CorrelationResult", "f1_score", "kendall", "midranks", "ols_fit",
        "simpson_integrate", "spearman",
    ),
    "predictor": (
        "EvaluationReport", "PairwiseExample", "PairwiseModel",
        "PairwiseProbabilities", "build_pairwise_dataset", "fit_linear_svm",
        "fit_logistic", "fit_platt", "fit_rbf_svm_platt",
        "heldout_language_probabilities", "leave_one_language_out",
        "leave_one_tokenizer_out", "predict_pair",
    ),
    "ranking": (
        "BTRatings", "Ranking", "evaluate_ranking", "fit_bradley_terry",
        "ground_truth_ranking", "ranking_from_ratings",
    ),
    "cli": ("RunConfig", "generate_zipf_stream", "main", "run"),
}
_MODULE_OF = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
