"""tokscope: intrinsic tokenizer statistics and downstream-quality prediction.

The pipeline in one breath: encode text with a byte-level BPE tokenizer
(or take any token stream), summarize its rank-frequency structure into
five scalar metrics, learn pairwise tokenizer preferences from metric
differences against downstream MT scores, and aggregate the predicted
preferences into Bradley-Terry rankings scored with Kendall's tau.
"""

__version__ = "0.1.0"

from .corpus_io import (
    DIRECTIONS,
    LANGUAGES,
    SCALES,
    Document,
    DownstreamFixture,
    ScoreEntry,
    TokenSequence,
    load_bundled_fixture,
    load_corpus,
    load_downstream_fixture,
    load_token_stream,
    save_downstream_fixture,
    save_token_stream,
)
from .bpe import (
    BpeTokenizer,
    byte_to_unicode,
    decode,
    encode,
    load_bpe,
    pretokenize,
)
from .zipf_metrics import (
    DEFAULT_TRUNCATION_BOUND,
    LOG_BASE,
    METRIC_NAMES,
    SIMPSON_GRID,
    MetricVector,
    RankFrequencyCurve,
    TokenFrequencyTable,
    ZipfFit,
    auc,
    count_frequencies,
    count_token_file,
    metadata_block,
    metric_vector,
    metric_vector_from_dict,
    metric_vector_from_table,
    metric_vector_to_dict,
    power_law_deviation,
    rank_frequency_curve,
    ranked_counts,
    zipf_fit,
)
from .stats import (
    CorrelationResult,
    f1_score,
    kendall,
    midranks,
    ols_fit,
    simpson_integrate,
    spearman,
)
from .predictor import (
    EvaluationReport,
    PairwiseExample,
    PairwiseModel,
    PairwiseProbabilities,
    build_pairwise_dataset,
    fit_linear_svm,
    fit_logistic,
    fit_platt,
    fit_rbf_svm_platt,
    heldout_language_probabilities,
    leave_one_language_out,
    leave_one_tokenizer_out,
    predict_pair,
)
from .ranking import (
    BTRatings,
    Ranking,
    evaluate_ranking,
    fit_bradley_terry,
    ground_truth_ranking,
    ranking_from_ratings,
)
from .cli import RunConfig, generate_zipf_stream, main, run

__all__ = [
    "__version__",
    "DIRECTIONS", "LANGUAGES", "SCALES",
    "Document", "DownstreamFixture", "ScoreEntry", "TokenSequence",
    "load_bundled_fixture", "load_corpus", "load_downstream_fixture",
    "load_token_stream", "save_downstream_fixture", "save_token_stream",
    "BpeTokenizer", "byte_to_unicode", "decode", "encode", "load_bpe",
    "pretokenize",
    "DEFAULT_TRUNCATION_BOUND", "LOG_BASE", "METRIC_NAMES", "SIMPSON_GRID",
    "MetricVector", "RankFrequencyCurve", "TokenFrequencyTable", "ZipfFit",
    "auc", "count_frequencies", "count_token_file", "metadata_block",
    "metric_vector", "metric_vector_from_dict", "metric_vector_from_table",
    "metric_vector_to_dict", "power_law_deviation", "rank_frequency_curve",
    "ranked_counts", "zipf_fit",
    "CorrelationResult", "f1_score", "kendall", "midranks", "ols_fit",
    "simpson_integrate", "spearman",
    "EvaluationReport", "PairwiseExample", "PairwiseModel",
    "PairwiseProbabilities", "build_pairwise_dataset", "fit_linear_svm",
    "fit_logistic", "fit_platt", "fit_rbf_svm_platt",
    "heldout_language_probabilities", "leave_one_language_out",
    "leave_one_tokenizer_out", "predict_pair",
    "BTRatings", "Ranking", "evaluate_ranking", "fit_bradley_terry",
    "ground_truth_ranking", "ranking_from_ratings",
    "RunConfig", "generate_zipf_stream", "main", "run",
]
