"""Name-gender frequency models, inference, and evaluation tooling."""

from .corpus import (
    AmbiguityHistogram,
    CsvSchema,
    DatasetStats,
    EmptyCorpusError,
    FrequencyTable,
    GenderCounts,
    IngestReport,
    NameType,
    Rejection,
    TableParseError,
    ambiguity_histogram,
    cross_dataset_uniqueness,
    dataset_stats,
    ingest_labeled_csv,
    ingest_ssa_years,
    merge_tables,
    normalize_name,
    pairwise_overlap,
    read_table,
    split_full_name,
    to_first_names,
    write_table,
)
from .mle import (
    DEFAULT_TAU,
    GenderLabel,
    MleModel,
    Prediction,
    load_model,
    mle_female,
    save_model,
    train,
)
from .inferrers import (
    ExternalAdapterConfig,
    HttpAdapter,
    Inferrer,
    MleInferrer,
    MockInferrer,
    map_external_label,
)
from .ensemble import (
    DEFAULT_DEFER_BAND,
    TwoStageConfig,
    TwoStageInferrer,
    VotingConfig,
    VotingInferrer,
    majority_vote,
)
from .evaluation import (
    ConfusionCounts,
    LabeledTestSet,
    MetricsReport,
    MetricValues,
    SplitDegenerateError,
    aggregate,
    evaluate_run,
    metrics,
    read_testset,
    score,
    split_dataset,
    write_testset,
)
from .analysis import (
    NgramInventory,
    RateType,
    assign_rate_types,
    extract_ngrams,
    is_non_english,
    length_histograms,
    ngram_inventory,
    non_english_distribution,
)

__version__ = "0.1.0"
