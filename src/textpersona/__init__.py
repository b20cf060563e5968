"""Microblog text portrait pipeline.

Clean raw microblog posts, segment them against a word list, count
category-dictionary hits into per-user frequency vectors, map those to
Big Five trait scores with a fitted linear model, and run the full set
of correlation / group / trend / emoticon analyses over the result.
"""

from .cleaner import CleanResult, clean, clean_corpus
from .corpus import (
    LoadSummary,
    Post,
    RejectReason,
    UserProfile,
    ValidityReport,
    compute_age,
    load_corpus,
    validate_users,
)
from .errors import (
    BundleError,
    CorpusFormatError,
    InputFormatError,
    LexiconParseError,
    ModelError,
    PipelineError,
    StatsError,
    TextPersonaError,
)
from .lexicon import (
    CompiledMatcher,
    FeatureMatrix,
    Lexicon,
    brute_force_lookup,
    compile_lexicon,
    featurize,
    parse_lexicon,
)
from .model import (
    TRAITS,
    BigFive,
    MappingModel,
    fit,
    holdout_split,
    load_model,
    predict,
    save_model,
    summarize_scores,
)
from .segmenter import WordList, load_word_list, segment
from .stats import (
    CorrelationResult,
    EmoticonContrast,
    Grouping,
    PolaritySplit,
    TagContrast,
    binned_trend,
    correlation_matrix,
    emoticon_contrast,
    group_means,
    pearson,
    polarity_split,
    province_aggregate,
    tag_contrast,
)
from .report import ReportBundle, build_bundle, demographic_summary
from .config import RunConfig, builtin_data_path

__version__ = "0.1.0"

__all__ = [
    "BigFive",
    "BundleError",
    "CleanResult",
    "CompiledMatcher",
    "CorrelationResult",
    "CorpusFormatError",
    "EmoticonContrast",
    "FeatureMatrix",
    "Grouping",
    "InputFormatError",
    "Lexicon",
    "LexiconParseError",
    "LoadSummary",
    "MappingModel",
    "ModelError",
    "PipelineError",
    "PolaritySplit",
    "Post",
    "RejectReason",
    "ReportBundle",
    "RunConfig",
    "StatsError",
    "TRAITS",
    "TagContrast",
    "TextPersonaError",
    "UserProfile",
    "ValidityReport",
    "WordList",
    "binned_trend",
    "brute_force_lookup",
    "build_bundle",
    "builtin_data_path",
    "clean",
    "clean_corpus",
    "compile_lexicon",
    "compute_age",
    "correlation_matrix",
    "demographic_summary",
    "emoticon_contrast",
    "featurize",
    "fit",
    "group_means",
    "holdout_split",
    "load_corpus",
    "load_model",
    "load_word_list",
    "parse_lexicon",
    "pearson",
    "polarity_split",
    "predict",
    "province_aggregate",
    "save_model",
    "segment",
    "summarize_scores",
    "tag_contrast",
    "validate_users",
]
