"""Referential translation machines for text similarity prediction.

A library for casting judgment tasks (emotion intensity of a text, the
discriminative power of an attribute between two words) as translation
performance prediction: select interpretant sentences close to the task data,
derive n-gram/LM/alignment features between source and target token
sequences, learn stacked regression models over them, and score everything
with a family of relative evaluation metrics.
"""

__version__ = "0.1.0"

from .corpus import (
    Corpus,
    DataFormatError,
    TokenSeq,
    extract_ngrams,
    lexicon_to_target,
    load_corpus,
    load_lexicon,
    tokenize,
)
from .features import (
    FEATURE_NAMES,
    N_FEATURES,
    AlignmentModel,
    FeatureResources,
    alignment_features,
    build_feature_matrix,
    extract_feature_vector,
    length_features,
    lm_features,
    train_aligner,
    weighted_overlap,
)
from .interpretants import (
    FdaConfig,
    InterpretantSet,
    NGramWeightTable,
    WittenBellLM,
    build_ngram_weights,
    select_interpretants,
)
from .learners import (
    AveragedModel,
    ModelSpec,
    Scaler,
    TrainedModel,
    average_top_k,
    cross_validate,
    default_grid,
    fit_model,
    fold_indices,
    grid_search,
    select_features,
    small_grid,
)
from .metrics import (
    MetricConfig,
    MetricReport,
    ScoreStats,
    bws_scores,
    epsilon,
    f1_binary,
    ground_predictions,
    ground_threshold,
    iaa_tau,
    mae_rae,
    maer_mraer,
    mean_ranks,
    metric_report,
    optimize_threshold,
    pearson,
    r_maer_r_mraer,
    rank_error,
    riaa_tau,
    spearman,
    spearman_approx,
)
from .pipeline import RunConfig, RunReport, evaluate_files, parse_config, run_pipeline
from .stacking import (
    LinearCombiner,
    StackConfig,
    StackModel,
    combo_features,
    fit_linear_combiner,
)
