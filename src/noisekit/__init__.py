"""noisekit: identify, reduce and score noise in short noisy texts."""

from .textcore import (
    NOISE_CLASSES,
    Document,
    NoiseLabelSet,
    SentimentLabel,
    TokenSequence,
    char_ngrams,
    normalize,
    tokenize,
    word_ngrams,
)
from .features import AnalyzerConfig, AnalyzerMode, FeatureMatrix, TfidfModel, fit_tfidf, transform
from .classify import (
    LinearModel,
    ModelKind,
    TrainConfig,
    compute_class_weights,
    predict_multilabel,
    predict_sentiment,
    train_ovr_hinge,
    train_softmax_weighted,
)
from .reduce import (
    MASK_TOKEN,
    CorrectionResult,
    Dictionary,
    FixtureClient,
    NgramMaskFiller,
    PhoneticTable,
    ReduceMethod,
    Resources,
    SubprocessClient,
    back_translate,
    bengali_phonetic_table,
    detect_oov,
    fill_masks,
    levenshtein,
    mask_oov,
    mask_random,
    paraphrase,
    phonetic_encode,
    reduce_text,
    spell_correct,
)
from .metrics import (
    Averaging,
    ConfusionCounts,
    EmbeddingTable,
    EvalResources,
    ReductionReport,
    bleu,
    composite_similarity,
    evaluate_reduction,
    human_eval_score,
    prf,
    rouge_l,
    sentence_similarity,
    word_coverage,
)
from .agreement import RatingMatrix, fleiss_kappa, trustworthiness
from .stats import class_stats, dedupe, label_correlation, length_histogram

__version__ = "0.1.0"
