"""spellcl: curriculum ordering for spell-checking training data.

Pipeline: parse or synthesize a parallel corpus, score each sample's
difficulty from contextual similarity at its error positions, arrange the
samples into staged training curricula, train a desk-scale corrector one
epoch per stage, and evaluate detection/correction at sentence level.
"""

from .corpus import (
    ConfusionSet,
    Corpus,
    Sample,
    corpus_to_tsv,
    derive_error_positions,
    inject_errors,
    load_confusion_set,
    load_corpus,
    parse_confusion_set,
    parse_corpus,
    save_corpus,
)
from .curriculum import (
    CurriculumManifest,
    arrange_annealing,
    arrange_random_stages,
    arrange_shuffled_baseline,
    arrange_sorted_only,
    load_manifest,
    save_manifest,
)
from .difficulty import (
    DifficultyRecord,
    cosine,
    score_char_similarity,
    score_contextual,
    score_corpus,
)
from .embed import (
    ContextualEmbedding,
    FileEmbeddingProvider,
    HashedEmbedder,
    load_embeddings,
)
from .metrics import EvalReport, evaluate
from .model import (
    CorrectorModel,
    Prediction,
    load_model,
    predict,
    predict_corpus,
    save_model,
    train,
)

__version__ = "0.1.0"

__all__ = [
    "ConfusionSet", "Corpus", "Sample", "corpus_to_tsv", "derive_error_positions",
    "inject_errors", "load_confusion_set", "load_corpus", "parse_confusion_set",
    "parse_corpus", "save_corpus",
    "CurriculumManifest", "arrange_annealing", "arrange_random_stages",
    "arrange_shuffled_baseline", "arrange_sorted_only", "load_manifest", "save_manifest",
    "DifficultyRecord", "cosine", "score_char_similarity", "score_contextual",
    "score_corpus",
    "ContextualEmbedding", "FileEmbeddingProvider", "HashedEmbedder", "load_embeddings",
    "EvalReport", "evaluate",
    "CorrectorModel", "Prediction", "load_model", "predict", "predict_corpus",
    "save_model", "train",
]
