"""spellcl: curriculum ordering for spell-checking training data.

Pipeline: parse or synthesize a parallel corpus, score each sample's
difficulty from contextual similarity at its error positions, arrange the
samples into staged training curricula, train a desk-scale corrector one
epoch per stage, and evaluate detection/correction at sentence level.

``import spellcl`` imports no submodule.  Each exported name is imported
from its home module the first time it is read (PEP 562), so a program
that uses only numpy-free modules never loads numpy.
"""

import importlib

# home module -> the names it exports here
_EXPORTS = {
    "corpus": ("ConfusionSet", "Corpus", "Sample", "corpus_to_tsv", "derive_error_positions",
               "inject_errors", "load_confusion_set", "load_corpus", "parse_confusion_set",
               "parse_corpus", "save_corpus"),
    "curriculum": ("CurriculumManifest", "arrange_annealing", "arrange_random_stages",
                   "arrange_shuffled_baseline", "arrange_sorted_only", "load_manifest",
                   "save_manifest"),
    "difficulty": ("score_corpus",),
    "embed": ("ContextualEmbedding", "FileEmbeddingProvider", "HashedEmbedder",
              "load_embeddings"),
    "metrics": ("EvalReport", "evaluate"),
    "model": ("CorrectorModel", "load_model", "predict_corpus", "save_model", "train"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = list(_HOME)


def __getattr__(name: str):
    # An unknown name raises AttributeError, so ``from spellcl import
    # _kernels`` goes on to import the submodule.
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value
