"""Exception types shared across the package.

Every error raised by spellcl derives from SpellclError so callers (and the
CLI) can distinguish data/model errors from programming mistakes.
"""


class SpellclError(Exception):
    """Base class for all spellcl errors."""


# --- corpus ---------------------------------------------------------------

class LengthMismatch(SpellclError):
    """Source and target character counts differ (errors are substitution-only)."""


class DuplicateId(SpellclError):
    """A sample ID occurs more than once in a corpus."""


class MalformedLine(SpellclError):
    """A line of an input document does not match the expected layout."""


# --- embeddings -----------------------------------------------------------

class DimMismatch(SpellclError):
    """A vector's dimension disagrees with the declared embedding dimension."""


class MissingPosition(SpellclError):
    """Embedding positions for a (sample, side) are not contiguous from 0."""


class MissingEmbedding(SpellclError):
    """A file-backed provider has no vectors for a requested (sample, side)."""


class ShapeMismatch(SpellclError):
    """Embedding shape does not match the sample it is paired with."""


# --- curriculum -----------------------------------------------------------

class KTooLarge(SpellclError):
    """Requested more subsets than there are samples."""


class EmptyInput(SpellclError):
    """An arrangement was requested for zero samples."""


class MalformedManifest(SpellclError):
    """A manifest document violates the stage-file schema."""


# --- model / metrics ------------------------------------------------------

class UnknownSampleId(SpellclError):
    """A manifest references a sample ID absent from the corpus."""


class IdMismatch(SpellclError):
    """Prediction IDs do not biject onto gold corpus IDs."""


# --- cli ------------------------------------------------------------------

class ConfigError(SpellclError):
    """Invalid or incomplete experiment configuration (usage error, exit 2)."""
