"""Exception types shared across the package, one per kind of fault.

Every error raised by spellcl derives from SpellclError so callers (and the
CLI) can distinguish data/model errors from programming mistakes.  The CLI
exits 2 on a ConfigError and 1 on any other SpellclError or an OSError.
"""


class SpellclError(Exception):
    """Base class for all spellcl errors."""


class MalformedLine(SpellclError):
    """An input document (corpus, confusion set, scores, manifest, model,
    embeddings) breaks its format; the message names the line where one is at fault."""


class LengthMismatch(SpellclError):
    """A target or prediction differs in length from its source (errors are substitution-only)."""


class DuplicateId(SpellclError):
    """A sample ID occurs more than once in a corpus."""


class ShapeMismatch(SpellclError):
    """Embedding vectors do not cover the sample they are paired with."""


class IdMismatch(SpellclError):
    """Sample IDs (of a manifest or predictions) do not match the corpus."""


class ConfigError(SpellclError):
    """Invalid or incomplete experiment configuration, including an
    arrangement of zero samples or more stages than samples (usage error)."""
