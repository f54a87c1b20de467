"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: configuration and validation problems
exit with 2, operational failures (transport, backends, damaged files)
exit with 1.
"""

from __future__ import annotations


class ClaimcheckError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(ClaimcheckError):
    """Bad or inconsistent configuration values."""


class ValidationError(ClaimcheckError):
    """Input data failed a validation gate."""


class TransportError(ClaimcheckError):
    """A remote call kept failing after bounded retries."""


class ProtocolError(ClaimcheckError):
    """A remote endpoint answered with a malformed or mismatched payload."""


class BackendError(ClaimcheckError):
    """An LLM backend returned an unusable completion."""


class GradingError(ClaimcheckError):
    """Grader output stayed unparseable after the reformat retry."""


class ExtractionError(ClaimcheckError):
    """Claim extraction output stayed unparseable after the retry."""


class RewriteError(ClaimcheckError):
    """The rewriter returned an unusable rewrite."""


class IndexFormatError(ClaimcheckError):
    """A persisted index file is damaged or from an unsupported version."""


class DegenerateSampleError(ClaimcheckError):
    """A statistical test was handed a sample it cannot score."""
