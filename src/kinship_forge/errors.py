"""Exception taxonomy shared across the package.

Every error raised on purpose derives from KinshipForgeError and carries
the CLI exit code it ends a run with: 1 unless its class says otherwise.
`read_utf8` is the one reader of input text files, so a file that is not
UTF-8 fails as a named error.
"""

from __future__ import annotations

from pathlib import Path


class KinshipForgeError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class ConfigError(KinshipForgeError):
    """Bad parameter, flag, config-file entry, or rule file."""


class PoolExhaustedError(KinshipForgeError):
    """Name or cloze-token pool too small for the requested assignment."""

    exit_code = 4


class EdgeConflictError(KinshipForgeError):
    """Two different predicates asserted for the same ordered entity pair."""


class ClosureConflictError(EdgeConflictError):
    """Closure derived two different predicates for one pair in the same round."""


class UnexpandableError(KinshipForgeError):
    """Backward chaining exhausted its restart budget without reaching length k."""

    exit_code = 4


class NoiseSearchError(KinshipForgeError):
    """No noise path satisfying the structural constraints was found."""

    exit_code = 4


class BankFormatError(KinshipForgeError):
    """Malformed template bank file; message carries the offending line number."""


class CoverageError(KinshipForgeError):
    """Template bank is missing a key required by the requested generation."""


class NoEligibleTemplateError(KinshipForgeError):
    """All templates for a key sit in the other split."""


class InsufficientTemplatesError(KinshipForgeError):
    """A key has too few templates for the requested holdout fraction."""


class NoPathError(KinshipForgeError):
    """No derivable simple path between the query entities."""

    exit_code = 3


class AmbiguousAnswerError(KinshipForgeError):
    """Fact set derives more than one predicate for the query pair."""

    exit_code = 2

    def __init__(self, predicates) -> None:
        names = ", ".join(sorted(p.value for p in predicates))
        super().__init__(f"ambiguous derivation: {{{names}}}")
        self.predicates = frozenset(predicates)


class EnumerationCapError(KinshipForgeError):
    """Shape enumeration requested beyond its length cap, MAX_SHAPE_LEN."""


class GenerationBudgetError(KinshipForgeError):
    """A puzzle could not be produced within the per-row retry budget."""

    exit_code = 4


class SchemaError(KinshipForgeError):
    """Dataset file is missing a column or holds an unparseable value."""


def read_utf8(path: str | Path) -> str:
    """The text of an input file; ConfigError naming the file if not UTF-8."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc})") from None
