"""Exception types shared across the package.

The CLI maps these onto exit codes: parse/validation failures exit 2,
binary format and OS-level I/O failures exit 3, usage errors exit 1.
"""

from __future__ import annotations


class VenomguardError(Exception):
    """Base class for all package-specific failures."""


class CsvParseError(VenomguardError):
    """A CSV manifest violated its schema. Carries file path and line number."""

    def __init__(self, path: str, line: int, message: str):
        self.path = path
        self.line = line
        super().__init__(f"{path}:{line}: {message}")


class FormatError(VenomguardError):
    """A binary feature or model file is malformed (bad magic, truncated,
    non-finite, or model records whose shapes do not chain)."""


class BundleValidationError(VenomguardError):
    """Strict-mode cross-reference validation failed."""
