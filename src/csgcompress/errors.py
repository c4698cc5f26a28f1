"""Exception hierarchy shared across the pipeline.

The CLI maps these onto process exit codes, so raise the most specific
class available: infeasible/unsatisfiable combinatorics, malformed input
files, and bad parameter choices are different failure modes.
"""

import json


class CsgcError(Exception):
    """Base class for all csgcompress errors."""

    #: pipeline stage name, attached by the orchestrator when known
    stage: str | None = None


class StructuralError(CsgcError):
    """An object violates a structural contract (bad tree, unknown leaf id)."""


class UnsatisfiableError(CsgcError):
    """No exact cover exists for a feasible-looking instance."""


class InfeasibleInstanceError(UnsatisfiableError):
    """A cover instance has universe elements no candidate can cover."""


class ParameterError(CsgcError):
    """A numeric or configuration parameter violates its contract."""


class FileFormatError(CsgcError):
    """An input file cannot be parsed; message carries file/line context."""


def check_seed(seed: int) -> int:
    """``seed`` itself; raises ParameterError if it is negative."""
    if seed < 0:
        raise ParameterError(f"seed must be non-negative, got {seed}")
    return seed


def json_array(value, field: str):
    """``value`` if it is an array, else a TypeError naming ``field``: the
    JSON loaders refuse a string rather than split it into characters."""
    if not isinstance(value, (list, tuple)):
        raise TypeError(f"{field} must be an array, got {type(value).__name__}")
    return value


def read_json(path):
    """Parse a JSON file, reporting malformed JSON as a FileFormatError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise FileFormatError(f"{path}: invalid JSON ({exc})") from exc
