"""Exception taxonomy shared across the package.

Each class maps to one CLI exit code: usage/config -> 1, data -> 2,
numeric -> 3. Every input file is read through ``read_text`` or
``read_json``, so a missing or undecodable file maps to these in one place.
"""

import json


class SurvstratError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class UsageError(SurvstratError):
    """API misuse: bad argument values, wrong call order, missing files."""

    exit_code = 1


class ConfigurationError(SurvstratError):
    """Invalid configuration: incompatible shapes, flags, or weights."""

    exit_code = 1


class DataError(SurvstratError):
    """Malformed or inconsistent input data."""

    exit_code = 2


class NumericError(SurvstratError):
    """Non-finite values or numeric breakdown during computation."""

    exit_code = 3


def read_text(path: str, what: str, error: type[SurvstratError], newline: str | None = None,
              expected: str = "UTF-8 text") -> str:
    """The whole file at ``path`` decoded as UTF-8. A missing file or bytes
    that do not decode raise ``error`` with one line naming ``what`` and
    ``path``; ``newline`` is passed to ``open`` (None: universal newlines)."""
    try:
        with open(path, encoding="utf-8", newline=newline) as fh:
            return fh.read()
    except FileNotFoundError:
        raise error(f"{what} not found: {path}")
    except UnicodeDecodeError as exc:
        raise error(f"{what} {path} is not {expected}: {exc}")


def read_json(path: str, what: str):
    """The JSON value in the file at ``path``; a file that is missing, does
    not decode or does not parse is a ConfigurationError (exit 1)."""
    text = read_text(path, what, ConfigurationError, expected="valid JSON")
    try:
        return json.loads(text)
    # json raises RecursionError on arrays or objects nested too deeply
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ConfigurationError(f"{what} {path} is not valid JSON: {exc}")
