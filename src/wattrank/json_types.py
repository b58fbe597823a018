"""The JSON type rule that every loader reads its fields by.

Every loader decodes with :func:`json_loads`.  It gives a JSON string as
``str``, an integer as ``int``, any other number as ``float``, an array as
``list``, an object as ``dict`` and ``true``/``false`` as ``bool``, and it
raises ``ValueError`` for malformed JSON, nested too deeply to decode too.
A field of kind ``str``, ``int``, ``list`` or ``dict`` must have exactly
that type, so a boolean is never an integer.  A field of kind ``float`` may
be any JSON number (not a boolean or a numeric string) and is returned as a
float; a number that no float can hold raises ``ValueError``, any other
mismatch ``TypeError``.  Each loader turns both into its own
:class:`~wattrank.errors.WattrankError` and checks the values.

Every writer encodes with :func:`json_dumps`, the output twin of the rule:
it writes only strict JSON, so a NaN or infinite number raises
:class:`~wattrank.errors.WattrankError` instead of becoming ``NaN`` or
``Infinity``, tokens that strict parsers reject.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import WattrankError

_NUMBER_TYPES = {int, float}
_NOUNS = {str: "a string", int: "an integer", float: "a number", list: "an array",
          dict: "an object"}


def json_loads(text: str):
    """``json.loads(text)``, raising ``ValueError`` also for too deep nesting."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON nested too deeply to decode") from None


def json_dumps(value, indent: int | None = None) -> str:
    """``json.dumps(value, indent=indent)``, raising :class:`WattrankError`
    for a number that is not finite."""
    try:
        return json.dumps(value, indent=indent, allow_nan=False)
    except ValueError as exc:
        raise WattrankError(f"refusing to write JSON: {exc}") from None


def json_value(value, kind: type):
    """``value`` as a JSON value of ``kind`` (see the module docstring)."""
    if type(value) is kind:
        return value
    if kind is float and type(value) is int:
        try:
            return float(value)
        except OverflowError as exc:
            raise ValueError(f"number out of range: {value!r}") from exc
    raise TypeError(f"expected {_NOUNS[kind]}, got {value!r}")


def json_numbers(value) -> np.ndarray:
    """A JSON array (nested or not) of numbers as a float array, by the rule
    of :func:`json_value`; a ragged array raises ``TypeError`` too."""
    cells = np.asarray(value, dtype=object)
    flat = cells.ravel()  # cells.flat fails beyond 32 dimensions
    if not set(map(type, flat)) <= _NUMBER_TYPES:
        bad = next(x for x in flat if type(x) not in _NUMBER_TYPES)
        raise TypeError(f"expected a number, got {bad!r}")
    try:
        return cells.astype(float)
    except OverflowError as exc:
        raise ValueError("a number in the array is out of range") from exc
