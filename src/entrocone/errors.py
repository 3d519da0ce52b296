"""Exception types shared across the package, and the one JSON parse of every file reader."""

import json


class InvalidParameter(ValueError):
    """An argument violates an operation's precondition."""


class InvalidModel(ValueError):
    """A causal model or distribution fails a structural invariant."""


class NodeGuardExceeded(RuntimeError):
    """A structure exceeds the desk-scale node guard for full marginalization."""


def parse_json(text: str, what: str) -> object:
    """``json.loads(text)``; a text that does not parse is refused, naming ``what``."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # also over-long numbers, deep nesting
        raise InvalidParameter(f"{what} is not valid JSON: {exc}") from None
