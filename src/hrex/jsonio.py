"""JSON helpers for extended reals.

All JSON surfaces of the toolkit encode +infinity as the string "inf"
(bare Infinity is not valid JSON).  NaN has no encoding and is rejected.
"""

from __future__ import annotations

import json
import math
from typing import Any


def encode_extended(value: float) -> Any:
    if math.isnan(value):
        raise ValueError("NaN has no JSON encoding")
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return value


def to_jsonable(obj: Any) -> Any:
    """Recursively convert dicts/lists/floats, mapping infinities to strings."""
    if isinstance(obj, dict):
        return {k: to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    if isinstance(obj, float):
        return encode_extended(obj)
    return obj


def write_json(path, obj: Any) -> None:
    """Write obj as indented, key-sorted JSON with a trailing newline."""
    with open(path, "w") as fh:
        json.dump(to_jsonable(obj), fh, indent=2, sort_keys=True)
        fh.write("\n")
