"""JSON helpers for extended reals.

All JSON surfaces of the toolkit encode +infinity as the string "inf"
(bare Infinity is not valid JSON).  NaN has no encoding and is rejected.
"""

from __future__ import annotations

import json
import math
from typing import Any


def to_jsonable(obj: Any) -> Any:
    """Recursively convert dicts/lists/tuples/floats, mapping infinities to
    strings and rejecting NaN."""
    if isinstance(obj, dict):
        return {k: to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    if isinstance(obj, float):
        if math.isnan(obj):
            raise ValueError("NaN has no JSON encoding")
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
    return obj


def write_json(path, obj: Any) -> None:
    """Write obj as indented, key-sorted JSON with a trailing newline."""
    with open(path, "w") as fh:
        json.dump(to_jsonable(obj), fh, indent=2, sort_keys=True)
        fh.write("\n")
