"""Deterministic JSONL export of sweep-cell values.

``cells_to_jsonl`` is the byte-level determinism comparator: a parallel
run and a serial run of the same sweep must render to identical text.
Everything that could differ between runs of identical simulations —
wall-clock timings, dict insertion order, float formatting — is pinned:

* values are lowered through ``as_payload()`` when they provide one
  (scenario summaries exclude wall-time fields from their payloads),
* ``json.dumps(..., sort_keys=True)`` fixes key order,
* numpy scalars/arrays are converted to plain Python so their ``repr``
  quirks never leak into the text. They are recognised only when numpy
  is already loaded (``sys.modules``): a process that never imported it
  cannot hold its values, so exporting never loads numpy.
"""

from __future__ import annotations

import dataclasses
import enum
import json
import sys
from typing import Any, Iterable, List


def to_jsonable(value: Any) -> Any:
    """Lower *value* to plain JSON-serialisable Python.

    Objects exposing ``as_payload()`` are asked for their canonical
    payload first; dataclasses, enums, numpy arrays/scalars and the
    standard containers are handled structurally.
    """
    payload = getattr(value, "as_payload", None)
    if callable(payload) and not isinstance(value, type):
        return to_jsonable(payload())
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, bytes):
        return value.hex()
    if isinstance(value, enum.Enum):
        return value.value
    np = sys.modules.get("numpy")
    if np is not None:
        if isinstance(value, np.ndarray):
            return [to_jsonable(item) for item in value.tolist()]
        if isinstance(value, np.generic):
            return to_jsonable(value.item())
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: to_jsonable(getattr(value, f.name))
            for f in dataclasses.fields(value)
            if not f.name.startswith("_")
        }
    if isinstance(value, dict):
        return {str(k): to_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        items = [to_jsonable(item) for item in value]
        if isinstance(value, (set, frozenset)):
            items = sorted(items, key=json.dumps)
        return items
    raise TypeError(
        f"cannot export {type(value).__name__!r} values to JSONL")


def cells_to_jsonl(values: Iterable[Any]) -> str:
    """One ``sort_keys`` JSON line per cell value, in cell order."""
    lines: List[str] = []
    for value in values:
        lines.append(json.dumps(to_jsonable(value), sort_keys=True,
                                separators=(",", ":")))
    return "\n".join(lines) + ("\n" if lines else "")
