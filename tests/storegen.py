"""Seeded generator of malformed stored values for the schema parsers.

Each value starts from a valid document and breaks it one way: bytes that
are not UTF-8 or not JSON, JSON of another shape, a missing key, or a key
(possibly nested in a list) holding a value of another type.  Some mutations
happen to stay valid, which the callers accept.
"""

import copy
import json
import random

from ruta.schema import to_json_bytes

ODD_VALUES = (None, True, 0, -1, 1.5, 10 ** 30, float("nan"), float("inf"), "",
              "x", "1", [], [1], ["a"], [[]], {}, {"a": 1})
OTHER_SHAPES = (b"[]", b"[1, 2]", b'"text"', b"7", b"null", b"true", b"1e999")


def _containers(doc):
    """Every dict inside doc, doc included."""
    out = [doc] if isinstance(doc, dict) else []
    children = doc.values() if isinstance(doc, dict) else doc if isinstance(doc, list) else ()
    for child in children:
        out.extend(_containers(child))
    return out


def malformed_value(rng: random.Random, doc: dict) -> bytes:
    good = to_json_bytes(doc)
    kind = rng.randrange(7)
    if kind == 0:
        return rng.randbytes(rng.randrange(1, 24))
    if kind == 1:
        return b"\xff" + good
    if kind == 2:
        return good[:rng.randrange(len(good))]
    if kind == 3:
        return rng.choice(OTHER_SHAPES)
    bad = copy.deepcopy(doc)
    target = rng.choice(_containers(bad))
    if not target:
        return rng.choice(OTHER_SHAPES)
    key = rng.choice(sorted(target))
    if kind == 4:
        del target[key]
    else:
        target[key] = copy.deepcopy(rng.choice(ODD_VALUES))
    return json.dumps(bad, sort_keys=True).encode("utf-8")  # allows NaN/Infinity
