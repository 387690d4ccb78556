"""Polynomial file format: a JSON document with unbounded integer terms.

{"terms": [[coefficient, exponent], ...], "d_power": k}

``terms`` lists coefficients of powers of A; ``d_power`` (default 0) is the
denominator exponent.  Whitespace-insensitive, coefficients arbitrary size.
"""

from __future__ import annotations

import json

from .rings import LaurentPoly, LocalizedElement


class PolyFormatError(ValueError):
    """Malformed polynomial document."""


def parse_poly_document(text: str) -> LocalizedElement:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise PolyFormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise PolyFormatError("document must be a JSON object")
    terms = doc.get("terms")
    if not isinstance(terms, list):
        raise PolyFormatError("missing or invalid 'terms' list")
    pairs: list[tuple[int, int]] = []
    for item in terms:
        if (
            not isinstance(item, list)
            or len(item) != 2
            or not all(isinstance(x, int) and not isinstance(x, bool) for x in item)
        ):
            raise PolyFormatError(f"term must be [coefficient, exponent]: {item!r}")
        coeff, exp = item
        pairs.append((exp, coeff))
    d_power = doc.get("d_power", 0)
    if not isinstance(d_power, int) or isinstance(d_power, bool) or d_power < 0:
        raise PolyFormatError("'d_power' must be a nonnegative integer")
    return LocalizedElement(LaurentPoly(pairs), d_power)


def poly_document(elem: LocalizedElement) -> dict:
    """The document of ``elem`` as a JSON-ready dict."""
    return {"terms": [[c, e] for e, c in elem.num.items()], "d_power": elem.d_power}


def serialize_poly_document(elem: LocalizedElement) -> str:
    return json.dumps(poly_document(elem))
