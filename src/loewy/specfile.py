"""Reading and writing algebra presentations as JSON spec files.

The format mirrors the constructor inputs exactly:

    {
      "field": {"p": 5},
      "quiver": {"vertices": 3,
                 "arrows": [{"name": "a0", "source": 0, "target": 1}, ...]},
      "relations": [[{"coeff": 1, "path": ["a0", "a1"]}, ...], ...],
      "truncation": 3
    }

Files are emitted with sorted keys and a fixed indentation, so a
load/dump round trip is byte identical.
"""

from __future__ import annotations

import json
from pathlib import Path

from .algebra import Algebra, Arrow, Quiver, Relation, _Presentation

__all__ = [
    "SpecFileError",
    "load_spec",
    "dump_spec",
    "spec_text",
    "validate_spec",
    "spec_to_algebra",
    "algebra_to_spec",
]


class SpecFileError(ValueError):
    """Raised for unreadable or malformed algebra spec files."""


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise SpecFileError(msg)


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)  # JSON true/false load as bool


def validate_spec(spec) -> dict:
    """Check the schema and return the spec unchanged."""
    _require(isinstance(spec, dict), "spec must be a JSON object")
    for key in ("field", "quiver", "relations", "truncation"):
        _require(key in spec, f"missing key {key!r}")
    field = spec["field"]
    _require(isinstance(field, dict) and _is_int(field.get("p")),
             "field must be an object with an integer 'p'")
    quiver = spec["quiver"]
    _require(isinstance(quiver, dict) and _is_int(quiver.get("vertices")),
             "quiver must be an object with an integer 'vertices'")
    arrows = quiver.get("arrows")
    _require(isinstance(arrows, list), "quiver.arrows must be a list")
    for a in arrows:
        _require(isinstance(a, dict), "each arrow must be an object")
        _require(isinstance(a.get("name"), str), "arrow name must be a string")
        _require(_is_int(a.get("source")) and _is_int(a.get("target")),
                 "arrow endpoints must be integers")
    _require(isinstance(spec["relations"], list), "relations must be a list")
    for rel in spec["relations"]:
        _require(isinstance(rel, list) and rel, "each relation must be a non-empty list")
        for term in rel:
            _require(isinstance(term, dict), "each relation term must be an object")
            _require(_is_int(term.get("coeff")), "relation coeff must be an integer")
            path = term.get("path")
            _require(isinstance(path, list) and all(isinstance(x, str) for x in path),
                     "relation path must be a list of arrow names")
    _require(_is_int(spec["truncation"]), "truncation must be an integer")
    return spec


def _presentation(spec: dict) -> _Presentation:
    """The validated presentation of a spec, before its structure tensor
    is built, so the corpus generator can reject it on its dimension."""
    validate_spec(spec)
    try:
        quiver = Quiver(
            spec["quiver"]["vertices"],
            [Arrow(a["name"], a["source"], a["target"]) for a in spec["quiver"]["arrows"]],
        )
        relations = [
            Relation(tuple((term["coeff"], tuple(term["path"])) for term in rel))
            for rel in spec["relations"]
        ]
        return _Presentation(quiver, relations, spec["truncation"], spec["field"]["p"])
    except ValueError as exc:
        raise SpecFileError(str(exc)) from exc


def spec_to_algebra(spec: dict) -> Algebra:
    """Build the algebra described by a validated spec dict."""
    presentation = _presentation(spec)
    try:
        return presentation.build()
    except ValueError as exc:
        raise SpecFileError(str(exc)) from exc


def algebra_to_spec(a: Algebra) -> dict:
    """Recover the spec dict from an algebra built from a quiver presentation."""
    if a.quiver is None or a.truncation is None:
        raise SpecFileError("algebra does not carry a quiver presentation")
    return {
        "field": {"p": a.p},
        "quiver": {
            "vertices": a.quiver.vertex_count,
            "arrows": [
                {"name": ar.name, "source": ar.source, "target": ar.target}
                for ar in a.quiver.arrows
            ],
        },
        "relations": [
            [{"coeff": int(c), "path": list(path)} for c, path in rel.terms]
            for rel in a.relations
        ],
        "truncation": a.truncation,
    }


def spec_text(spec: dict) -> str:
    """Canonical serialization: sorted keys, two-space indent, newline end."""
    return json.dumps(spec, indent=2, sort_keys=True) + "\n"


def load_spec(path) -> dict:
    try:
        raw = Path(path).read_text()
    except OSError as exc:
        raise SpecFileError(f"cannot read {path}: {exc}") from exc
    try:
        spec = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise SpecFileError(f"invalid JSON in {path}: {exc}") from exc
    return validate_spec(spec)


def dump_spec(spec: dict, path) -> None:
    validate_spec(spec)
    try:
        Path(path).write_text(spec_text(spec))
    except OSError as exc:
        raise SpecFileError(f"cannot write {path}: {exc}") from exc
