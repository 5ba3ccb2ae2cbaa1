"""JSON serialization of operators, subspaces, maps, and CLI reports.

Complex scalars are encoded as [re, im] pairs; all documents validate against
the JSON Schemas shipped in ``schemas/``.  A valid document is accepted by a
structural check read from the schema with its refs inlined, one schema node at
a time: the rows of all matrices together, then all their pairs, then all the
numbers.  A document that check cannot accept goes through jsonschema, whose
best match gives the error message.  jsonschema is imported, and each schema
checked against its metaschema and compiled, only when a first document defers
to it.  Each matrix is parsed by one conversion to floats, viewed as complex.
A report holds each verdict as its document from the moment it is added, and
its artifacts are walked once when the report is written: non-finite floats
become the strings "nan", "inf" and "-inf", complex and numpy scalars become
plain JSON values, and dictionary keys become strings.  A rectangular block of
finite floats, such as an emitted matrix, is kept as it is.  The report text
is the bytes ``json.dumps(doc, indent=2)`` gives, written with each such block
rendered in one pass.
Serialization is lossless for the float values involved (Python's float repr
round-trips), so emitted documents parse back bit-exactly.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import math
import re
from dataclasses import asdict, dataclass, field
from importlib import resources
from json.encoder import encode_basestring_ascii
from typing import Any

import numpy as np

from .config import DEFAULT_TOL, ToleranceConfig
from .operators import Operator, SpaceLayout, _columns, _unvec_stack
from .maps import SubsystemMap, map_from_kraus
from .subspaces import OperatorSubspace, _operators, _span_of_columns

__all__ = [
    "parse_operator",
    "emit_operator",
    "parse_subspace",
    "emit_subspace",
    "parse_map",
    "emit_map",
    "parse_unitary_family",
    "emit_representation",
    "Report",
    "emit_report",
    "parse_report",
    "inputs_digest",
    "validate_document",
]


def load_schema(name: str) -> dict:
    text = resources.files("beyondcp").joinpath(f"schemas/{name}.json").read_text()
    return json.loads(text)


def _inline_refs(node: Any, root: dict, resolving: tuple[str, ...] = ()) -> Any:
    """A copy of ``node`` with every local ``$ref`` replaced by its target.

    Draft-07 ignores the siblings of ``$ref``, so replacing the whole node by
    the resolved target accepts exactly the same documents.  Refs outside the
    schema itself and recursive refs are refused: they have no finite inlining.
    """
    if isinstance(node, list):
        return [_inline_refs(item, root, resolving) for item in node]
    if not isinstance(node, dict):
        return node
    ref = node.get("$ref")
    if ref is None:
        return {key: _inline_refs(value, root, resolving) for key, value in node.items()}
    if not (isinstance(ref, str) and ref.startswith("#")):
        raise ValueError(f"schema $ref {ref!r} is not local to the schema")
    if ref in resolving:
        raise ValueError(f"schema $ref {ref!r} is recursive")
    target = root
    for part in ref[1:].split("/")[1:]:
        target = target[part.replace("~1", "/").replace("~0", "~")]
    return _inline_refs(target, root, resolving + (ref,))


@functools.cache
def _inlined_schema(name: str) -> dict:
    """The packaged schema ``name`` with its refs inlined, read once."""
    schema = load_schema(name)
    return _inline_refs(schema, schema)


@functools.cache
def _validator(name: str):
    """The jsonschema validator of ``name``: the schema checked once against its
    metaschema, then compiled with its refs inlined."""
    import jsonschema

    schema = load_schema(name)
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    return cls(_inlined_schema(name))


_ANNOTATIONS = frozenset({"$schema", "$id", "title", "description", "definitions"})
# Exact types: a number is never a bool, numpy or Decimal, and 1.0, which jsonschema also
# counts as an integer, defers.
_JSON_TYPES = {
    "object": {dict}, "array": {list}, "string": {str}, "boolean": {bool},
    "null": {type(None)}, "number": {int, float}, "integer": {int},
}
_PLAIN = frozenset().union(*_JSON_TYPES.values())
_SCALARS = _PLAIN - {dict, list}


def _refuted(branch: Any, doc: Any) -> bool:
    """Whether ``doc`` certainly fails a ``oneOf`` branch: it lacks a key the branch requires,
    or holds a string where the branch has another string const."""
    return isinstance(doc, dict) and isinstance(branch, dict) and (
        any(name not in doc for name in branch.get("required", ()))
        or any(
            isinstance(sub, dict) and isinstance(sub.get("const"), str)
            and isinstance(doc.get(name), str) and doc[name] != sub["const"]
            for name, sub in branch.get("properties", {}).items()
        )
    )


def _certainly_valid(schema: Any, doc: Any, *more: Any) -> bool:
    """True only if ``doc`` and each of ``more`` are valid against the inlined draft-07 ``schema``.

    False means "not shown", never "invalid": a keyword outside the few the
    packaged schemas use, or a value that jsonschema types more broadly than
    the plain check here, defers to jsonschema.  One call checks all the values
    that reach its schema node; ``const`` and ``enum`` match scalars type-exactly,
    and ``anyOf`` and ``oneOf`` go value by value.
    """
    docs = (doc, *more)
    types = set(map(type, docs))
    if not isinstance(schema, dict) or not types <= _PLAIN:
        return False  # a boolean subschema (the packaged schemas have none), or a non-JSON type
    arrays = [d for d in docs if type(d) is list] if list in types else ()
    objects = [d for d in docs if type(d) is dict] if dict in types else ()
    for key, value in schema.items():
        if key == "type":
            names = [value] if isinstance(value, str) else value
            ok = types <= set().union(*(_JSON_TYPES[name] for name in names))
        elif key == "items" and isinstance(value, dict):
            items = list(itertools.chain.from_iterable(arrays))
            ok = not items or _certainly_valid(value, *items)
        elif key == "minItems":
            ok = min(map(len, arrays), default=value) >= value
        elif key == "maxItems":
            ok = max(map(len, arrays), default=value) <= value
        elif key == "minimum":
            ok = types <= {int, float} and min(docs) >= value
        elif key == "maximum":
            ok = types <= {int, float} and max(docs) <= value
        elif key == "properties":
            ok = all(
                _certainly_valid(sub, *values)
                for name, sub in value.items()
                if (values := [obj[name] for obj in objects if name in obj])
            )
        elif key == "required":
            ok = all(name in obj for obj in objects for name in value)
        elif key == "additionalProperties" and value is False:
            known = schema.get("properties", {})
            ok = all(name in known for obj in objects for name in obj)
        elif key in ("const", "enum"):
            options = (value,) if key == "const" else value
            ok = types <= _SCALARS and all(
                any(type(d) is type(option) and d == option for option in options) for d in docs
            )
        elif key == "pattern":
            ok = all(re.search(value, d) is not None for d in docs if type(d) is str)
        elif key == "anyOf":
            ok = all(any(_certainly_valid(branch, d) for branch in value) for d in docs)
        elif key == "oneOf":  # one branch accepts, and every other is certainly refuted
            live = [[branch for branch in value if not _refuted(branch, d)] for d in docs]
            ok = all(len(kept) == 1 and _certainly_valid(kept[0], d) for kept, d in zip(live, docs))
        elif key in _ANNOTATIONS:
            continue
        else:
            return False
        if not ok:
            return False
    return True


def validate_document(doc: Any, schema_name: str) -> None:
    """Validate a JSON document, raising ValueError with a JSON pointer path.

    A document the structural check accepts is valid; any other goes through
    jsonschema, which gives the error message.
    """
    if _certainly_valid(_inlined_schema(schema_name), doc):
        return
    from jsonschema.exceptions import best_match

    # best_match, as jsonschema.validate uses, not the validator's first error.
    err = best_match(_validator(schema_name).iter_errors(doc))
    if err is not None:
        pointer = "/" + "/".join(str(part) for part in err.absolute_path)
        raise ValueError(
            f"{schema_name} document invalid at {pointer}: {err.message}"
        )


# -- complex matrix codec -------------------------------------------------------


def _emit_matrix(entries: np.ndarray) -> list:
    """Each entry as an [re, im] pair; a (k, n, n) stack gives a list of k matrices."""
    return np.stack([np.real(entries), np.imag(entries)], axis=-1).astype(float).tolist()


def _parse_matrix(obj: list, where: str) -> np.ndarray:
    """A validated list of rows of [re, im] pairs as one float array viewed as complex,
    which has the bits ``complex(re, im)`` gives."""
    width = len(obj[0])
    for r, length in enumerate(map(len, obj)):
        if length != width:
            raise ValueError(f"{where}: row {r} has length {length}, expected {width}")
    flat = list(itertools.chain.from_iterable(itertools.chain.from_iterable(obj)))
    if len(flat) != len(obj) * width * 2:
        raise ValueError(f"{where}: entries must be [re, im] pairs")
    try:  # a flat list converts faster than the nested one
        pairs = np.array(flat, dtype=float).reshape(len(obj), width, 2)  # rows may be empty
    except OverflowError:  # an integer too large for a float
        raise ValueError(f"{where}: entries must be finite numbers") from None
    if not np.isfinite(pairs).all():
        raise ValueError(f"{where}: entries must be finite numbers")
    return pairs.view(complex)[..., 0]


def _parse_columns(doc: dict, key: str, n: int) -> np.ndarray:
    """The n x n matrices listed under ``doc[key]`` (none if absent), vectorized as columns."""
    mats = []
    for i, mat in enumerate(doc.get(key, [])):
        arr = _parse_matrix(mat, f"/{key}/{i}")
        if arr.shape != (n, n):
            raise ValueError(f"/{key}/{i}: shape {arr.shape} does not match dims")
        mats.append(arr)
    return _columns(np.array(mats, dtype=complex).reshape(-1, n, n))


def _layout_from_doc(doc: dict) -> SpaceLayout:
    labels = tuple(doc["labels"]) if "labels" in doc else None
    return SpaceLayout(tuple(int(d) for d in doc["dims"]), labels)


# -- operators -------------------------------------------------------------------


def emit_operator(op: Operator) -> dict:
    doc: dict[str, Any] = {"dims": list(op.layout.dims)}
    if op.layout.labels is not None:
        doc["labels"] = list(op.layout.labels)
    doc["matrix"] = _emit_matrix(op.entries)
    return doc


def parse_operator(doc: dict) -> Operator:
    validate_document(doc, "operator")
    layout = _layout_from_doc(doc)
    matrix = _parse_matrix(doc["matrix"], "/matrix")
    if matrix.shape != (layout.total_dim, layout.total_dim):
        raise ValueError(
            f"/matrix: shape {matrix.shape} does not match dims product {layout.total_dim}"
        )
    return Operator(layout, matrix)


# -- subspaces --------------------------------------------------------------------


def emit_subspace(v: OperatorSubspace) -> dict:
    doc: dict[str, Any] = {"dims": list(v.layout.dims)}
    if v.layout.labels is not None:
        doc["labels"] = list(v.layout.labels)
    if v._generator_matrix.shape[1]:  # the schema allows no empty generator list
        doc["generators"] = _emit_matrix(_unvec_stack(v._generator_matrix.T, v.layout.total_dim))
    doc["basis"] = _emit_matrix(_unvec_stack(v.basis_matrix().T, v.layout.total_dim))
    return doc


def parse_subspace(doc: dict, tol: ToleranceConfig = DEFAULT_TOL) -> OperatorSubspace:
    validate_document(doc, "subspace")
    layout = _layout_from_doc(doc)
    n = layout.total_dim
    generators = _parse_columns(doc, "generators", n)
    basis = _parse_columns(doc, "basis", n)
    if generators.shape[1] and not basis.shape[1]:
        return _span_of_columns(layout, generators, tol)
    # an empty basis without generators is the zero subspace
    return OperatorSubspace(layout, basis, generators if generators.shape[1] else None, tol)


def parse_unitary_family(doc: dict, tol: ToleranceConfig = DEFAULT_TOL):
    """Parse {"members": [operator...], "description": ...} into a UnitaryFamily."""
    from .consistency import UnitaryFamily

    message = 'unitary family document requires a "members" array'
    members = _parse_operator_list(doc, "members", message)
    return UnitaryFamily(tuple(members), description=str(doc.get("description", "")))


def _parse_operator_list(doc, key: str, message: str) -> list[Operator]:
    """The operators of an operator-list document: an object whose ``key`` holds an array of
    operator documents.  Anything else is refused with ``message``."""
    if not isinstance(doc, dict) or not isinstance(doc.get(key), list):
        raise ValueError(message)
    return _operators_at_once(doc[key]) or [parse_operator(o) for o in doc[key]]


def _operators_at_once(docs: list) -> list[Operator] | None:
    """The operators of a list of operator documents from one structural check and one
    conversion of all their matrices, with the bits of :func:`parse_operator`.  None unless
    every document is certainly valid, all share one layout and every matrix is a finite
    square of that size: then the document-by-document path gives the verdict and its message."""
    if not docs or not _certainly_valid(_inlined_schema("operator"), *docs):
        return None
    first = docs[0]
    if any(d["dims"] != first["dims"] or d.get("labels") != first.get("labels") for d in docs):
        return None
    layout = _layout_from_doc(first)
    n = layout.total_dim
    try:
        pairs = np.array([d["matrix"] for d in docs], dtype=float)
    except (ValueError, OverflowError):  # ragged rows, or an integer too large for a float
        return None
    if pairs.shape != (len(docs), n, n, 2) or not np.isfinite(pairs).all():
        return None
    return [Operator(layout, m) for m in pairs.view(complex)[..., 0]]


# -- maps --------------------------------------------------------------------------


def emit_map(phi: SubsystemMap) -> dict:
    return {
        "kind": "matrix",
        "dims": list(phi.domain.layout.dims),
        "basis": _emit_matrix(_unvec_stack(phi.domain.basis_matrix().T, phi.dim)),
        "coord_matrix": _emit_matrix(phi.coord_matrix),
        "provenance": phi.provenance,
    }


def _builtin_map(doc: dict, tol: ToleranceConfig) -> SubsystemMap:
    from . import catalog
    from .maps import identity_map

    name = doc["name"]

    def number(key: str) -> float:
        if key not in doc:
            raise ValueError(f'/{key}: builtin "{name}" requires {key}')
        try:
            return float(doc[key])
        except OverflowError:  # an integer too large for a float
            raise ValueError(f"/{key}: {key} must be finite, got an integer too large") from None

    if name == "identity":
        return identity_map((int(doc.get("dim", 2)),), tol)
    if name == "transpose":
        return catalog.transpose_map(tol)
    if name == "repolarizer":
        eps, floor = number("epsilon"), catalog._smallest_state_checkable_epsilon(tol)
        catalog._require_checkable_epsilon("/epsilon:", eps, floor, tol)
        return catalog.repolarizer(eps, tol)
    if name == "depolarizer":
        return catalog.depolarizer(number("epsilon"), tol)
    if name in ("controlled_phase", "example1"):
        return catalog.controlled_phase_map(number("t"), tol)
    raise ValueError(f"/name: unknown builtin map {name!r}")


def parse_map(doc: dict, tol: ToleranceConfig = DEFAULT_TOL) -> SubsystemMap:
    return _map_and_kraus_operators(doc, tol)[0]


def _map_and_kraus_operators(
    doc: dict, tol: ToleranceConfig
) -> tuple[SubsystemMap, list[Operator] | None]:
    """``parse_map`` and, for a document of kind "kraus", the operators it built the map from
    (else None), so that each Kraus matrix is converted once."""
    validate_document(doc, "map")
    kind = doc["kind"]
    if kind == "builtin":
        return _builtin_map(doc, tol), None
    layout = _layout_from_doc(doc)
    n = layout.total_dim
    if kind == "kraus":
        ops = list(_operators(layout, _parse_columns(doc, "operators", n)))
        return map_from_kraus(ops, tol), ops
    domain = OperatorSubspace(layout, _parse_columns(doc, "basis", n), tol=tol)
    coord = _parse_matrix(doc["coord_matrix"], "/coord_matrix")
    if coord.shape != (n * n, domain.dim):
        raise ValueError(
            f"/coord_matrix: shape {coord.shape}, expected {(n * n, domain.dim)}"
        )
    return SubsystemMap(domain, coord, provenance=str(doc.get("provenance", "file"))), None


def emit_representation(rep) -> dict:
    return {
        "bath_dim": rep.bath_dim,
        "unitary": emit_operator(rep.unitary),
        "subspace": emit_subspace(rep.subspace),
        "target_domain": emit_subspace(rep.target_domain),
    }


# -- reports ------------------------------------------------------------------------


def _jsonable_number(x: float | None):
    if x is None:
        return None
    x = float(x)
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    if math.isnan(x):
        return "nan"
    return x


def _float_block(value: list) -> tuple[list[int], list[float]] | None:
    """The shape and flattened entries of a rectangular nested list of finite
    floats (such as an emitted [re, im] matrix), or None for any other list."""
    shape, flat = [len(value)], value
    while flat:
        types = set(map(type, flat))
        if types == {float}:
            return (shape, flat) if all(map(math.isfinite, flat)) else None
        if types != {list}:
            return None
        lengths = set(map(len, flat))
        if len(lengths) != 1:
            return None
        shape.append(lengths.pop())
        flat = list(itertools.chain.from_iterable(flat))
    return shape, flat


def _indented(items: list[str], brackets: str, level: int) -> str:
    """The indent=2 text of a non-empty container at depth ``level`` from the
    texts of its items."""
    pad = "\n" + "  " * (level + 1)
    body = ("," + pad).join(items)
    return f"{brackets[0]}{pad}{body}\n{'  ' * level}{brackets[1]}"  # one copy of body


def _block_layout(shape: list[int], level: int) -> str:
    """The indent=2 text of a nested list of ``shape`` at depth ``level``, with a
    %r field for each float."""
    if not shape:
        return "%r"
    if not shape[0]:
        return "[]"
    return _indented([_block_layout(shape[1:], level + 1)] * shape[0], "[]", level)


def _report_text(value: Any, level: int = 0) -> str:
    """``json.dumps(value, indent=2)`` for a plain JSON document.

    Only exact dicts with string keys, lists, strings, ints, bools, None and
    finite floats are plain; anything else raises TypeError.
    """
    kind = type(value)
    if kind is list:
        block = _float_block(value)  # the empty list among them
        if block is not None:
            shape, flat = block
            return _block_layout(shape, level) % tuple(flat)
        items, brackets = [_report_text(item, level + 1) for item in value], "[]"
    elif kind is dict:
        if not value:
            return "{}"
        if any(type(key) is not str for key in value):
            raise TypeError("report keys must be strings")
        items, brackets = [
            encode_basestring_ascii(key) + ": " + _report_text(item, level + 1)
            for key, item in value.items()
        ], "{}"
    elif kind is str:
        return encode_basestring_ascii(value)
    elif kind is float:
        if not math.isfinite(value):
            raise TypeError(f"report float {value!r} is not finite")
        return float.__repr__(value)
    elif kind is bool:
        return "true" if value else "false"
    elif kind is int:
        return int.__repr__(value)
    elif value is None:
        return "null"
    else:
        raise TypeError(f"{kind.__name__} is not a plain JSON value")
    return _indented(items, brackets, level)


def _jsonable_details(value):
    if type(value) is float:
        return value if math.isfinite(value) else _jsonable_number(value)
    if isinstance(value, dict):
        return {str(k): _jsonable_details(v) for k, v in value.items()}
    if type(value) is list and _float_block(value) is not None:
        return value  # already plain JSON, as emitted matrices are
    if isinstance(value, (list, tuple)):
        return [_jsonable_details(v) for v in value]
    if isinstance(value, (bool, int, str)) or value is None:
        return value
    if isinstance(value, float):
        return _jsonable_number(value)
    if isinstance(value, complex):
        return [_jsonable_number(value.real), _jsonable_number(value.imag)]
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return _jsonable_number(float(value))
    return str(value)


@dataclass
class Report:
    """Machine-readable command outcome embedding the tolerances used."""

    command: str
    inputs_digest: str
    seed: int | None
    tolerances: ToleranceConfig
    verdicts: list[dict] = field(default_factory=list)
    artifacts: dict = field(default_factory=dict)

    def add(self, name: str, passed: bool, residual: float | None = None, **details) -> None:
        """Append one named pass/fail outcome, as its report document."""
        self.verdicts.append(
            {
                "name": name,
                "passed": bool(passed),
                "residual": _jsonable_number(residual),
                "details": _jsonable_details(details),
            }
        )

    def check(self, name: str, residual: float, bound: float | None = None, **details) -> None:
        """Append a verdict that passes iff residual <= bound (residual_tol unless given);
        a NaN residual fails."""
        bound = self.tolerances.residual_tol if bound is None else bound
        self.add(name, residual <= bound, residual, **details)

    @property
    def all_passed(self) -> bool:
        return all(v["passed"] for v in self.verdicts)

    def to_doc(self) -> dict:
        return {
            "command": self.command,
            "inputs_digest": self.inputs_digest,
            "seed": self.seed,
            "tolerances": asdict(self.tolerances),
            "verdicts": list(self.verdicts),
            "artifacts": _jsonable_details(self.artifacts),
        }


def emit_report(report: Report) -> dict:
    doc = report.to_doc()
    validate_document(doc, "report")
    return doc


def parse_report(doc: dict) -> dict:
    validate_document(doc, "report")
    return doc


def inputs_digest(payload: Any) -> str:
    """Stable SHA-256 digest of the canonicalized JSON input payload."""
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()
