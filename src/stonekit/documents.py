"""JSON instance documents for every model the package can analyze.

A document is an object with a ``kind`` discriminator, an optional
``name``, and a ``payload`` whose shape depends on the kind:

  lattice       {"order": POSET}
  galois        {"source": POSET, "target": POSET, "lower": [int, ...]}
  multiplicity  {"matrix": [[int, ...], ...], "a_dims"?, "b_dims"?}
  bundle        {"total": POSET, "base": POSET, "proj": [int, ...]}
  action        {"space": POSET, "generators": [[int, ...], ...]}
  graph         {"vertices": int, "edges": [[int, int], ...], "j"?}

where POSET is {"points": int, "covers": [[int, int], ...]} and the
order is the reflexive-transitive closure of the cover pairs.  Schema
problems raise DocumentError with a path anchor ("$.payload.matrix[2]");
semantic problems (a non-lattice order, a failed adjunction) surface as
the model's own errors when the payload is compiled.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import DocumentError
from .galois import GaloisConnection, MonotoneMap
from .graph_pairs import FiniteGraph, j_x
from .lattice import FinitePoset, validate_lattice
from .multiplicity import MultiplicityInclusion, to_inclusion_data
from .quasiorbit import InclusionData
from .spectrum import FiniteT0Space, PointMap
from .topo_models import (
    BundleMap,
    FiniteGroupAction,
    action_inclusion_data,
    bundle_inclusion_data,
)

KINDS = ("lattice", "galois", "multiplicity", "bundle", "action", "graph")


@dataclass(frozen=True)
class InstanceDocument:
    """A parsed, schema-valid document; ``payload`` is kind-specific."""

    kind: str
    payload: dict
    name: str | None = None


def _fail(path: str, message: str):
    raise DocumentError(f"{path}: {message}")


def _field(obj: dict, path: str, key: str, required=True, default=None):
    if key not in obj:
        if required:
            _fail(path, f"missing required field {key!r}")
        return default
    return obj[key]


def _as_int(value, path: str, minimum=None) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        _fail(path, f"expected an integer, got {type(value).__name__}")
    if minimum is not None and value < minimum:
        _fail(path, f"expected an integer >= {minimum}, got {value}")
    return value


def _as_int_list(value, path: str, bound=None) -> list[int]:
    if not isinstance(value, list):
        _fail(path, f"expected a list, got {type(value).__name__}")
    out = []
    for k, item in enumerate(value):
        item = _as_int(item, f"{path}[{k}]", minimum=0)
        if bound is not None and item >= bound:
            _fail(f"{path}[{k}]", f"index {item} out of range (< {bound})")
        out.append(item)
    return out


def _load_poset(value, path: str) -> FinitePoset:
    if not isinstance(value, dict):
        _fail(path, f"expected a poset object, got {type(value).__name__}")
    points = _as_int(_field(value, path, "points"), f"{path}.points", minimum=0)
    covers = _field(value, path, "covers", required=False, default=[])
    if not isinstance(covers, list):
        _fail(f"{path}.covers", "expected a list of [lower, upper] pairs")
    pairs = []
    for k, pair in enumerate(covers):
        row = _as_int_list(pair, f"{path}.covers[{k}]", bound=points)
        if len(row) != 2:
            _fail(f"{path}.covers[{k}]", f"expected 2 entries, got {len(row)}")
        pairs.append((row[0], row[1]))
    try:
        return FinitePoset.from_pairs(points, pairs)
    except Exception as exc:
        _fail(path, f"cover relation is not acyclic: {exc}")


def parse_document(text: str) -> InstanceDocument:
    """Parse and schema-check a JSON document; semantic checks wait."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(
            f"line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(raw, dict):
        _fail("$", f"expected an object, got {type(raw).__name__}")
    kind = _field(raw, "$", "kind")
    if kind not in KINDS:
        _fail("$.kind", f"unknown kind {kind!r}; expected one of {', '.join(KINDS)}")
    name = _field(raw, "$", "name", required=False)
    if name is not None and not isinstance(name, str):
        _fail("$.name", "expected a string")
    payload = _field(raw, "$", "payload")
    if not isinstance(payload, dict):
        _fail("$.payload", f"expected an object, got {type(payload).__name__}")
    checker = _CHECKERS[kind]
    checker(payload, "$.payload")
    return InstanceDocument(kind=kind, payload=payload, name=name)


def load_document(path) -> InstanceDocument:
    with open(path, encoding="utf-8") as handle:
        return parse_document(handle.read())


def _check_lattice(payload: dict, path: str):
    _load_poset(_field(payload, path, "order"), f"{path}.order")


def _check_galois(payload: dict, path: str):
    source = _load_poset(_field(payload, path, "source"), f"{path}.source")
    target = _load_poset(_field(payload, path, "target"), f"{path}.target")
    lower = _as_int_list(
        _field(payload, path, "lower"), f"{path}.lower", bound=target.n
    )
    if len(lower) != source.n:
        _fail(f"{path}.lower", f"expected {source.n} values, got {len(lower)}")


def _check_multiplicity(payload: dict, path: str):
    matrix = _field(payload, path, "matrix")
    if not isinstance(matrix, list) or not matrix:
        _fail(f"{path}.matrix", "expected a non-empty list of rows")
    width = None
    for k, row in enumerate(matrix):
        entries = _as_int_list(row, f"{path}.matrix[{k}]")
        if not entries:
            _fail(f"{path}.matrix[{k}]", "rows must be non-empty")
        if width is None:
            width = len(entries)
        elif len(entries) != width:
            _fail(f"{path}.matrix[{k}]", "ragged rows")
    for key, count in (("a_dims", len(matrix)), ("b_dims", width)):
        dims = _field(payload, path, key, required=False)
        if dims is None:
            continue
        dims = _as_int_list(dims, f"{path}.{key}")
        if len(dims) != count:
            _fail(f"{path}.{key}", f"expected {count} entries, got {len(dims)}")


def _check_bundle(payload: dict, path: str):
    total = _load_poset(_field(payload, path, "total"), f"{path}.total")
    base = _load_poset(_field(payload, path, "base"), f"{path}.base")
    proj = _as_int_list(_field(payload, path, "proj"), f"{path}.proj", bound=base.n)
    if len(proj) != total.n:
        _fail(f"{path}.proj", f"expected {total.n} values, got {len(proj)}")


def _check_action(payload: dict, path: str):
    space = _load_poset(_field(payload, path, "space"), f"{path}.space")
    generators = _field(payload, path, "generators")
    if not isinstance(generators, list):
        _fail(f"{path}.generators", "expected a list of permutations")
    for k, gen in enumerate(generators):
        values = _as_int_list(gen, f"{path}.generators[{k}]", bound=space.n)
        if len(values) != space.n:
            _fail(
                f"{path}.generators[{k}]",
                f"expected {space.n} values, got {len(values)}",
            )


def _check_graph(payload: dict, path: str):
    vertices = _as_int(
        _field(payload, path, "vertices"), f"{path}.vertices", minimum=0
    )
    edges = _field(payload, path, "edges", required=False, default=[])
    if not isinstance(edges, list):
        _fail(f"{path}.edges", "expected a list of [source, range] pairs")
    for k, edge in enumerate(edges):
        row = _as_int_list(edge, f"{path}.edges[{k}]", bound=vertices)
        if len(row) != 2:
            _fail(f"{path}.edges[{k}]", f"expected 2 entries, got {len(row)}")
    j = _field(payload, path, "j", required=False)
    if j is not None:
        _as_int_list(j, f"{path}.j", bound=vertices)


_CHECKERS = {
    "lattice": _check_lattice,
    "galois": _check_galois,
    "multiplicity": _check_multiplicity,
    "bundle": _check_bundle,
    "action": _check_action,
    "graph": _check_graph,
}


def compile_document(doc: InstanceDocument):
    """The model object a document describes.

    Returns an InclusionData (lattice, galois), MultiplicityInclusion,
    BundleMap, FiniteGroupAction, or (FiniteGraph, j-mask) pair.
    Semantic failures raise the model's own error types.
    """
    payload = doc.payload
    if doc.kind == "lattice":
        lat = validate_lattice(_load_poset(payload["order"], "$.payload.order"))
        identity = MonotoneMap.identity(lat)
        return InclusionData(GaloisConnection(identity, identity))
    if doc.kind == "galois":
        source = validate_lattice(_load_poset(payload["source"], "$.payload.source"))
        target = validate_lattice(_load_poset(payload["target"], "$.payload.target"))
        lower = MonotoneMap(source, target, tuple(payload["lower"]))
        return InclusionData(GaloisConnection.from_lower(lower))
    if doc.kind == "multiplicity":
        a_dims = payload.get("a_dims")
        b_dims = payload.get("b_dims")
        return MultiplicityInclusion(
            tuple(tuple(row) for row in payload["matrix"]),
            a_dims=None if a_dims is None else tuple(a_dims),
            b_dims=None if b_dims is None else tuple(b_dims),
        )
    if doc.kind == "bundle":
        total = FiniteT0Space.from_poset(_load_poset(payload["total"], "$.payload.total"))
        base = FiniteT0Space.from_poset(_load_poset(payload["base"], "$.payload.base"))
        return BundleMap(total, base, PointMap(total, base, tuple(payload["proj"])))
    if doc.kind == "action":
        space = FiniteT0Space.from_poset(_load_poset(payload["space"], "$.payload.space"))
        return FiniteGroupAction(
            space, tuple(tuple(gen) for gen in payload["generators"])
        )
    if doc.kind == "graph":
        graph = FiniteGraph(
            payload["vertices"], tuple(tuple(edge) for edge in payload["edges"])
        )
        j = payload.get("j")
        jmask = j_x(graph) if j is None else sum(1 << v for v in set(j))
        return graph, jmask
    raise DocumentError(f"$.kind: unknown kind {doc.kind!r}")


def inclusion_data_for(model) -> InclusionData:
    """The inclusion a model object describes, for every kind that
    compile_document produces except the graph pair."""
    if isinstance(model, InclusionData):
        return model
    if isinstance(model, MultiplicityInclusion):
        return to_inclusion_data(model)
    if isinstance(model, FiniteGroupAction):
        return action_inclusion_data(model)
    if isinstance(model, BundleMap):
        return bundle_inclusion_data(model)
    raise TypeError(f"no inclusion view for {type(model).__name__}")


def _poset_payload(poset: FinitePoset) -> dict:
    return {
        "points": poset.n,
        "covers": [[i, j] for i, j in poset.covers()],
    }


def document_for(model, name: str | None = None) -> dict:
    """A JSON-ready document dict describing ``model``.

    Accepts the same object kinds compile_document produces; galois
    serialization keeps only the order and the lower map, which is
    enough to rebuild the connection.
    """
    if isinstance(model, InclusionData):
        gc = model.gc
        payload = {
            "source": _poset_payload(gc.lattice_a.order),
            "target": _poset_payload(gc.lattice_b.order),
            "lower": list(gc.lower.values),
        }
        doc = {"kind": "galois", "payload": payload}
    elif isinstance(model, MultiplicityInclusion):
        doc = {
            "kind": "multiplicity",
            "payload": {"matrix": [list(row) for row in model.mult]},
        }
    elif isinstance(model, BundleMap):
        doc = {
            "kind": "bundle",
            "payload": {
                "total": _poset_payload(model.total.points),
                "base": _poset_payload(model.base.points),
                "proj": list(model.proj.values),
            },
        }
    elif isinstance(model, FiniteGroupAction):
        doc = {
            "kind": "action",
            "payload": {
                "space": _poset_payload(model.space.points),
                "generators": [list(gen) for gen in model.generators],
            },
        }
    elif isinstance(model, tuple) and len(model) == 2 and isinstance(model[0], FiniteGraph):
        graph, jmask = model
        doc = {
            "kind": "graph",
            "payload": {
                "vertices": graph.vertices,
                "edges": [list(edge) for edge in graph.edges],
                "j": [v for v in range(graph.vertices) if (jmask >> v) & 1],
            },
        }
    else:
        raise TypeError(f"cannot serialize {type(model).__name__}")
    if name is not None:
        doc["name"] = name
    return doc


def dumps_document(doc: dict) -> str:
    """Canonical text form: sorted keys, two-space indent, newline end."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
