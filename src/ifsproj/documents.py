"""JSON, CSV and PGM input/output for systems, graphs, and point data."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from . import tolerances
from .dimension import GDIFS
from .estimation import column_bounds
from .geometry import DegenerateSystemError, GeometryError, SSIFS

SCHEMA_VERSION = "1"


class SchemaError(ValueError):
    pass


def ifs_to_document(ratios, rotations, translations, metadata: dict | None = None) -> dict:
    """The IfsDocument of the maps given as (m,), (m, d, d) and (m, d)
    arrays (or nested lists), with the metadata object when one is given."""
    rotations = np.asarray(rotations, dtype=float)
    m, d = len(rotations), rotations.shape[-1]
    doc = {
        "schema_version": SCHEMA_VERSION,
        "ambient_dim": d,
        "maps": [
            {"ratio": r, "rotation": o, "translation": v}
            for r, o, v in zip(
                np.asarray(ratios, dtype=float).tolist(),
                rotations.reshape(m, d * d).tolist(),
                np.asarray(translations, dtype=float).tolist(),
            )
        ],
    }
    if metadata:
        doc["metadata"] = metadata
    return doc


def _map_arrays(entries: list, d: int):
    """(ratios, rotations, translations) of the map entries of a document:
    each rotation is d * d numbers in any nesting, each translation d."""
    try:
        ratios = np.array([float(e["ratio"]) for e in entries])
        rotations = np.array([np.reshape(np.array(e["rotation"], float), (d, d)) for e in entries])
        translations = [np.array(e["translation"], dtype=float) for e in entries]
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"malformed map entry: {exc}") from exc
    for v in translations:
        if v.shape != (d,):
            raise SchemaError(f"translation length {len(np.atleast_1d(v))} != ambient_dim {d}")
    return ratios, rotations, np.array(translations)


def ifs_from_document(doc: dict) -> SSIFS:
    """Validate a parsed IfsDocument into an SSIFS.

    Degenerate systems raise DegenerateSystemError (a distinct class), all
    other malformations raise SchemaError.
    """
    if not isinstance(doc, dict):
        raise SchemaError("document must be a JSON object")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise SchemaError(
            f"unsupported schema_version {doc.get('schema_version')!r}; expected {SCHEMA_VERSION!r}"
        )
    try:
        d = int(doc["ambient_dim"])
        maps_json = doc["maps"]
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"malformed document: {exc}") from exc
    if d < 1:
        raise SchemaError("ambient_dim must be positive")
    if not isinstance(maps_json, list) or not maps_json:
        raise SchemaError("maps must be a nonempty list")
    arrays = _map_arrays(maps_json, d)
    try:
        return SSIFS.from_arrays(*arrays, name=document_metadata(doc).get("name"))
    except DegenerateSystemError:
        raise
    except GeometryError as exc:
        raise SchemaError(str(exc)) from exc


def document_metadata(doc: dict) -> dict:
    """The ``metadata`` object of a document, empty when it has none."""
    metadata = doc.get("metadata", {})
    if not isinstance(metadata, dict):
        raise SchemaError("metadata must be a JSON object")
    return metadata


def load_document(path) -> dict:
    """The parsed JSON of a document file."""
    try:
        return json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise SchemaError(f"cannot read IFS document {path}: {exc}") from exc


def load_ifs(path) -> SSIFS:
    return ifs_from_document(load_document(path))


def gdifs_to_document(g: GDIFS) -> dict:
    rotations = g.rotation.reshape(len(g.ratio), -1)
    return {
        "schema_version": SCHEMA_VERSION,
        "vertices": g.vertex_count,
        "ambient_dim": g.ambient_dim,
        "edges": [
            {"from": s, "to": t, "ratio": r, "rotation": o, "translation": v}
            for s, t, r, o, v in zip(
                g.source.tolist(),
                g.target.tolist(),
                g.ratio.tolist(),
                rotations.tolist(),
                g.translation.tolist(),
            )
        ],
    }


def gdifs_from_document(doc: dict) -> GDIFS:
    if not isinstance(doc, dict):
        raise SchemaError("document must be a JSON object")
    try:
        q = int(doc["vertices"])
        d = int(doc["ambient_dim"])
        edges = doc["edges"]
        source = [int(e["from"]) for e in edges]
        target = [int(e["to"]) for e in edges]
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"malformed GDIFS document: {exc}") from exc
    arrays = _map_arrays(edges, d)
    try:
        return GDIFS(q, source, target, *arrays)
    except GeometryError as exc:
        raise SchemaError(str(exc)) from exc


def gdifs_equal(a: GDIFS, b: GDIFS) -> bool:
    if a.vertex_count != b.vertex_count or a.translation.shape != b.translation.shape:
        return False
    tau = tolerances.tau_num()
    return bool(
        np.array_equal(a.source, b.source)
        and np.array_equal(a.target, b.target)
        and np.abs(a.ratio - b.ratio).max() <= tau
        and np.abs(a.rotation - b.rotation).max() <= tau
        and np.abs(a.translation - b.translation).max() <= tau
    )


def write_scale_count_csv(path, scales, counts) -> None:
    lines = ["scale,count"]
    lines += [f"{s:.17g},{c}" for s, c in zip(scales, counts)]
    Path(path).write_text("\n".join(lines) + "\n")


def write_points_csv(path, points) -> None:
    points = np.atleast_2d(points)
    header = ",".join(f"x{i + 1}" for i in range(points.shape[1]))
    lines = [header]
    lines += [",".join(f"{x:.17g}" for x in row) for row in points]
    Path(path).write_text("\n".join(lines) + "\n")


def write_pgm(path, points, resolution: int = 512, bounds=None) -> None:
    """Binary occupancy raster (PGM P5) of a planar point cloud, framed by
    its column bounds: ``bounds`` when given (the (min, max) pair of arrays
    that ``column_bounds`` returns), else found here."""
    points = np.atleast_2d(points)
    if points.shape[1] != 2:
        raise GeometryError("PGM rendering needs a planar cloud")
    lo, hi = column_bounds(points) if bounds is None else bounds
    span = hi - lo
    span[span == 0.0] = 1.0
    ij = ((points - lo) / span * (resolution - 1)).astype(int)
    img = np.full((resolution, resolution), 255, dtype=np.uint8)
    img[resolution - 1 - ij[:, 1], ij[:, 0]] = 0
    header = f"P5\n{resolution} {resolution}\n255\n".encode()
    Path(path).write_bytes(header + img.tobytes())
