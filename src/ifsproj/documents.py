"""JSON, CSV and PGM input/output for systems, graphs, and point data."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from . import tolerances
from .dimension import GDIFS
from .geometry import GeometryError, SSIFS, Similarity

SCHEMA_VERSION = "1"


class SchemaError(ValueError):
    pass


def similarity_to_json(s: Similarity) -> dict:
    return {
        "ratio": s.ratio,
        "rotation": [float(x) for x in s.rotation.ravel()],
        "translation": [float(x) for x in s.translation],
    }


def _similarity_from_json(entry: dict, d: int) -> Similarity:
    try:
        ratio = float(entry["ratio"])
        rotation = np.array(entry["rotation"], dtype=float).reshape(d, d)
        translation = np.array(entry["translation"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"malformed map entry: {exc}") from exc
    if translation.shape != (d,):
        raise SchemaError(f"translation length {translation.shape[0]} != ambient_dim {d}")
    try:
        return Similarity(ratio, rotation, translation)
    except GeometryError as exc:
        raise SchemaError(str(exc)) from exc


def ifs_to_document(ifs: SSIFS, metadata: dict | None = None) -> dict:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "ambient_dim": ifs.ambient_dim,
        "maps": [similarity_to_json(s) for s in ifs],
    }
    meta = dict(metadata or {})
    if ifs.name and "name" not in meta:
        meta["name"] = ifs.name
    if meta:
        doc["metadata"] = meta
    return doc


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
    maps = [_similarity_from_json(entry, d) for entry in maps_json]
    name = (doc.get("metadata") or {}).get("name")
    return SSIFS(maps, name=name)


def load_ifs(path) -> SSIFS:
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise SchemaError(f"cannot read IFS document {path}: {exc}") from exc
    return ifs_from_document(doc)


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
        n = len(edges)
        source = [int(e["from"]) for e in edges]
        target = [int(e["to"]) for e in edges]
        ratio = [float(e["ratio"]) for e in edges]
        rotation = np.array([e["rotation"] for e in edges], dtype=float).reshape(n, d, d)
        translation = np.array([e["translation"] for e in edges], dtype=float).reshape(n, d)
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"malformed GDIFS document: {exc}") from exc
    try:
        return GDIFS.from_arrays(q, source, target, ratio, rotation, translation)
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


def write_pgm(path, points, resolution: int = 512) -> None:
    """Binary occupancy raster (PGM P5) of a planar point cloud."""
    points = np.atleast_2d(points)
    if points.shape[1] != 2:
        raise GeometryError("PGM rendering needs a planar cloud")
    lo = points.min(axis=0)
    span = points.max(axis=0) - lo
    span[span == 0.0] = 1.0
    ij = ((points - lo) / span * (resolution - 1)).astype(int)
    img = np.full((resolution, resolution), 255, dtype=np.uint8)
    img[resolution - 1 - ij[:, 1], ij[:, 0]] = 0
    header = f"P5\n{resolution} {resolution}\n255\n".encode()
    Path(path).write_bytes(header + img.tobytes())
