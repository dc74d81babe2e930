"""Field serialization: CSV for 1-d signals, PGM (P2/P5) for 2-d images.

Both formats carry a grid tag in a comment line so a file is self-describing:
``# nlflow field N=1 M=256 L=16.0``.  CSV round-trips bit-exactly (shortest
round-trip float repr).  PGM files are written as 8-bit binary (P5) and read
as P2 or P5 at any maxval up to 65535; they round-trip value-exactly on the
8-bit levels.

A field file is read once, as bytes, and parsed from them: no locale decodes
it.  Whatever is malformed in it, from a path that cannot be opened to a grid
tag value that is no number or a pixel that is no nonnegative integer,
raises an `NlflowError` that names the file, never a bare Python exception.
`write_json` is the one JSON writer for reports and calibration files.
"""

from __future__ import annotations

import json
import re

import numpy as np

from .errors import NlflowError
from .grid import Field, Grid, grid_errors

__all__ = ["save_field", "load_field", "write_json"]

# the grid tag, at the start of a CSV's first line or of a PGM comment
_TAG_RE = re.compile(
    rb"#\s*nlflow field\s+N=(\d+)\s+M=(\d+)\s+L=([-+0-9.eE]+)")
# one PGM header item after any whitespace: a # comment, else a token
_PGM_ITEM_RE = re.compile(rb"\s*(#[^\n]*|\S+)")


def _header(grid: Grid) -> str:
    return (f"# nlflow field N={grid.dimension} M={grid.points_per_axis} "
            f"L={grid.side_length!r}")


def _grid(path: str, dimension, points_per_axis, side_length=16.0) -> Grid:
    """The grid a file at `path` names, each value converted here: a value
    that is no number, or the first rule of `grid_errors` the grid breaks,
    is raised after the path, as every load error names the file."""
    try:
        n, m, length = int(dimension), int(points_per_axis), float(side_length)
    except ValueError:
        raise NlflowError(f"{path}: malformed grid tag")
    found = grid_errors(n, length, m)
    if found:
        raise NlflowError(f"{path}: {found[0][1]}")
    return Grid(n, length, m)


def save_field(field: Field, path: str) -> None:
    """Write a field: ``.csv`` for N=1 data, ``.pgm`` for N=2 images.

    PGM values must lie in [0, 1]; they are quantized to 8-bit binary (P5)
    pixels.
    """
    grid = field.grid
    lower = path.lower()
    if lower.endswith(".csv"):
        if grid.dimension != 1:
            raise NlflowError(
                f"CSV holds 1-d fields; grid is {grid.dimension}-d")
        lines = [_header(grid)]
        lines.extend(repr(float(v)) for v in field.values)
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        return
    if lower.endswith(".pgm"):
        if grid.dimension != 2:
            raise NlflowError(
                f"PGM holds 2-d fields; grid is {grid.dimension}-d")
        vals = field.values
        if np.min(vals) < -1e-12 or np.max(vals) > 1.0 + 1e-12:
            raise NlflowError(
                f"PGM output needs values in [0, 1]; range is "
                f"[{np.min(vals):.3g}, {np.max(vals):.3g}]")
        px = np.clip(np.round(vals * 255), 0, 255).astype(np.uint8)
        m = grid.points_per_axis
        with open(path, "wb") as fh:
            fh.write(f"P5\n{_header(grid)}\n{m} {m}\n255\n".encode("ascii"))
            fh.write(px.tobytes())
        return
    raise NlflowError(f"unknown field format for {path!r} (.csv or .pgm)")


def _load_csv(path: str, data: bytes) -> Field:
    lines = data.splitlines()
    if not lines:
        raise NlflowError(f"{path}: empty file")
    tag = _TAG_RE.match(lines[0].strip())
    if tag is None:
        raise NlflowError(f"{path}: no grid header")
    grid = _grid(path, *tag.groups())
    values = []
    for i, line in enumerate(lines[1:], start=2):
        text = line.strip()
        if not text or text.startswith(b"#"):
            continue
        try:
            values.append(float(text))
        except ValueError:
            raise NlflowError(f"{path}:{i}: not a number: "
                              f"{text.decode(errors='replace')!r}")
    if len(values) != grid.n_nodes:
        raise NlflowError(
            f"{path}: {len(values)} values for a grid of {grid.n_nodes} nodes")
    return Field(grid, np.asarray(values))


def _load_pgm(path: str, data: bytes) -> Field:
    magic = data[:2]
    if magic not in (b"P2", b"P5"):
        raise NlflowError(f"{path}: not a PGM file (magic {magic!r})")
    tokens, comments = [], []
    for item in _PGM_ITEM_RE.finditer(data, 2):
        (comments if item[1].startswith(b"#") else tokens).append(item[1])
        if len(tokens) == 3:
            break
    else:
        raise NlflowError(f"{path}: truncated header")
    pos = item.end()                   # just past maxval
    try:
        width, height, maxval = map(int, tokens)
    except ValueError:
        raise NlflowError(f"{path}: malformed PGM header")
    if width != height:
        raise NlflowError(
            f"{path}: only square images map to the grid "
            f"({width}x{height})")
    if not (1 <= maxval <= 65535):
        raise NlflowError(f"{path}: maxval {maxval} out of [1, 65535]")
    tag = next(filter(None, map(_TAG_RE.match, comments)), None)
    grid = _grid(path, *tag.groups()) if tag else _grid(path, 2, width)
    if grid.dimension != 2 or grid.points_per_axis != width:
        raise NlflowError(
            f"{path}: {width}x{height} image does not match grid "
            f"(N={grid.dimension}, M={grid.points_per_axis})")
    n = width * height
    if magic == b"P5":
        pos += 1                       # single whitespace after maxval
        dtype = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
        need = n * dtype.itemsize
        raw = data[pos:pos + need]
        if len(raw) != need:
            raise NlflowError(
                f"{path}: expected {need} pixel bytes, found {len(raw)}")
        px = np.frombuffer(raw, dtype=dtype).astype(np.float64)
    else:
        body = data[pos:].split(b"#")[0].split()
        if len(body) < n:
            raise NlflowError(
                f"{path}: expected {n} pixels, found {len(body)}")
        if not all(map(bytes.isdigit, body[:n])):
            raise NlflowError(
                f"{path}: a pixel is not a nonnegative decimal integer")
        px = np.array(body[:n], dtype=np.float64)
    if np.max(px) > maxval:
        raise NlflowError(f"{path}: pixel above declared maxval {maxval}")
    return Field(grid, px / maxval)


def load_field(path: str) -> Field:
    """Load a CSV or PGM field on the grid its header names; a PGM without
    one lies on the 16-wide torus with one node a pixel.  The format is the
    extension's, else the PGM magic's, else CSV's."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise NlflowError(f"{path}: {exc.strerror or exc}")
    lower = path.lower()
    sniffed = not lower.endswith(".csv") and data[:2] in (b"P2", b"P5")
    if lower.endswith(".pgm") or sniffed:
        return _load_pgm(path, data)
    return _load_csv(path, data)


def jsonable(obj):
    """Report payloads: numpy -> python, non-finite floats -> strings."""
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        obj = obj.item()
    if isinstance(obj, float) and not np.isfinite(obj):
        return repr(obj)
    return obj


def write_json(payload: dict, path: str) -> None:
    """Sorted, indented JSON, so equal payloads give equal bytes."""
    text = json.dumps(jsonable(payload), indent=2, sort_keys=True) + "\n"
    with open(path, "w") as fh:
        fh.write(text)
