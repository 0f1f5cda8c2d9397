"""On-disk formats: binary artifacts and CSV result tables.

A binary artifact is a header of ``key=value`` lines, written by
``format_header``, whose first line is ``format=<kind>``, and little-endian
float64 arrays whose shapes the header gives. A model file (``MODEL``) holds
its header, a blank line and the flattened parameters; a shadow set
(``SHADOWS``) holds its header in one file and its arrays in another (see
``shadow.ShadowSet``). Both are read through ``read_header`` and
``f8_arrays``.
"""

from __future__ import annotations

import hashlib
import math
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from . import nn

__all__ = [
    "MODEL",
    "SHADOWS",
    "save_model",
    "load_model",
    "format_header",
    "read_header",
    "header_field",
    "int_tuple",
    "f8_arrays",
    "config_hash",
    "write_csv",
]

MODEL = "reconlab-model-v1"
SHADOWS = "reconlab-shadows-v1"


def save_model(path: str, params: nn.ModelParams, metadata: dict = None) -> None:
    header = format_header({
        "format": MODEL,
        "layer_widths": ",".join(str(w) for w in params.arch.layer_widths),
        "activation": params.arch.activation,
        **(metadata or {}),
    })
    with open(path, "wb") as f:
        f.write((header + "\n").encode())
        f.write(params.flatten().astype("<f8").tobytes())


def load_model(path: str):
    """Returns (params, metadata). A corrupt file raises ValueError naming it."""
    from . import nn

    fields, body = read_header(path, MODEL)
    widths = header_field(fields, "layer_widths", path, int_tuple)
    activation = header_field(fields, "activation", path)
    try:
        arch = nn.MlpArchitecture(widths, activation)
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None
    del fields["layer_widths"], fields["activation"]
    (vec,) = f8_arrays(body, [(arch.parameter_count,)], path)
    return nn.ModelParams.unflatten(arch, vec), fields


def format_header(fields: dict) -> str:
    """One ``key=value`` line per field, in order, each ending in a newline."""
    return "".join(f"{key}={val}\n" for key, val in fields.items())


def read_header(path: str, kind: str):
    """(fields, rest) of the file at path: the ``key=value`` fields of the
    header it opens with, but its format line, and the bytes after the blank
    line that ends the header (none in a file of header only). A file whose
    first line is not ``format=kind`` raises a ValueError naming the file and
    that line."""
    with open(path, "rb") as f:
        head, _, rest = f.read().partition(b"\n\n")
    first, _, text = head.decode(errors="replace").partition("\n")
    if first != f"format={kind}":
        raise ValueError(f"{path}: not a {kind} file: its first line is {first[:80]!r}")
    fields = {}
    for line in text.splitlines():
        key, _, val = line.partition("=")
        fields[key] = val
    return fields, rest


def header_field(fields: dict, key: str, path: str, parse=str):
    """``parse`` of a header field's value, or a ValueError naming the file
    and the field when it is missing or does not parse."""
    if key not in fields:
        raise ValueError(f"{path}: header has no {key!r} field")
    try:
        return parse(fields[key])
    except ValueError as e:
        raise ValueError(f"{path}: bad {key!r} field: {e}") from None


def int_tuple(text: str) -> tuple:
    """Comma-separated integers, as header fields write them."""
    return tuple(int(v) for v in text.split(",") if v)


def f8_arrays(blob: bytes, shapes, path: str) -> list:
    """Little-endian float64 bytes as read-only arrays of each of shapes, in
    order, or a ValueError naming the file and the expected and actual sizes."""
    sizes = [math.prod(shape) for shape in shapes]
    want = 8 * sum(sizes)
    if len(blob) != want:
        raise ValueError(f"{path}: expected {want} bytes (float64 "
                         f"{', '.join(map(str, shapes))}), found {len(blob)}")
    parts = np.split(np.frombuffer(blob, dtype="<f8"), np.cumsum(sizes)[:-1])
    return [part.reshape(shape) for part, shape in zip(parts, shapes)]


def config_hash(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def write_csv(path: str, header_cols, rows, cfg_hash: str) -> None:
    """CSV with a provenance comment line carrying the config hash."""
    with open(path, "w") as f:
        f.write(f"# config_hash={cfg_hash}\n")
        f.write(",".join(header_cols) + "\n")
        for row in rows:
            f.write(",".join(str(v) for v in row) + "\n")
