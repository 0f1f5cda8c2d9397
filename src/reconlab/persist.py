"""On-disk formats: model parameters and CSV result tables.

Model files are a text header (architecture, seeds, free-form metadata)
terminated by a blank line, followed by the flattened parameters as
little-endian 64-bit floats. Model and shadow-set headers are the same
``key=value`` lines, written by ``format_header``, read by ``parse_header``.
"""

from __future__ import annotations

import hashlib

import numpy as np

from . import nn

__all__ = [
    "save_model",
    "load_model",
    "format_header",
    "parse_header",
    "header_field",
    "int_tuple",
    "f8_array",
    "config_hash",
    "write_csv",
]


def save_model(path: str, params: nn.ModelParams, metadata: dict = None) -> None:
    header = format_header({
        "format": "reconlab-model-v1",
        "layer_widths": ",".join(str(w) for w in params.arch.layer_widths),
        "activation": params.arch.activation,
        **(metadata or {}),
    })
    with open(path, "wb") as f:
        f.write((header + "\n").encode())
        f.write(params.flatten().astype("<f8").tobytes())


def load_model(path: str):
    """Returns (params, metadata). A corrupt file raises ValueError naming it."""
    with open(path, "rb") as f:
        blob = f.read()
    head, _, body = blob.partition(b"\n\n")
    fields = parse_header(head.decode(errors="replace"))
    if fields.pop("format", None) != "reconlab-model-v1":
        raise ValueError(f"not a reconlab model file: {path}")
    widths = header_field(fields, "layer_widths", path, int_tuple)
    activation = header_field(fields, "activation", path)
    try:
        arch = nn.MlpArchitecture(widths, activation)
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None
    del fields["layer_widths"], fields["activation"]
    vec = f8_array(body, (arch.parameter_count,), path)
    return nn.ModelParams.unflatten(arch, vec), fields


def format_header(fields: dict) -> str:
    """One ``key=value`` line per field, in order, each ending in a newline."""
    return "".join(f"{key}={val}\n" for key, val in fields.items())


def parse_header(text: str) -> dict:
    """The fields of ``key=value`` lines, as format_header writes them."""
    fields = {}
    for line in text.splitlines():
        key, _, val = line.partition("=")
        fields[key] = val
    return fields


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


def f8_array(blob: bytes, shape: tuple, path: str) -> np.ndarray:
    """Little-endian float64 bytes as a read-only array of ``shape``, or a
    ValueError naming the file and the expected and actual sizes."""
    want = 8 * int(np.prod(shape))
    if len(blob) != want:
        raise ValueError(
            f"{path}: expected {want} bytes (float64 {shape}), found {len(blob)}"
        )
    return np.frombuffer(blob, dtype="<f8").reshape(shape)


def config_hash(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def write_csv(path: str, header_cols, rows, cfg_hash: str) -> None:
    """CSV with a provenance comment line carrying the config hash."""
    with open(path, "w") as f:
        f.write(f"# config_hash={cfg_hash}\n")
        f.write(",".join(header_cols) + "\n")
        for row in rows:
            f.write(",".join(str(v) for v in row) + "\n")
