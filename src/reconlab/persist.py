"""On-disk formats: model parameters and CSV result tables.

Model files are a text header (architecture, seeds, free-form metadata)
terminated by a blank line, followed by the flattened parameters as
little-endian 64-bit floats.
"""

from __future__ import annotations

import hashlib

import numpy as np

from . import nn

__all__ = ["save_model", "load_model", "config_hash", "write_csv"]


def save_model(path: str, params: nn.ModelParams, metadata: dict = None) -> None:
    lines = [
        "format=reconlab-model-v1",
        "layer_widths=" + ",".join(str(w) for w in params.arch.layer_widths),
        f"activation={params.arch.activation}",
    ]
    for key, val in (metadata or {}).items():
        lines.append(f"{key}={val}")
    with open(path, "wb") as f:
        f.write(("\n".join(lines) + "\n\n").encode())
        f.write(params.flatten().astype("<f8").tobytes())


def load_model(path: str):
    """Returns (params, metadata)."""
    with open(path, "rb") as f:
        blob = f.read()
    head, _, body = blob.partition(b"\n\n")
    fields = {}
    for line in head.decode().splitlines():
        key, _, val = line.partition("=")
        fields[key] = val
    if fields.get("format") != "reconlab-model-v1":
        raise ValueError(f"not a reconlab model file: {path}")
    arch = nn.MlpArchitecture(
        tuple(int(w) for w in fields.pop("layer_widths").split(",")),
        fields.pop("activation"),
    )
    fields.pop("format")
    vec = np.frombuffer(body, dtype="<f8")
    if vec.size != arch.parameter_count:
        raise ValueError("parameter count mismatch")
    return nn.ModelParams.unflatten(arch, vec), fields


def config_hash(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def write_csv(path: str, header_cols, rows, cfg_hash: str) -> None:
    """CSV with a provenance comment line carrying the config hash."""
    with open(path, "w") as f:
        f.write(f"# config_hash={cfg_hash}\n")
        f.write(",".join(header_cols) + "\n")
        for row in rows:
            f.write(",".join(str(v) for v in row) + "\n")
