"""Plain-text checkpoint format.

Layout::

    XLALIGN-CKPT 1
    # key=value ...              (optional metadata comment lines)
    <name> <ndim> <dim1> ... <dimk>
    <value> <value> ...          (exactly prod(dims) values, any line wrapping)

A float32 array's values are written with nine significant digits
('%.9g'), the fewest that always read back to the same float32; any other
array's values are written as the repr of their float64 value, which reads
back exactly. The loader returns float64 arrays: a float32 value comes back
as the float64 nearest its nine digits, which rounds to the saved float32,
and a value of an older checkpoint, written as a repr, comes back exactly.
"""

from __future__ import annotations

import math
import os

import numpy as np

from .config import ConfigError, read_file

HEADER = "XLALIGN-CKPT 1"


def save_checkpoint(path, tensors, comments=()):
    """tensors: mapping name -> ndarray. Names must not contain whitespace.

    Writes a temporary file next to `path` and renames it into place, so a
    failed save leaves any earlier checkpoint at `path` whole.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            _write(fh, tensors, comments)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _write(fh, tensors, comments):
    fh.write(HEADER + "\n")
    for line in comments:
        fh.write(f"# {line}\n")
    for name, arr in tensors.items():
        if any(ch.isspace() for ch in name):
            raise ValueError(f"tensor name {name!r} contains whitespace")
        arr = np.asarray(arr)
        dims = " ".join(str(d) for d in arr.shape)
        fh.write(f"{name} {arr.ndim}{' ' + dims if dims else ''}\n")
        fmt = "%.9g" if arr.dtype == np.float32 else "%r"
        values = np.asarray(arr, dtype=np.float64)  # exact for float32
        for row in (values if arr.ndim == 2 else [values.reshape(-1)]):
            fh.write(" ".join(fmt % v for v in row.tolist()) + "\n")


def load_checkpoint(path):
    """Returns (tensors, comments). A malformed or non-UTF-8 header, shape
    record or value is a ConfigError naming the file (and the tensor)."""
    lines = iter(read_file(path, list))
    first = next(lines, "").rstrip("\n")
    if first != HEADER:
        raise ConfigError(f"{path} is not a checkpoint file (header {first!r})")
    comments = []
    tokens = []

    def next_tokens(n, name):
        while len(tokens) < n:
            line = next(lines, "")
            if not line:
                raise ConfigError(f"{path}: truncated checkpoint file in tensor {name!r}")
            if line.startswith("#"):
                continue
            tokens.extend(line.split())
        out, tokens[:n] = tokens[:n], []
        return out

    tensors = {}
    for line in lines:
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            comments.append(line[1:].strip())
            continue
        name, *fields = line.split()
        if name in tensors:
            raise ConfigError(f"{path}: repeated tensor name {name!r}")
        dims = _shape(path, name, fields)
        values = next_tokens(math.prod(dims), name)
        try:
            data = [float(tok) for tok in values]
        except ValueError as exc:  # names the token
            raise ConfigError(f"{path}: tensor {name!r}: {exc}") from None
        if tokens:
            raise ConfigError(f"{path}: extra values after tensor {name!r}")
        tensors[name] = np.array(data, dtype=np.float64).reshape(dims)
    return tensors, comments


def _shape(path, name, fields):
    """The dims of a `<name> <ndim> <dim1> ... <dimk>` record: k = ndim
    non-negative integers."""
    try:
        ndim, *dims = map(int, fields)
        ok = len(dims) == ndim and min(dims, default=0) >= 0
    except ValueError:  # no ndim, or a field that is not an integer
        ok = False
    if not ok:
        raise ConfigError(f"{path}: bad shape record for tensor {name!r}: {' '.join(fields)!r}")
    return tuple(dims)


def parse_metadata(path, comments):
    """key -> value over the `key=value` tokens of a checkpoint's comment
    lines; any other token, or a key given twice, is a ConfigError naming the
    file and the token."""
    metadata = {}
    for token in (token for line in comments for token in line.split()):
        key, sep, value = token.partition("=")
        if not (key and sep):
            raise ConfigError(f"{path}: comment token {token!r} is not key=value")
        if key in metadata:
            raise ConfigError(f"{path}: repeated comment key {key!r}")
        metadata[key] = value
    return metadata
