"""Plain-text checkpoint format.

Layout::

    XLALIGN-CKPT 1
    # key=value ...              (optional metadata comment lines)
    <name> <ndim> <dim1> ... <dimk>
    <value> <value> ...          (exactly prod(dims) values, any line wrapping)

Values are written with repr precision so they round-trip exactly in float64
(and a fortiori within 32-bit precision).
"""

from __future__ import annotations

import math
import os

import numpy as np

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
        flat = arr.reshape(-1)
        if arr.ndim == 2:
            for row in arr:
                fh.write(" ".join(repr(float(v)) for v in row) + "\n")
        else:
            fh.write(" ".join(repr(float(v)) for v in flat) + "\n")


def load_checkpoint(path):
    """Returns (tensors, comments). A malformed header, shape record or
    value is a ValueError naming the file (and the tensor)."""
    with open(path, "r", encoding="utf-8") as fh:
        first = fh.readline().rstrip("\n")
        if first != HEADER:
            raise ValueError(f"{path} is not a checkpoint file (header {first!r})")
        comments = []
        tokens = []

        def next_tokens(n, name):
            while len(tokens) < n:
                line = fh.readline()
                if not line:
                    raise ValueError(f"{path}: truncated checkpoint file in tensor {name!r}")
                if line.startswith("#"):
                    continue
                tokens.extend(line.split())
            out, tokens[:n] = tokens[:n], []
            return out

        tensors = {}
        while True:
            line = fh.readline()
            if not line:
                break
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                comments.append(line[1:].strip())
                continue
            name, *fields = line.split()
            if name in tensors:
                raise ValueError(f"{path}: repeated tensor name {name!r}")
            dims = _shape(path, name, fields)
            values = next_tokens(math.prod(dims), name)
            try:
                data = [float(tok) for tok in values]
            except ValueError as exc:  # names the token
                raise ValueError(f"{path}: tensor {name!r}: {exc}") from None
            if tokens:
                raise ValueError(f"{path}: extra values after tensor {name!r}")
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
        raise ValueError(f"{path}: bad shape record for tensor {name!r}: {' '.join(fields)!r}")
    return tuple(dims)


def parse_metadata(path, comments):
    """key -> value over the `key=value` tokens of a checkpoint's comment
    lines; any other token is a ValueError naming the file and the token."""
    tokens = [token.partition("=") for line in comments for token in line.split()]
    for key, sep, value in tokens:
        if not (key and sep):
            raise ValueError(f"{path}: comment token {key + sep + value!r} is not key=value")
    return {key: value for key, _, value in tokens}
