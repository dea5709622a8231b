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
    """Returns (tensors, comments)."""
    with open(path, "r", encoding="utf-8") as fh:
        first = fh.readline().rstrip("\n")
        if first != HEADER:
            raise ValueError(f"not a checkpoint file (header {first!r})")
        comments = []
        tokens = []

        def next_tokens(n):
            while len(tokens) < n:
                line = fh.readline()
                if not line:
                    raise ValueError("truncated checkpoint file")
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
            parts = line.split()
            name, ndim = parts[0], int(parts[1])
            if name in tensors:
                raise ValueError(f"repeated tensor name {name!r}")
            dims = tuple(int(d) for d in parts[2:2 + ndim])
            if len(dims) != ndim:
                raise ValueError(f"bad shape record for tensor {name!r}")
            count = int(np.prod(dims)) if dims else 1
            values = [float(tok) for tok in next_tokens(count)]
            if tokens:
                raise ValueError(f"extra values after tensor {name!r}")
            tensors[name] = np.array(values, dtype=np.float64).reshape(dims)
    return tensors, comments


def parse_metadata(path, comments):
    """key -> value over the `key=value` tokens of a checkpoint's comment
    lines; any other token is a ValueError naming the file and the token."""
    tokens = [token.partition("=") for line in comments for token in line.split()]
    for key, sep, value in tokens:
        if not (key and sep):
            raise ValueError(f"{path}: comment token {key + sep + value!r} is not key=value")
    return {key: value for key, _, value in tokens}
