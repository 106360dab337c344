"""Binary field snapshots, deterministic CSV writers, and experiment manifests.

Snapshot format: header ``{magic "SQGF", version u32, dim u32, n u32, time f64}``
followed by row-major little-endian f64 collocation values.

CSV files are written with shortest-roundtrip float formatting (``repr``),
so re-running the same experiment in serial mode reproduces them byte for
byte.  A manifest is itself a valid flat key=value config file: it embeds the
full config snapshot (seeds already offset by any ``--seed-override``) next to
a ``[manifest]`` section with the path and hash of each input file, code
version, the python, numpy and BLAS versions (CSV bytes depend on the numpy
FFT build, and the kernel report on the BLAS library), whether BLAS was
pinned to one thread, the seed override, output paths, and wall-clock
metadata (the latter is the only non-reproducible content, and no CSV
depends on it).
"""

from __future__ import annotations

import hashlib
import os
import struct
import sys
import time
from typing import Dict, Iterable, Sequence

import numpy as np

from . import BLAS_THREADS
from .spectral import SpectralField, TorusGrid

__all__ = [
    "SNAPSHOT_MAGIC",
    "SNAPSHOT_VERSION",
    "write_snapshot",
    "read_snapshot",
    "write_csv",
    "format_cell",
    "sha256_of_file",
    "write_manifest",
]

SNAPSHOT_MAGIC = b"SQGF"
SNAPSHOT_VERSION = 1
_HEADER = struct.Struct("<4sIIId")


def write_snapshot(path: str, field: SpectralField, t: float) -> None:
    grid = field.grid
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(SNAPSHOT_MAGIC, SNAPSHOT_VERSION, grid.dim, grid.n, float(t)))
        fh.write(field.values().astype("<f8").tobytes(order="C"))


def read_snapshot(path: str):
    """Read a snapshot; returns ``(field, time)``.

    Raises ``ValueError`` naming ``path`` when the header is malformed or
    names no valid grid, the file is not exactly the header plus ``8 *
    n**dim`` bytes, or a value is not finite, and
    :class:`~critsqg.spectral.MeanZeroError` when the values are not mean-free.
    """
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if len(head) != _HEADER.size:
            raise ValueError(f"{path}: truncated snapshot header")
        magic, version, dim, n, t = _HEADER.unpack(head)
        if magic != SNAPSHOT_MAGIC:
            raise ValueError(f"{path}: bad magic {magic!r}")
        if version != SNAPSHOT_VERSION:
            raise ValueError(f"{path}: unsupported snapshot version {version}")
        try:
            grid = TorusGrid(int(dim), int(n))
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        size = os.fstat(fh.fileno()).st_size
        want = _HEADER.size + 8 * n**dim
        if size != want:
            raise ValueError(f"{path}: snapshot has {size} bytes, expected {want} for {grid}")
        values = np.frombuffer(fh.read(), dtype="<f8").reshape(grid.shape)
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{path}: snapshot holds non-finite values")
    return SpectralField.from_values(grid, values), float(t)


def format_cell(x) -> str:
    """Deterministic cell formatting: shortest-roundtrip floats, plain ints."""
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format_cell(c) for c in row))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def sha256_of_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(
    path: str,
    config_sections: Dict[str, Dict[str, str]],
    command: str,
    out_dir: str,
    seed: int,
    inputs: Dict[str, str],
    code_version: str,
    outputs: Sequence[str] = (),
) -> None:
    """Write the experiment manifest (written before any long computation).

    The manifest doubles as a config file: parsing it back and re-running
    under the recorded python, numpy and BLAS versions reproduces every CSV
    output byte-exactly.  ``blas_threads`` is ``1`` when importing critsqg
    pinned BLAS to one thread, and ``unpinned`` when numpy was loaded first
    (an in-process caller); an unpinned run's ``kernel_report.csv`` may differ
    in its last bits from a pinned replay, because a threaded gemm sums the
    translation symbol in another order.
    Each of ``inputs``, the files the run reads besides its config, is
    recorded as ``name = path`` and ``name_sha256 = <hash>``.
    """
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    lines = ["[manifest]"]
    lines.append("schema_version = 1")
    lines.append(f"code_version = {code_version}")
    # output bytes depend on the numpy FFT build and on the BLAS library
    lines.append("python_version = {}.{}.{}".format(*sys.version_info[:3]))
    lines.append(f"numpy_version = {np.__version__}")
    lines.append(f"blas_version = {blas['name']} {blas['version']}")
    lines.append(f"blas_threads = {BLAS_THREADS}")
    lines.append(f"command = {command}")
    lines.append(f"out_dir = {out_dir}")
    lines.append(f"seed = {seed}")
    for name, input_path in inputs.items():
        lines.append(f"{name} = {input_path}")
        lines.append(f"{name}_sha256 = {sha256_of_file(input_path)}")
    lines.append(f"created_unix = {time.time()!r}")
    for name in outputs:
        lines.append(f"output = {name}")
    for section, kv in config_sections.items():
        lines.append("")
        lines.append(f"[{section}]")
        for key, val in kv.items():
            lines.append(f"{key} = {val}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
