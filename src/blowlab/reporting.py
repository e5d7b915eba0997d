"""Deterministic artifact emission.

Every CSV written here is byte-reproducible: metadata lines are sorted,
floats are serialized with repr (shortest round-trip form), and nothing
time- or host-dependent is recorded. That turns `diff` into a regression
test over output directories.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

__all__ = [
    "format_value",
    "output_dir",
    "write_csv",
]

_ENV_OUTDIR = "BLOWLAB_OUTDIR"


def format_value(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, np.integer):
        return str(int(v))
    if v is None:
        return ""
    return str(v)


def output_dir() -> Path:
    """Artifact directory, created if missing: $BLOWLAB_OUTDIR, else
    ./blowlab-out."""
    root = Path(os.environ.get(_ENV_OUTDIR) or "blowlab-out")
    root.mkdir(parents=True, exist_ok=True)
    return root


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence],
              metadata: Optional[Mapping[str, object]] = None) -> Path:
    """One header line, '#'-prefixed sorted metadata, repr-formatted cells."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = []
    if metadata:
        for key in sorted(metadata):
            lines.append(f"# {key} = {format_value(metadata[key])}")
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(format_value(v) for v in row))
    path.write_text("\n".join(lines) + "\n")
    return path
