"""Deterministic persistence of run results.

Every command writes its payload as a CSV (or JSON report) plus a metadata
JSON sitting next to it.  Output bytes are a pure function of the payload
and config snapshot: floats render with 17 significant digits (enough to
round-trip IEEE doubles), JSON keys are sorted, and nothing time- or
host-dependent is ever passed to the writer (the command line reports
its wall-clock time on standard error).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from . import __version__
from .basis import SectorBasis
from .errors import ParameterError
from .evolution import Trajectory
from .experiments import EigensweepTable, ReservoirCurve, SweepTable
from .spectral_stats import Histogram

SCHEMA_VERSION = 1


def fmt_float(x: float) -> str:
    """Fixed 17-significant-digit decimal rendering of a double."""
    return f"{float(x):.17g}"


def _entropy_columns(table) -> dict:
    """The columns a sweep and an eigenstate sweep share."""
    return {
        "S_initial": table.s_initial,
        "S_sat": table.s_sat,
        "delta_S": table.delta_s,
        "stderr_initial": table.stderr_initial,
        "stderr_sat": table.stderr_sat,
        "runs": [table.runs] * table.s_initial.size,
    }


def _columns(payload) -> tuple[str, dict]:
    """The file stem and the named columns of a table payload, in order."""
    if isinstance(payload, SweepTable):
        return "sweep", {"T": payload.T, **_entropy_columns(payload)}
    if isinstance(payload, EigensweepTable):
        return "eigensweep", {
            "rank": payload.rank,
            "energy": payload.energy,
            **_entropy_columns(payload),
        }
    if isinstance(payload, Trajectory):
        cols = {"time": payload.times, "hcee": payload.hcee}
        if payload.baee is not None:
            cols["baee"] = payload.baee
        return "trajectory", cols
    if isinstance(payload, Histogram):
        return "histogram", {
            "bin_left": payload.bin_left,
            "bin_right": payload.bin_right,
            "density": payload.density,
        }
    if isinstance(payload, ReservoirCurve):
        return "reservoir", {
            "T": payload.T,
            "hcee": payload.hcee,
            "baee": payload.baee,
            "excess": payload.excess,
        }
    if isinstance(payload, SectorBasis):
        return "basis", {
            "ordinal": range(payload.dim),
            "word": payload.states,
            "bits": [payload.bitstring(int(w)) for w in payload.states],
        }
    raise ParameterError(f"no writer for payload type {type(payload).__name__}")


def _csv_text(columns: dict) -> str:
    """Header and rows; float columns by :func:`fmt_float`, the others by ``str``."""
    cells = []
    for col in columns.values():
        fmt = fmt_float if np.asarray(col).dtype.kind == "f" else str
        cells.append([fmt(x) for x in col])
    rows = [",".join(columns)] + [",".join(row) for row in zip(*cells)]
    return "\n".join(rows) + "\n"


def _json_text(obj) -> str:
    """Sorted, indented JSON; numpy arrays and scalars go through ``tolist``."""
    return json.dumps(obj, indent=2, sort_keys=True, default=lambda v: v.tolist()) + "\n"


def write_results(
    out_dir, command: str, config_text: str, master_seed: int, payload, summary: dict
) -> list[Path]:
    """Persist a command's payload and metadata; returns the written paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if isinstance(payload, dict):
        stem, body, kind = "markov_report", _json_text(payload), "json"
    else:
        stem, columns = _columns(payload)
        body, kind = _csv_text(columns), "csv"
    meta = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "code_version": __version__,
        "master_seed": master_seed,
        "config": config_text,
        **summary,
    }
    paths = [out / f"{stem}.{kind}", out / f"{stem}.meta.json"]
    for path, text in zip(paths, (body, _json_text(meta))):
        path.write_text(text, encoding="utf-8", newline="\n")
    return paths
