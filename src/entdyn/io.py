"""Deterministic persistence of run results.

Every command writes its payload as a CSV (or JSON report) plus a metadata
JSON sitting next to it.  Output bytes are a pure function of the payload
and config snapshot: floats render with 17 significant digits (enough to
round-trip IEEE doubles), JSON keys are sorted, and nothing time- or
host-dependent is ever persisted (wall-clock timing goes to standard
error only).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .basis import SectorBasis
from .errors import ParameterError
from .evolution import Trajectory
from .experiments import EigensweepTable, ReservoirCurve, SweepTable
from .spectral_stats import Histogram

SCHEMA_VERSION = 1


def fmt_float(x: float) -> str:
    """Fixed 17-significant-digit decimal rendering of a double."""
    return f"{float(x):.17g}"


@dataclass(eq=False)
class RunRecord:
    """Everything needed to reproduce and audit one command's output.

    ``wall_clock_seconds`` is diagnostic only; it is reported on standard
    error and deliberately kept out of every persisted file so repeated
    runs stay byte-identical.
    """

    command: str
    config_text: str
    code_version: str
    master_seed: int
    payload: object
    summary: dict = field(default_factory=dict)
    wall_clock_seconds: float | None = None


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


def _json_text(obj: dict) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _jsonable(value):
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value]
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return value


def _write_text(path: Path, text: str) -> Path:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    return path


def write_results(record: RunRecord, out_dir) -> list[Path]:
    """Persist a record's payload and metadata; returns written paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if isinstance(record.payload, dict):
        stem, body, kind = "markov_report", _json_text(_jsonable(record.payload)), "json"
    else:
        stem, columns = _columns(record.payload)
        body, kind = _csv_text(columns), "csv"
    meta = {
        "schema_version": SCHEMA_VERSION,
        "command": record.command,
        "code_version": record.code_version,
        "master_seed": record.master_seed,
        "config": record.config_text,
    }
    meta.update(_jsonable(record.summary))
    paths = [
        _write_text(out / f"{stem}.{kind}", body),
        _write_text(out / f"{stem}.meta.json", _json_text(meta)),
    ]
    return paths
