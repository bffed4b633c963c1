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

from .errors import ParameterError
from .evolution import Trajectory
from .experiments import EigensweepTable, ReservoirCurve, SweepTable
from .spectral_stats import Histogram

SCHEMA_VERSION = 1


def fmt_float(x: float) -> str:
    """Fixed 17-significant-digit decimal rendering of a double."""
    return f"{float(x):.17g}"


@dataclass(frozen=True)
class BasisDump:
    """Plot/debug-friendly listing of a sector basis."""

    L: int
    sz_total: float
    words: tuple[int, ...]
    bits: tuple[str, ...]


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


def _csv_lines(header: list[str], rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def _sweep_csv(t: SweepTable) -> str:
    header = ["T", "S_initial", "S_sat", "delta_S", "stderr_initial", "stderr_sat", "runs"]
    rows = (
        [
            fmt_float(t.T[i]),
            fmt_float(t.s_initial[i]),
            fmt_float(t.s_sat[i]),
            fmt_float(t.delta_s[i]),
            fmt_float(t.stderr_initial[i]),
            fmt_float(t.stderr_sat[i]),
            str(t.runs),
        ]
        for i in range(t.T.size)
    )
    return _csv_lines(header, rows)


def _eigensweep_csv(t: EigensweepTable) -> str:
    header = [
        "rank", "energy", "S_initial", "S_sat", "delta_S",
        "stderr_initial", "stderr_sat", "runs",
    ]
    rows = (
        [
            str(int(t.rank[i])),
            fmt_float(t.energy[i]),
            fmt_float(t.s_initial[i]),
            fmt_float(t.s_sat[i]),
            fmt_float(t.delta_s[i]),
            fmt_float(t.stderr_initial[i]),
            fmt_float(t.stderr_sat[i]),
            str(t.runs),
        ]
        for i in range(t.rank.size)
    )
    return _csv_lines(header, rows)


def _trajectory_csv(t: Trajectory) -> str:
    if t.baee is None:
        header = ["time", "hcee"]
        rows = (
            [fmt_float(t.times[i]), fmt_float(t.hcee[i])] for i in range(t.times.size)
        )
    else:
        header = ["time", "hcee", "baee"]
        rows = (
            [fmt_float(t.times[i]), fmt_float(t.hcee[i]), fmt_float(t.baee[i])]
            for i in range(t.times.size)
        )
    return _csv_lines(header, rows)


def _histogram_csv(h: Histogram) -> str:
    header = ["bin_left", "bin_right", "density"]
    rows = (
        [fmt_float(h.bin_left[i]), fmt_float(h.bin_right[i]), fmt_float(h.density[i])]
        for i in range(h.density.size)
    )
    return _csv_lines(header, rows)


def _reservoir_csv(c: ReservoirCurve) -> str:
    header = ["T", "hcee", "baee", "excess"]
    rows = (
        [
            fmt_float(c.T[i]),
            fmt_float(c.hcee[i]),
            fmt_float(c.baee[i]),
            fmt_float(c.excess[i]),
        ]
        for i in range(c.T.size)
    )
    return _csv_lines(header, rows)


def _basis_csv(b: BasisDump) -> str:
    header = ["ordinal", "word", "bits"]
    rows = ([str(i), str(w), bits] for i, (w, bits) in enumerate(zip(b.words, b.bits)))
    return _csv_lines(header, rows)


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
    payload = record.payload
    if isinstance(payload, SweepTable):
        stem, body, kind = "sweep", _sweep_csv(payload), "csv"
    elif isinstance(payload, EigensweepTable):
        stem, body, kind = "eigensweep", _eigensweep_csv(payload), "csv"
    elif isinstance(payload, Trajectory):
        stem, body, kind = "trajectory", _trajectory_csv(payload), "csv"
    elif isinstance(payload, Histogram):
        stem, body, kind = "histogram", _histogram_csv(payload), "csv"
    elif isinstance(payload, ReservoirCurve):
        stem, body, kind = "reservoir", _reservoir_csv(payload), "csv"
    elif isinstance(payload, BasisDump):
        stem, body, kind = "basis", _basis_csv(payload), "csv"
    elif isinstance(payload, dict):
        stem, body, kind = "markov_report", _json_text(_jsonable(payload)), "json"
    else:
        raise ParameterError(f"no writer for payload type {type(payload).__name__}")
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
