import json

import numpy as np
import pytest

from entdyn import __version__, experiments, operators
from entdyn.basis import enumerate_sector
from entdyn.cli import cli
from entdyn.config import (
    RunConfig,
    parse_config,
    resolve_heavy,
    serialize_config,
    with_overrides,
)
from entdyn.errors import ConfigError
from entdyn.evolution import Trajectory
from entdyn.experiments import (
    EigensweepTable,
    ReservoirCurve,
    SweepTable,
)
from entdyn.io import write_results
from entdyn.spectral_stats import Histogram


# --- config ---------------------------------------------------------------

def test_parse_defaults():
    cfg = parse_config("")
    assert cfg.L == 12 and cfg.runs == 50 and cfg.seed == 0
    assert cfg.prep_T == 4.5 and cfg.prep_W == 0.5
    assert len(cfg.T_list) == 37


def test_parse_values_and_comments():
    text = """
    # comment line
    L = 8
    runs = 4        # trailing comment
    protocol.kind = rqc
    protocol.alpha = 3.14
    protocol.beta = 1.0
    T_list = 0.5, 1.0, 2.0
    prep.local = true
    """
    cfg = parse_config(text)
    assert cfg.L == 8 and cfg.runs == 4
    assert cfg.protocol_kind == "rqc"
    assert cfg.T_list == (0.5, 1.0, 2.0)
    assert cfg.prep_local is True


def test_parse_errors_name_the_key():
    with pytest.raises(ConfigError, match="bogus"):
        parse_config("bogus = 3\n")
    with pytest.raises(ConfigError, match="unknown key 'haar.samples'"):
        parse_config("haar.samples = 100\n")  # no command reads it
    # fixed constants of the schedule, the classifier and the histogram
    for key in (
        "schedule.linear_max", "schedule.n_linear", "schedule.n_log", "classify.eps_inert",
        "classify.eps_peak", "classify.eps_fit", "levelstats.bins",
    ):
        with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
            parse_config(f"{key} = 1\n")
    for t_max in ("10", "5", "nan", "inf"):
        with pytest.raises(ConfigError, match="schedule.t_max"):
            parse_config(f"schedule.t_max = {t_max}\n")
    with pytest.raises(ConfigError, match="runs"):
        parse_config("runs = many\n")
    with pytest.raises(ConfigError, match="L"):
        parse_config("L = 8\nL = 10\n")  # duplicate
    with pytest.raises(ConfigError, match="protocol.kind"):
        parse_config("protocol.W = 5.0\n")
    err = None
    try:
        parse_config("protocol.jz = 1.0\n")
    except ConfigError as exc:
        err = exc
    assert err is not None and err.key == "protocol.kind"


def test_parse_rejects_garbage_lines():
    with pytest.raises(ConfigError):
        parse_config("L 8\n")


def test_round_trip_equality():
    texts = [
        "",
        "L = 8\nruns = 2\n",
        "protocol.kind = floquet_mbl\nprotocol.T0 = 0.9\n",
        "protocol.kind = rqc\nprotocol.alpha = 1\nprotocol.beta = 2\nT_list = 1,2,3\n",
    ]
    for text in texts:
        cfg = parse_config(text)
        out = serialize_config(cfg)
        again = parse_config(out)
        assert again == cfg
        assert serialize_config(again) == out


def test_with_overrides_marks_seen():
    cfg = parse_config("")
    cfg2 = with_overrides(cfg, L=8, seed=11)
    assert cfg2.L == 8 and cfg2.seed == 11
    assert "L" in cfg2.seen and "seed" in cfg2.seen
    # None overrides are ignored
    cfg3 = with_overrides(cfg2, L=None)
    assert cfg3.L == 8


def test_resolve_heavy_defaults():
    cfg = resolve_heavy(with_overrides(parse_config(""), heavy=True))
    assert cfg.L == 16 and cfg.runs == 72
    # explicit values win over the heavy defaults
    cfg2 = resolve_heavy(with_overrides(parse_config("L = 10\n"), heavy=True))
    assert cfg2.L == 10 and cfg2.runs == 72
    cfg3 = resolve_heavy(parse_config(""))
    assert cfg3.L == 12 and cfg3.runs == 50


# --- writers ---------------------------------------------------------------

def _write(payload, out, command="sweep"):
    return write_results(out, command, "L = 6\n", 0, payload, {"note": "test"})


def test_sweep_csv_header_and_meta(tmp_path):
    table = SweepTable(
        T=np.array([0.5, 1.0]),
        s_initial=np.array([0.1, 0.2]),
        s_sat=np.array([1.0, 0.9]),
        stderr_initial=np.array([0.01, 0.01]),
        stderr_sat=np.array([0.02, 0.02]),
        runs=2,
        meta={"kind": "thermal"},
    )
    paths = _write(table, tmp_path)
    csv = (tmp_path / "sweep.csv").read_text()
    assert csv.splitlines()[0] == "T,S_initial,S_sat,delta_S,stderr_initial,stderr_sat,runs"
    meta = json.loads((tmp_path / "sweep.meta.json").read_text())
    assert meta["schema_version"] == 1
    assert meta["command"] == "sweep"
    assert "wall_clock" not in json.dumps(meta)
    assert sorted(str(p) for p in paths) == sorted(
        str(p) for p in [tmp_path / "sweep.csv", tmp_path / "sweep.meta.json"]
    )


def test_trajectory_csv_headers(tmp_path):
    traj = Trajectory(times=np.array([0.0, 1.0]), hcee=np.array([0.0, 0.5]))
    _write(traj, tmp_path, command="evolve")
    assert (tmp_path / "trajectory.csv").read_text().splitlines()[0] == "time,hcee"
    traj2 = Trajectory(
        times=np.array([0.0, 1.0]),
        hcee=np.array([0.0, 0.5]),
        baee=np.array([0.1, 0.6]),
    )
    _write(traj2, tmp_path, command="evolve")
    assert (tmp_path / "trajectory.csv").read_text().splitlines()[0] == "time,hcee,baee"


def test_histogram_csv_header(tmp_path):
    hist = Histogram(
        bin_left=np.array([0.0, 0.5]),
        bin_right=np.array([0.5, 1.0]),
        density=np.array([1.0, 1.0]),
    )
    _write(hist, tmp_path, command="levelstats")
    assert (
        tmp_path / "histogram.csv"
    ).read_text().splitlines()[0] == "bin_left,bin_right,density"


_TWO_ROWS = {
    "s_initial": np.array([0.1, 1.0 / 3.0]),
    "s_sat": np.array([1.0, 0.9]),
    "stderr_initial": np.array([0.0, 0.01]),
}
_CSV_CASES = {
    "sweep": (
        SweepTable(
            T=np.array([0.5, 2.0]), stderr_sat=np.array([0.02, 1e-17]), runs=2, **_TWO_ROWS
        ),
        "T,S_initial,S_sat,delta_S,stderr_initial,stderr_sat,runs\n"
        "0.5,0.10000000000000001,1,0.90000000000000002,0,0.02,2\n"
        "2,0.33333333333333331,0.90000000000000002,0.56666666666666665,0.01,"
        "1.0000000000000001e-17,2\n",
    ),
    "eigensweep": (
        EigensweepTable(
            rank=np.array([1, 3]),
            energy=np.array([-1.5, 0.25]),
            stderr_sat=np.array([0.02, 0.0]),
            runs=3,
            **_TWO_ROWS,
        ),
        "rank,energy,S_initial,S_sat,delta_S,stderr_initial,stderr_sat,runs\n"
        "1,-1.5,0.10000000000000001,1,0.90000000000000002,0,0.02,3\n"
        "3,0.25,0.33333333333333331,0.90000000000000002,0.56666666666666665,0.01,0,3\n",
    ),
    "trajectory": (
        Trajectory(times=np.array([0.0, 1.0]), hcee=np.array([0.0, 1.0 / 3.0])),
        "time,hcee\n0,0\n1,0.33333333333333331\n",
    ),
    "trajectory-baee": (
        Trajectory(
            times=np.array([0.0, 1.0]),
            hcee=np.array([0.0, 1.0 / 3.0]),
            baee=np.array([0.1, 0.6]),
        ),
        "time,hcee,baee\n0,0,0.10000000000000001\n1,0.33333333333333331,0.59999999999999998\n",
    ),
    "histogram": (
        Histogram(
            bin_left=np.array([0.0, 0.5]),
            bin_right=np.array([0.5, 1.0]),
            density=np.array([0.6, 1.4]),
        ),
        "bin_left,bin_right,density\n0,0.5,0.59999999999999998\n0.5,1,1.3999999999999999\n",
    ),
    "reservoir": (
        ReservoirCurve(
            T=np.array([0.0, 2.0]), hcee=np.array([0.2, 0.7]), baee=np.array([0.2, 0.9]), runs=4
        ),
        "T,hcee,baee,excess\n0,0.20000000000000001,0.20000000000000001,0\n"
        "2,0.69999999999999996,0.90000000000000002,0.20000000000000007\n",
    ),
    # written by the basis command at L = 4
    "basis": (
        None,
        "ordinal,word,bits\n0,3,1100\n1,5,1010\n2,6,0110\n3,9,1001\n4,10,0101\n5,12,0011\n",
    ),
}


@pytest.mark.parametrize("case", list(_CSV_CASES))
def test_csv_bytes_are_pinned(tmp_path, case, capsys):
    # integer columns print without ".0", floats with 17 significant digits
    payload, text = _CSV_CASES[case]
    if payload is None:
        assert cli(["basis", "--L", "4", "--out", str(tmp_path)]) == 0
    else:
        _write(payload, tmp_path)
    stem = case.split("-")[0]
    assert (tmp_path / f"{stem}.csv").read_text(encoding="utf-8") == text


def test_rewrite_is_byte_identical(tmp_path):
    table = SweepTable(
        T=np.array([0.5]),
        s_initial=np.array([0.1]),
        s_sat=np.array([1.0]),
        stderr_initial=np.array([0.0]),
        stderr_sat=np.array([0.0]),
        runs=1,
        meta={},
    )
    _write(table, tmp_path)
    first = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    _write(table, tmp_path)
    second = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert first == second


def test_meta_json_bytes_are_pinned_for_numpy_values(tmp_path):
    # numpy scalars and arrays go through tolist; a float64 prints like a float
    summary = {
        "f": np.float64(0.1),
        "i": np.int64(7),
        "arr": np.array([0.5, 1.0 / 3.0]),
        "pair": (np.int32(1), 2.5),
        "nested": {"ok": np.bool_(True), "nan": np.float64("nan")},
    }
    traj = Trajectory(times=np.array([0.0]), hcee=np.array([0.0]))
    write_results(tmp_path, "evolve", "L = 6\n", 3, traj, summary)
    assert (tmp_path / "trajectory.meta.json").read_text(encoding="utf-8") == (
        '{\n  "arr": [\n    0.5,\n    0.3333333333333333\n  ],\n'
        f'  "code_version": "{__version__}",\n  "command": "evolve",\n'
        '  "config": "L = 6\\n",\n  "f": 0.1,\n  "i": 7,\n  "master_seed": 3,\n'
        '  "nested": {\n    "nan": NaN,\n    "ok": true\n  },\n'
        '  "pair": [\n    1,\n    2.5\n  ],\n  "schema_version": 1\n}\n'
    )


def test_floats_survive_round_trip(tmp_path):
    value = 0.1 + 0.2  # not exactly 0.3
    traj = Trajectory(times=np.array([value]), hcee=np.array([1.0 / 3.0]))
    _write(traj, tmp_path, command="evolve")
    line = (tmp_path / "trajectory.csv").read_text().splitlines()[1]
    t, h = line.split(",")
    assert float(t) == value
    assert float(h) == 1.0 / 3.0


# --- CLI -------------------------------------------------------------------

def test_cli_markov_and_rerun_bytes(tmp_path, capsys):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("L = 4\nmarkov.steps = 50000\nmarkov.burn_in = 500\n")
    assert cli(["markov", "--config", str(cfg), "--out", str(out1)]) == 0
    assert cli(["markov", "--config", str(cfg), "--out", str(out2)]) == 0
    stdout = capsys.readouterr().out
    assert len(stdout.strip().splitlines()) == 2  # one line per invocation
    a = json.loads((out1 / "markov_report.json").read_text())
    assert a["N"] == 3
    for name in ("markov_report.json",):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    # metadata differs only in the out path inside the echoed config
    ma = json.loads((out1 / "markov_report.meta.json").read_text())
    mb = json.loads((out2 / "markov_report.meta.json").read_text())
    ma["config"] = mb["config"] = ""
    assert ma == mb


def test_cli_basis(tmp_path, capsys):
    out = tmp_path / "basis"
    assert cli(["basis", "--L", "6", "--out", str(out)]) == 0
    lines = (out / "basis.csv").read_text().splitlines()
    assert lines[0] == "ordinal,word,bits"
    assert len(lines) == 21
    capsys.readouterr()


def test_cli_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("nonsense = 1\n")
    assert cli(["basis", "--config", str(bad), "--out", str(tmp_path)]) == 2
    missing = tmp_path / "nope.txt"
    assert cli(["basis", "--config", str(missing), "--out", str(tmp_path)]) == 2
    # sweep without protocol.kind
    empty = tmp_path / "empty.txt"
    empty.write_text("L = 6\n")
    assert cli(["sweep", "--config", str(empty), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "protocol.kind" in err


def test_cli_refuses_a_nonfinite_floquet_period(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    for key in ("T0", "T1"):
        cfg.write_text(f"L = 6\nruns = 1\nprotocol.kind = floquet_mbl\nprotocol.{key} = nan\n")
        assert cli(["sweep", "--config", str(cfg), "--out", str(tmp_path / "s")]) == 2
        assert f"{key} must be finite" in capsys.readouterr().err
    # the preparation chain too: prep.W = nan once ran as a clean chain and
    # exited 0, inf overflowed in the draw, and a non-finite jz exited 1
    for key in ("prep.W", "prep.jz", "prep.T"):
        for value in ("nan", "inf"):
            cfg.write_text(f"L = 6\nruns = 1\nprotocol.kind = floquet_mbl\n{key} = {value}\n")
            for command in ("sweep", "evolve"):
                out = str(tmp_path / "s")
                assert cli([command, "--config", str(cfg), "--out", out]) == 2
                assert f"key '{key}': must be finite" in capsys.readouterr().err
    assert not (tmp_path / "s").exists()


def test_cli_evolve_rejects_rqc(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(
        "L = 6\nruns = 1\nprotocol.kind = rqc\nprotocol.alpha = 1\nprotocol.beta = 1\n"
    )
    assert cli(["evolve", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert "rqc" in capsys.readouterr().err


def test_cli_rqc_requires_rqc_kind(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("L = 6\nruns = 1\nprotocol.kind = thermal\n")
    assert cli(["rqc", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    capsys.readouterr()


def test_cli_shallow_rqc_and_conflicting_schedule(tmp_path, capsys):
    base = "L = 6\nruns = 1\nprotocol.kind = rqc\nprotocol.alpha = 2.2\nprotocol.beta = 0.8\n"
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(base + "depth = 8\n")
    out = tmp_path / "res"
    assert cli(["rqc", "--config", str(cfg), "--out", str(out)]) == 0
    rows = (out / "trajectory.csv").read_text().splitlines()[1:]
    assert [float(r.split(",")[0]) for r in rows] == list(range(9))
    capsys.readouterr()
    cfg.write_text(base + "depth = 8\nschedule.t_max = 50\n")
    assert cli(["rqc", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "'depth'" in err and "'schedule.t_max'" in err


def test_cli_refuses_what_memory_cannot_hold(tmp_path, capsys, monkeypatch):
    # with 5 GiB, an L = 16 Floquet map (estimated at 6.3 GiB) is refused up
    # front, and an L = 16 decomposition (3.8 GiB) is not
    monkeypatch.setattr(operators, "_memory_budget", lambda: 5 << 30)
    # refusing up front means before the first run builds anything
    def no_run(*args, **kwargs):
        raise AssertionError("a run started before the refusal")

    monkeypatch.setattr(experiments, "_preparation", no_run)
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("L = 16\nruns = 1\nprotocol.kind = floquet_mbl\nT_list = 4.5\n")
    assert cli(["sweep", "--config", str(cfg), "--out", str(tmp_path / "s")]) == 2
    assert "Floquet map at dimension 12870" in capsys.readouterr().err
    experiments._preflight(enumerate_sector(16, 0), "thermal", False)
    # a thermal sweep and a circuit eigensweep refuse too once the budget is
    # below one decomposition, while the reservoir curve, whose preparation
    # then goes to the Chebyshev route, has no dense step to refuse
    monkeypatch.setattr(operators, "_memory_budget", lambda: 100 << 20)
    cfg.write_text("L = 14\nruns = 1\nprotocol.kind = thermal\n")
    assert cli(["sweep", "--config", str(cfg), "--out", str(tmp_path / "t")]) == 2
    assert "decomposition at dimension 3432" in capsys.readouterr().err
    cfg.write_text(
        "L = 14\nruns = 1\nprotocol.kind = rqc\nprotocol.alpha = 2.2\nprotocol.beta = 0.8\n"
    )
    assert cli(["eigensweep", "--config", str(cfg), "--out", str(tmp_path / "e")]) == 2
    assert "decomposition at dimension 3432" in capsys.readouterr().err
    experiments._preflight(enumerate_sector(14, 0), "rqc", False)
    assert not any((tmp_path / d).exists() for d in "ste")


def test_cli_sweep_small_end_to_end(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(
        "L = 6\nruns = 2\nprotocol.kind = thermal\nT_list = 0.0, 2.0, 16.0\n"
    )
    out = tmp_path / "res"
    assert cli(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    stdout = capsys.readouterr().out.strip()
    assert stdout.count("\n") == 0
    assert "class=" in stdout
    lines = (out / "sweep.csv").read_text().splitlines()
    assert len(lines) == 4


def test_cli_levelstats_small(tmp_path, capsys):
    out = tmp_path / "ls"
    assert cli(["levelstats", "--L", "8", "--runs", "3", "--out", str(out)]) == 0
    meta = json.loads((out / "histogram.meta.json").read_text())
    assert meta["W"] == 5.0  # disordered chain is the default subject
    assert meta["jz"] == 0.5
    capsys.readouterr()


def test_cli_levelstats_takes_the_protocol_defaults(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("L = 8\nruns = 2\nprotocol.kind = thermal\n")
    out = tmp_path / "ls"
    assert cli(["levelstats", "--config", str(cfg), "--out", str(out)]) == 0
    meta = json.loads((out / "histogram.meta.json").read_text())
    assert meta["W"] == 0.5 and meta["jz"] == 0.5
    cfg.write_text("L = 8\nruns = 2\nprotocol.kind = anderson\nprotocol.W = 3.0\n")
    assert cli(["levelstats", "--config", str(cfg), "--out", str(out)]) == 0
    meta = json.loads((out / "histogram.meta.json").read_text())
    assert meta["W"] == 3.0 and meta["jz"] == 0.0
    capsys.readouterr()


def test_cli_eigensweep_small(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("L = 6\nruns = 1\nT_list = 1.0\neigensweep.ranks = 1, 10, 20\n")
    out = tmp_path / "es"
    assert cli(["eigensweep", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "eigensweep.csv").read_text().splitlines()
    assert lines[0] == "rank,energy,S_initial,S_sat,delta_S,stderr_initial,stderr_sat,runs"
    assert len(lines) == 4
    capsys.readouterr()


def test_cli_baee_and_reservoir_small(tmp_path, capsys):
    # the reservoir command writes HCEE and BAEE; there is no separate baee command
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("L = 6\nruns = 1\nT_list = 0.0, 4.5\n")
    out = tmp_path / "r"
    assert cli(["reservoir", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "reservoir.csv").read_text().splitlines()[0] == "T,hcee,baee,excess"
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        cli(["baee", "--config", str(cfg), "--out", str(tmp_path / "b")])
    assert exc.value.code == 2
    assert "invalid choice: 'baee'" in capsys.readouterr().err
    assert not (tmp_path / "b").exists()
