"""Command line interface.

Every subcommand reads one shared config schema (``--config``), applies
flag overrides, computes, and persists results through ``write_results``.
Standard output carries exactly one summary line; progress and timing go
to standard error; all data lands in files.

Exit codes: 0 success, 2 configuration problem, 1 numerical failure.
"""

from __future__ import annotations

import argparse
import sys
import time
from functools import partial
from pathlib import Path

from .basis import enumerate_sector
from .bipartition_markov import markov_report
from .config import (
    RunConfig,
    parse_config,
    resolve_heavy,
    serialize_config,
    with_overrides,
)
from .errors import CapacityError, ConfigError, NumericError, ParameterError
from .experiments import (
    ProtocolSpec,
    classify_dynamics,
    default_schedule,
    delta_s_sweep,
    derive_rng,
    eigenstate_sweep,
    mean_trajectory,
    pooled_disorder_ratios,
    reservoir_curve,
)
from .io import write_results
from .spectral_stats import ratio_histogram, reference_curves

_MIDDLE_THIRD_NOTE = "start floor(dim/3), length floor(dim/3)"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entdyn",
        description="Entanglement dynamics of disordered spin-1/2 chains.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", type=str, default=None, help="config file path")
        p.add_argument("--seed", type=int, default=None, help="master seed override")
        p.add_argument("--out", type=str, default=None, help="output directory override")
        p.add_argument("--heavy", action="store_true", help="full-scale defaults (L=16, 72 runs)")
        p.add_argument("--runs", type=int, default=None, help="run count override")
        p.add_argument("--L", type=int, default=None, help="chain length override")
    return parser


def _load_config(args: argparse.Namespace) -> RunConfig:
    if args.config is not None:
        path = Path(args.config)
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}")
        cfg = parse_config(text)
    else:
        cfg = RunConfig()
    cfg = with_overrides(
        cfg, seed=args.seed, out=args.out, runs=args.runs, L=args.L
    )
    if args.heavy:
        cfg = with_overrides(cfg, heavy=True)
    return resolve_heavy(cfg)


def _protocol_from(cfg: RunConfig, default_kind: str | None = None) -> ProtocolSpec:
    kind = cfg.protocol_kind if cfg.protocol_kind is not None else default_kind
    if kind is None:
        raise ConfigError(
            "this command needs protocol.kind in the config", key="protocol.kind"
        )
    return ProtocolSpec(
        kind=kind,
        W=cfg.protocol_W,
        jz=cfg.protocol_jz,
        alpha=cfg.protocol_alpha,
        beta=cfg.protocol_beta,
        T0=cfg.protocol_T0,
        T1=cfg.protocol_T1,
    ).normalized()


def _schedule_for(cfg: RunConfig, kind: str):
    # a circuit records up to its last layer, so depth sets t_max
    t_max_set = "schedule.t_max" in cfg.seen
    if kind == "rqc" and t_max_set and cfg.schedule_t_max != cfg.depth:
        raise ConfigError(
            f"keys 'depth' and 'schedule.t_max' conflict: a circuit records "
            f"up to depth = {cfg.depth}, not schedule.t_max = "
            f"{cfg.schedule_t_max:g}; set depth alone",
            key="schedule.t_max",
        )
    return default_schedule(kind, cfg.depth, cfg.schedule_t_max if t_max_set else None)


def _progress(msg: str) -> None:
    print(f"[entdyn] {msg}", file=sys.stderr, flush=True)


def _finish(command: str, cfg: RunConfig, payload, summary: dict, t0: float, line: str) -> int:
    paths = write_results(cfg.out, command, serialize_config(cfg), cfg.seed, payload, summary)
    _progress(f"{command}: wrote {len(paths)} files in {time.monotonic() - t0:.1f}s")
    print(f"{line} files={','.join(str(p) for p in paths)}")
    return 0


def _cmd_basis(cfg: RunConfig, t0: float) -> int:
    basis = enumerate_sector(cfg.L, 0)
    summary = {"L": basis.L, "dim": basis.dim, "n_up": basis.n_up}
    return _finish("basis", cfg, basis, summary, t0, f"basis: L={basis.L} dim={basis.dim}")


def _cmd_trajectory(command: str, cfg: RunConfig, t0: float) -> int:
    """``evolve`` takes the Hamiltonian and Floquet kinds, ``rqc`` circuits."""
    spec = _protocol_from(cfg)
    if (spec.kind == "rqc") != (command == "rqc"):
        raise ConfigError(
            f"{command} does not take protocol.kind = {spec.kind}; "
            "circuits use the rqc command, every other kind evolve"
        )
    _progress(f"{command}: kind={spec.kind} L={cfg.L} runs={cfg.runs}")
    traj = mean_trajectory(
        cfg.L,
        spec,
        runs=cfg.runs,
        master_seed=cfg.seed,
        schedule=_schedule_for(cfg, spec.kind),
        prep_T=cfg.prep_T,
        prep_W=cfg.prep_W,
        prep_jz=cfg.prep_jz,
        prep_local=cfg.prep_local,
        record_baee=cfg.record_baee,
        circuit_samples=cfg.circuit_samples,
        depth=cfg.depth,
    )
    summary = {**traj.meta, "final_hcee": float(traj.hcee[-1])}
    return _finish(
        command, cfg, traj, summary, t0,
        f"{command}: kind={spec.kind} L={cfg.L} runs={cfg.runs} final_hcee={traj.hcee[-1]:.6f}",
    )


def _cmd_sweep(cfg: RunConfig, t0: float) -> int:
    spec = _protocol_from(cfg)
    _progress(f"sweep: kind={spec.kind} L={cfg.L} runs={cfg.runs} T-points={len(cfg.T_list)}")
    table = delta_s_sweep(
        cfg.L,
        spec,
        T_list=cfg.T_list,
        runs=cfg.runs,
        master_seed=cfg.seed,
        circuit_samples=cfg.circuit_samples,
        depth=cfg.depth,
        prep_W=cfg.prep_W,
        prep_jz=cfg.prep_jz,
        prep_local=cfg.prep_local,
    )
    label = classify_dynamics(table)
    summary = {
        **table.meta,
        "classification": label.label,
        "diagnostics": label.diagnostics,
    }
    return _finish(
        "sweep", cfg, table, summary, t0,
        f"sweep: kind={spec.kind} L={cfg.L} runs={cfg.runs} class={label.label}",
    )


def _cmd_reservoir(cfg: RunConfig, t0: float) -> int:
    _progress(f"reservoir: L={cfg.L} runs={cfg.runs} T-points={len(cfg.T_list)}")
    curve = reservoir_curve(
        cfg.L,
        T_list=cfg.T_list,
        runs=cfg.runs,
        master_seed=cfg.seed,
        prep_W=cfg.prep_W,
        prep_jz=cfg.prep_jz,
    )
    peak = float(curve.excess.max())
    summary = {
        **curve.meta,
        "runs": curve.runs,
        "argmax_T": curve.argmax_T,
        "peak_excess": peak,
        "hcee_at_argmax": float(curve.hcee[int(curve.excess.argmax())]),
    }
    return _finish(
        "reservoir", cfg, curve, summary, t0,
        f"reservoir: L={cfg.L} runs={cfg.runs} argmax_T={curve.argmax_T:g} peak_excess={peak:.4f}",
    )


def _cmd_markov(cfg: RunConfig, t0: float) -> int:
    _progress(f"markov: L={cfg.L} steps={cfg.markov_steps} burn_in={cfg.markov_burn_in}")
    report = markov_report(
        cfg.L, cfg.markov_steps, cfg.markov_burn_in, derive_rng(cfg.seed, 0, "markov")
    )
    summary = {"steps": cfg.markov_steps, "burn_in": cfg.markov_burn_in, "L": cfg.L}
    return _finish(
        "markov", cfg, report, summary, t0,
        f"markov: L={cfg.L} N={report['N']} tv={report['tv_distance']:.5f}",
    )


def _cmd_levelstats(cfg: RunConfig, t0: float) -> int:
    spec = _protocol_from(cfg, default_kind="hamiltonian_mbl")
    W, jz = spec.W, spec.jz
    _progress(f"levelstats: L={cfg.L} W={W} jz={jz} realizations={cfg.runs}")
    sample = pooled_disorder_ratios(
        cfg.L, W, jz=jz, realizations=cfg.runs, master_seed=cfg.seed
    )
    hist = ratio_histogram(sample)
    refs = reference_curves()
    summary = {
        "L": cfg.L,
        "W": W,
        "jz": jz,
        "realizations": cfg.runs,
        "r_mean": sample.mean,
        "ratio_count": sample.count,
        "skipped_degenerate": sample.skipped,
        "middle_third": _MIDDLE_THIRD_NOTE,
        "poisson_mean": refs.poisson_mean,
        "goe_mean": refs.goe_mean,
    }
    return _finish(
        "levelstats", cfg, hist, summary, t0,
        f"levelstats: L={cfg.L} W={W:g} r_mean={sample.mean:.4f}",
    )


def _cmd_eigensweep(cfg: RunConfig, t0: float) -> int:
    spec = _protocol_from(cfg, default_kind="hamiltonian_mbl")
    _progress(f"eigensweep: kind={spec.kind} L={cfg.L} runs={cfg.runs}")
    table = eigenstate_sweep(
        cfg.L,
        spec,
        ranks=cfg.eigensweep_ranks,
        runs=cfg.runs,
        master_seed=cfg.seed,
        circuit_samples=cfg.circuit_samples,
        depth=cfg.depth,
        prep_W=cfg.prep_W,
        prep_jz=cfg.prep_jz,
    )
    summary = {**table.meta, "ranks": [int(r) for r in table.rank]}
    return _finish(
        "eigensweep", cfg, table, summary, t0,
        f"eigensweep: kind={spec.kind} L={cfg.L} runs={cfg.runs} ranks={table.rank.size}",
    )


_COMMANDS = {
    "basis": ("enumerate the half-filling sector and dump it as CSV", _cmd_basis),
    "evolve": (
        "run-averaged entropy trajectory of a Hamiltonian or Floquet protocol",
        partial(_cmd_trajectory, "evolve"),
    ),
    "rqc": (
        "run-averaged entropy trajectory of a random circuit",
        partial(_cmd_trajectory, "rqc"),
    ),
    "sweep": ("initial vs saturation entropy across preparation times, classified", _cmd_sweep),
    "reservoir": ("BAEE - HCEE excess curve along the preparation evolution", _cmd_reservoir),
    "markov": ("exact and Monte Carlo checks of the SWAP bipartition chain", _cmd_markov),
    "levelstats": ("disorder-pooled level-spacing ratio histogram", _cmd_levelstats),
    "eigensweep": (
        "initial vs saturation entropy for eigenstate initial conditions",
        _cmd_eigensweep,
    ),
}


def cli(argv=None) -> int:
    """Run one subcommand; returns an exit code instead of raising."""
    t0 = time.monotonic()
    try:
        args = _build_parser().parse_args(argv)
        cfg = _load_config(args)
        return _COMMANDS[args.command][1](cfg, t0)
    except (ConfigError, ParameterError, CapacityError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1


main = cli


if __name__ == "__main__":
    sys.exit(main())
