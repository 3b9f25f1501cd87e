"""Command-line harness.

Subcommands: ``run`` (JSON config), ``preset`` (published parameter
sets), ``sweep-paulis``, ``sweep-gamma``, ``plot``.  Relative output
paths resolve under ``$OQITE_OUTDIR`` (default: current directory).
Exit codes: 0 success, 2 configuration or output problem, 3 numerical
failure.  The output path is checked before any simulation runs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .errors import ConfigError, DegenerateTraceError, StepSizeError
from .experiments import (
    TFIM_BASIS_SEED,
    TFIM_SWEEP_SEEDS,
    ExperimentConfig,
    preset,
    run_experiment,
    sweep_gamma,
    sweep_paulis,
    write_rows_csv,
)
from .svgplot import render
from .trajectory import read_csv

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _outdir() -> Path:
    return Path(os.environ.get("OQITE_OUTDIR", "."))


def _resolve_out(name: str) -> Path:
    path = Path(name)
    if not path.is_absolute():
        path = _outdir() / path
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _list_of(kind):
    """argparse type for a comma-separated list; a bad item or none exits 2."""

    def parse(text: str) -> list:
        items = [kind(tok) for tok in text.split(",") if tok.strip()]
        if not items:
            raise ValueError("empty list")
        return items

    parse.__name__ = f"comma-separated {kind.__name__}"
    return parse


def _write_trajectory(traj, out: Path, plot: bool) -> None:
    traj.write_csv(str(out))
    print(f"wrote {out}")
    if plot:
        svg = out.with_suffix(".svg")
        svg.write_text(render(traj, title=traj.algorithm), encoding="utf-8")
        print(f"wrote {svg}")


def _cmd_run(args) -> int:
    try:
        raw = json.loads(Path(args.config).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    cfg = ExperimentConfig.from_dict(raw)
    out = _resolve_out(cfg.output or f"run_{cfg.algorithm}.csv")
    _write_trajectory(run_experiment(cfg), out, args.plot)
    return EXIT_OK


def _cmd_preset(args) -> int:
    cfg = preset(
        args.name,
        algorithm=args.algo,
        tau=args.tau,
        n_steps=args.steps,
        shots=args.shots,
        seeds=args.seeds or (0,),
        basis_seed=args.basis_seed,
        basis_count=args.basis_count,
    )
    out = _resolve_out(args.out or f"{args.name}_{args.algo}.csv")
    _write_trajectory(run_experiment(cfg), out, args.plot)
    return EXIT_OK


def _cmd_sweep_paulis(args) -> int:
    out = _resolve_out(args.out)
    rows, meta = sweep_paulis(
        counts=args.counts, seeds=args.seeds, tau=args.tau, n_steps=args.steps
    )
    write_rows_csv(rows, meta, str(out))
    print(f"wrote {out}")
    return EXIT_OK


def _cmd_sweep_gamma(args) -> int:
    out = _resolve_out(args.out)
    rows, meta = sweep_gamma(
        gammas=args.gammas,
        tau=args.tau,
        n_steps=args.steps,
        basis_seed=args.basis_seed,
        basis_count=args.basis_count,
    )
    write_rows_csv(rows, meta, str(out))
    print(f"wrote {out}")
    return EXIT_OK


def _cmd_plot(args) -> int:
    try:
        traj = read_csv(args.csv)
    except (OSError, ValueError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    out = _resolve_out(args.out or str(Path(args.csv).with_suffix(".svg").name))
    out.write_text(render(traj, title=traj.algorithm), encoding="utf-8")
    print(f"wrote {out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oqite", description="open-system trajectory drivers and sweeps"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a JSON experiment config")
    p_run.add_argument("config")
    p_run.add_argument("--plot", action="store_true", help="also emit an SVG")
    p_run.set_defaults(fn=_cmd_run)

    p_pre = sub.add_parser("preset", help="run a published parameter set")
    p_pre.add_argument("name", choices=["tls", "tfim"])
    p_pre.add_argument("--algo", default="algo1",
                       choices=["oracle", "algo1", "algo2"])
    p_pre.add_argument("--tau", type=float, default=0.05)
    p_pre.add_argument("--steps", type=int, default=None)
    p_pre.add_argument("--shots", type=int, default=0)
    p_pre.add_argument("--seeds", type=_list_of(int), default="0",
                       help="comma-separated")
    p_pre.add_argument("--basis-seed", type=int, default=TFIM_BASIS_SEED)
    p_pre.add_argument("--basis-count", type=int, default=16)
    p_pre.add_argument("--out", default=None)
    p_pre.add_argument("--plot", action="store_true")
    p_pre.set_defaults(fn=_cmd_preset)

    p_sp = sub.add_parser("sweep-paulis", help="random basis size scan")
    p_sp.add_argument("--counts", type=_list_of(int), default="16,24,32,48")
    p_sp.add_argument("--seeds", type=_list_of(int),
                      default=",".join(map(str, TFIM_SWEEP_SEEDS)))
    p_sp.add_argument("--tau", type=float, default=0.05)
    p_sp.add_argument("--steps", type=int, default=200)
    p_sp.add_argument("--out", default="sweep_paulis.csv")
    p_sp.set_defaults(fn=_cmd_sweep_paulis)

    p_sg = sub.add_parser("sweep-gamma", help="dissipation rate scan")
    p_sg.add_argument("--gammas", type=_list_of(float),
                      default="0,0.25,0.5,0.75,1.0")
    p_sg.add_argument("--tau", type=float, default=0.02)
    p_sg.add_argument("--steps", type=int, default=250)
    p_sg.add_argument("--basis-seed", type=int, default=TFIM_BASIS_SEED)
    p_sg.add_argument("--basis-count", type=int, default=16)
    p_sg.add_argument("--out", default="sweep_gamma.csv")
    p_sg.set_defaults(fn=_cmd_sweep_gamma)

    p_plot = sub.add_parser("plot", help="render a trajectory CSV as SVG")
    p_plot.add_argument("csv")
    p_plot.add_argument("--out", default=None)
    p_plot.set_defaults(fn=_cmd_plot)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (StepSizeError, DegenerateTraceError) as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as e:
        print(f"output error: {e}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main(argv=sys.argv[1:]))
