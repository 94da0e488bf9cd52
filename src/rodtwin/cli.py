"""Command-line entry points.

Exit codes: 0 success, 2 usage, 3 bad configuration, 4 missing file,
5 solver/training failure. Failures emit a machine-readable JSON object on
stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

from . import io as rio
from .config import TwinConfig, load_config
from .errors import (ConfigurationError, DomainError, RodtwinError,
                     SolverError, TrainingError)
from .khnet import reconstruct_field, train
from .metrics import compute_metrics
from .pipeline import (CaseSpec, burnup_sweep, generate_dataset, roster_specs,
                       run_case)
from .thermomech import hoop_strain_summary, stress_field

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CONFIG = 3
EXIT_MISSING = 4
EXIT_RUNTIME = 5


def _load_cfg(args) -> TwinConfig:
    if args.config is None:
        return TwinConfig()
    return load_config(args.config)


def _out_dir(args) -> Path:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_simulate(args) -> int:
    cfg = _load_cfg(args)
    out = _out_dir(args)
    spec = CaseSpec(case_id="case", q0=cfg.q0, burnup=cfg.burnup, split="test")
    case = run_case(spec, cfg)
    rio.field_to_csv(case.solution.field, out / "field.csv")
    rio.channel_to_csv(case.solution.channel, out / "channel.csv")
    rio.sensors_to_csv(case.sensors, out / "sensors.csv")
    print(f"simulated q0={cfg.q0} W/m, burnup={cfg.burnup} MWd/kgU -> {out}")
    return EXIT_OK


def cmd_generate(args) -> int:
    cfg = _load_cfg(args)
    out = _out_dir(args)
    ds = generate_dataset(roster_specs(cfg, burnup=cfg.burnup), cfg,
                          seed=args.seed)
    rio.save_dataset(ds, out)
    print(f"generated {len(ds.cases)} cases -> {out}")
    return EXIT_OK


def cmd_train(args) -> int:
    ds = rio.load_dataset(args.dataset)
    settings = ds.config.training
    if args.seed is not None:
        settings = dataclasses.replace(settings, seed=args.seed)
    if args.epochs is not None:
        settings = dataclasses.replace(settings, epochs=args.epochs)
    out = _out_dir(args)
    model, history = train(ds, settings)
    rio.save_checkpoint(model, out / "checkpoint.json")
    rio.history_to_csv(history, out / "history.csv")
    print(f"trained {settings.epochs} epochs; best epoch {history.best_epoch}, "
          f"final val MSE {history.val_mse[-1]:.3e} -> {out}")
    return EXIT_OK


def cmd_reconstruct(args) -> int:
    cfg = _load_cfg(args)
    out = _out_dir(args)
    model = rio.load_checkpoint(args.checkpoint)
    sensors = rio.sensors_from_csv(args.sensors)
    mesh = rio.mesh_from_config(cfg)
    truth = None if args.truth is None else rio.field_from_csv(args.truth, mesh)
    field = reconstruct_field(model, sensors, mesh)
    rio.field_to_csv(field, out / "reconstructed.csv")
    if truth is not None:
        _, _, region = mesh.node_table()
        report = compute_metrics(field.flatten(), truth.flatten(), region)
        rio.metrics_to_json(report, out / "metrics.json")
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(f"reconstructed field -> {out / 'reconstructed.csv'}")
    return EXIT_OK


def cmd_strain(args) -> int:
    cfg = _load_cfg(args)
    out = _out_dir(args)
    mesh = rio.mesh_from_config(cfg)
    field = rio.field_from_csv(args.field, mesh)
    report = hoop_strain_summary(field, cfg.materials,
                                 cfg.thermomech.creep_duration)
    sf = stress_field(field, cfg.thermomech.P_gap, cfg.thermomech.P_cool,
                      cfg.materials)
    rio.strain_report_to_json(report, out / "strain.json")
    rio.stress_field_to_csv(sf, out / "stress.csv")
    print(f"total hoop strain {report.total:.6e} at (r, z) = {report.location}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    ra, za, _, Ta = rio.field_arrays_from_csv(args.predicted)
    rb, zb, regb, Tb = rio.field_arrays_from_csv(args.truth)
    rio.require_same_nodes(args.predicted, ra, za, rb, zb, args.truth)
    report = compute_metrics(Ta, Tb, regb)
    if args.out_dir is not None:
        out = _out_dir(args)
        rio.metrics_to_json(report, out / "metrics.json")
    print(json.dumps(report.to_dict(), indent=2))
    return EXIT_OK


def cmd_sweep_burnup(args) -> int:
    cfg = _load_cfg(args)
    seed = args.seed if args.seed is not None else 0
    settings = dataclasses.replace(
        cfg.training, epochs=args.epochs, fixed_lr=args.lr, seed=seed)
    out = _out_dir(args)
    ds = burnup_sweep(args.n_cases, (args.burnup_min, args.burnup_max), seed, cfg)
    rio.save_dataset(ds, out / "dataset")
    model, history = train(ds, settings)
    rio.save_checkpoint(model, out / "checkpoint.json")
    rio.history_to_csv(history, out / "history.csv")

    mesh = rio.mesh_from_config(ds.config)
    summary = {}
    for case in ds.split("test"):
        rec = reconstruct_field(model, case.sensors, mesh)
        rep = compute_metrics(rec.flatten(), case.T, case.region)
        summary[case.spec.case_id] = {"burnup": case.spec.burnup,
                                      "q0": case.spec.q0,
                                      "r_squared": rep.r_squared,
                                      "nl2": rep.nl2}
    with open(out / "sweep_metrics.json", "w") as f:
        json.dump(summary, f, indent=2)
    print(json.dumps(summary, indent=2))
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Raises where argparse would print usage and exit, so main() reports
    a usage error as one JSON error object like any other failure."""

    def error(self, message):
        raise argparse.ArgumentError(None, f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="rodtwin", description="PWR fuel rod digital twin toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, config=True, seed=False, out_required=True):
        if config:
            sp.add_argument("--config", help="JSON case file (defaults when omitted)")
        if seed:
            sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--out-dir", default=None if not out_required else ".",
                        help="output directory")

    sp = sub.add_parser("simulate", help="solve one coupled case")
    common(sp)
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("generate", help="generate the roster dataset")
    common(sp, seed=True)
    sp.set_defaults(func=cmd_generate)

    sp = sub.add_parser("train", help="train the reconstruction network")
    common(sp, config=False, seed=True)
    sp.add_argument("--dataset", required=True, help="dataset directory")
    sp.add_argument("--epochs", type=int, default=None)
    sp.set_defaults(func=cmd_train)

    sp = sub.add_parser("reconstruct", help="reconstruct a field from sensors")
    common(sp)
    sp.add_argument("--checkpoint", required=True)
    sp.add_argument("--sensors", required=True, help="sensors.csv path")
    sp.add_argument("--truth", default=None, help="ground-truth field.csv")
    sp.set_defaults(func=cmd_reconstruct)

    sp = sub.add_parser("strain", help="strain/stress from a field CSV")
    common(sp)
    sp.add_argument("--field", required=True, help="field.csv path")
    sp.set_defaults(func=cmd_strain)

    sp = sub.add_parser("evaluate", help="compare two field CSVs")
    common(sp, config=False, out_required=False)
    sp.add_argument("predicted")
    sp.add_argument("truth")
    sp.set_defaults(func=cmd_evaluate)

    sp = sub.add_parser("sweep-burnup", help="burnup sweep: dataset + training + metrics")
    common(sp, seed=True)
    sp.add_argument("--n-cases", type=int, default=30)
    sp.add_argument("--burnup-min", type=float, default=2.4)
    sp.add_argument("--burnup-max", type=float, default=59.7)
    sp.add_argument("--epochs", type=int, default=300)
    sp.add_argument("--lr", type=float, default=1e-3)
    sp.set_defaults(func=cmd_sweep_burnup)
    return p


def _emit_error(kind: str, exc: Exception) -> None:
    print(json.dumps({"error": kind, "type": type(exc).__name__,
                      "message": str(exc)}), file=sys.stderr)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # stdout's reader left (`| head -1`) after the outputs were written;
        # devnull keeps the interpreter's last flush from raising again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except argparse.ArgumentError as e:
        _emit_error("usage", e)
        return EXIT_USAGE
    except FileNotFoundError as e:
        _emit_error("missing-file", e)
        return EXIT_MISSING
    except (ConfigurationError, DomainError) as e:
        _emit_error("config", e)
        return EXIT_CONFIG
    except (SolverError, TrainingError) as e:
        _emit_error("runtime", e)
        return EXIT_RUNTIME
    except RodtwinError as e:  # pragma: no cover - catch-all for package errors
        _emit_error("runtime", e)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
