"""Command-line interface.

Subcommands
-----------
ho-figure1     oscillator study: work moments, excess fluctuations, the
               duration bound chain and the 1/tau fit
ising-figure2  critical sweep: excess trajectories and the finite-size
               scaling fit
ion-waveforms  export the Raman drive realizing a frequency ramp
verify         run every module's invariant suite

Outputs are CSV (with '#'-prefixed metadata lines) or JSON; identical
configurations produce byte-identical files.  Exit codes: 0 success,
1 numerical or physics failure, 2 configuration error.

One floating-point policy holds for every subcommand: a float overflow,
a division by zero or an invalid operation raises FloatingPointError
(exit 1, naming the event) instead of writing inf or nan into an
output.  Code that expects such a value (a Boltzmann weight past float
range, a division guarded by np.where) sets its own np.errstate.  Every
subcommand runs numpy's OpenBLAS on one thread, so its outputs are the
same bytes at any BLAS thread count.

Two subcommands fork a second lane of work (``lanes.run_lanes``) where
``os.fork`` exists and the process may run on two or more CPUs: verify,
always, and ho-figure1, for a grid of more than one kernel block
(``spectral.BLOCK_POINTS`` points).  Elsewhere they run serially.  The
child writes no file and no output, and either way the files, the
output and the exit code are those of a serial run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .errors import CdworkError, ConfigError, named
from .figures import ho_figure1_data, ising_figure2_data
from .oscillator import (VALIDITY_MIN, HOConfig, ion_waveforms,
                         one_blas_thread)
from .verify import run_verification

# each subcommand's configuration keys in flag order, with their
# defaults; a key's value type is its default's type, and a null
# default stands for the figure's own choice
_COMMANDS = {
    "ho-figure1": {"omega_i": 1.0, "omega_f": 3.0, "beta": 1.0, "tau": 0.8,
                   "tau_list": None, "fock_dim": 120, "grid": 401},
    "ising-figure2": {"tau_list": None, "grid": 401, "n_list": None,
                      "delta": 1.0, "trajectory_sites": 64},
    "ion-waveforms": {"omega_i": 1.0, "omega_f": 3.0, "tau": 0.8,
                      "grid": 401, "nu": 3.0},
    "verify": {"fock_dim": 120, "chain_samples": 12, "seed": 20260809},
}
# element type of the list keys, which hold a non-empty list
_LIST_ITEMS = {"tau_list": float, "n_list": int}


def _parse_list(kind):
    def parse(text):
        try:
            return [kind(x) for x in text.split(",") if x.strip()]
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"bad list {text!r}") from exc
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cdwork",
        description="Counterdiabatic-driving work statistics and "
                    "geometric speed limits (hbar = m = 1 units).")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, table in _COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", type=Path, default=None,
                       help="JSON file with configuration keys; explicit "
                            "flags override it")
        for key, default in table.items():
            parse = (_parse_list(_LIST_ITEMS[key]) if key in _LIST_ITEMS
                     else type(default))
            p.add_argument("--" + key.replace("_", "-"), dest=key, type=parse)
        p.add_argument("--out", type=Path)
        p.add_argument("--format", choices=("csv", "json"))
    return parser


def resolve_config(args: argparse.Namespace) -> dict:
    """Merge defaults, the optional config file and explicit flags.

    Unknown config-file keys are rejected by name.
    """
    resolved = {**_COMMANDS[args.command], "out": None, "format": "csv"}
    if args.config is not None:
        try:
            loaded = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError("config file must hold a JSON object")
        for key, value in loaded.items():
            norm = key.replace("-", "_")
            if norm not in resolved:
                raise ConfigError(f"unknown config key {key!r}")
            if norm == "beta" and isinstance(value, str):
                # JSON has no inf; the string goes through float as a flag does
                try:
                    value = float(value)
                except ValueError as exc:
                    raise ConfigError(f"beta: bad beta {value!r}") from exc
            resolved[norm] = value
    for key in resolved:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            resolved[key] = flag_value
    _validate_config(args.command, resolved)
    return resolved


def _validate_config(command: str, cfg: dict) -> None:
    """Reject, by key name, a value of the wrong type or range: numbers
    must be positive (a seed may be zero) and finite (beta may be inf),
    integers must be integers, null stands only for a null default, and
    ``out`` must be a path whose nearest existing part is a directory,
    so that a run never ends in failing to write its files."""
    table = _COMMANDS[command]
    for key in sorted(table):
        value = cfg[key]
        if value is None and table[key] is None:
            continue
        listed = key in _LIST_ITEMS
        kind = _LIST_ITEMS[key] if listed else type(table[key])
        items = value if listed else [value]
        if not (isinstance(items, list) and items and all(
                isinstance(x, int if kind is int else (int, float))
                and not isinstance(x, bool) and (key == "beta" or x < math.inf)
                and (x >= 0 if key == "seed" else x > 0) for x in items)):
            what = ("non-negative " if key == "seed" else "positive ") \
                + {int: "integer", float: "number" if key == "beta"
                   else "finite number"}[kind]
            what = f"a non-empty list of {what}s" if listed \
                else ("an " if what[0] in "aeiou" else "a ") + what
            raise ConfigError(f"{key} must be {what}, got {value!r}")
    out = cfg["out"]
    if out is not None and not isinstance(out, (str, os.PathLike)):
        raise ConfigError(f"out must be a directory path, got {out!r}")
    if out:
        path = Path(out).resolve()
        existing = next(p for p in (path, *path.parents) if p.exists())
        if not existing.is_dir():
            raise ConfigError(f"out {str(out)!r}: {str(existing)!r} exists "
                              f"and is not a directory")
    if cfg["format"] not in (None, "csv", "json"):
        raise ConfigError(f"unknown format {cfg['format']!r}")
    if command == "ho-figure1" and cfg["grid"] < 3:
        raise ConfigError(f"grid must be at least 3 for the Simpson time "
                          f"averages of ho-figure1, got {cfg['grid']}")


def _plain(cfg: dict) -> dict:
    # the configuration names the computation: where the files land is
    # not part of it (and would break byte-determinism)
    return {k: v for k, v in cfg.items() if k != "out"}


# CSV rows formatted and written at a time
CSV_BLOCK_ROWS = 1024


def write_csv(path: Path, columns: dict, metadata: dict) -> None:
    """The metadata as '#' lines, the column names and the rows, in
    blocks of CSV_BLOCK_ROWS rows: each block's cells are formatted a
    column at a time, so only one block's strings are held."""
    head = [f"# cdwork {__version__}"]
    head += [f"# {key}={metadata[key]}" for key in sorted(metadata)]
    head.append(",".join(columns))
    values = [np.asarray(column) for column in columns.values()]
    rows = min((len(column) for column in values), default=0)
    with path.open("w") as out:
        out.write("\n".join(head) + "\n")
        for start in range(0, rows, CSV_BLOCK_ROWS):
            # Python scalars: str of a float is its shortest round-trip repr
            cells = [map(str, column[start:start + CSV_BLOCK_ROWS].tolist())
                     for column in values]
            out.write("".join(",".join(row) + "\n" for row in zip(*cells)))


def write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True,
                               default=_json_default) + "\n")


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _write(cfg: dict, command: str, series: dict, summary_stem: str,
           summary: dict, **metadata) -> None:
    """Write each named column set as <stem>.csv or <stem>.json, tagged
    with the config hash, and the summary JSON with the configuration
    echoed, into the output directory (default ./results)."""
    outdir = Path(cfg["out"] or "results")
    outdir.mkdir(parents=True, exist_ok=True)
    canon = json.dumps(_plain(cfg), sort_keys=True)
    metadata.update({"config-hash": hashlib.sha256(canon.encode()).hexdigest(),
                     "command": command})
    for stem, columns in series.items():
        if (cfg["format"] or "csv") == "csv":
            write_csv(outdir / f"{stem}.csv", columns, metadata)
        else:
            write_json(outdir / f"{stem}.json", {
                "metadata": metadata,
                "columns": {k: np.asarray(v).tolist()
                            for k, v in columns.items()}})
    write_json(outdir / f"{summary_stem}.json",
               dict(summary, config=_plain(cfg)))


def _use_color() -> bool:
    return sys.stdout.isatty() and not os.environ.get("NO_COLOR")


def _status(passed: bool) -> str:
    word = "PASS" if passed else "FAIL"
    if _use_color():
        code = "32" if passed else "31"
        return f"\x1b[{code}m{word}\x1b[0m"
    return word


def cmd_ho_figure1(cfg: dict) -> int:
    data = ho_figure1_data(
        omega_i=cfg["omega_i"], omega_f=cfg["omega_f"], beta=cfg["beta"],
        tau=cfg["tau"], tau_list=cfg["tau_list"], dim=cfg["fock_dim"],
        grid_points=cfg["grid"])
    table = data.tau_table
    _write(cfg, "ho-figure1", {
        "ho_figure1_mean_work": data.mean_series,
        "ho_figure1_variance": data.variance_series,
        "ho_figure1_excess": data.excess_series,
        "ho_figure1_fluctuation_average": {
            "tau": np.array([r.tau for r in table]),
            "avg_excess_dev": np.array([r.avg_excess_dev for r in table]),
            "avg_energy_dev": np.array([r.avg_energy_dev for r in table])},
    }, "ho_figure1_summary", data.summary())
    print(f"{_status(data.passed)} ho-figure1: ell={data.ell:.6f} "
          f"bures={data.bures_len:.6f} "
          + (f"fit coefficient={data.fit.coefficient:.4f}"
             if data.fit else "fit skipped") + _failed_flags(table))
    return 0 if data.passed else 1


def _failed_flags(table) -> str:
    """'; <flag> failed at tau=<durations> (worst <value>)' per failed
    flag of the bound-chain rows: the largest violation of bures <= eta
    <= ell or of tau >= bures/<dDW> >= bures/<dE_cd>, or the residual."""
    out = ""
    for flag, value in (
            ("chain_ok", lambda r: max(r.bures_len - r.eta_len,
                                       r.eta_len - r.ell)),
            ("ordering_ok", lambda r: max(
                r.bound_from_excess - r.tau,
                r.bound_from_energy - r.bound_from_excess)),
            ("equality_ok", lambda r: r.equality_residual)):
        bad = [row for row in table if not getattr(row, flag)]
        if bad:
            out += (f"; {flag} failed at tau="
                    + ",".join(f"{row.tau:g}" for row in bad)
                    + f" (worst {max(map(value, bad)):.3g})")
    return out


def cmd_ising_figure2(cfg: dict) -> int:
    data = ising_figure2_data(
        n_list=cfg["n_list"], delta=cfg["delta"], tau_list=cfg["tau_list"],
        grid_points=cfg["grid"], trajectory_sites=cfg["trajectory_sites"])
    series = {"ising_figure2_trajectories": data.trajectories}
    scaling = data.scaling
    if scaling is not None:
        series["ising_figure2_scaling"] = {"n": scaling.n_values,
                                           "cost_integral": scaling.integrals}
        note = (f"alpha={scaling.alpha:.4f}, fit residual "
                f"{scaling.residual_rms:.3g} (gate {scaling.MAX_RESIDUAL})")
    else:
        note = "single size: trajectory only, no fit"
    _write(cfg, "ising-figure2", series, "ising_figure2_summary",
           data.summary())
    passed = scaling is None or scaling.passed
    print(f"{_status(passed)} ising-figure2: {note}")
    return 0 if passed else 1


def cmd_ion_waveforms(cfg: dict) -> int:
    config = HOConfig(cfg["omega_i"], cfg["omega_f"], cfg["tau"])
    table = named("omega_i, omega_f, tau, nu", ion_waveforms, config,
                  cfg["nu"], cfg["grid"])
    worst = table.min_validity()
    # the trap runs at the sideband detuning nu: the effective mass is 1
    _write(cfg, "ion-waveforms", {"ion_waveforms": table.columns()},
           "ion_waveforms_validity", {
               "nu": cfg["nu"],
               "effective_mass": 1.0,
               "min_validity_ratio": worst,
               "validity_min_required": VALIDITY_MIN,
               "within_validity": bool(worst >= VALIDITY_MIN)},
           nu=cfg["nu"], m_eff=1.0)
    print(f"{_status(True)} ion-waveforms: min validity ratio {worst:.3g}")
    return 0


def cmd_verify(cfg: dict) -> int:
    results = run_verification(seed=cfg["seed"], fock_dim=cfg["fock_dim"],
                               chain_samples=cfg["chain_samples"])
    for res in results:
        print(f"{_status(res.passed)} {res.name}: {res.detail}")
    if cfg["out"] is not None:
        _write(cfg, "verify", {}, "verify_report", {
            "checks": [{"name": r.name, "passed": r.passed,
                        "detail": r.detail} for r in results],
            "passed": all(r.passed for r in results)})
    failed = [r for r in results if not r.passed]
    if failed:
        print(f"{len(failed)} of {len(results)} checks failed",
              file=sys.stderr)
        return 1
    print(f"all {len(results)} checks passed")
    return 0


_HANDLERS = {
    "ho-figure1": cmd_ho_figure1,
    "ising-figure2": cmd_ising_figure2,
    "ion-waveforms": cmd_ion_waveforms,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args)
        with one_blas_thread(), np.errstate(over="raise", divide="raise",
                                            invalid="raise"):
            return _HANDLERS[args.command](cfg)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (CdworkError, FloatingPointError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
