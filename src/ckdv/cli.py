"""Command-line front end.

Each subcommand runs one experiment kind from a JSON config, prints its
summary and one line per check, and exits 0 on pass, 1 on an experiment
failure or error, 2 on a usage or configuration problem.  The kind's
`harness.KINDS` record names the subcommand; the subcommand takes `--seed`
when the kind reads a seed, and needs `--config` when it has a work estimate.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import MISSING
from pathlib import Path

import numpy as np

from .diagnostics import COLUMNS, record_for
from .harness import (
    KINDS,
    ConfigError,
    _finite,
    _optional,
    _parse,
    _read_json,
    _text,
    build_system,
    config_from_dict,
    run,
)
from .io import read_snapshot, write_csv

_DIAGNOSE = {
    "system": (build_system, MISSING),
    "snapshot": (_text, MISSING),
    "s": (_finite, 1.0),
    "output_dir": (_optional(_text), None),
}


def _u64(text: str) -> int:
    v = int(text)
    if not (0 <= v < 2**64):
        raise argparse.ArgumentTypeError("seed must fit in an unsigned 64-bit integer")
    return v


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ckdv",
        description="Spectral simulation and estimate verification for coupled third-order wave systems.",
    )
    sub = parser.add_subparsers(dest="cmd")
    for kind, k in KINDS.items():
        p = sub.add_parser(k.command, help=f"run a '{kind}' experiment")
        p.add_argument("--config", help="JSON experiment configuration")
        p.add_argument("--out", help="output directory (overrides the config)")
        if "seed" in k.top:
            p.add_argument("--seed", type=_u64, help="RNG seed (overrides the config)")
        p.add_argument("--quiet", action="store_true", help="suppress the summary printout")
        p.set_defaults(kind=kind)
    p = sub.add_parser("diagnose", help="conserved functionals of one stored snapshot")
    p.add_argument("--config", required=True, help="JSON with 'system' and 'snapshot' keys")
    p.add_argument("--out", help="output directory (overrides the config)")
    p.add_argument("--quiet", action="store_true")
    return parser


def _emit(msg: str, quiet: bool) -> None:
    if not quiet:
        print(msg)


def _cmd_experiment(args, kind: str) -> int:
    # a kind without dynamics runs with built-in defaults when --config is omitted
    if args.config is None and KINDS[kind].work is not None:
        raise ConfigError(f"subcommand for kind '{kind}' requires --config")
    d = {"kind": kind} if args.config is None else _read_json(args.config)
    seed = getattr(args, "seed", None)  # only a kind that takes a seed has --seed
    if seed is not None and isinstance(d, dict):
        d = dict(d, seed=seed)
    cfg = config_from_dict(d)
    if cfg.kind != kind:
        raise ConfigError(f"config kind '{cfg.kind}' does not match subcommand kind '{kind}'")
    manifest = run(cfg, out_dir=args.out)
    out = Path(args.out if args.out is not None else (cfg.output_dir or "."))
    _emit(f"status: {manifest.status}", args.quiet)
    if manifest.error:
        _emit(f"error: {manifest.error}", args.quiet)
    for key, val in manifest.summary.items():
        _emit(f"{key}: {val}", args.quiet)
    for c in manifest.checks:
        verdict = "ok" if c["passed"] else "FAILED"
        _emit(f"check {c['name']}: {c['value']} {c['relation']} {c['bound']} {verdict}", args.quiet)
    _emit(f"manifest: {out / 'manifest.json'}", args.quiet)
    return 0 if manifest.status == "pass" else 1


def _cmd_diagnose(args) -> int:
    d = _parse(_read_json(args.config), _DIAGNOSE, "diagnose config")
    try:
        state = read_snapshot(d["snapshot"])
    except (OSError, ValueError) as e:
        raise ConfigError(f"cannot load snapshot: {e}") from None
    row = record_for(state, d["system"], d["s"])
    out = Path(args.out if args.out is not None else (d["output_dir"] or "."))
    out.mkdir(parents=True, exist_ok=True)
    write_csv([row], COLUMNS, out / "diagnostics.csv")
    if not args.quiet:
        print(",".join(COLUMNS))
        print(",".join("%.17g" % v for v in row))
    # an infinite functional marks the row invalid
    return 1 if np.isinf(row).any() else 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 2
    if args.cmd is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        if args.cmd == "diagnose":
            return _cmd_diagnose(args)
        return _cmd_experiment(args, args.kind)
    except ConfigError as e:
        print(f"ckdv: {e}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())
