"""Command-line front end.

Each subcommand runs one experiment kind from a JSON config through
`harness.run`, prints its status, summary and one line per check, and
exits 0 on pass, 1 on an experiment failure or error, 2 on a usage or
configuration problem.  The kind's `harness.KINDS` record names the
subcommand; the subcommand takes `--seed` when the kind reads a seed, and
needs `--config` when the kind steps a system.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .harness import KINDS, ConfigError, _read_json, config_from_dict, run


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
            p.add_argument("--seed", type=int, help="RNG seed (overrides the config)")
        p.add_argument("--quiet", action="store_true", help="suppress the summary printout")
        p.set_defaults(kind=kind)
    return parser


def _cmd_experiment(args, kind: str) -> int:
    # a kind without dynamics runs with built-in defaults when --config is omitted
    if args.config is None and "stepper" in KINDS[kind].top:
        raise ConfigError(f"subcommand for kind '{kind}' requires --config")
    d = {"kind": kind} if args.config is None else _read_json(args.config)
    seed = getattr(args, "seed", None)  # only a kind that takes a seed has --seed
    if seed is not None and isinstance(d, dict):
        d = dict(d, seed=seed)
    cfg = config_from_dict(d)
    if cfg.kind != kind:
        raise ConfigError(f"config kind '{cfg.kind}' does not match subcommand kind '{kind}'")
    manifest = run(cfg, out_dir=args.out)
    if not args.quiet:
        out = Path(args.out if args.out is not None else (cfg.output_dir or "."))
        print(f"status: {manifest.status}")
        if manifest.error:
            print(f"error: {manifest.error}")
        for key, val in manifest.summary.items():
            print(f"{key}: {val}")
        for c in manifest.checks:
            verdict = "ok" if c["passed"] else "FAILED"
            print(f"check {c['name']}: {c['value']} {c['relation']} {c['bound']} {verdict}")
        print(f"manifest: {out / 'manifest.json'}")
    return 0 if manifest.status == "pass" else 1


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
        return _cmd_experiment(args, args.kind)
    except ConfigError as e:
        print(f"ckdv: {e}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())
