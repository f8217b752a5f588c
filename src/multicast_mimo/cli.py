"""Command-line entry point: ``simulate <scenario> [options]``."""

import argparse
import sys
from pathlib import Path

from .config import ConfigError, NetworkConfig, apply_overrides, parse_config
from .scenarios import SCENARIOS, run_scenario


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simulate",
        description="Run a multicell massive-MIMO multicast scenario preset "
        "and write its result curves as CSV files.",
    )
    parser.add_argument(
        "scenario",
        choices=sorted(SCENARIOS),
        help="named scenario preset",
    )
    parser.add_argument(
        "--config",
        metavar="FILE",
        help="key-value configuration file (defaults apply for missing keys)",
    )
    parser.add_argument(
        "--set",
        dest="overrides",
        metavar="KEY=VALUE",
        action="append",
        default=[],
        help="override a single config key (repeatable; wins over --config)",
    )
    parser.add_argument("--out", metavar="DIR", help="output directory override")
    return parser


def _resolve_config(args) -> NetworkConfig:
    config = NetworkConfig()
    if args.config:
        config = parse_config(Path(args.config).read_text(encoding="utf-8"))
    pairs = {}
    for item in args.overrides:
        if "=" not in item:
            raise ConfigError(item, "expected KEY=VALUE")
        key, _, value = item.partition("=")
        pairs[key.strip()] = value.strip()
    if pairs:
        config = apply_overrides(config, pairs)
    return config


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _resolve_config(args)
        paths = run_scenario(args.scenario, config, out_dir=args.out)
    except (ConfigError, ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1
    for path in paths:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
