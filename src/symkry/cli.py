"""Command-line front end.

Subcommands:
  run            execute one run (or every section of a --config file)
  preset NAME    execute a packaged preset file, one CSV per section
  list-problems  registered benchmark systems and their defaults
  list-presets   packaged preset names

Exit codes: 0 success, 2 ConfigError, 3 numerical failure; any other error is a bug.
"""

import argparse
import os
import sys
from importlib.resources import files
from pathlib import Path

from ._version import __version__
from .errors import ConfigError, IntegrationAborted, ReferenceFailureError, StepFailureError
from .harness import CONFIG_KEYS, config_from_mapping, parse_config_text, run_sections
from .problems import list_problems


def _presets_root():
    return files("symkry") / "presets"


def available_presets():
    return sorted(p.name[:-len(".conf")] for p in _presets_root().iterdir()
                  if p.name.endswith(".conf"))


def load_preset(name):
    path = _presets_root() / f"{name}.conf"
    if not path.is_file():
        raise ConfigError(f"unknown preset {name!r}; available: {available_presets()}")
    return parse_config_text(path.read_text(encoding="ascii"))


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="symkry",
        description="Krylov exponential integrators for Hamiltonian systems")
    parser.add_argument("--version", action="version", version=f"symkry {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute one experiment run")
    run_p.add_argument("--config", help="key = value config file (sections = runs)")
    for key, (cast, text) in CONFIG_KEYS.items():
        run_p.add_argument("--" + key.replace("_", "-"), type=cast, help=text)
    run_p.add_argument("--param", action="append", default=[], metavar="NAME=VALUE",
                       help="problem parameter override (repeatable)")

    preset_p = sub.add_parser("preset", help="run a packaged preset")
    preset_p.add_argument("name", help="preset name (see list-presets)")
    preset_p.add_argument("--output-dir", default=".", help="directory for the CSVs")

    sub.add_parser("list-problems", help="list benchmark systems")
    sub.add_parser("list-presets", help="list packaged presets")
    return parser


def _flag_overrides(args):
    overrides = {key: value for key in CONFIG_KEYS
                 if (value := getattr(args, key, None)) is not None}
    for item in args.param:
        if "=" not in item:
            raise ConfigError(f"--param expects NAME=VALUE, got {item!r}")
        name, value = item.split("=", 1)
        overrides[f"problem.{name.strip()}"] = value.strip()
    return overrides


def _run_checked(sections):
    """Run the configs of the (name, mapping) sections (``run_sections``),
    all checked before the first runs; two sections that would write the
    same CSV are a ConfigError."""
    configs = [config_from_mapping(mapping) for _, mapping in sections]
    writers = {}
    for (name, _), config in zip(sections, configs):
        path = config.output and os.path.realpath(config.output)
        if path in writers:
            raise ConfigError(f"sections {writers[path]!r} and {name!r} both write {path!r}")
        if path:
            writers[path] = name
    for _ in run_sections(configs):
        pass


def _cmd_run(args):
    overrides = _flag_overrides(args)
    sections = [("run", {})]
    if args.config:
        try:
            sections = parse_config_text(Path(args.config).read_text(encoding="ascii"))
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file {args.config!r}: {exc}") from exc
    _run_checked([(s, {**m, **overrides}) for s, m in sections])
    return 0


def _cmd_preset(args):
    sections = load_preset(args.name)
    out_dir = Path(args.output_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {args.output_dir!r}: {exc}") from exc
    _run_checked([(s, {"output": str(out_dir / f"{args.name}-{s}.csv"), **m})
                  for s, m in sections])
    return 0


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "preset":
            return _cmd_preset(args)
        if args.command == "list-problems":
            for name, defaults in list_problems().items():
                pretty = " ".join(f"{k}={v}" for k, v in defaults.items())
                print(f"{name}: {pretty}")
            return 0
        if args.command == "list-presets":
            for name in available_presets():
                print(name)
            return 0
    except ConfigError as exc:
        print(f"symkry: configuration error: {exc}", file=sys.stderr)
        return 2
    except (IntegrationAborted, ReferenceFailureError, StepFailureError) as exc:
        print(f"symkry: numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
