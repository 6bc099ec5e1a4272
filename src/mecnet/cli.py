"""Command-line entry point.

Subcommands: generate, ingest, run, verify, report.  Exit codes: 0 ok,
1 usage error, 2 verification failure, 3 I/O error.  The default output
directory comes from MECNET_OUT when set.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from .experiments import (
    ExperimentConfig,
    PipelineMismatch,
    generate_instances,
    render_figures,
    run_experiment,
    write_reports,
)
from .openflights import build_real_instance, parse_openflights
from .qnet import instance_to_text
from .verify import ALL_SUITES

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2
EXIT_IO = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"error: {message}\n")


def _resolve_out(flag_value, config_value: str = "out") -> str:
    """Precedence: --out flag, then MECNET_OUT, then the config value; an
    empty --out or MECNET_OUT is refused by name."""
    if flag_value == "":
        raise ValueError("--out is empty; name a directory or leave the flag out")
    if flag_value:
        return flag_value
    if os.environ.get("MECNET_OUT") == "":
        raise ValueError("MECNET_OUT is set but empty; name a directory or unset it")
    return os.environ.get("MECNET_OUT", config_value)


def build_parser() -> _Parser:
    p = _Parser(prog="mecnet", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write synthetic instance files")
    g.add_argument("--config", help="experiment config (JSON)")
    g.add_argument("--out", default=None, help="output directory")
    g.add_argument("--seed", type=int, default=None)
    g.add_argument("--nodes", type=int, default=None)
    g.add_argument("--reps", type=int, default=None)
    g.set_defaults(handler=cmd_generate)

    i = sub.add_parser("ingest", help="build an instance from OpenFlights data")
    i.add_argument("--airports", required=True)
    i.add_argument("--routes", required=True)
    i.add_argument("--countries", nargs="+", default=None)
    i.add_argument("--sample", type=int, default=None, help="edge subsample size")
    i.add_argument("--seed", type=int, default=None, help="subsample seed (default 0)")
    i.add_argument("--out", default=None)
    i.set_defaults(handler=cmd_ingest)

    r = sub.add_parser("run", help="run the experiment pipeline")
    r.add_argument("--config", help="experiment config (JSON)")
    r.add_argument("--out", default=None)
    r.add_argument("--jobs", type=int, default=None)
    r.add_argument("--reps", type=int, default=None)
    r.add_argument("--seed", type=int, default=None)
    r.set_defaults(handler=cmd_run)

    v = sub.add_parser("verify", help="run the oracle suites")
    v.add_argument("--suite", choices=sorted(ALL_SUITES), default=None)
    v.set_defaults(handler=cmd_verify)

    rep = sub.add_parser("report", help="re-render SVG figures from CSV tables")
    rep.add_argument("--out", default=None, help="directory holding the CSV tables")
    rep.set_defaults(handler=cmd_report)
    return p


def _load_config(args, **overrides) -> ExperimentConfig:
    """The ``--config`` file (or the defaults), read once, with each flag
    that was given overriding its field and the output directory resolved."""
    cfg = ExperimentConfig.from_json(args.config) if args.config else ExperimentConfig()
    given = {key: val for key, val in overrides.items() if val is not None}
    return dataclasses.replace(cfg, output_dir=_resolve_out(args.out, cfg.output_dir), **given)


def cmd_generate(args) -> int:
    cfg = _load_config(args, seed=args.seed, nodes=args.nodes, repetitions=args.reps)
    out = os.path.join(cfg.output_dir, "instances")
    paths = generate_instances(cfg, out)
    print(f"wrote {len(paths)} instance files to {out}")
    return EXIT_OK


def cmd_ingest(args) -> int:
    if args.sample is None and args.seed is not None:
        raise ValueError("--seed only seeds the --sample subsample; give --sample too")
    out_dir = _resolve_out(args.out)
    parsed = parse_openflights(args.airports, args.routes)
    countries = set(args.countries) if args.countries else None
    sub = (args.sample, args.seed or 0) if args.sample is not None else None
    iq, meta = build_real_instance(parsed, countries, sub)
    os.makedirs(out_dir, exist_ok=True)
    inst = os.path.join(out_dir, "real_instance.txt")
    with open(inst, "w", encoding="utf-8") as fh:
        fh.write(instance_to_text(iq))
    with open(os.path.join(out_dir, "real_instance.meta.jsonl"), "w", encoding="utf-8") as fh:
        fh.write(json.dumps(meta, sort_keys=True) + "\n")
    print(
        f"ingested {meta['cities']} cities / {meta['countries']} countries / "
        f"{meta['edges']} inter-links -> {inst}"
    )
    return EXIT_OK


def cmd_run(args) -> int:
    cfg = _load_config(args, jobs=args.jobs, repetitions=args.reps, seed=args.seed)
    try:
        results = run_experiment(cfg)
    except PipelineMismatch as exc:
        os.makedirs(cfg.output_dir, exist_ok=True)
        dump = os.path.join(cfg.output_dir, "mismatch_instance.txt")
        with open(dump, "w", encoding="utf-8") as fh:
            fh.write(exc.instance_text)
        print(f"verification failure: {exc}; instance dumped to {dump}", file=sys.stderr)
        return EXIT_VERIFY
    paths = write_reports(results, cfg.output_dir, cfg.timing_grid)
    figures = render_figures(cfg.output_dir)
    print(f"wrote {', '.join(sorted(paths.values()))}")
    print(f"rendered {', '.join(figures)}")
    return EXIT_OK


def cmd_verify(args) -> int:
    names = [args.suite] if args.suite else sorted(ALL_SUITES)
    failed = False
    for name in names:
        res = ALL_SUITES[name]()
        print(res.summary())
        for fail in res.failures[:3]:
            print(f"  counterexample: {fail}")
        if not res.passed:
            failed = True
    return EXIT_VERIFY if failed else EXIT_OK


def cmd_report(args) -> int:
    out = _resolve_out(args.out)
    figures = render_figures(out)
    print(f"rendered {', '.join(figures)}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code
    try:
        return args.handler(args)
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
