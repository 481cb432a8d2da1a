"""Command-line front end.

Subcommands::

    semifl partition --config runs.cfg [--out DIR] [--seed N]
    semifl train     --config runs.cfg --out DIR [--seed N]
    semifl compare   --subject a.sfl1 --reference b.sfl1 [--out report.csv]
    semifl report    RUN_DIR [RUN_DIR ...]

Exit codes: 0 success, 1 configuration error, 2 data error, 3 runtime error.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys

from . import clustering, experiment
from .config import parse_config
from .errors import ConfigError, DataError


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as ConfigError (exit code 1)."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def _build_parser() -> _Parser:
    parser = _Parser(prog="semifl",
                     description="Clustered federated-learning simulator")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    def add_common(p):
        p.add_argument("--config", required=True, help="key = value run spec")
        p.add_argument("--seed", type=int, default=None,
                       help="override master_seed from the config")

    p = sub.add_parser("partition",
                       help="materialise the client partition and clusters")
    add_common(p)
    p.add_argument("--out", default=".", help="output directory (default: .)")
    p.set_defaults(handler=_cmd_partition)

    p = sub.add_parser("train", help="run one experiment")
    add_common(p)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(handler=_cmd_train)

    p = sub.add_parser("compare", help="per-layer divergence of two checkpoints")
    p.add_argument("--subject", required=True)
    p.add_argument("--reference", required=True)
    p.add_argument("--out", default=None, help="write the CSV here instead of stdout")
    p.set_defaults(handler=_cmd_compare)

    p = sub.add_parser("report", help="summarise finished runs")
    p.add_argument("runs", nargs="+", metavar="RUN_DIR",
                   help="run directories (or metrics.csv paths)")
    p.set_defaults(handler=_cmd_report)
    return parser


def _load_config(args):
    overrides = {}
    if args.seed is not None:
        overrides["master_seed"] = ("--seed", args.seed)
    return parse_config(args.config, **overrides)


def _cmd_partition(args) -> int:
    cfg = _load_config(args)
    out = experiment.output_dir(args.out)
    # everything that can fail on the data fails here, before anything is written
    clients, clusters = experiment.prepare(cfg)
    out.mkdir(parents=True, exist_ok=True)

    with open(out / "clients.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["client_id", "examples", "labels"])
        for cid, c in enumerate(clients):
            writer.writerow([cid, len(c), "|".join(str(l) for l in c.distinct_labels)])
    print(f"wrote {out / 'clients.csv'} ({len(clients)} clients)")

    if clusters is not None:
        clustering.save_assignment(clusters, out / "clusters.txt")
        print(f"wrote {out / 'clusters.txt'} ({len(clusters)} clusters, "
              f"pattern {cfg.pattern})")
    return 0


def _cmd_train(args) -> int:
    cfg = _load_config(args)
    records = experiment.run_experiment(cfg, args.out)
    print(f"{cfg.mode} run finished: {len(records)} rounds, "
          f"final accuracy {records[-1].test_accuracy:.4f} "
          f"(artifacts in {args.out})")
    return 0


def _cmd_compare(args) -> int:
    if args.out and os.path.isdir(args.out):
        raise ConfigError(f"--out {args.out} is a directory; compare writes one CSV file")
    rows = experiment.compare_checkpoints(args.subject, args.reference)
    text = (f"# subject={args.subject} reference={args.reference}\nlayer,acs,red\n"
            + "".join(f"{layer},{a:.10g},{r:.10g}\n" for layer, (a, r) in rows.items()))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_report(args) -> int:
    for run in args.runs:
        s = experiment.summarize_run(run)
        print(f"{s['run']}: mode={s['mode']} pattern={s['pattern']} "
              f"rounds={s['rounds']} final_acc={s['final_accuracy']:.4f} "
              f"best_acc={s['best_accuracy']:.4f} uplink_models={s['total_uplink_models']} "
              f"uplink_bytes={s['total_uplink_bytes']}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if not args.command:
            parser.print_help()
            return 1
        return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 -- CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
