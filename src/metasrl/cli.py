"""Command-line entry points: gen-tasks, run, report.

Exit codes: 0 success, 2 config error, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from .errors import InvalidInput


def _load_json(path):
    with open(path) as fh:
        return json.load(fh)


def cmd_gen_tasks(args):
    from .taskgen import TaskSequenceConfig, write_task_sequence

    doc = _load_json(args.config)
    cfg = TaskSequenceConfig.from_dict(doc.get("task_source", doc))
    write_task_sequence(cfg, args.out)
    print(f"wrote {cfg.num_tasks} tasks to {args.out}")
    return 0


def cmd_run(args):
    from .harness import ExperimentConfig, export_report, run_experiment

    config = ExperimentConfig.from_json(_load_json(args.config))
    if args.seed is not None:
        config = dataclasses.replace(config, master_seed=args.seed)
    if args.strategy is not None:
        config = dataclasses.replace(config, strategies=(args.strategy,))
    result, reports = run_experiment(config)
    written = export_report(result, reports, args.out, config=config)
    print("\n".join(written))
    failed = len(result) - result.ok.sum()
    if failed:
        print(f"{failed} of {len(result)} task runs failed; see "
              f"{os.path.join(args.out, 'errors.csv')}", file=sys.stderr)
    return 0


def cmd_report(args):
    """Re-aggregate regret summaries from a run directory into one table:
    a column for each RegretReport field but per_task, in field order, a
    list's values joined with ";"."""
    from .meta import RegretReport

    in_dir = args.in_dir
    names = sorted(n for n in os.listdir(in_dir)
                   if n.startswith("regret_") and n.endswith(".json"))
    if not names:
        raise InvalidInput(f"no regret files under {in_dir}")
    merged = {}
    for name in names:
        strategy = name[len("regret_"):-len(".json")]
        merged[strategy] = _load_json(os.path.join(in_dir, name))
    if args.format == "json":
        print(json.dumps(merged, sort_keys=True, indent=2))
    else:
        fields = [f.name for f in dataclasses.fields(RegretReport)
                  if f.name != "per_task"]
        cell = lambda v: ";".join(map(str, v)) if isinstance(v, list) else str(v)
        print(",".join(["strategy", *fields]))
        for strategy in sorted(merged):
            print(",".join([strategy, *(cell(merged[strategy][f]) for f in fields)]))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(prog="metasrl")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-tasks", help="generate a task sequence directory")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_tasks)

    p = sub.add_parser("run", help="run strategies over a task sequence")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--strategy", default=None)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("report", help="summarize an existing run directory")
    p.add_argument("--in", dest="in_dir", required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InvalidInput, KeyError, ValueError, TypeError,
            FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"runtime failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
