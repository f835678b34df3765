"""Command line front end.

    sim run          --scenario FILE --seed N --out DIR
    sim five-node    [--p P] [--seed N] --out DIR
    sim random-field --nodes N --seed N --out DIR
    sim sweep        --scenario FILE --p LIST --seeds LIST --out DIR
    sim oracle       --scenario FILE

Single runs write trace.csv, metrics.csv, and positions.csv into the output
directory. Exit codes: 0 success, 2 configuration error, 3 I/O error.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import os
import sys

from .oracle import OracleUnsupported, reachability_oracle
from .scenario import (
    MAX_NODES,
    ScenarioConfig,
    ScenarioError,
    build_five_node,
    build_random_field,
    load_scenario,
    with_p_forward,
)
from .trace import CompletionsFold, MetricsFold, PositionsWriter, TraceWriter, write_metrics_csv
from .world import World

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3


def _u64(text: str) -> int:
    value = int(text)
    if not 0 <= value < 1 << 64:
        raise argparse.ArgumentTypeError("seed must fit in 64 bits")
    return value


def _nonempty(values: list) -> list:
    if not values:
        raise argparse.ArgumentTypeError("needs at least one value")
    return values


def _float_list(text: str) -> list[float]:
    return _nonempty([float(part) for part in text.split(",") if part])


def _seed_list(text: str) -> list[int]:
    return _nonempty([_u64(part) for part in text.split(",") if part])


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sim",
        description="simulate torrent dissemination over a named-data ad hoc network",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a scenario file")
    run.add_argument("--scenario", required=True, metavar="FILE")
    run.add_argument("--seed", type=_u64, default=1, metavar="N")
    run.add_argument("--out", required=True, metavar="DIR")

    five = sub.add_parser("five-node", help="run the static five-node line")
    five.add_argument("--p", type=float, default=1.0, metavar="P",
                      help="pure forwarding probability (default 1.0)")
    five.add_argument("--seed", type=_u64, default=1, metavar="N")
    five.add_argument("--out", required=True, metavar="DIR")

    rand = sub.add_parser("random-field", help="run a mobile random field")
    rand.add_argument("--nodes", type=int, required=True, metavar="N",
                      help=f"node count, 5 to {MAX_NODES}")
    rand.add_argument("--seed", type=_u64, default=1, metavar="N")
    rand.add_argument("--out", required=True, metavar="DIR")

    sweep = sub.add_parser("sweep", help="run a scenario across p values and seeds")
    sweep.add_argument("--scenario", required=True, metavar="FILE")
    sweep.add_argument("--p", type=_float_list, required=True, metavar="P1,P2,...")
    sweep.add_argument("--seeds", type=_seed_list, required=True, metavar="S1,S2,...")
    sweep.add_argument("--out", required=True, metavar="DIR")

    oracle = sub.add_parser("oracle", help="print reachability verdicts for a static scenario")
    oracle.add_argument("--scenario", required=True, metavar="FILE")
    return parser


def _write_run(out_dir: str, cfg: ScenarioConfig, seed: int) -> None:
    """Run once, streaming the trace into trace.csv, positions.csv and the
    metrics fold. The two row files are written under a .part name and take
    their own names only once the run has finished, so a run that raises
    leaves neither behind."""
    # an output path that cannot be a directory fails here, before the run
    os.makedirs(out_dir, exist_ok=True)
    paths = [os.path.join(out_dir, name) for name in ("trace.csv", "positions.csv")]
    fold = MetricsFold(cfg.leechers(), [spec.node_id for spec in cfg.nodes])
    try:
        with TraceWriter(paths[0] + ".part") as trace_out, \
                PositionsWriter(paths[1] + ".part") as positions_out:
            def sink(rows):
                trace_out.add(rows)
                positions_out.add(rows)
                fold.add(rows)

            World(cfg, seed, sink).run()
    except BaseException:
        for path in paths:
            with contextlib.suppress(FileNotFoundError):
                os.remove(path + ".part")
        raise
    for path in paths:
        os.replace(path + ".part", path)
    metrics = fold.summary()
    write_metrics_csv(os.path.join(out_dir, "metrics.csv"), metrics)
    for node_id, lm in metrics.per_leecher.items():
        state = f"completed at {lm.completion_time_us} us" if lm.completed else "incomplete"
        print(f"{node_id} [{lm.torrent}] {state}")
    print(f"transmissions={metrics.total_tx} pieces_delivered={metrics.pieces_delivered}")


def sweep(cfg: ScenarioConfig, p_values: list[float], seeds: list[int]):
    """Completion table across (p, seed); rows are (p, seed, node, torrent,
    completed, completion_time_us or ''). Every p is validated before the
    first run."""
    varied_by_p = [(p_value, with_p_forward(cfg, p_value)) for p_value in p_values]
    rows = []
    for p_value, varied in varied_by_p:
        leechers = varied.leechers()
        for seed in seeds:
            # the table reports completions only, so that is all each run folds
            completions = CompletionsFold(leechers)
            World(varied, seed, completions.add).run()
            for node_id, lm in completions.per_leecher.items():
                rows.append((p_value, seed, node_id, lm.torrent, int(lm.completed),
                             "" if lm.completion_time_us is None else lm.completion_time_us))
    return rows


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            _write_run(args.out, load_scenario(args.scenario), args.seed)
        elif args.command == "five-node":
            _write_run(args.out, build_five_node(p_forward=args.p), args.seed)
        elif args.command == "random-field":
            _write_run(args.out, build_random_field(args.nodes, args.seed), args.seed)
        elif args.command == "sweep":
            cfg = load_scenario(args.scenario)
            os.makedirs(args.out, exist_ok=True)
            rows = sweep(cfg, args.p, args.seeds)
            path = os.path.join(args.out, "sweep.csv")
            with open(path, "w", encoding="utf-8", newline="") as fh:
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerow(("p", "seed", "node", "torrent", "completed",
                                 "completion_time_us"))
                writer.writerows(rows)
            print(f"wrote {len(rows)} rows to {path}")
        elif args.command == "oracle":
            verdicts = reachability_oracle(load_scenario(args.scenario))
            for node_id in sorted(verdicts):
                print(f"{node_id},{'reachable' if verdicts[node_id] else 'unreachable'}")
    except (ScenarioError, OracleUnsupported) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
