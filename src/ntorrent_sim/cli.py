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
from functools import partial
from typing import Callable

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
from .trace import CompletionsFold, MetricsFold, PositionsWriter, TraceWriter, write_metrics
from .world import World

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3

_csv_file = partial(open, mode="w", encoding="utf-8", newline="")  # opens a path for csv.writer


# argparse reports a type function's ValueError under the function's name, so
# these raise ArgumentTypeError, whose message names the bad text instead
def _u64(text: str) -> int:
    try:
        value = int(text)
        if 0 <= value < 1 << 64:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(
        f"invalid seed {text!r}: expected an integer from 0 to 2**64 - 1")


def _nonempty(values: list) -> list:
    if not values:
        raise argparse.ArgumentTypeError("needs at least one value")
    return values


def _float(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid value {text!r}: expected a number") from None


def _float_list(text: str) -> list[float]:
    return _nonempty([_float(part) for part in text.split(",") if part])


def _seed_list(text: str) -> list[int]:
    return _nonempty([_u64(part) for part in text.split(",") if part])


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sim",
        description="simulate torrent dissemination over a named-data ad hoc network",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    single = argparse.ArgumentParser(add_help=False)  # the options of every single run
    single.add_argument("--seed", type=_u64, default=1, metavar="N")
    single.add_argument("--out", required=True, metavar="DIR")

    run = sub.add_parser("run", parents=[single], help="run a scenario file")
    run.add_argument("--scenario", required=True, metavar="FILE")

    five = sub.add_parser("five-node", parents=[single], help="run the static five-node line")
    five.add_argument("--p", type=float, default=1.0, metavar="P",
                      help="pure forwarding probability (default 1.0)")

    rand = sub.add_parser("random-field", parents=[single], help="run a mobile random field")
    rand.add_argument("--nodes", type=int, required=True, metavar="N",
                      help=f"node count, 5 to {MAX_NODES}")

    sweep = sub.add_parser("sweep", help="run a scenario across p values and seeds")
    sweep.add_argument("--scenario", required=True, metavar="FILE")
    sweep.add_argument("--p", type=_float_list, required=True, metavar="P1,P2,...")
    sweep.add_argument("--seeds", type=_seed_list, required=True, metavar="S1,S2,...")
    sweep.add_argument("--out", required=True, metavar="DIR")

    oracle = sub.add_parser("oracle", help="print reachability verdicts for a static scenario")
    oracle.add_argument("--scenario", required=True, metavar="FILE")
    return parser


@contextlib.contextmanager
def _outputs(out_dir: str, openers: dict[str, Callable[[str], contextlib.AbstractContextManager]]):
    """Make out_dir and yield each output as its opener opens name.part; all are
    renamed once the block ends. On any error, remove the files this made, no other."""
    # a path that cannot take an output fails here, before the block runs
    os.makedirs(out_dir, exist_ok=True)
    made: list[str] = []  # each file this made, by the name it has now
    try:
        with contextlib.ExitStack() as stack:
            files = []
            for name, opener in openers.items():
                files.append(stack.enter_context(opener(os.path.join(out_dir, name + ".part"))))
                made.append(os.path.join(out_dir, name + ".part"))
            yield files
        for i, part in enumerate(made):
            os.replace(part, part.removesuffix(".part"))
            made[i] = part.removesuffix(".part")
    except BaseException:
        for path in made:
            os.remove(path)
        raise


def _write_run(out_dir: str, cfg: ScenarioConfig, seed: int) -> None:
    """Run once, streaming the trace into trace.csv, positions.csv and metrics.csv's fold."""
    fold = MetricsFold(cfg.leechers(), [spec.node_id for spec in cfg.nodes])
    with _outputs(out_dir, {"trace.csv": TraceWriter, "positions.csv": PositionsWriter,
                            "metrics.csv": _csv_file}) as (trace_out, positions_out, metrics_out):
        def sink(rows):
            trace_out.add(rows)
            positions_out.add(rows)
            fold.add(rows)

        World(cfg, seed, sink).run()
        metrics = fold.summary()
        write_metrics(metrics_out, metrics)
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
            with _outputs(args.out, {"sweep.csv": _csv_file}) as (fh,):
                rows = sweep(cfg, args.p, args.seeds)
                csv.writer(fh, lineterminator="\n").writerows(
                    [("p", "seed", "node", "torrent", "completed", "completion_time_us"), *rows])
            print(f"wrote {len(rows)} rows to {os.path.join(args.out, 'sweep.csv')}")
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
