"""Command-line interface: solve, enumerate, find-multiplier, lofo, pareto, synth.

Data goes to stdout or --out; the human/machine summary goes to stderr.
Exit codes: 0 ok, 1 usage error, 2 data error, 3 internal error. Enumerate
streams line-by-line with flushes, so an interrupted run still leaves a
valid sorted prefix on disk.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
import time

from .analysis import find_min_multipliers, lofo_importance
from .dataset import DataError, load_dataset, serialize_dataset
from .engine import RashomonEnumeration
from .groups import materialize
from .objective import ObjectiveConfig
from .optdp import OptimalSolver, check_depth
from .posteval import ParetoFront, eq_opportunity_spec, evaluate_secondary
from .synth import generate_dataset
from .trees import num_leaves, to_dict


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _add_data_args(p):
    p.add_argument("--data", required=True, help="dataset file path")
    p.add_argument("--format", default="auto",
                   choices=["auto", "murtree", "csv"])
    p.add_argument("--label-col", default=None,
                   help="label column name (csv format)")
    p.add_argument("--task", default="classification",
                   choices=["classification", "regression"])
    p.add_argument("--normalize", action="store_true",
                   help="standardize regression labels (zero mean, unit std)")


def _add_model_args(p):
    p.add_argument("--depth", type=int, default=3)
    p.add_argument("--lambda", dest="lam", type=float, default=0.01)
    p.add_argument("--tolerance", type=float, default=None,
                   help="override value-equality tolerance")
    p.add_argument("--no-trivial-extensions", action="store_true",
                   help="suppress splits whose two leaves predict the same label")


def build_parser() -> _Parser:
    parser = _Parser(prog="rashenum",
                     description="Sparse decision tree Rashomon set enumeration")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="find the optimal tree")
    _add_data_args(p)
    _add_model_args(p)
    p.add_argument("--out", default=None)

    p = sub.add_parser("enumerate", help="enumerate the Rashomon set in order")
    _add_data_args(p)
    _add_model_args(p)
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--max-trees", type=int, default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--out-format", default="jsonl",
                   choices=["jsonl", "groups", "count", "csv"])

    p = sub.add_parser("find-multiplier",
                       help="smallest epsilon per target set size")
    _add_data_args(p)
    _add_model_args(p)
    p.add_argument("--powers", default="1,2,3,4,5,6",
                   help="comma-separated powers of ten for target counts")
    p.add_argument("--out", default=None)

    p = sub.add_parser("lofo", help="leave-one-feature-out importance")
    _add_data_args(p)
    _add_model_args(p)
    p.add_argument("--max-trees", type=int, default=1000,
                   help="Rashomon set size for the curves")
    p.add_argument("--out", default=None)

    p = sub.add_parser("pareto",
                       help="accuracy/discrimination Pareto front")
    _add_data_args(p)
    _add_model_args(p)
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--max-trees", type=int, default=None)
    p.add_argument("--sensitive-feature", type=int, required=True)
    p.add_argument("--positive-class", type=int, default=1)
    p.add_argument("--delta", type=float, default=None,
                   help="also search the most accurate tree with |discrimination| <= delta")
    p.add_argument("--all-points", action="store_true",
                   help="emit every evaluated point, not only the front")
    p.add_argument("--out", default=None)

    p = sub.add_parser("synth", help="generate a seeded random dataset")
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--features", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--noise", type=float, default=0.1)
    p.add_argument("--task", default="classification",
                   choices=["classification", "regression"])
    p.add_argument("--out", default=None)
    return parser


@contextlib.contextmanager
def _out_stream(path):
    if path is None:
        yield sys.stdout
    else:
        with open(path, "w") as fh:
            yield fh


def _load(args):
    return load_dataset(args.data, fmt=args.format, task=args.task,
                        label_col=args.label_col, normalize=args.normalize)


def _summary(**kv):
    print("summary " + " ".join(f"{k}={v}" for k, v in kv.items()),
          file=sys.stderr)


def cmd_solve(args) -> int:
    check_depth(args.depth)
    dataset = _load(args)
    config = ObjectiveConfig(task=dataset.task, lam=args.lam,
                             equality_tolerance=args.tolerance)
    from .objective import total_cost

    solver = OptimalSolver(dataset, config)
    result = solver.solve(dataset.full_view(), args.depth)
    total = total_cost(result.value, args.lam)
    record = {"tree": to_dict(result.tree), "total_cost": total,
              "num_leaves": num_leaves(result.tree)}
    with _out_stream(args.out) as out:
        print(json.dumps(record, separators=(",", ":")), file=out)
    _summary(total_cost=f"{total:.10g}", num_leaves=num_leaves(result.tree))
    return 0


def _make_enum(args, dataset) -> RashomonEnumeration:
    return RashomonEnumeration(
        dataset, args.depth, lam=args.lam, epsilon=args.epsilon,
        max_trees=args.max_trees, tolerance=args.tolerance,
        suppress_trivial=args.no_trivial_extensions)


def cmd_enumerate(args) -> int:
    dataset = _load(args)
    start = time.monotonic()
    enum = _make_enum(args, dataset)
    trees = 0
    groups = 0
    last_value = None
    with _out_stream(args.out) as out:
        if args.out_format == "csv":
            print("rank,total_cost", file=out)
        for emitted in enum.groups():
            groups += 1
            last_value = emitted.total_cost
            budget = (None if args.max_trees is None
                      else args.max_trees - trees)
            if args.out_format == "jsonl":
                for tree in materialize(emitted.group, budget):
                    rec = {"objective": emitted.total_cost,
                           "tree": to_dict(tree)}
                    print(json.dumps(rec, separators=(",", ":")), file=out)
                    trees += 1
            elif args.out_format == "csv":
                for _ in range(emitted.count if budget is None
                               else min(emitted.count, budget)):
                    trees += 1
                    print(f"{trees},{emitted.total_cost:.10g}", file=out)
            else:
                rec = {"index": emitted.index,
                       "total_cost": emitted.total_cost,
                       "count": emitted.count}
                if args.out_format == "groups":
                    rec["trees"] = [to_dict(t) for t
                                    in materialize(emitted.group, budget)]
                print(json.dumps(rec, separators=(",", ":")), file=out)
                trees += emitted.count
            out.flush()
    elapsed = time.monotonic() - start
    _summary(trees=trees, groups=groups, theta=f"{enum.theta:.10g}",
             last_value="" if last_value is None else f"{last_value:.10g}",
             seconds=f"{elapsed:.3f}")
    return 0


def cmd_find_multiplier(args) -> int:
    try:
        powers = [int(t) for t in args.powers.split(",") if t.strip()]
    except ValueError:
        powers = None
    if not powers or any(p < 0 for p in powers):
        raise ValueError("bad --powers value")
    dataset = _load(args)
    targets = [10 ** p for p in powers]
    results = find_min_multipliers(
        dataset, args.depth, args.lam, targets, tolerance=args.tolerance,
        suppress_trivial=args.no_trivial_extensions)
    with _out_stream(args.out) as out:
        print("dataset,target,epsilon,achieved_count", file=out)
        for target, res in zip(targets, results):
            eps = "undefined" if res.epsilon is None else f"{res.epsilon:.10g}"
            print(f"{args.data},{target},{eps},{res.achieved_count}", file=out)
    return 0


def cmd_lofo(args) -> int:
    dataset = _load(args)
    result = lofo_importance(dataset, args.depth, args.lam, args.max_trees,
                             tolerance=args.tolerance,
                             suppress_trivial=args.no_trivial_extensions)
    ranking = result.ranking()
    rank_of = {f: i + 1 for i, f in enumerate(ranking)}
    with _out_stream(args.out) as out:
        print("feature,score,rank", file=out)
        for f in sorted(result.scores):
            print(f"{f},{result.scores[f]:.10g},{rank_of[f]}", file=out)
    _summary(top_feature=ranking[0], set_size=result.baseline.padded_length)
    return 0


def cmd_pareto(args) -> int:
    if args.delta is not None and not 0 <= args.delta < math.inf:
        raise ValueError(f"delta must be finite and >= 0, got {args.delta}")
    dataset = _load(args)
    spec = eq_opportunity_spec(dataset, args.sensitive_feature,
                               args.positive_class)
    enum = _make_enum(args, dataset)
    front = ParetoFront()
    evaluated = []
    winner = None  # first record, in primary order, with |disc| <= delta
    for total, stat, witness in evaluate_secondary(enum.groups(), spec):
        accuracy, disc = spec.finalize(stat)
        front.add((-accuracy, abs(disc)), witness)
        if args.all_points:
            evaluated.append((accuracy, disc, num_leaves(witness)))
        if (winner is None and args.delta is not None
                and abs(disc) <= args.delta):
            winner = {"tree": to_dict(witness), "accuracy": accuracy,
                      "discrimination": disc, "total_cost": total}
    with _out_stream(args.out) as out:
        print("kind,accuracy,discrimination,leaves", file=out)
        for p in front.points():
            print(f"front,{-p.coordinates[0]:.10g},{p.coordinates[1]:.10g},"
                  f"{p.tree_size}", file=out)
        for acc, disc, leaves in evaluated:
            print(f"point,{acc:.10g},{disc:.10g},{leaves}", file=out)
    if args.delta is not None:
        _summary(constrained="exhausted" if winner is None else
                 json.dumps(winner, separators=(",", ":")))
    return 0


def cmd_synth(args) -> int:
    dataset = generate_dataset(args.samples, args.features, args.seed,
                               noise=args.noise, task=args.task)
    with _out_stream(args.out) as out:
        out.write(serialize_dataset(dataset))
    _summary(samples=dataset.num_samples, features=dataset.num_features)
    return 0


COMMANDS = {"solve": cmd_solve, "enumerate": cmd_enumerate,
            "find-multiplier": cmd_find_multiplier, "lofo": cmd_lofo,
            "pareto": cmd_pareto, "synth": cmd_synth}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    max_trees = getattr(args, "max_trees", None)
    try:
        if max_trees is not None and max_trees < 1:
            raise ValueError(f"--max-trees must be >= 1, got {max_trees}")
        if (args.command in ("enumerate", "pareto") and args.epsilon is None
                and max_trees is None):
            raise ValueError(f"{args.command} needs --epsilon or --max-trees")
        return COMMANDS[args.command](args)
    except (DataError, FileNotFoundError, PermissionError) as exc:
        print(f"rashenum: data error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, IndexError) as exc:
        print(f"rashenum: error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        return 0
    except Exception as exc:  # pragma: no cover - defensive
        print(f"rashenum: internal error: {exc!r}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
