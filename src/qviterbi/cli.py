"""Command-line front end: decode, oracle, compare, landscape.

Reports are machine-readable (JSON or CSV) and byte-identical for identical
configuration and seed. Results go to stdout unless --out is given; progress
goes to stderr. Exit codes: 0 success, 2 usage or configuration error, 3
internal failure.

Each subparser names its command, ``cmd_x(args, code, received)``. ``main``
loads the code and parses the received word, checks its length, and passes
both with the parsed arguments; the command reads the arguments it has.

The module imports only what ``oracle`` needs, code loading and the trellis
decoder, which are pure Python. ``engine`` imports numpy, so ``decode``,
``compare`` and ``landscape`` import it when they run, and ``TRAINERS``,
``run_pqc`` and ``landscape_scan`` are module attributes resolved on first
access (PEP 562). A fresh ``oracle`` process therefore never loads numpy
(see the package docstring for fresh-process times), and a fresh
``decode`` pays for it in its first request instead of at import. The
commands look all three names up in this module, and ``TRAINERS`` is
``engine.TRAINERS`` itself, so a caller that replaces one of the names or one
of the trainers, as ``perfbench/spans.py`` does, sees every call.
"""
from __future__ import annotations

import argparse
import functools
import inspect
import json
import sys
import traceback
from collections.abc import Callable

from .codes import BitVector, Code, load_code
from .errors import QviterbiError
from .trellis import build_trellis, viterbi_decode

MAX_DUMP_ENTRIES = 1 << 14
_ENGINE_NAMES = ("TRAINERS", "run_pqc", "landscape_scan")


def __getattr__(name: str):
    # The commands call this too. The first access binds the object engine
    # defines, beneath any functools.wraps wrapper set on engine before it, as
    # an import of engine at load time would have; so undoing a wrap of either
    # module leaves the other as it was. Later accesses return what is bound
    # here, including a caller's replacement.
    if name not in _ENGINE_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    if name not in globals():
        from . import engine

        globals()[name] = inspect.unwrap(getattr(engine, name))
    return globals()[name]


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_report(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _top_state(distribution: dict[str, float]) -> str:
    return sorted(distribution.items(), key=lambda kv: (-kv[1], kv[0]))[0][0]


def cmd_decode(args: argparse.Namespace, code: Code, received: BitVector) -> str:
    if args.dump_state and (1 << code.n) > MAX_DUMP_ENTRIES:
        raise ValueError(f"state has {1 << code.n} entries; dump is limited to {MAX_DUMP_ENTRIES}")
    trainer = __getattr__("TRAINERS")[args.strategy]
    result = trainer(code, received, args.p, args.q, args.shots, args.seed, mode=args.mode)
    oracle = viterbi_decode(build_trellis(code), received)
    oracle_words = [str(c) for c in oracle.best_codewords]
    report = {
        "command": "decode",
        "code": args.code,
        "received": str(received),
        "p": args.p,
        "q": args.q,
        "shots": args.shots,
        "seed": args.seed,
        "strategy": args.strategy,
        "mode": args.mode,
        "result": result.to_json_dict(),
        "oracle": {"best_metric": oracle.best_metric, "best_codewords": oracle_words},
        "oracle_agrees": _top_state(result.distribution) in set(oracle_words),
    }
    if args.dump_state:
        sv = __getattr__("run_pqc")(code, received, result.best_params)
        report["statevector"] = sv.to_json_entries()
    return _json_report(report)


def cmd_oracle(args: argparse.Namespace, code: Code, received: BitVector) -> str:
    oracle = viterbi_decode(build_trellis(code), received)
    return _json_report(
        {
            "best_metric": oracle.best_metric,
            "best_codewords": [str(c) for c in oracle.best_codewords],
        }
    )


def cmd_compare(args: argparse.Namespace, code: Code, received: BitVector) -> str:
    if args.repetitions < 1:
        raise ValueError("repetitions must be at least 1")
    trainers = __getattr__("TRAINERS")
    lines = ["repetition,upo_hits,fpo_hits"]
    for rep in range(args.repetitions):
        rep_seed = args.seed + rep
        hits = {}
        for strategy in ("upo", "fpo"):
            result = trainers[strategy](code, received, args.p, args.q, args.shots, rep_seed, mode=args.mode)
            hits[strategy] = result.solution_hits
        print(f"repetition {rep}: upo={hits['upo']} fpo={hits['fpo']}", file=sys.stderr)
        lines.append(f"{rep},{hits['upo']},{hits['fpo']}")
    return "\n".join(lines) + "\n"


def cmd_landscape(args: argparse.Namespace, code: Code, received: BitVector) -> str:
    rows = __getattr__("landscape_scan")(code, received, args.p, args.grid)
    lines = ["beta,gamma,expectation"]
    lines.extend(",".join(repr(float(x)) for x in row) for row in rows)
    return "\n".join(lines) + "\n"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qviterbi",
        description="Decode small linear codes with a trained layered circuit, "
        "check results against the classical trellis decoder, and export "
        "training landscapes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, command: Callable[..., str], training: bool) -> None:
        p.set_defaults(run=command)
        p.add_argument("--code", required=True, help="built-in code name or JSON file path")
        p.add_argument("--received", required=True, help="received vector as a bit string")
        p.add_argument("--out", default=None, help="write the report to this file instead of stdout")
        if training:
            p.add_argument("--p", type=int, default=3, help="number of circuit layers")
            p.add_argument("--q", type=int, default=5, help="random starts per optimization")
            p.add_argument("--shots", type=int, default=2000, help="measurement shots for reporting")
            p.add_argument("--seed", type=int, default=0, help="master seed")
            p.add_argument("--mode", choices=("exact", "sampled"), default="exact",
                           help="cost evaluation during optimization")

    dec = sub.add_parser("decode", help="train a circuit and decode the received vector")
    add_common(dec, cmd_decode, training=True)
    dec.add_argument("--strategy", choices=("fpo", "random", "upo"), default="upo")
    dec.add_argument("--dump-state", action="store_true", help="include the final statevector in the report")

    orc = sub.add_parser("oracle", help="classical trellis decode")
    add_common(orc, cmd_oracle, training=False)

    cmp_ = sub.add_parser("compare", help="solution-hit counts of upo vs fpo over repetitions")
    add_common(cmp_, cmd_compare, training=True)
    cmp_.add_argument("--repetitions", type=int, default=10)

    land = sub.add_parser("landscape", help="export the shared-parameter cost landscape as CSV")
    add_common(land, cmd_landscape, training=False)
    land.add_argument("--p", type=int, default=3, help="number of circuit layers")
    land.add_argument("--grid", type=int, default=32, help="grid points per axis")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Parsing leaves the parser unchanged, so one serves every call in a process.
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        code = load_code(args.code)
        received = BitVector.from_string(args.received)
        if len(received) != code.n:
            raise ValueError(f"received vector has {len(received)} bits but the code has n = {code.n}")
        _emit(args.run(args, code, received), args.out)
    except (QviterbiError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 3
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
