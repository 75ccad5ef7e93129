"""Command-line front end: decode, oracle, compare, landscape.

Reports are machine-readable (JSON or CSV) and byte-identical for identical
configuration and seed. Results go to stdout unless --out is given; progress
goes to stderr. Exit codes: 0 success, 2 usage or configuration error, 3
internal failure.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
import traceback
from dataclasses import dataclass

from .codes import BitVector, Code, load_code
from .engine import TRAINERS, run_pqc, landscape_scan
from .errors import QviterbiError
from .trellis import build_trellis, viterbi_decode

MAX_DUMP_ENTRIES = 1 << 14


@dataclass
class RunConfig:
    code_source: str
    code: Code
    received: BitVector
    p: int = 3
    q: int = 5
    shots: int = 2000
    seed: int = 0
    strategy: str = "upo"
    mode: str = "exact"
    out: str | None = None
    dump_state: bool = False

    @classmethod
    def from_args(cls, args: argparse.Namespace) -> RunConfig:
        code = load_code(args.code)
        received = BitVector.from_string(args.received)
        if len(received) != code.n:
            raise ValueError(f"received vector has {len(received)} bits but the code has n = {code.n}")
        cfg = cls(code_source=args.code, code=code, received=received)
        for name in ("p", "q", "shots", "seed", "strategy", "mode", "out"):
            if getattr(args, name, None) is not None:
                setattr(cfg, name, getattr(args, name))
        cfg.dump_state = bool(getattr(args, "dump_state", False))
        if cfg.dump_state and (1 << code.n) > MAX_DUMP_ENTRIES:
            raise ValueError(f"state has {1 << code.n} entries; dump is limited to {MAX_DUMP_ENTRIES}")
        return cfg


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


def cmd_decode(cfg: RunConfig) -> str:
    trainer = TRAINERS[cfg.strategy]
    result = trainer(cfg.code, cfg.received, cfg.p, cfg.q, cfg.shots, cfg.seed, mode=cfg.mode)
    oracle = viterbi_decode(build_trellis(cfg.code), cfg.received)
    oracle_words = [str(c) for c in oracle.best_codewords]
    report = {
        "command": "decode",
        "code": cfg.code_source,
        "received": str(cfg.received),
        "p": cfg.p,
        "q": cfg.q,
        "shots": cfg.shots,
        "seed": cfg.seed,
        "strategy": cfg.strategy,
        "mode": cfg.mode,
        "result": result.to_json_dict(),
        "oracle": {"best_metric": oracle.best_metric, "best_codewords": oracle_words},
        "oracle_agrees": _top_state(result.distribution) in set(oracle_words),
    }
    if cfg.dump_state:
        sv = run_pqc(cfg.code, cfg.received, result.best_params)
        report["statevector"] = sv.to_json_entries()
    return _json_report(report)


def cmd_oracle(cfg: RunConfig) -> str:
    oracle = viterbi_decode(build_trellis(cfg.code), cfg.received)
    return _json_report(
        {
            "best_metric": oracle.best_metric,
            "best_codewords": [str(c) for c in oracle.best_codewords],
        }
    )


def cmd_compare(cfg: RunConfig, repetitions: int) -> str:
    if repetitions < 1:
        raise ValueError("repetitions must be at least 1")
    lines = ["repetition,upo_hits,fpo_hits"]
    for rep in range(repetitions):
        rep_seed = cfg.seed + rep
        hits = {}
        for strategy in ("upo", "fpo"):
            result = TRAINERS[strategy](
                cfg.code, cfg.received, cfg.p, cfg.q, cfg.shots, rep_seed, mode=cfg.mode
            )
            hits[strategy] = result.solution_hits
        print(f"repetition {rep}: upo={hits['upo']} fpo={hits['fpo']}", file=sys.stderr)
        lines.append(f"{rep},{hits['upo']},{hits['fpo']}")
    return "\n".join(lines) + "\n"


def cmd_landscape(cfg: RunConfig, grid: int) -> str:
    rows = landscape_scan(cfg.code, cfg.received, cfg.p, grid)
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

    def add_common(p: argparse.ArgumentParser, training: bool) -> None:
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
    add_common(dec, training=True)
    dec.add_argument("--strategy", choices=sorted(TRAINERS), default="upo")
    dec.add_argument("--dump-state", action="store_true", help="include the final statevector in the report")

    orc = sub.add_parser("oracle", help="classical trellis decode")
    add_common(orc, training=False)

    cmp_ = sub.add_parser("compare", help="solution-hit counts of upo vs fpo over repetitions")
    add_common(cmp_, training=True)
    cmp_.add_argument("--repetitions", type=int, default=10)

    land = sub.add_parser("landscape", help="export the shared-parameter cost landscape as CSV")
    add_common(land, training=False)
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
        cfg = RunConfig.from_args(args)
        if args.command == "decode":
            text = cmd_decode(cfg)
        elif args.command == "oracle":
            text = cmd_oracle(cfg)
        elif args.command == "compare":
            text = cmd_compare(cfg, args.repetitions)
        elif args.command == "landscape":
            text = cmd_landscape(cfg, args.grid)
        else:  # pragma: no cover - argparse enforces the choices
            raise ValueError(f"unknown command {args.command!r}")
        _emit(text, cfg.out)
    except (QviterbiError, ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 3
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
