"""Command-line interface: char, oracle, bridge, partition, verify.

One executable, JSON in and JSON out.  Weight files are objects with window
entries, e.g. ``{"u": {"start": 0, "values": [1, 2]}, "v": ..., "w": ...}``
(the bridge subcommand also wants an ``"a"`` entry).  Exit codes: 0 success,
1 verification assertion failure, 2 malformed input or parameters.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from . import __version__
from .blocks import block_partition
from .bridge import bridge_check
from .charformulas import char_antigop, char_gop
from .hardyops import FORM_NAMES, RatioProblem, form_by_name
from .oracle import OracleConfig, brute_force_constant
from .seqcore import Window
from .verification import SweepSpec, run_verification


def _load_json(path: str) -> dict:
    with Path(path).open("r", encoding="utf-8") as handle:
        return json.load(handle)


def _load_windows(path: str, keys: tuple[str, ...]) -> dict[str, Window]:
    obj = _load_json(path)
    if not isinstance(obj, dict):
        raise ValueError("weights file must be a JSON object")
    out = {}
    for key in keys:
        if key not in obj:
            raise ValueError(f"weights file is missing the {key!r} window")
        out[key] = Window.from_json(obj[key])
    return out


def _emit(payload: dict, fmt: str, out: str | None) -> None:
    if fmt == "json":
        text = json.dumps(payload, indent=2, sort_keys=True)
    else:  # csv: flattened key,value rows
        rows = []

        def flatten(prefix: str, node) -> None:
            if isinstance(node, dict):
                for k, val in node.items():
                    flatten(f"{prefix}.{k}" if prefix else str(k), val)
            elif isinstance(node, (list, tuple)):
                rows.append((prefix, json.dumps(node)))
            else:
                rows.append((prefix, node))

        flatten("", payload)
        text = "\n".join(f"{k},{v}" for k, v in rows)
    if out:
        Path(out).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)


def _cmd_char(args: argparse.Namespace) -> int:
    wins = _load_windows(args.weights, ("u", "v", "w"))
    if args.form == "gop":
        res = char_gop(wins["u"], wins["v"], wins["w"], args.p, args.q)
    else:
        res = char_antigop(
            wins["u"], wins["v"], wins["w"], args.p, args.q, variant=args.variant
        )
    _emit(res.to_json(), args.format, args.out)
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    wins = _load_windows(args.weights, ("u", "v", "w"))
    r = args.p if args.inner_exponent is None else args.inner_exponent
    form = form_by_name(args.form, r=r)
    problem = RatioProblem(wins["u"], wins["v"], wins["w"], args.p, args.q, form)
    cfg = OracleConfig(restarts=args.restarts, iterations=args.iterations, seed=args.seed)
    res = brute_force_constant(problem, cfg)
    _emit(res.to_json(), args.format, args.out)
    return 0


def _cmd_bridge(args: argparse.Namespace) -> int:
    wins = _load_windows(args.weights, ("u", "v", "w", "a"))
    res = bridge_check(
        wins["u"], wins["v"], wins["w"], wins["a"], args.p, args.q, form=args.form
    )
    _emit(res.to_json(), args.format, args.out)
    return 0


def _cmd_partition(args: argparse.Namespace) -> int:
    obj = _load_json(args.weights)
    if isinstance(obj, dict) and "w" in obj:
        w = Window.from_json(obj["w"])
    else:
        w = Window.from_json(obj)
    n0 = args.n0 if args.n0 is not None else w.start
    bp = block_partition(w, n0)
    _emit(bp.to_json(), args.format, args.out)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.spec:
        spec = SweepSpec.from_json(_load_json(args.spec))
    else:
        spec = SweepSpec()
    if args.seed is not None:
        spec = dataclasses.replace(spec, seed=args.seed)
    report = run_verification(spec)
    _emit(report, args.format, args.out or spec.out)
    return 0 if report["passed"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hardyseq",
        description="Discrete iterated Hardy-type inequalities: formulas, oracles, bridges.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(cmd: argparse.ArgumentParser) -> None:
        cmd.add_argument("--format", choices=["json", "csv"], default="json")
        cmd.add_argument("--out", type=str, default=None, help="Write output to a file")

    c = sub.add_parser("char", help="Closed-form optimal-constant estimate")
    c.add_argument("--weights", required=True, help="JSON file with u, v, w windows")
    c.add_argument("--p", type=float, required=True)
    c.add_argument("--q", type=float, required=True)
    c.add_argument("--form", choices=["gop", "antigop"], default="gop")
    c.add_argument("--variant", choices=["printed", "flipped"], default="printed")
    common(c)
    c.set_defaults(func=_cmd_char)

    o = sub.add_parser("oracle", help="Brute-force lower bound on the constant")
    o.add_argument("--weights", required=True)
    o.add_argument("--p", type=float, required=True)
    o.add_argument("--q", type=float, required=True, help="positive float or 'inf'")
    o.add_argument("--form", default="gop", choices=list(FORM_NAMES.values()))
    o.add_argument("--inner-exponent", type=float, default=None,
                   help="r for the psum forms (defaults to p)")
    o.add_argument("--restarts", type=int, default=OracleConfig.restarts)
    o.add_argument("--iterations", type=int, default=OracleConfig.iterations)
    o.add_argument("--seed", type=int, default=OracleConfig.seed)
    common(o)
    o.set_defaults(func=_cmd_oracle)

    b = sub.add_parser("bridge", help="Discrete vs continuous sides on step data")
    b.add_argument("--weights", required=True, help="JSON file with u, v, w, a windows")
    b.add_argument("--p", type=float, required=True)
    b.add_argument("--q", type=float, required=True)
    b.add_argument("--form", choices=["gop", "antigop"], default="gop")
    common(b)
    b.set_defaults(func=_cmd_bridge)

    pt = sub.add_parser("partition", help="Block partition of a weight window")
    pt.add_argument("--weights", required=True, help="JSON window, or object with a 'w' key")
    pt.add_argument("--n0", type=int, default=None, help="Start index (default: window start)")
    common(pt)
    pt.set_defaults(func=_cmd_partition)

    vf = sub.add_parser("verify", help="Run seeded property-verification sweeps")
    vf.add_argument("--spec", type=str, default=None, help="Sweep spec JSON file")
    vf.add_argument("--seed", type=int, default=None, help="Override the spec seed")
    common(vf)
    vf.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, KeyError, json.JSONDecodeError, IndexError) as exc:
        print(f"hardyseq: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
