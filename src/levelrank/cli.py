"""Command-line entry point.

Commands: branch, tau, qdim, fuse, smatrix, cc, etale, mirror, verify.
Weight literals are comma-separated components in square brackets, for
example [1,0,0,1,1,0]; partition literals use parentheses, (3,1).

Each command returns its report: the JSON payload, the text lines (None for
smatrix, whose text is the JSON) and, for verify, its exit status and ERROR
records. ``main`` alone writes it: --json prints only the JSON; --out FILE
writes it, and the text still prints except for smatrix. A reader that
closes stdout early ends the output quietly, at the command's own status.

Exit status: 0 on success or a fully verified sweep, 1 when a verification
finds a counterexample, 2 on usage errors (a ValueError: bad input, or an
--out path that cannot be written), 3 on an internal error (any other
exception, reported with its traceback). A ``verify`` suite that raises is
one ERROR record and the other suites still run; the sweep exits 1 when any
check fails, otherwise 3 when any suite raised.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import branching, fusion, qdim, smatrix, verify
from .partitions import ascii_diagram_pair, parse_partition
from .weights import LevelWeight, parse_components, tau

PRECISION_ENV = "LEVELRANK_PRECISION"


def _precision(args) -> int:
    """The --precision value, else the environment default, else 128 bits."""
    if args.precision is not None:
        bits, source = args.precision, "--precision"
    else:
        raw = os.environ.get(PRECISION_ENV)
        if not raw:
            return 128
        try:
            bits = int(raw)
        except ValueError:
            raise ValueError(f"{PRECISION_ENV} must be an integer, got {raw!r}") from None
        source = PRECISION_ENV
    if bits < 32:
        raise ValueError(f"{source} must be at least 32 bits, got {bits}")
    return bits


def _weight(text: str, args) -> LevelWeight:
    """Parse a weight literal and require the command's rank n and level m."""
    if args.m < 0:
        raise ValueError("level must be non-negative")
    comps = parse_components(text)
    if len(comps) != args.n or sum(comps) != args.m:
        literal = "[" + ",".join(map(str, comps)) + "]"
        raise ValueError(f"{literal} is not a rank-{args.n} level-{args.m} weight")
    return LevelWeight(comps)


def _cmd_branch(args):
    table = branching.branch(args.n, args.m, args.i)
    if args.young:  # each pair of diagrams, then a blank line
        lines = [ascii_diagram_pair(a.to_partition(), b.to_partition()) + "\n"
                 for a, b in table.pairs]
    else:
        lines = [f"class {table.i} of rank {args.n} level {args.m} "
                 f"restricts to {len(table)} summands:"]
        lines += [f"  {a} x {b}    "
                  f"({tuple(a.to_partition().parts)} x {tuple(b.to_partition().parts)})"
                  for a, b in table.pairs]
    return table.to_json(), lines


def _cmd_tau(args):
    a = _weight(args.weight, args)
    image = tau(a, args.i)
    return {"input": list(a.components), "i": args.i, "image": list(image.components)}, [image]


def _cmd_qdim(args):
    import mpmath

    if args.weight and args.partition:
        raise ValueError("give a weight literal or --partition, not both")
    if not args.weight and not args.partition:
        raise ValueError("give a weight literal or --partition")
    lam = (parse_partition(args.partition) if args.partition
           else _weight(args.weight, args).to_partition())
    product = qdim.qdim_product_string(lam, args.n)
    if args.backend == "float":
        with mpmath.workprec(_precision(args)):
            value = qdim.qdim_partition(lam, args.n, args.m, backend="float")
            numeric = mpmath.nstr(value, 20)
        exact_json = None
    else:
        exact = qdim.qdim_partition(lam, args.n, args.m)
        numeric = mpmath.nstr(exact.embed_real(30), 20)
        exact_json = exact.to_json()
    return ({"partition": list(lam.parts), "n": args.n, "m": args.m, "product": product,
             "value": numeric, "exact": exact_json},
            [f"qdim{tuple(lam.parts)} = {product} = {numeric}"])


def _cmd_fuse(args):
    a = _weight(args.a, args)
    b = _weight(args.b, args)
    dec = fusion.fuse(a, b)
    return {"a": list(a.components), "b": list(b.components), "result": dec.to_json()}, [dec]


def _cmd_smatrix(args):
    payload = smatrix.s_matrix(args.n, args.m, precision_bits=_precision(args)).to_json()
    payload["unitarity_residual"] = 0  # s_matrix raises unless exact unitarity holds
    return payload, None


def _cmd_cc(args):
    ambient, pair = smatrix.central_charge(args.n, args.m, args.k)
    equal = ambient == pair
    return ({"n": args.n, "m": args.m, "k": args.k, "ambient": str(ambient),
             "pair": str(pair), "equal": equal},
            [f"ambient {ambient} {'=' if equal else '!='} pair {pair}"])


def _cmd_mirror(args):
    summands = [_weight(tok, args) for tok in args.weights]
    out = branching.mirror_transport(summands)
    conditions = branching.etale_necessary_conditions(out)
    return ({"input": [list(w.components) for w in summands],
             "transported": [list(w.components) for w in out], "conditions": conditions},
            [*out, f"necessary conditions: {conditions}"])


def _cmd_verify(args):
    if args.bound is not None and args.bound < 2:
        raise ValueError(f"--bound must be at least 2, got {args.bound}")
    names = list(verify.SUITES) if args.suite == "all" else [args.suite]
    results = verify.run_suites(names, bound=args.bound)
    errors = [r for r in results if r.error is not None]
    failures = [r for r in results if not r.holds and r.error is None]
    passed = len(results) - len(failures) - len(errors)
    raised = f", {len(errors)} raised" if errors else ""
    return ({"results": [r.to_json() for r in results], "passed": not failures and not errors},
            [r.line() for r in results] + [f"{passed}/{len(results)} checks passed{raised}"],
            1 if failures else 3 if errors else 0, errors)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="levelrank",
        description="Exact branching tables, affine fusion and quantum dimensions "
                    "for the rank/level duality of the special linear series.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary, *ints):
        """A subcommand with its integer positionals, n and m first."""
        p = sub.add_parser(name, help=summary)
        for arg in ints:
            p.add_argument(arg, type=int)
        p.set_defaults(func=func)
        return p

    p = command("branch", _cmd_branch, "branching table of one level-1 class", "n", "m", "i")
    p.add_argument("--young", action="store_true", help="render diagram pairs")

    p = command("tau", _cmd_tau, "duality image of one weight", "n", "m", "i")
    p.add_argument("weight", help="weight literal, e.g. [4,6]")

    p = command("qdim", _cmd_qdim, "quantum dimension of a weight or partition", "n", "m")
    p.add_argument("weight", nargs="?", help="weight literal, e.g. [1,1,0]")
    p.add_argument("--partition", help="partition literal, e.g. (4,3,1)")
    p.add_argument("--backend", choices=("exact", "float"), default="exact")

    p = command("fuse", _cmd_fuse, "fusion product of two weights", "n", "m")
    p.add_argument("a", help="weight literal")
    p.add_argument("b", help="weight literal")

    command("smatrix", _cmd_smatrix, "modular S-matrix as JSON", "n", "m")

    p = command("cc", _cmd_cc, "central charges of the level-k embedding", "n", "m")
    p.add_argument("k", type=int, nargs="?", default=1)

    p = command("etale", _cmd_branch, "the degree-zero algebra object (branch i=0)", "n", "m")
    p.add_argument("--young", action="store_true")
    p.set_defaults(i=0)

    p = command("mirror", _cmd_mirror, "transport algebra summands across the duality", "n", "m")
    p.add_argument("weights", nargs="+", help="weight literals, vacuum included")

    p = command("verify", _cmd_verify, "run a named verification suite (or 'all')")
    p.add_argument("suite", choices=sorted(verify.SUITES) + ["all"])
    p.add_argument("--bound", type=int, default=None,
                   help="sweep bound for rank and level, at least 2 (suite defaults otherwise)")

    # shared options last, so that usage lines list them after the command's own
    for name, p in sub.choices.items():
        p.add_argument("--json", action="store_true", help="emit JSON on stdout")
        p.add_argument("--out", metavar="FILE", help="write the JSON report to FILE")
        if name in ("qdim", "smatrix"):
            p.add_argument("--precision", type=int, default=None,
                           help="binary precision in bits, at least 32 (default: "
                                f"{PRECISION_ENV}, else 128)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        payload, lines, *verdict = args.func(args)
        status, errors = verdict or (0, ())
        if args.json or args.out or lines is None:
            import json

            text = json.dumps(payload, indent=2, sort_keys=True)
            if args.json or lines is None:
                lines = [] if args.out else [text]
        if args.out:
            try:
                with open(args.out, "w") as fh:
                    fh.write(text + "\n")
            except OSError as exc:
                raise ValueError(f"cannot write {args.out}: {exc.strerror}") from None
        try:
            for line in lines:
                print(line)
            sys.stdout.flush()
        except BrokenPipeError:  # the reader stopped early: drop the rest, here and at exit
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a crash must not read as a counterexample
        import traceback

        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    for r in errors:
        import traceback

        traceback.print_exception(r.error)
        print(f"internal error: {r.detail}", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
