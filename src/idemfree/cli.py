"""Command-line front end: table I/O, constants, freeness and structure checks,
corpus verification and family generators.

Machine output goes to stdout as JSON; diagnostics go to stderr.
``constants`` and ``verify`` take --workers (default 1); ``verify`` and
``enumerate`` take --max-enum-order (default 4). Nothing is read from the
environment.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from . import construct, verify
from .constants import davenport, erdos_burgess, strong_erdos_burgess
from .core import (
    SemigroupError,
    format_cayley_table,
    idempotents,
    is_commutative,
    monogenic,
    parse_cayley_table,
    zero_element,
)
from .seqprod import Seq, is_strongly_free, is_weakly_free, product_sets
from .structure import extremal_structure_check


def _emit(payload) -> None:
    sys.stdout.write(json.dumps(payload, indent=2) + "\n")


def _read_table(path: str):
    return parse_cayley_table(Path(path).read_text())


def _read_seq(path: str) -> Seq:
    return Seq.parse(Path(path).read_text())


def cmd_validate(args) -> int:
    S = _read_table(args.table)
    _emit(
        {
            "order": S.order,
            "idempotentCount": len(idempotents(S)),
            "idempotents": sorted(idempotents(S)),
            "commutative": is_commutative(S),
            "zeroElement": zero_element(S),
        }
    )
    return 0


def cmd_constants(args) -> int:
    with verify._fan_out(args.workers, "--workers") as map_fn:
        which = [w.strip().upper() for w in args.which.split(",") if w.strip()]
        if not which:
            raise SemigroupError(f"--which {args.which!r} names no constant; choose from I, SI, D")
        unknown = [w for w in which if w not in ("I", "SI", "D")]
        if unknown:
            raise SemigroupError(f"unknown constants {unknown}; choose from I, SI, D")
        S = _read_table(args.table)
        reports = []
        for w in which:
            if w == "I":
                reports.append(erdos_burgess(S, map_fn=map_fn).to_json_dict())
            elif w == "SI":
                reports.append(strong_erdos_burgess(S, map_fn=map_fn).to_json_dict())
            elif w == "D":
                if not is_commutative(S):
                    print("note: Davenport constant skipped, semigroup is not commutative", file=sys.stderr)
                    continue
                reports.append(davenport(S, map_fn=map_fn).to_json_dict())
    _emit(reports)
    return 0


def cmd_products(args) -> int:
    S = _read_table(args.table)
    T = _read_seq(args.seq)
    ps = product_sets(S, T)
    _emit({"anyOrder": sorted(ps.any_order), "naturalOrder": sorted(ps.natural_order)})
    return 0


def cmd_free_check(args) -> int:
    S = _read_table(args.table)
    T = _read_seq(args.seq)
    if args.strong:
        free = is_strongly_free(S, T)
    else:
        free = is_weakly_free(S, T)
    _emit({"mode": "strong" if args.strong else "weak", "free": free})
    return 0


def cmd_check_extremal(args) -> int:
    S = _read_table(args.table)
    T = _read_seq(args.seq)
    free = is_weakly_free(S, T)
    cert = extremal_structure_check(S, T)
    _emit(
        {
            "weaklyFree": free,
            "certificate": cert.to_json_dict(),
            "equivalenceHolds": free == cert.passed,
        }
    )
    return 0


def cmd_verify(args) -> int:
    checks = list(verify.CHECK_IDS)
    if args.checks is not None:
        checks = [c.strip() for c in args.checks.split(",") if c.strip()]
    started = time.monotonic()
    log = verify.run_verification(
        max_order=args.max_order,
        commutative_only=args.commutative,
        checks=checks,
        workers=args.workers,
        enum_cap=args.max_enum_order,
    )
    elapsed = time.monotonic() - started
    text = json.dumps(log, indent=2) + "\n"
    sys.stdout.write(text)
    if args.log:
        Path(args.log).write_text(text)
    print(f"verify: {log['summary']['passed']}/{log['summary']['instances']} instances passed "
          f"in {elapsed:.1f}s with {args.workers} worker(s)", file=sys.stderr)
    return 0 if log["summary"]["allPassed"] else 1


def _parse_component(text: str):
    kind, _, rest = text.partition(":")
    try:
        a, b = (int(v) for v in rest.split(","))
    except ValueError:
        raise SemigroupError(f"bad component {text!r}; expected mono:I,P or gbn:N,P") from None
    if kind == "mono":
        return construct.Monogenic(a, b)
    if kind == "gbn":
        return construct.GroupByNil(a, b)
    raise SemigroupError(f"unknown component kind {kind!r}; expected mono or gbn")


def cmd_gen(args) -> int:
    family = args.family
    params = args.params
    if family == "extremal":
        if not args.component:
            raise SemigroupError("extremal generation needs at least one --component")
        if not args.out:
            raise SemigroupError("extremal generation needs --out BASE for the table and sequence files")
        spec = construct.ExtremalSpec(
            tuple(_parse_component(c) for c in args.component),
            adjoin_identity=args.adjoin_identity,
        )
        S, T = construct.extremal_pair(spec)
        Path(args.out + ".table").write_text(format_cayley_table(S))
        Path(args.out + ".seq").write_text(T.format())
        print(f"wrote {args.out}.table and {args.out}.seq", file=sys.stderr)
        return 0

    builders = {
        "cyclic-group": (1, construct.cyclic_group),
        "cyclic-nil": (1, construct.cyclic_nil),
        "monogenic": (2, monogenic),
        "ideal-extension": (2, construct.trivial_ideal_extension),
        "group-nil-chain": (2, construct.group_nil_chain),
    }
    arity, build = builders[family]
    if len(params) != arity:
        raise SemigroupError(f"family {family} takes {arity} integer parameter(s), got {len(params)}")
    S = build(*params)
    text = format_cayley_table(S)
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    return 0


def cmd_enumerate(args) -> int:
    resume = [int(v) for v in args.resume_from.replace(",", " ").split()] if args.resume_from else None
    count = 0
    for S in construct.enumerate_semigroups(
        args.order,
        commutative_only=args.commutative,
        dedup_iso=args.dedup,
        resume_from=resume,
        max_order=args.max_enum_order,
    ):
        if count:
            sys.stdout.write("\n")
        sys.stdout.write(format_cayley_table(S))
        count += 1
    print(f"enumerated {count} tables of order {args.order}", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="idemfree",
        description="Finite-semigroup toolkit: free sequences, structural constants, corpus verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a Cayley table file and print a summary")
    p.add_argument("table")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("constants", help="compute I, SI and/or D for a table")
    p.add_argument("table")
    p.add_argument("--which", default="I,SI,D", help="comma list from I,SI,D (default all)")
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(fn=cmd_constants)

    p = sub.add_parser("products", help="any-order and natural-order product sets of a sequence")
    p.add_argument("table")
    p.add_argument("seq")
    p.set_defaults(fn=cmd_products)

    p = sub.add_parser("free-check", help="is the sequence idempotent-product free?")
    p.add_argument("table")
    p.add_argument("seq")
    p.add_argument("--strong", action="store_true", help="natural-order products only")
    p.set_defaults(fn=cmd_free_check)

    p = sub.add_parser("check-extremal", help="compare brute-force freeness with the structural certificate")
    p.add_argument("table")
    p.add_argument("seq")
    p.set_defaults(fn=cmd_check_extremal)

    p = sub.add_parser("verify", help="run corpus and family checks, write a JSON run log")
    p.add_argument("--max-order", type=int, default=4)
    p.add_argument("--commutative", action="store_true", help="restrict the corpus to commutative tables")
    p.add_argument("--checks", default=None, help=f"comma list from {','.join(verify.CHECK_IDS)}")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--max-enum-order", type=int, default=construct.DEFAULT_ENUM_ORDER_CAP)
    p.add_argument("--log", default=None, help="also write the JSON log to this path")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("gen", help="emit a family table (and sequence, for extremal pairs)")
    p.add_argument(
        "family",
        choices=["cyclic-group", "cyclic-nil", "monogenic", "ideal-extension", "group-nil-chain", "extremal"],
    )
    p.add_argument("params", nargs="*", type=int)
    p.add_argument("--component", action="append", default=None, help="extremal part: mono:I,P or gbn:N,P")
    p.add_argument("--adjoin-identity", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("enumerate", help="stream every associative table of a small order")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--commutative", action="store_true")
    p.add_argument("--dedup", action="store_true", help="emit only canonical representatives")
    p.add_argument("--resume-from", default=None, help="flattened row-major prefix, e.g. '0 1 2'")
    p.add_argument("--max-enum-order", type=int, default=construct.DEFAULT_ENUM_ORDER_CAP)
    p.set_defaults(fn=cmd_enumerate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (SemigroupError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
