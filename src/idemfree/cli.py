"""Command-line front end: table I/O, constants, freeness and structure checks,
corpus verification and family generators.

Machine output goes to stdout as JSON; diagnostics go to stderr.
``verify`` takes --workers (default 1); ``verify`` and ``enumerate`` take
--max-enum-order (default 4). Nothing is read from the environment.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

from . import construct, verify
from .constants import davenport, erdos_burgess, strong_erdos_burgess
from .core import (
    SemigroupError,
    _plain_int,
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
    searches = {"I": erdos_burgess, "SI": strong_erdos_burgess, "D": davenport}
    which = [w.strip().upper() for w in args.which.split(",") if w.strip()]
    if not which:
        raise SemigroupError(f"--which {args.which!r} names no constant; choose from I, SI, D")
    unknown = [w for w in which if w not in searches]
    if unknown:
        raise SemigroupError(f"unknown constants {unknown}; choose from I, SI, D")
    repeated = sorted({w for w in which if which.count(w) > 1})
    if repeated:
        raise SemigroupError(f"repeated constants: {repeated}; name each once")
    S = _read_table(args.table)
    reports = []
    for w in which:
        if w == "D" and not is_commutative(S):
            print("note: Davenport constant skipped, semigroup is not commutative", file=sys.stderr)
            continue
        reports.append(searches[w](S).to_json_dict())
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
    # the certificate checks the terms and the length before any product set is built
    cert = extremal_structure_check(S, T)
    free = is_weakly_free(S, T)
    _emit(
        {
            "weaklyFree": free,
            "certificate": cert.to_json_dict(),
            "equivalenceHolds": free == cert.passed,
        }
    )
    return 0


@contextmanager
def _enum_cap_flag():
    """Name --max-enum-order when the configured enumeration cap refuses an
    order; the library's message names its own parameter."""
    try:
        yield
    except construct.OrderTooLarge as exc:
        if exc.cap is None:
            raise
        raise SemigroupError(
            f"order {exc.order} exceeds the enumeration cap {exc.cap}; "
            f"raise it with --max-enum-order {exc.order}"
        ) from None


def cmd_verify(args) -> int:
    checks = list(verify.CHECK_IDS)
    if args.checks is not None:
        checks = [c.strip() for c in args.checks.split(",") if c.strip()]
    started = time.monotonic()
    # the log is opened before the run, so an unwritable path fails at once,
    # and for appending, so an existing log stays as it is until it is
    # replaced; a log this command created is removed if the run fails
    log_file, created = None, False
    if args.log:
        try:
            log_file, created = open(args.log, "x"), True
        except FileExistsError:
            log_file = open(args.log, "a")
    try:
        with log_file or nullcontext(), _enum_cap_flag():
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
            if log_file:
                log_file.truncate(0)
                log_file.write(text)
    except BaseException:
        if created:
            Path(args.log).unlink(missing_ok=True)
        raise
    print(f"verify: {log['summary']['passed']}/{log['summary']['instances']} instances passed "
          f"in {elapsed:.1f}s with {verify._processes(args.workers)} worker(s)", file=sys.stderr)
    return 0 if log["summary"]["allPassed"] else 1


def _int_arg(token: str) -> int:
    """An integer option or parameter, read as the file readers read one
    (``core._plain_int``): ASCII digits and no '_'."""
    try:
        return _plain_int(token)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {token!r}") from None


def _parse_component(text: str):
    kind, _, rest = text.partition(":")
    try:
        a, b = (_plain_int(v) for v in rest.split(","))
    except ValueError:
        raise SemigroupError(f"bad component {text!r}; expected mono:I,P or gbn:N,P") from None
    if kind == "mono":
        return construct.Monogenic(a, b)
    if kind == "gbn":
        return construct.GroupByNil(a, b)
    raise SemigroupError(f"unknown component kind {kind!r}; expected mono or gbn")


# each gen family but extremal, with its number of integer parameters
_FAMILIES = {
    "cyclic-group": (1, construct.cyclic_group),
    "cyclic-nil": (1, construct.cyclic_nil),
    "monogenic": (2, monogenic),
    "ideal-extension": (2, construct.trivial_ideal_extension),
    "group-nil-chain": (2, construct.group_nil_chain),
}


def cmd_gen(args) -> int:
    family = args.family
    params = args.params
    if family == "extremal":
        if params:
            raise SemigroupError(f"extremal generation takes no integer parameters, got {params}; use --component")
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

    flags = {"--component": args.component, "--adjoin-identity": args.adjoin_identity}
    ignored = [flag for flag, given in flags.items() if given]
    if ignored:
        raise SemigroupError(f"family {family} takes no {' or '.join(ignored)}; only extremal generation does")
    arity, build = _FAMILIES[family]
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


def _parse_resume(text: str) -> list[int]:
    prefix = []
    for cell in text.replace(",", " ").split():
        try:
            prefix.append(_plain_int(cell))
        except ValueError:
            raise SemigroupError(f"--resume-from cell {cell!r} is not an integer") from None
    return prefix


def cmd_enumerate(args) -> int:
    resume = _parse_resume(args.resume_from) if args.resume_from else None
    count = 0
    with _enum_cap_flag():
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
    p.add_argument("--max-order", type=_int_arg, default=4)
    p.add_argument("--commutative", action="store_true", help="restrict the corpus to commutative tables")
    p.add_argument("--checks", default=None, help=f"comma list from {','.join(verify.CHECK_IDS)}")
    p.add_argument("--workers", type=_int_arg, default=1)
    p.add_argument("--max-enum-order", type=_int_arg, default=construct.DEFAULT_ENUM_ORDER_CAP)
    p.add_argument("--log", default=None, help="also write the JSON log to this path")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("gen", help="emit a family table (and sequence, for extremal pairs)")
    p.add_argument("family", choices=[*_FAMILIES, "extremal"])
    p.add_argument("params", nargs="*", type=_int_arg)
    p.add_argument("--component", action="append", default=None, help="extremal part: mono:I,P or gbn:N,P")
    p.add_argument("--adjoin-identity", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("enumerate", help="stream every associative table of a small order")
    p.add_argument("--order", type=_int_arg, required=True)
    p.add_argument("--commutative", action="store_true")
    p.add_argument("--dedup", action="store_true", help="emit only canonical representatives")
    p.add_argument("--resume-from", default=None, help="flattened row-major prefix, e.g. '0 1 2'")
    p.add_argument("--max-enum-order", type=_int_arg, default=construct.DEFAULT_ENUM_ORDER_CAP)
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
