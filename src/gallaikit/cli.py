"""Batch command-line front end.

Exit codes are a stable contract: 0 success, 1 malformed input or usage,
2 proven negative (infeasible / verification failed), 3 inconclusive or
gave up. stdout carries machine-readable results, stderr human diagnostics.
"""
from __future__ import annotations

import argparse
import functools
import os
import sys

from . import bounds, oracle
from .core import (
    DistributionSequence,
    TargetGraph,
    balanced_sequence,
    colour_counts,
    colouring_rows,
    int_tokens,
    is_n_good,
    read_colouring,
    read_sequence,
    read_target,
    row_colour_counts,
    write_colouring,
)
from .constructor import construct, read_certificate, write_certificate
from .errors import GallaiKitError, PreconditionViolation, RangeError
from .verifier import (
    INCONCLUSIVE, find_gallai_partition, partition_line, settle_target, verify_certificate,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NEGATIVE = 2
EXIT_INCONCLUSIVE = 3

_BUILTINS = {
    "k3": TargetGraph.complete(3),
    "k4": TargetGraph.complete(4),
    "c4": TargetGraph.cycle(4),
}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; we need 1
        raise _UsageError(message)


def _load_target(arg: str) -> TargetGraph:
    if arg.lower().startswith("builtin:"):
        name = arg.split(":", 1)[1].lower()
        if name not in _BUILTINS:
            raise _UsageError(f"unknown builtin target {name!r} (have K3, K4, C4)")
        return _BUILTINS[name]
    if not os.path.exists(arg):
        raise _UsageError(f"target file not found: {arg}")
    return read_target(arg)


def _load_sequence(arg: str, n: int, k: int | None) -> DistributionSequence:
    if arg == "balanced":
        if k is None:
            raise _UsageError("--seq balanced requires --k")
        return balanced_sequence(n, k)
    if os.path.exists(arg):
        seq = read_sequence(arg)
        if seq.n != n:
            raise _UsageError(f"sequence file {arg} is for n={seq.n}, not {n}")
        return seq
    entries = tuple(int_tokens(arg.split(), "--seq is neither a file nor 'balanced'"))
    if not entries:
        raise _UsageError("--seq given an empty inline sequence")
    return DistributionSequence(n, len(entries), entries)


def _n_good(seq: DistributionSequence) -> DistributionSequence:
    if not is_n_good(seq):
        raise _UsageError(
            f"sequence sums to {seq.total}, not C({seq.n},2) = {seq.n * (seq.n - 1) // 2}")
    return seq


def _positive_int(text: str) -> int:
    """Every integer option: one token under the files' integer rule, at least 1."""
    try:
        value = int_tokens([text], "option value")[0]
    except ValueError as ex:
        raise argparse.ArgumentTypeError(str(ex)) from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


@functools.cache
def _build_parser() -> _Parser:
    """The parser, built on the first call and kept for the process: its
    defaults are module constants."""
    parser = _Parser(prog="gallaikit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a rainbow-free colouring")
    p.add_argument("--target", required=True,
                   help="graph file or builtin:K3|builtin:K4|builtin:C4")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--seq", required=True, help="file, 'balanced', or inline integers")
    p.add_argument("--k", type=_positive_int, help="colour count for --seq balanced")
    p.add_argument("--out", help="write the colouring here")
    p.add_argument("--cert", help="write the split certificate here")

    p = sub.add_parser("verify", help="check a colouring against target/cert/sequence")
    p.add_argument("--colouring", required=True)
    p.add_argument("--target")
    p.add_argument("--cert")
    p.add_argument("--seq")
    p.add_argument("--budget", type=_positive_int, default=2_000_000,
                   help="node budget for the rainbow search: rainbow K_j, 3 <= j < m, extended "
                        "for a complete target K_m, else vertices placed for the target")

    p = sub.add_parser("certify", help="produce an infeasibility certificate")
    p.add_argument("--kind", required=True, choices=["triangle", "clash", "tree", "general"])
    p.add_argument("--k", type=_positive_int)
    p.add_argument("--m", type=_positive_int)
    p.add_argument("--n", type=_positive_int)
    p.add_argument("--seq", help="sequence file for clash/tree kinds")
    p.add_argument("--target", help="target for the general kind")
    p.add_argument("--out", help="write the certificate here")

    p = sub.add_parser("oracle", help="exhaustive realizability table and agreement report")
    p.add_argument("--k", type=_positive_int, required=True)
    p.add_argument("--n-max", type=_positive_int, required=True)
    p.add_argument("--target", default="builtin:K3")
    p.add_argument("--budget", type=_positive_int, default=oracle.SEQUENCE_NODE_BUDGET,
                   help="node budget per sequence for the exhaustive search, which decides "
                        "the rows the standard search does not realise (every row of a forest "
                        "target); the standard search decides the rest")
    p.add_argument("--total-budget", type=_positive_int, default=oracle.TOTAL_NODE_BUDGET,
                   help="node budget for the whole command: exhaustive search nodes plus "
                        "states the standard search expands; once it is spent the rest of "
                        "the current n is inconclusive and no larger n is tabled")
    p.add_argument("--out-dir", default=".")
    return parser


def _cmd_construct(args) -> int:
    H = _load_target(args.target)
    seq = _n_good(_load_sequence(args.seq, args.n, args.k))
    result = construct(H, args.n, seq)
    if result.status == "unknown":
        for reason in result.reasons:
            print(f"gave up: {reason}", file=sys.stderr)
        if result.witness is not None:
            print(result.witness.witness_line("RAINBOW"), file=sys.stderr)
        return EXIT_INCONCLUSIVE
    if result.status == "infeasible":
        cert = result.infeasibility
        print(f"infeasible: {cert.kind}", file=sys.stderr)
        print(cert.inequality_text(), file=sys.stderr)
        print(cert.to_line())
        if args.cert:
            bounds.write_infeasibility(cert, args.cert)
        return EXIT_NEGATIVE
    if args.out:
        write_colouring(result.colouring, args.out)
    if args.cert and result.certificate is not None:
        write_certificate(result.certificate, args.cert)
    detail = (f"steps={len(result.certificate.steps)}"
              if result.certificate is not None else "no split certificate")
    print(f"constructed n={args.n} k={seq.k} strategy={result.strategy} {detail}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    """Check a colouring against its sequence, certificate and target.

    verifier.settle_target decides the target, its searches under --budget. A
    K3 verify at 2 <= n <= 64 that finds no rainbow triangle also prints a
    Gallai partition. Only --cert and --target read the colouring into a
    matrix, counted at most once; --seq alone counts the rows once its n and
    k match the header, and with none of the three the rows are only checked.
    """
    col = read_colouring(args.colouring) if args.cert or args.target else None
    n, k, rows = colouring_rows(args.colouring) if col is None else (col.n, col.k, None)
    failures: list[str] = []
    inconclusive: list[str] = []

    seq = read_sequence(args.seq) if args.seq else None
    if seq is not None:
        for what, mine, its in (("n", n, seq.n), ("k", k, seq.k)):
            if mine != its:
                raise _UsageError(f"{what} mismatch: colouring={mine} seq={its}")
        counts = row_colour_counts(n, k, rows) if col is None else colour_counts(col)
        if counts != list(seq.e):
            failures.append(f"counts {counts} != sequence {list(seq.e)}")
    elif col is None:
        for _ in rows:
            pass

    cert_ok = False
    if args.cert:
        cert = read_certificate(args.cert)
        replay_seq = seq or DistributionSequence.of(n, colour_counts(col))
        failure = verify_certificate(cert, col, replay_seq)
        cert_ok = failure is None
        if failure is not None:
            failures.append(failure)

    if args.target:
        H = _load_target(args.target)
        triangle = H == TargetGraph.complete(3)
        hit = settle_target(col, H, cert_ok, args.budget)
        if hit.found:
            failures.append(hit.embedding.witness_line("TRIANGLE" if triangle else "RAINBOW"))
        elif hit.status == INCONCLUSIVE:
            inconclusive.append("rainbow search hit its node budget")
        elif triangle and 2 <= col.n <= 64:
            # no rainbow triangle: col is Gallai
            p = find_gallai_partition(col)
            assert p is not None, "Gallai colouring without a partition (internal bug)"
            print(partition_line(p))

    for line in failures:
        print(line)
    for line in inconclusive:
        print(f"inconclusive: {line}", file=sys.stderr)
    if failures:
        return EXIT_NEGATIVE
    if inconclusive:
        return EXIT_INCONCLUSIVE
    print("OK")
    return EXIT_OK


def _cmd_certify(args) -> int:
    cert = None
    try:
        if args.kind == "triangle":
            if args.k is None:
                raise _UsageError("--kind triangle requires --k")
            cert = bounds.triangle_infeasibility_check(args.k)
        elif args.kind == "clash":
            if not args.seq or args.m is None:
                raise _UsageError("--kind clash requires --seq and --m")
            cert = bounds.clash_bound_check(_n_good(read_sequence(args.seq)), args.m)
        elif args.kind == "tree":
            if args.seq:
                if args.m is None:
                    raise _UsageError("--kind tree requires --m")
                cert = bounds.tree_forced_check(_n_good(read_sequence(args.seq)), args.m)
            else:
                if None in (args.n, args.k, args.m):
                    raise _UsageError("--kind tree needs --seq or all of --n --k --m")
                cert = bounds.balanced_tree_forced_check(args.n, args.k, args.m)
        elif args.kind == "general":
            if args.k is None:
                raise _UsageError("--kind general requires --k")
            H = (_load_target(args.target) if args.target
                 else TargetGraph.complete(3 if args.m is None else args.m))
            _, _, cert = bounds.general_lower_sequence(H, args.k)
    except RangeError as ex:
        print(f"no certificate: {ex}", file=sys.stderr)
        return EXIT_NEGATIVE
    if cert is None:
        print("no certificate: the inequality does not hold", file=sys.stderr)
        return EXIT_NEGATIVE
    print(cert.to_line())
    if args.out:
        bounds.write_infeasibility(cert, args.out)
    return EXIT_OK


def _cmd_oracle(args) -> int:
    H = _load_target(args.target)
    os.makedirs(args.out_dir, exist_ok=True)
    tgt = os.path.basename(args.target.split(":")[-1]).lower()
    table_path = os.path.join(args.out_dir, f"realizability_{tgt}_k{args.k}.txt")
    agree_path = os.path.join(args.out_dir, f"agreement_{tgt}_k{args.k}.txt")
    report = oracle.exact_g(H, args.k, args.n_max,
                            node_budget_per_seq=args.budget,
                            total_node_budget=args.total_budget)
    disagreements = 0
    with open(table_path, "w", encoding="utf-8") as tf, \
            open(agree_path, "w", encoding="utf-8") as af:
        header = f"# target={tgt} k={args.k} n_max={args.n_max}"
        if report.partial:
            header += " PARTIAL"
        tf.write(header + "\n")
        af.write(header + "\n")
        for n in sorted(report.per_n):
            tf.write(f"# n={n}\n")
            for line in report.table_lines(n):
                tf.write(line + "\n")
            for row in report.per_n[n]:
                clash = "-"
                if n >= H.m >= 3:
                    seq = DistributionSequence(n, args.k, row.e)
                    clash = "forced" if bounds.clash_bound_check(seq, H.m) else "open"
                agree = "yes"
                if row.status == oracle.REALIZABLE and clash == "forced":
                    agree = "NO(clash)"
                    disagreements += 1
                # greedy= is the constructors' standard search, run by exact_g
                af.write(" ".join(str(x) for x in row.e) + f" oracle={row.status} "
                         f"greedy={row.standard} clash={clash} agree={agree}\n")
        af.write(f"# disagreements={disagreements}\n")
    print(table_path)
    print(agree_path)
    if report.partial:
        print("PARTIAL", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "construct":
            return _cmd_construct(args)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "certify":
            return _cmd_certify(args)
        return _cmd_oracle(args)
    except (_UsageError, PreconditionViolation, ValueError, OSError) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return EXIT_USAGE
    except GallaiKitError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return EXIT_INCONCLUSIVE


if __name__ == "__main__":
    sys.exit(main())
