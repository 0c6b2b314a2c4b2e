"""Command-line front end.

Subcommands: decide, slps-decide, shorten, flatten, verify, fuzz.
Exit codes are a fixed contract: 0 success/Reachable, 1 negative verdict
or failed verification/fuzzing, 2 input error, 3 budget exhaustion,
4 internal defect (a state the construction rules out was reached),
141 stdout closed by its reader before the output was written.
All output is byte-identical across runs given the same inputs and seeds.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from typing import Optional

from . import certificates, decide, fuzzing, schemes, shortening
from .core import REACHABLE, Configuration, instantiate, run
from .errors import BudgetExceededError, ParseError, PreconditionError, VasskitError
from .instances import load_instance, parse_pair, slps_line

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3
EXIT_DEFECT = 4
EXIT_CLOSED_OUTPUT = 141  # 128 + SIGPIPE, a shell's status for a writer whose reader left


def _print_trace(word, source: Configuration, out) -> None:
    for point in run(word, source).visited:
        print(f"trace: {point}", file=out)


def _relative_to_cert(path: str, cert: str) -> str:
    """``path`` as a reference that resolves from the certificate file's directory."""
    return os.path.relpath(os.path.abspath(path), os.path.dirname(os.path.abspath(cert)))


def _write_certificate(path: str, instance_file: str, lines: list[str]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"instance: {_relative_to_cert(instance_file, path)}\n")
        for line in lines:
            fh.write(line + "\n")


def _cmd_decide(args, out) -> int:
    instance = load_instance(args.file)
    if instance.kind != "vass" or instance.query is None:
        raise ParseError("decide needs an automaton file with a query line")
    s, t = instance.query
    cap = args.cap
    if cap is None and args.length_bound is not None:
        # the largest norm a run of length_bound letters can reach
        cap = max(s.norm + args.length_bound * instance.vass.norm, t.norm)
    elif cap is None:
        cap = decide.default_cap(instance.vass, s, t)
    verdict = decide.decide(instance.vass, s, t, cap, length_bound=args.length_bound)
    print(certificates.serialize_verdict(verdict), file=out)
    if args.trace and verdict.witness is not None:
        _print_trace(verdict.witness, s, out)
    if args.cert:
        line = certificates.serialize_verdict(verdict, with_refutation=True)
        _write_certificate(args.cert, args.file, [line])
    return EXIT_OK if verdict.kind == REACHABLE else EXIT_NEGATIVE


def _cmd_slps_decide(args, out) -> int:
    instance = load_instance(args.file)
    if instance.kind != "slps" or instance.query is None:
        raise ParseError("slps-decide needs a simple scheme file with a query line")
    s, t = instance.query
    result = schemes.slps_reach(instance.scheme, s, t)
    print(f"cap: {schemes.search_cap(instance.scheme, s, t)}", file=out)
    print(certificates.serialize_result(result), file=out)
    if not result.reachable:
        print("kind=Unreachable", file=out)
    if args.trace and result.exponents is not None:
        _print_trace(instantiate(instance.scheme, result.exponents), s, out)
    if args.cert:
        _write_certificate(args.cert, args.file, [certificates.serialize_result(result)])
    return EXIT_OK if result.reachable else EXIT_NEGATIVE


def _cmd_shorten(args, out) -> int:
    instance = load_instance(args.file)
    if instance.kind != "slps" or instance.exponents is None or instance.query is None:
        raise ParseError("shorten needs a simple scheme file with path and query lines")
    scheme, exps = instance.scheme, instance.exponents
    source = instance.query[0]
    k = args.cycle_cap if args.cycle_cap is not None else scheme.K
    header: list[str] = []
    family: Optional[shortening.ShorteningFamily] = None
    if args.op == "cut":
        if args.direction is None:
            raise ParseError("--direction is required for op cut")
        family = shortening.cut_by_vector(
            scheme, exps, source, args.count, parse_pair(args.direction)
        )
    elif args.op == "close-away":
        family = shortening.shorten_close_away(scheme, exps, source, args.corridor, k)
    elif args.op == "away-both":
        family = shortening.shorten_away_both(scheme, exps, source, args.count, k)
    elif args.op == "away-other":
        result = shortening.shorten_away_other(
            scheme, exps, source, args.corridor, args.count, k
        )
        family = result.family
        if result.case == 1:
            header = ["case: 1"]
        else:
            header = [f"case: 2 vector={result.vector.x},{result.vector.y}"]
    elif args.op == "one-visit":
        if args.split is None:
            raise ParseError("--split is required for op one-visit")
        family = shortening.shorten_one_visit(
            scheme, exps, source, args.split, args.corridor, args.count, k
        )
    if args.op == "far":
        members = [shortening.shorten_far(scheme, exps, source, k)]
    else:  # a family's members are keyed n = 1..N in order
        members = list(family.members.values()) if family is not None else []
    rel = os.path.basename(args.file)
    for line in header + [certificates.serialize_shortening(m, rel) for m in members]:
        print(line, file=out)
    if args.cert:
        cert_rel = _relative_to_cert(args.file, args.cert)
        _write_certificate(
            args.cert,
            args.file,
            [certificates.serialize_shortening(m, cert_rel) for m in members],
        )
    return EXIT_OK


def _cmd_flatten(args, out) -> int:
    instance = load_instance(args.file)
    if instance.kind != "lps":
        raise ParseError("flatten needs a general scheme file")
    # a profile is written ",u1,u2,...", so its first comma is dropped
    members = schemes.split_walk(
        instance.scheme, (",0", ",1", ",2"),
        lambda v: slps_line("seg", v), lambda v, origin: slps_line("cyc", v),
    )
    out.write(f"members: {3**instance.scheme.K}\n")
    for profile, lines in members:
        out.write("# member profile=" + profile[1:] + "\nslps\n" + lines)
    return EXIT_OK


def _cmd_verify(args, out) -> int:
    violations = certificates.verify_certificate_file(args.file)
    if not violations:
        print("verify: ok", file=out)
        return EXIT_OK
    for violation in violations:
        print(f"verify: {violation}", file=out)
    return EXIT_NEGATIVE


def _cmd_fuzz(args, out) -> int:
    report = fuzzing.run_target(args.target, args.iters, args.seed)
    print(
        f"fuzz: target={report.target} iters={report.iterations}"
        f" seed={report.seed} failures={len(report.failures)}",
        file=out,
    )
    if args.target == "thm10" and not report.failures:
        _report_thm10_margin(report.cases[:50], out)
    if not report.failures:
        return EXIT_OK
    repro = args.repro or f"fuzz-{args.target}-repro.txt"
    with open(repro, "w", encoding="utf-8") as fh:
        for failure in report.failures:
            fh.write(f"iteration: {failure.iteration}\n")
            fh.write(f"violation: {failure.violation}\n")
            fh.write(f"case: {report.cases[failure.iteration]!r}\n")
            fh.write(f"minimized: {failure.minimized!r}\n")
    for failure in report.failures:
        print(f"fuzz: iteration {failure.iteration}: {failure.violation}", file=out)
    print(f"fuzz: minimized reproduction written to {repro}", file=out)
    return EXIT_NEGATIVE


def _report_thm10_margin(cases, out) -> None:
    origin = Configuration(0, 0)
    observed = bound = 0
    for scheme in cases:
        result = schemes.slps_reach(scheme, origin, origin, budget=500_000)
        if not result.reachable:
            continue
        observed = max(observed, result.max_visited_norm)
        bound = max(bound, schemes.norm_bound(scheme))
    print(f"fuzz: max observed visited norm {observed} vs bound {bound}", file=out)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``vasskit`` argument parser, built on the first call.

    Every later call returns the same parser, so it is shared by all
    ``main()`` calls in the process and must not be mutated.  Each
    ``parse_args`` makes a fresh namespace, so no state carries from one
    call to the next.
    """
    parser = argparse.ArgumentParser(
        prog="vasskit",
        description="Reachability toolkit for planar vector addition systems and path schemes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decide", help="decide reachability for an automaton instance")
    p.add_argument("file")
    p.add_argument("--cap", type=int, default=None)
    p.add_argument("--length-bound", type=int, default=None)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--cert", default=None, help="write a certificate file")
    p.set_defaults(handler=_cmd_decide)

    p = sub.add_parser("slps-decide", help="complete decision for a simple scheme instance")
    p.add_argument("file")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--cert", default=None)
    p.set_defaults(handler=_cmd_slps_decide)

    p = sub.add_parser("shorten", help="apply a path-shortening operation")
    p.add_argument("file")
    p.add_argument(
        "--op",
        required=True,
        choices=["cut", "close-away", "away-both", "away-other", "one-visit", "far"],
    )
    p.add_argument("--direction", default=None, help="x,y direction for op cut")
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--corridor", type=int, default=8)
    p.add_argument("--cycle-cap", type=int, default=None)
    p.add_argument("--split", type=int, default=None)
    p.add_argument("--cert", default=None)
    p.set_defaults(handler=_cmd_shorten)

    p = sub.add_parser("flatten", help="split a general scheme into simple schemes")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_flatten)

    p = sub.add_parser("verify", help="re-check a certificate file")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("fuzz", help="run a seeded property-fuzzing target")
    p.add_argument("target", choices=fuzzing.TARGETS)
    p.add_argument("--iters", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--repro", default=None, help="reproduction file on failure")
    p.set_defaults(handler=_cmd_fuzz)
    return parser


# the first entry that matches the exception's class decides the exit code
_ERROR_EXIT_CODES = (
    ((ParseError, OSError, PreconditionError), EXIT_INPUT),
    (BudgetExceededError, EXIT_BUDGET),
    (VasskitError, EXIT_DEFECT),
)


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 after --help, 2 after printing a usage error
        return EXIT_INPUT if exc.code else EXIT_OK
    out = sys.stdout
    try:
        code = args.handler(args, out)
        out.flush()  # so that a closed pipe fails here, not at exit
        return code
    except BrokenPipeError:  # stdout's reader has gone, as in `vasskit flatten x | head`
        # the Python docs' recipe: stdout to devnull, so the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), out.fileno())
        return EXIT_CLOSED_OUTPUT
    except (OSError, VasskitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kinds, code in _ERROR_EXIT_CODES if isinstance(exc, kinds))


if __name__ == "__main__":
    raise SystemExit(main())
