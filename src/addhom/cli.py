"""Command-line surface.

Exit codes:
  0  the requested property holds / the requested object was produced
  1  the property is violated (a witness is on stdout) or no witness exists
  2  usage or input-format error
  3  resource guard tripped (search space or exhaustive check too large,
     or a result too long to print)
  141  stdout was closed before the output was written (128 + SIGPIPE);
       nothing is printed on stderr

Subcommands: field find-irreducible, check, counterexample, trace, search,
verify-theorem1.  All verdict-bearing output is available as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import AddhomError, SearchSpaceTooLarge, SpecFormatError
from .fields import ExtensionField, PrimeField, Rationals, find_irreducible, parse_field
from .maps import (
    EXHAUSTIVE,
    Sampled,
    build_char2_indicator,
    build_ratio_map,
    build_theorem1_counterexample,
    check_additive,
    check_homogeneous,
    check_linear,
    map_from_json,
    map_to_json,
    rational_proof_trace,
    report_to_dict,
    witness_to_dict,
)
from .search import (
    DEFAULT_MAX_CANDIDATES,
    SearchConfig,
    search_homogeneous_nonadditive,
    verify_theorem1_prime,
)

EXIT_OK = 0
EXIT_VIOLATED = 1
EXIT_USAGE = 2
EXIT_GUARD = 3
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a killed writer


def _emit_json(payload: dict) -> None:
    print(json.dumps(payload, indent=2))


def _cmd_field(args) -> int:
    base = PrimeField(args.p)
    poly = find_irreducible(base, args.degree)
    coeffs = ",".join(str(c) for c in poly)
    if args.format == "json":
        _emit_json(
            {
                "p": args.p,
                "degree": args.degree,
                "coefficients": coeffs,
                "field": f"Fq:{args.p}:{coeffs}",
            }
        )
    else:
        terms = []
        for i, c in enumerate(poly):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append("x" if c == 1 else f"{c}*x")
            else:
                terms.append(f"x^{i}" if c == 1 else f"{c}*x^{i}")
        print(" + ".join(reversed(terms)))
        print(f"coefficients (ascending): {coeffs}")
        print(f"field descriptor: Fq:{args.p}:{coeffs}")
    return EXIT_OK


def _load_map(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise SpecFormatError(f"{path} is not UTF-8 text: {exc}") from exc
    return map_from_json(text)


def _cmd_check(args) -> int:
    m = _load_map(args.input)
    # per-map default: exhaustive when finite, sampled (with the flags) otherwise
    strategy = args.strategy or (EXHAUSTIVE if m.domain.is_finite else "sampled")
    if strategy == "sampled":
        strategy = Sampled(seed=args.seed, samples=args.samples)
    checker = {
        "additive": check_additive,
        "homogeneous": check_homogeneous,
        "linear": check_linear,
    }[args.property]
    report = checker(m, strategy)
    if args.format == "json":
        _emit_json(report_to_dict(m, report))
    else:
        print(f"property: {report.property}")
        print(f"verdict: {report.verdict}")
        print(f"pairs checked: {report.pairs_checked}")
        if report.witness is not None:
            w = witness_to_dict(m, report.witness)
            print(f"witness ({w['kind']}): inputs {w['inputs'][0]} , {w['inputs'][1]}")
            print(f"  lhs = {w['lhs']}")
            print(f"  rhs = {w['rhs']}")
    return EXIT_OK if report.holds else EXIT_VIOLATED


def _cmd_counterexample(args) -> int:
    if args.kind == "theorem1":
        if args.field is None:
            raise AddhomError("counterexample theorem1 needs --field")
        m = build_theorem1_counterexample(parse_field(args.field))
    elif args.kind == "ratio":
        field = parse_field(args.field) if args.field else Rationals()
        m = build_ratio_map(field)
    else:  # char2-indicator
        m = build_char2_indicator()
    text = map_to_json(m)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(text)
    print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_trace(args) -> int:
    m = _load_map(args.input)
    x = m.domain.decode(args.x)
    identities = rational_proof_trace(m, args.m, args.n, x)
    if args.format == "json":
        _emit_json(
            {
                "m": args.m,
                "n": args.n,
                "x": m.domain.encode(x),
                "identities": [
                    {
                        "label": ident.label,
                        "lhs": m.codomain.encode(ident.lhs),
                        "rhs": m.codomain.encode(ident.rhs),
                        "equal": ident.equal,
                    }
                    for ident in identities
                ],
            }
        )
    else:  # every line is encoded before any is printed
        print("\n".join(
            f"{ident.label}: {m.codomain.encode(ident.lhs)} "
            f"{'==' if ident.equal else '!='} {m.codomain.encode(ident.rhs)}"
            for ident in identities
        ))
    return EXIT_OK if all(i.equal for i in identities) else EXIT_VIOLATED


def _cmd_search(args) -> int:
    config = SearchConfig(
        field=parse_field(args.field),
        domain_dim=args.domain_dim,
        codomain_dim=args.codomain_dim,
        mode="count_only" if args.mode == "count" else "first_witness",
        max_candidates=args.max_candidates,
        jobs=args.jobs,
    )
    result = search_homogeneous_nonadditive(config)
    if args.format == "json":
        _emit_json(result.to_dict())
    else:
        print(f"homogeneous maps:            {result.homogeneous_count}")
        print(f"homogeneous and additive:    {result.homogeneous_additive_count}")
        print(f"homogeneous, not additive:   {result.non_additive_count}")
        if result.witness_map is not None:
            w = witness_to_dict(result.witness_map, result.witness_report.witness)
            print(
                f"witness map found; additivity fails at {w['inputs'][0]} , "
                f"{w['inputs'][1]}: lhs {w['lhs']}, rhs {w['rhs']}"
            )
    return EXIT_OK if result.non_additive_count > 0 else EXIT_VIOLATED


def _cmd_verify_theorem1(args) -> int:
    field = PrimeField(args.p)
    report = verify_theorem1_prime(
        field, args.domain_dim, args.codomain_dim, args.max_candidates
    )
    if args.format == "json":
        _emit_json(report.to_dict())
    else:
        print(f"tables scanned:           {report.tables_total}")
        print(f"additive maps:            {report.additive_count}")
        print(f"expected additive maps:   {report.expected_additive}")
        print(f"additive non-homogeneous: {report.additive_nonhomogeneous_count}")
    ok = (
        report.additivity_implies_homogeneity
        and report.additive_count == report.expected_additive
    )
    return EXIT_OK if ok else EXIT_VIOLATED


def _nonnegative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, not {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="addhom",
        description="Exact checks of additivity and homogeneity of maps "
        "between vector spaces over Q and finite fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_field = sub.add_parser("field", help="field utilities")
    field_sub = p_field.add_subparsers(dest="field_command", required=True)
    p_irr = field_sub.add_parser(
        "find-irreducible", help="rank-smallest monic irreducible over Z_p"
    )
    p_irr.add_argument("--p", type=int, required=True)
    p_irr.add_argument("--degree", type=int, required=True)
    p_irr.set_defaults(func=_cmd_field)

    p_check = sub.add_parser("check", help="check a map-spec file")
    p_check.add_argument("--input", required=True)
    p_check.add_argument(
        "--property", choices=["additive", "homogeneous", "linear"], required=True
    )
    p_check.add_argument("--strategy", choices=["exhaustive", "sampled"])
    p_check.add_argument("--seed", type=int, default=Sampled.seed)
    p_check.add_argument("--samples", type=_nonnegative_int, default=Sampled.samples)
    p_check.set_defaults(func=_cmd_check)

    p_ce = sub.add_parser("counterexample", help="emit a counterexample map")
    p_ce.add_argument("kind", choices=["theorem1", "ratio", "char2-indicator"])
    p_ce.add_argument("--field")
    p_ce.add_argument("--out", required=True)
    p_ce.set_defaults(func=_cmd_counterexample)

    p_trace = sub.add_parser(
        "trace", help="evaluate the rational-scaling identity chain"
    )
    p_trace.add_argument("--input", required=True)
    p_trace.add_argument("--m", type=int, required=True)
    p_trace.add_argument("--n", type=int, required=True)
    p_trace.add_argument("--x", required=True)
    p_trace.set_defaults(func=_cmd_trace)

    p_search = sub.add_parser(
        "search", help="exhaust homogeneous maps, filter by additivity"
    )
    p_search.add_argument("--field", required=True)
    p_search.add_argument("--domain-dim", type=int, required=True)
    p_search.add_argument("--codomain-dim", type=int, required=True)
    p_search.add_argument("--mode", choices=["count", "witness"], default="witness")
    p_search.add_argument(
        "--jobs", type=_nonnegative_int, default=1,
        help="accepted for compatibility; the search runs in one process",
    )
    p_search.set_defaults(func=_cmd_search)

    p_vt = sub.add_parser(
        "verify-theorem1", help="table scan over Z_p: additive implies homogeneous"
    )
    p_vt.add_argument("--p", type=int, required=True)
    p_vt.add_argument("--domain-dim", type=int, required=True)
    p_vt.add_argument("--codomain-dim", type=int, required=True)
    p_vt.set_defaults(func=_cmd_verify_theorem1)

    # each is the last option of its parsers, so --help lists it last
    for p in (p_search, p_vt):
        p.add_argument("--max-candidates", type=_nonnegative_int,
                       default=DEFAULT_MAX_CANDIDATES)
    for p in (p_irr, p_check, p_trace, p_search, p_vt):
        p.add_argument("--format", choices=["text", "json"], default="text")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe fails here, not at interpreter exit
        return code
    except SearchSpaceTooLarge as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except BrokenPipeError:
        # the reader went away: nothing is left to say, and the interpreter's
        # final flush of what stdout still buffers must not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except (AddhomError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
