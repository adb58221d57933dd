"""Command-line front end.

Subcommands: field, code, encode, distance, deephole, sweep. Field elements
cross the boundary as canonical integer encodings; extension fields are
named "p^s" with an optional reduction-modulus override. Exit codes:

* 0  success, or the checked claim holds
* 1  claim refuted (a counterexample was emitted on the data stream)
* 2  usage error, an exhausted work budget, or an --out file that cannot be written

Diagnostics go to stderr only; stdout carries just the data stream, and
identical invocations produce byte-identical stdout.

The parser is built once, at import, and declares each shared option once;
``main`` only parses, and reads ``GPRS_BUDGET`` afresh on every call. Every
usage error a handler finds is a ``ValueError`` that ``main`` reports as
``error: ...`` on stderr, with exit 2; so is an ``OSError`` from --out, whose
path is opened before the sweep runs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .galois import field_from_spec, parse_field_spec
from .polynomial import Polynomial
from .codes import (
    BudgetExceededError,
    DEFAULT_DISTANCE_BUDGET,
    DEFAULT_MESSAGE_BUDGET,
    GprsCode,
    mds_checks,
    parse_excluded,
)
from .deepholes import (
    HypothesisError,
    is_deep_hole_mds_extension,
    is_deep_hole_oracle,
    thm14_criterion,
    thm15_criterion,
    word_in_degree_k_family,
    word_in_shifted_family,
)
from .verify import KNOWN_CLAIMS, SweepConfig, run_sweep

BUDGET_ENV = "GPRS_BUDGET"

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_USAGE = 2


def _default_budget() -> int:
    raw = os.environ.get(BUDGET_ENV)
    if raw is None:
        return DEFAULT_MESSAGE_BUDGET
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{BUDGET_ENV} must be an integer, got {raw!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gprs",
        description=(
            "Generalized projective Reed-Solomon codes: construction, exact "
            "distances, deep-hole checks, and claim sweeps."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # options that several subcommands take, each declared once in a parent parser
    q, field_opts, code, word, budget = (argparse.ArgumentParser(add_help=False) for _ in range(5))
    q.add_argument("--q", required=True, help='field order, e.g. "7" or "3^2"')
    field_opts.add_argument("--mod", help="reduction modulus c0,c1,...,cs (monic)")
    field_opts.add_argument("--format", choices=("text", "json"), default="text")
    code.add_argument("--code", required=True, help='"q=5;exclude=3,4;k=2"')
    word.add_argument("--word", required=True, help="received word w1,...,wn+1")
    # None means "not given"; main reads GPRS_BUDGET then, so no value is frozen here
    budget.add_argument("--budget", type=int, default=None, help="message budget")

    sub.add_parser("field", parents=[q, field_opts], help="inspect a finite field")

    p_code = sub.add_parser(
        "code", parents=[q, field_opts], help="construct a code and print its metrics"
    )
    p_code.add_argument("--exclude", required=True, help="excluded points e1,e2,...")
    p_code.add_argument("--k", required=True, type=int)

    p_encode = sub.add_parser(
        "encode", parents=[code, field_opts], help="encode a message polynomial"
    )
    p_encode.add_argument("--poly", required=True, help="message c0,c1,...")

    p_dist = sub.add_parser(
        "distance", parents=[code, word, budget, field_opts], help="exact error distance of a word"
    )
    p_dist.add_argument(
        "--method", choices=("enumerate", "agreement"), default="enumerate"
    )

    p_dh = sub.add_parser(
        "deephole", parents=[code, word, budget, field_opts], help="deep-hole verdict for a word"
    )
    p_dh.add_argument(
        "--method", choices=("oracle", "mds", "thm14", "thm15"), required=True
    )
    p_dh.add_argument("--aj", type=int, help="excluded point for --method thm15")

    p_sweep = sub.add_parser("sweep", parents=[budget], help="machine-check claims over a grid")
    p_sweep.add_argument(
        "--claims",
        required=True,
        help="comma list from: " + ",".join(KNOWN_CLAIMS),
    )
    p_sweep.add_argument("--q-list", required=True, help='comma list of field orders, e.g. "7,3^2"')
    p_sweep.add_argument("--seed", type=int, default=0)
    p_sweep.add_argument("--words", type=int, default=20, help="random words per row")
    p_sweep.add_argument(
        "--max-sets", type=int, default=None, metavar="N",
        help="exclusion-set cap, split over l: each l in 1..q-3 takes max(1, N // (q-3)) "
             "of its sets, or all when no more exist (N = 8 at q = 13 takes 10)",
    )
    p_sweep.add_argument(
        "--distance-budget",
        type=int,
        default=DEFAULT_DISTANCE_BUDGET,
        help="distance-evaluation budget",
    )
    p_sweep.add_argument("--format", choices=("json", "csv"), default="json")
    p_sweep.add_argument("--out", help="write the report to a file instead of stdout")
    return parser


_PARSER = build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; pass both through
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        # only commands that take --budget have the attribute
        if getattr(args, "budget", 0) is None:
            args.budget = _default_budget()
        return _HANDLERS[args.command](args)
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (HypothesisError, ValueError, ZeroDivisionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def _emit(args, record: dict, text_lines) -> None:
    if args.format == "json":
        print(json.dumps(record, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _cmd_field(args) -> int:
    f = field_from_spec(args.q, args.mod)
    prim = f.primitive_element() if f.q >= 3 else f.one
    record = {
        "q": f.q,
        "p": f.p,
        "s": f.s,
        "modulus": list(f.modulus) if f.modulus else None,
        "primitive_element": prim.encoding,
        "elements": [
            {"encoding": e.encoding, "coeffs": list(e.coeffs)} for e in f.elements()
        ],
    }
    lines = [f"field GF({f.q}) = GF({f.p}^{f.s})"]
    if f.modulus:
        lines.append("modulus: " + ",".join(str(c) for c in f.modulus))
    lines.append(f"primitive element: {prim.encoding}")
    lines.append("elements (encoding: coefficient vector):")
    for e in f.elements():
        lines.append(f"  {e.encoding}: " + ",".join(str(c) for c in e.coeffs))
    _emit(args, record, lines)
    return EXIT_OK


def _cmd_code(args) -> int:
    f = field_from_spec(args.q, args.mod)
    code = GprsCode(f, parse_excluded(args.exclude), args.k)
    mds = mds_checks([code])[0]
    gen_rows = [list(r) for r in code._generator_rows()]
    record = {
        "spec": code.spec_string(),
        "q": f.q,
        "k": code.k,
        "excluded": [e.encoding for e in code.excluded],
        "evaluation_set": list(code.evaluation_encodings()),
        "n": code.n,
        "length": code.length,
        "generator": gen_rows,
        "minimum_distance": code.minimum_distance("formula"),
        "covering_radius": code.covering_radius("formula"),
        "mds": {"is_mds": mds.is_mds, "witness": list(mds.witness) if mds.witness else None},
    }
    lines = [
        f"code {code.spec_string()}",
        "evaluation set D: " + ",".join(str(e) for e in code.evaluation_encodings()),
        f"length: {code.length}   dimension: {code.k}",
        f"minimum distance: {record['minimum_distance']}",
        f"covering radius: {record['covering_radius']}",
        f"mds: {str(mds.is_mds).lower()}",
        "generator matrix:",
    ]
    for row in gen_rows:
        lines.append("  " + ",".join(str(e) for e in row))
    _emit(args, record, lines)
    return EXIT_OK


def _cmd_encode(args) -> int:
    code = GprsCode.from_spec(args.code, args.mod)
    message = Polynomial(code.field, [int(c) for c in args.poly.split(",")])
    word = code.encode(message)
    _emit(
        args,
        {"codeword": list(word.encs)},
        [word.to_text()],
    )
    return EXIT_OK


def _cmd_distance(args) -> int:
    code = GprsCode.from_spec(args.code, args.mod)
    word = code.word_from_text(args.word)
    d = code.error_distance(word, method=args.method, budget=args.budget)
    record = {
        "distance": d,
        "is_codeword": d == 0,
        "covering_radius": code.covering_radius("formula"),
        "method": args.method,
    }
    _emit(args, record, [f"distance: {d}"])
    return EXIT_OK


def _cmd_deephole(args) -> int:
    code = GprsCode.from_spec(args.code, args.mod)
    word = code.word_from_text(args.word)
    parameters = {"code": code.spec_string(), "word": word.to_text(), "method": args.method}
    if args.method == "oracle":
        verdict = is_deep_hole_oracle(code, word, method="enumerate", budget=args.budget)
    elif args.method == "mds":
        verdict = is_deep_hole_mds_extension(code, word)
    elif args.method == "thm14":
        if not word_in_degree_k_family(code, word):
            raise ValueError(
                "thm14 applies to words whose interpolant has degree exactly k "
                "and whose last coordinate matches its x^(k-1) coefficient"
            )
        verdict = thm14_criterion(code)
    else:
        if args.aj is None:
            raise ValueError("--method thm15 requires --aj")
        parameters["aj"] = args.aj
        if not word_in_shifted_family(code, word, args.aj):
            raise ValueError(
                "thm15 applies to words of the form "
                "lam*(x-aj)^(q-2) + nu*x^(k-1) + (degree <= k-2)"
            )
        verdict = thm15_criterion(code, args.aj)
    record = verdict.to_record(parameters)
    lines = [f"is_deep_hole={str(verdict.is_deep_hole).lower()} method={verdict.method}"]
    if verdict.witness is not None:
        lines.append("witness: " + ",".join(str(w) for w in verdict.witness))
    if verdict.distance is not None:
        lines.append(f"distance: {verdict.distance}")
    _emit(args, record, lines)
    return EXIT_OK if verdict.is_deep_hole else EXIT_REFUTED


def _cmd_sweep(args) -> int:
    # blank entries of either list are skipped; a field order is spelled as for --q
    claims = tuple(c.strip() for c in args.claims.split(",") if c.strip())
    q_list = tuple(p**s for p, s in (parse_field_spec(q) for q in args.q_list.split(",") if q.strip()))
    config = SweepConfig(
        claims=claims,
        q_list=q_list,
        max_exclusion_sets_per_q=args.max_sets,
        words_per_config=args.words,
        seed=args.seed,
        message_budget=args.budget,
        distance_budget=args.distance_budget,
    )
    created = bool(args.out) and not os.path.exists(args.out)
    if args.out:
        open(args.out, "a").close()  # refuse an unwritable path before the sweep, truncating nothing
    try:
        report = run_sweep(config)
        payload = report.to_json() if args.format == "json" else report.to_csv()
    except BaseException:
        if created:
            os.remove(args.out)
        raise
    if args.out:
        with open(args.out, "w", newline="") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)
    s = report.summary
    print(
        f"sweep {report.exit_status()}: total={s['total']} agreed={s['agreed']} "
        f"refuted={s['refuted']} skipped={s['skipped']}",
        file=sys.stderr,
    )
    return EXIT_REFUTED if report.refuted else EXIT_OK


_HANDLERS = {
    "field": _cmd_field,
    "code": _cmd_code,
    "encode": _cmd_encode,
    "distance": _cmd_distance,
    "deephole": _cmd_deephole,
    "sweep": _cmd_sweep,
}


if __name__ == "__main__":
    sys.exit(main())
