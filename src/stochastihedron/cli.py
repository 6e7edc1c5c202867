"""Command-line interface: every verification and export as a subcommand.

Output is a JSON report envelope on stdout:

    {"command": ..., "parameters": {...}, "pass": true/false,
     "details": {...}, "elapsed_ms": ...}

The report is written in pieces, as it is encoded, by one writer
(``jsonwriter.write_json``), which takes report values only (no float);
its bytes are those of ``json.dumps(report, indent=2, sort_keys=True)``
plus a newline.  elapsed_ms is a callable that reads the clock: the
writer calls it where it reaches it, after "details", so it counts
serialization.  With --stable the elapsed_ms field is omitted so
output is byte-identical across runs.  The report is the only output
format; ``metamatrix --format csv`` puts its CSV text inside it.

Exit code 0 when the command's check passes, 1 when a verification fails,
2 for usage or malformed-input errors, 3 when a capacity guard trips, and
141 (128 + SIGPIPE) when stdout is closed before the report is written.

Each handler imports the library modules it uses, so a run loads only
those; at module level sit the errors, the option kind sets and the
report writer.  A capacity message is the library's, printed as raised.
"""

import argparse
import json
import os
import sys
import time

from .errors import CapacityError, DomainError, StructuralError
from .jsonwriter import write_json
from .limits import ANODYNE_KINDS, STRATIFICATIONS

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_CAPACITY = 3
EXIT_PIPE = 141  # 128 + SIGPIPE


def _parse_partition(text):
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise DomainError(f"expected comma-separated integers, got {text!r}") from exc


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError, UnicodeDecodeError and integers
        # past the int-string conversion limit; RecursionError, nesting
        # deeper than the decoder's stack
        raise StructuralError(f"cannot read JSON from {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (passed, details)

def _cmd_enumerate(args):
    if args.what == "partitions":
        if args.n is None:
            raise DomainError("enumerating partitions needs --n")
        from .partitions import enumerate_ordered_partitions

        parts = enumerate_ordered_partitions(args.n, args.p)
        return True, {
            "claim": "ordered-partition-census",
            "count": len(parts),
            "partitions": [p.to_json() for p in parts],
        }
    from .contingency import enumerate_cm

    alpha = _parse_partition(args.alpha) if args.alpha else None
    beta = _parse_partition(args.beta) if args.beta else None
    matrices = enumerate_cm(args.n, args.p, args.q, alpha, beta)
    return True, {
        "claim": "contingency-census",
        "count": len(matrices),
        "matrices": ({"rows": m.rows} for m in matrices),
    }


def _cmd_poset(args):
    from . import contingency

    poset = contingency.build_poset(args.n)
    if args.format == "dot":
        return True, {"claim": "contraction-poset", "dot": contingency.poset_to_dot(poset)}
    # the writer takes both arrays one item at a time
    return True, {
        "claim": "contraction-poset",
        "n": poset.n,
        "elements": ({"rows": m.rows} for m in poset.elements),
        "covers": contingency.poset_covers_json(poset),
    }


def _sphericity_progress():
    """A progress(done, total) callback that writes one line to stderr at
    most once a second, the first one a second after it is made."""
    last = time.monotonic()

    def progress(done, total):
        nonlocal last
        now = time.monotonic()
        if now - last >= 1.0:
            last = now
            print(f"sphericity: {done}/{total} cells", file=sys.stderr, flush=True)

    return progress


def _cmd_sphericity(args):
    # --jobs is accepted for compatibility and ignored: the check is serial
    if args.jobs < 1:
        raise DomainError(f"jobs must be at least 1, got {args.jobs}")
    from .topology import verify_sphericity

    report = verify_sphericity(args.n, _sphericity_progress())
    details = {
        "claim": "lower-intervals-are-spheres",
        "n": report["n"],
        "cells_checked": report["cells_checked"],
        "violations": report["violations"],
    }
    if args.full:
        details["cells"] = report["cells"]
    return report["pass"], details


def _cmd_f_vector(args):
    from .counting import f_vector

    fv = f_vector(args.n)
    total = sum(fv.values())
    euler = sum((-1) ** d * c for d, c in fv.items())
    return euler == 1, {
        "claim": "stochastihedron-cell-census",
        "n": args.n,
        "f_vector": {str(d): c for d, c in fv.items()},
        "total": total,
        "euler_alternating_sum": euler,
    }


def _cmd_metamatrix(args):
    from .counting import metamatrix

    matrix = metamatrix(args.n, args.method)
    if args.format == "csv":
        return True, {"claim": "meta-matrix", "n": args.n, "csv": matrix.to_csv()}
    return True, {"claim": "meta-matrix", **matrix.to_json(), "total": matrix.total()}


def _cmd_verify_identities(args):
    from .contingency import count_cm
    from .counting import total_count
    from .identities import det_metamatrix, verify_factorizations

    n = args.n
    facts = verify_factorizations(n)
    det = det_metamatrix(n)
    checks = dict(facts["identities"])
    checks["determinant_closed_form"] = det.integral and det.equal
    details = {
        "claim": "meta-matrix-identities",
        "n": n,
        "identities": checks,
        "determinant": {
            "closed_form": str(det.closed_form),
            "direct": det.direct,
            "integral": det.integral,
        },
    }
    try:
        enum_total = count_cm(n)
        checks["total_vs_enumeration"] = total_count(n) == enum_total
        details["total"] = enum_total
    except CapacityError:
        details["enumeration_checks"] = "skipped (capacity)"
        details["total"] = total_count(n)
    return all(checks.values()), details


def _cmd_total_positivity(args):
    from .counting import metamatrix
    from .identities import total_positivity

    matrix = metamatrix(args.n)
    ok, witness = total_positivity(matrix)
    details = {
        "claim": "meta-matrix-total-positivity",
        "n": args.n,
        "totally_positive": ok,
    }
    if witness is not None:
        witness = dict(witness)
        witness["value"] = str(witness["value"])
        details["witness"] = witness
    return ok, details


def _cmd_classify(args):
    from . import strata

    config = strata.PointConfiguration.from_json(_load_json(args.input))
    return True, {"claim": "configuration-classification", **strata.classify(config)}


def _cmd_anodyne_classes(args):
    from . import strata

    report = strata.anodyne_classes(args.n, ANODYNE_KINDS[args.kind])
    details = {
        "claim": "anodyne-classes-match-label-fibers",
        "n": report["n"],
        "kinds": report["kinds"],
        "class_count": report["class_count"],
        "fiber_label": report["fiber_label"],
        "fiber_count": report["fiber_count"],
        "classes_match_fibers": report["classes_match_fibers"],
    }
    if args.full:
        details["classes"] = [list(c) for c in report["classes"]]
    if not report["pass"]:
        details["witness"] = "class/fiber partitions differ"
    return report["pass"], details


def _cmd_meet_join(args):
    from . import strata

    meet = strata.meet_check(args.n)
    details = {
        "claim": "label-pair-meet-and-anodyne-join",
        "n": args.n,
        "meet": {
            "group_count": meet["group_count"],
            "violations": meet["violations"],
            "pass": meet["pass"],
        },
    }
    passed = meet["pass"]
    try:
        joins = strata.anodyne_joins(args.n)
        details["join"] = {
            kind: {
                "class_count": rep["class_count"],
                "fiber_label": rep["fiber_label"],
                "classes_match_fibers": rep["classes_match_fibers"],
            }
            for kind, rep in joins.items()
        }
        passed = passed and all(rep["pass"] for rep in joins.values())
    except CapacityError:
        details["join"] = "skipped (capacity)"
    return passed, details


def _cmd_sheaf_check(args):
    from . import sheaf

    rep = sheaf.PosetRepresentation.from_json(_load_json(args.input))
    validation = sheaf.validate(rep)
    details = {
        "claim": "constructibility-criterion",
        "n": rep.poset.n,
        "strat": args.strat,
        "valid": validation["valid"],
    }
    if not validation["valid"]:
        details["witness"] = validation["diamonds_failing"]
        return False, details
    ok, witness = sheaf.is_constructible(rep, args.strat)
    details["constructible"] = ok
    if witness is not None:
        details["witness"] = witness
    return ok, details


def _cmd_constant_sheaf(args):
    from . import sheaf

    rep = sheaf.constant_sheaf(args.n, args.dim)
    valid = sheaf.validate(rep)["valid"]
    return valid, {"claim": "constant-sheaf", "representation": rep.to_json()}


# ---------------------------------------------------------------------------
# wiring

def build_parser():
    parser = argparse.ArgumentParser(
        prog="stochastihedron",
        description="Exact contingency-matrix combinatorics and verification.",
    )
    parser.add_argument(
        "--stable", action="store_true", help="omit timing for byte-identical output"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="list partitions or contingency matrices")
    p.add_argument("--what", choices=("matrices", "partitions"), default="matrices")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--p", type=int, default=None)
    p.add_argument("--q", type=int, default=None)
    p.add_argument("--alpha", type=str, default=None, help="row margin, e.g. 2,1")
    p.add_argument("--beta", type=str, default=None, help="column margin, e.g. 2,1")
    p.set_defaults(handler=_cmd_enumerate)

    p = sub.add_parser("poset", help="export the contraction poset")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=("json", "dot"), default="json")
    p.set_defaults(handler=_cmd_poset)

    p = sub.add_parser("sphericity", help="verify lower intervals are spheres")
    p.add_argument("--n", type=int, required=True)
    p.add_argument(
        "--jobs", type=int, default=1, help="accepted and ignored; the run is serial"
    )
    p.add_argument("--full", action="store_true", help="include per-cell reports")
    p.set_defaults(handler=_cmd_sphericity)

    p = sub.add_parser("f-vector", help="stochastihedron cell census")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(handler=_cmd_f_vector)

    p = sub.add_parser("metamatrix", help="the matrix of census counts")
    p.add_argument("--n", type=int, required=True)
    p.add_argument(
        "--method",
        choices=("inclusion_exclusion", "enumeration"),
        default="inclusion_exclusion",
    )
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(handler=_cmd_metamatrix)

    p = sub.add_parser("verify-identities", help="all meta-matrix identities")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(handler=_cmd_verify_identities)

    p = sub.add_parser("total-positivity", help="total positivity of the meta-matrix")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(handler=_cmd_total_positivity)

    p = sub.add_parser("classify", help="classify a point configuration")
    p.add_argument("--input", type=str, required=True)
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("anodyne-classes", help="anodyne equivalence classes")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--kind", choices=tuple(ANODYNE_KINDS), default="both")
    p.add_argument("--full", action="store_true", help="include the classes")
    p.set_defaults(handler=_cmd_anodyne_classes)

    p = sub.add_parser("meet-join", help="label-pair meet and anodyne join checks")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(handler=_cmd_meet_join)

    p = sub.add_parser("sheaf-check", help="constructibility of a representation")
    p.add_argument("--input", type=str, required=True)
    p.add_argument("--strat", choices=STRATIFICATIONS, default="complex")
    p.set_defaults(handler=_cmd_sheaf_check)

    p = sub.add_parser("constant-sheaf", help="emit a constant representation")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--dim", type=int, required=True)
    p.set_defaults(handler=_cmd_constant_sheaf)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    parameters = {
        key: value
        for key, value in vars(args).items()
        if key not in ("handler", "command", "stable") and value is not None
    }
    started = time.monotonic()
    try:
        passed, details = args.handler(args)
    except CapacityError as exc:
        print(f"capacity exceeded: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except (DomainError, StructuralError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    report = {
        "command": args.command,
        "parameters": parameters,
        "pass": passed,
        "details": details,
    }
    if not args.stable:
        # keys are sorted, so the clock is read once "details" is written
        report["elapsed_ms"] = lambda: int((time.monotonic() - started) * 1000)
    try:
        write_json(report, sys.stdout.write)
        sys.stdout.write("\n")
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone: what is still buffered goes to devnull at exit
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_PIPE
    return EXIT_PASS if passed else EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
