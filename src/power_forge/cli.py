"""Command-line front end.

Subcommands:

* ``construct``  build f for a set of perfect powers, emit artifacts JSON
* ``verify``     exhaustively scan a construction (or stored artifacts)
* ``trace``      integer bookkeeping and invariant checks at one point
* ``oracle``     bounded equation searches and power scans
* ``power``      decompose one value as a perfect power

JSON goes to stdout (or ``--out``); one human summary line goes to the
other stream.  Exit codes: 0 success / PASS, 1 FAIL (failed verdict,
failed invariant, expectation mismatch, or a non-power answer from
``power``), 2 bad input and nothing else (a usage error, a
``ValidationError`` or ``CapacityError``, or an ``OSError`` on a named
file), 3 an internal fault (any other exception, a stray ``ValueError``
or ``ZeroDivisionError`` included, such as a build that fails its
certificate).  A usage error leaves argparse's usage text and message
on stderr; other bad input and internal faults are reported as a JSON
error object on stderr, with code "validation", "capacity" or
"internal", and an internal one also carries the traceback.

Worker counts default to the POWER_FORGE_WORKERS environment variable.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction
from functools import cache
from typing import Optional, Sequence

from . import jsonio, oracles
from .construct import (_MAX_F_BITS, VARIANTS, PowerSetInput, SelectionPolicy, construct,
                        text_bits)
from .errors import CapacityError, ValidationError
from .powers import decompose_rational_power
from .verify import trace_quantities, verify_construction

PROG = "power-forge"

# each worker is a process, all forked when the pool starts; this is past the
# cores of any one machine, so a larger count is a mistake, refused unforked
_MAX_WORKERS = 256

# no construction document within the bound on f is larger: f, g and h hold
# 2 deg f + 3 coefficients, each below 2**w for the w >= 6 bits per coefficient
# of that bound, and one takes at most 10 + 0.31 w < 2w bytes as indented JSON,
# so they take under 5 _MAX_F_BITS bytes; the other fields far fewer
_MAX_DOCUMENT_BYTES = 8 * _MAX_F_BITS


def _parse_set(text: str) -> list[Fraction]:
    text = text.strip()
    if not text:
        return []
    return [jsonio.parse_rational(part) for part in text.split(",")]


def _resolve_workers(value: Optional[int]) -> int:
    if value is None:
        raw = os.environ.get("POWER_FORGE_WORKERS", "1")
        try:
            value = int(raw)
        except ValueError:
            raise ValidationError(
                f"POWER_FORGE_WORKERS must be an integer, got {raw!r}"
            ) from None
    if value < 1:
        raise ValidationError(f"workers must be >= 1, got {value}")
    if value > _MAX_WORKERS:
        raise ValidationError(f"workers must be <= {_MAX_WORKERS}, got {value}")
    return value


def _emit(document: dict, out: Optional[str]) -> bool:
    """Write the JSON document; True if stdout was used."""
    text = jsonio.dumps(document)
    if out:
        with open(out, "w", encoding="ascii") as fh:
            fh.write(text)
        return False
    sys.stdout.write(text)
    return True


def _summary(line: str, used_stdout: bool) -> None:
    print(line, file=sys.stderr if used_stdout else sys.stdout)


def _add_workers(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--workers",
        type=int,
        default=None,
        help="parallel worker processes (default: POWER_FORGE_WORKERS or 1)",
    )


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by later calls.

    Nothing mutates it once built, and argparse makes a fresh formatter
    for each help or usage text, so every ``main`` call in a process
    parses as a new parser would.  Importing this module builds nothing.
    """
    parser = argparse.ArgumentParser(
        prog=PROG,
        description="construct integer polynomials whose perfect-power values "
        "are exactly a chosen finite set; verify, trace, and search",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("construct", help="build f for a set of perfect powers")
    pc.add_argument("--set", required=True, metavar="VALUES",
                    help='comma-separated perfect powers, e.g. "9/25,4"; "" for the empty set')
    pc.add_argument("--variant", choices=VARIANTS, default="rational")
    pc.add_argument("--t-max", type=int, default=64,
                    help="scan depth for capacity estimates (default 64)")
    pc.add_argument("--kappa-cap", type=int, default=20,
                    help="largest kappa tried for the offset 2**kappa - 1 (default 20)")
    pc.add_argument("--out", metavar="FILE", help="write artifacts JSON here instead of stdout")

    pv = sub.add_parser("verify", help="exhaustive bounded scan of a construction")
    src = pv.add_mutually_exclusive_group(required=True)
    src.add_argument("--set", metavar="VALUES", help="construct inline from this set")
    src.add_argument("--artifacts", "--artifact", metavar="FILE",
                     help="load artifacts JSON from construct")
    pv.add_argument("--variant", choices=VARIANTS, default="rational",
                    help="used with --set; --artifacts carries its own variant")
    pv.add_argument("--height", type=int, help="height bound for the rational scan")
    pv.add_argument("--bound", type=int, help="absolute-value bound for the integer scan")
    pv.add_argument("--progress", action="store_true", help="progress lines on stderr")
    _add_workers(pv)

    pt = sub.add_parser("trace", help="integer bookkeeping at one rational point")
    pt.add_argument("--set", required=True, metavar="VALUES")
    pt.add_argument("--x", required=True, help="the rational point, e.g. 1/2")
    pt.add_argument("--k", type=int, default=None,
                    help="override the exponent (must be a positive multiple of 4)")

    po = sub.add_parser("oracle", help="bounded equation searches and power scans")
    osub = po.add_subparsers(dest="oracle", required=True)

    ol = osub.add_parser("lebesgue", help="X^2 + 1 = Y^n inside a box")
    ol.add_argument("--bound", "--x", type=int, default=10_000, help="|X| cap (default 10000)")
    ol.add_argument("--n-max", "--n", type=int, default=20, help="largest exponent (default 20)")
    ol.add_argument("--expect", choices=("paper",),
                    help="compare against the known full solution set")
    _add_workers(ol)

    oc = osub.add_parser("catalan", help="X^m - Y^n = 1 inside a box")
    oc.add_argument("--base-bound", "--base", type=int, default=100,
                    help="largest base (default 100)")
    oc.add_argument("--exp-bound", "--exp", type=int, default=20,
                    help="largest exponent (default 20)")
    oc.add_argument("--expect", choices=("paper",),
                    help="compare against the known full solution set")

    of = osub.add_parser("fermat", help="quartic variants inside a box")
    of.add_argument("--bound", type=int, default=150, help="|A|, |B| cap (default 150)")
    of.add_argument("--n-max", "--n", type=int, default=8, help="largest exponent (default 8)")
    of.add_argument("--variant", choices=oracles.FERMAT_VARIANTS, default="cn")
    of.add_argument("--expect", choices=("paper",),
                    help="compare against the known full solution set")
    _add_workers(of)

    orc = osub.add_parser("recurrence", help="perfect powers in a*alpha^t + b*beta^t")
    orc.add_argument("--a", required=True, help="coefficient a (rational)")
    orc.add_argument("--b", required=True, help="coefficient b (rational)")
    orc.add_argument("--alpha", required=True, help="root alpha (rational)")
    orc.add_argument("--beta", required=True, help="root beta (rational)")
    orc.add_argument("--t-max", type=int, default=64)

    og = osub.add_parser("gamma", help="perfect powers among gamma - 2^t")
    og.add_argument("--gamma", required=True, help="the scanned value (rational, nonzero)")
    og.add_argument("--t-max", type=int, default=64)

    pp = sub.add_parser("power", help="decompose one value as a perfect power")
    pp.add_argument("value", help="integer or fraction, e.g. 64 or -8/27")

    return parser


def _cmd_construct(args: argparse.Namespace) -> int:
    inp = PowerSetInput.from_values(_parse_set(args.set), variant=args.variant)
    policy = SelectionPolicy(t_max=args.t_max, kappa_cap=args.kappa_cap)
    art = construct(inp, policy)
    doc = jsonio.artifacts_to_json(art)
    used_stdout = _emit(doc, args.out)
    kappa = "-" if art.kappa is None else art.kappa
    _summary(
        f"constructed variant={inp.variant} |S|={len(inp)} k={art.k} kappa={kappa} "
        f"s={art.s} deg={doc['degree']} coeff_bits<={text_bits(doc['f'])}",
        used_stdout,
    )
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    workers = _resolve_workers(args.workers)
    if args.artifacts:
        import json

        with open(args.artifacts, "r", encoding="ascii") as fh:
            size = os.fstat(fh.fileno()).st_size
            if size > _MAX_DOCUMENT_BYTES:
                raise ValidationError(f"{args.artifacts} holds {size:,} bytes, over the "
                                      f"{_MAX_DOCUMENT_BYTES:,} of any construction document "
                                      f"within the bound on f")
            try:
                doc = json.load(fh)
            except ValueError as exc:  # not JSON, or not ASCII
                raise ValidationError(str(exc)) from exc
        art = jsonio.artifacts_from_json(doc)
    else:
        inp = PowerSetInput.from_values(_parse_set(args.set), variant=args.variant)
        art = construct(inp)
    variant = art.input.variant
    if variant == "rational":
        if args.height is None or args.bound is not None:
            raise ValidationError("rational scans take --height (and not --bound)")
        window = args.height
    else:
        if args.bound is None or args.height is not None:
            raise ValidationError("integer scans take --bound (and not --height)")
        window = args.bound
    report = verify_construction(art, window, workers=workers, progress=args.progress)
    used_stdout = _emit(jsonio.report_to_json(report), None)
    _summary(
        f"{report.verdict} points={report.points_scanned} hits={len(report.hits)} "
        f"extras={len(report.extras)} missing={len(report.missing)}",
        used_stdout,
    )
    return 0 if report.passed else 1


def _cmd_trace(args: argparse.Namespace) -> int:
    inp = PowerSetInput.from_values(_parse_set(args.set), variant="rational")
    x = jsonio.parse_rational(args.x)
    rec = trace_quantities(inp.pairs, x, args.k)
    used_stdout = _emit(jsonio.trace_to_json(rec), None)
    at = jsonio.rational_text(x)
    if rec.ok:
        _summary(f"trace ok at x={at}", used_stdout)
        return 0
    _summary(f"trace FAILED at x={at}: {', '.join(rec.failed_checks())}", used_stdout)
    return 1


def _expectation_gate(sol, expected) -> int:
    got, want = set(sol.solutions), set(expected)
    if got == want:
        print("expectation: match", file=sys.stderr)
        return 0
    only_got = sorted(got - want)
    only_want = sorted(want - got)
    print(
        f"expectation: MISMATCH (unexpected={only_got}, absent={only_want})",
        file=sys.stderr,
    )
    return 1


# searches: oracle -> (search, expected solution set), both functions of args;
# only these read POWER_FORGE_WORKERS, and only where there is --workers
_SEARCHES = {
    "lebesgue": (
        lambda a: oracles.search_lebesgue(a.bound, a.n_max, workers=_resolve_workers(a.workers)),
        lambda a: oracles.lebesgue_expected(a.bound, a.n_max),
    ),
    "catalan": (
        lambda a: oracles.search_catalan(a.base_bound, a.exp_bound),
        lambda a: oracles.catalan_expected(a.base_bound, a.exp_bound),
    ),
    "fermat": (
        lambda a: oracles.search_fermat_quartic(
            a.bound, a.n_max, variant=a.variant, workers=_resolve_workers(a.workers)
        ),
        lambda a: oracles.fermat_quartic_expected(a.bound, a.n_max, variant=a.variant),
    ),
}

# power scans: oracle -> (sequence label, rational parameters in order, scan);
# every function is looked up in oracles at call time, as a tracer that
# rebinds module attributes (bench/layers.py) expects
_SCANS = {
    "recurrence": (
        "a*alpha^t + b*beta^t",
        ("a", "b", "alpha", "beta"),
        lambda *p: oracles.scan_recurrence_powers(*p),
    ),
    "gamma": ("gamma - 2^t", ("gamma",), lambda *p: oracles.scan_gamma_minus_pow2(*p)),
}


def _cmd_oracle(args: argparse.Namespace) -> int:
    if args.oracle in _SEARCHES:
        search, expected = _SEARCHES[args.oracle]
        sol = search(args)
        used_stdout = _emit(jsonio.solutions_to_json(sol), None)
        _summary(f"{sol.equation}: {len(sol.solutions)} solutions in box", used_stdout)
        return _expectation_gate(sol, expected(args)) if args.expect else 0
    sequence, names, scan = _SCANS[args.oracle]
    params = {name: getattr(args, name) for name in names}
    hits = scan(*[jsonio.parse_rational(text) for text in params.values()], args.t_max)
    params["t_max"] = args.t_max
    used_stdout = _emit(jsonio.power_hits_to_json(hits, sequence, params), None)
    _summary(f"{len(hits)} perfect powers among t <= {args.t_max}", used_stdout)
    return 0


def _cmd_power(args: argparse.Namespace) -> int:
    value = jsonio.parse_rational(args.value)
    dec = decompose_rational_power(value)
    _emit(jsonio.power_query_to_json(value, dec), None)
    return 0 if dec is not None else 1


_DISPATCH = {
    "construct": _cmd_construct,
    "verify": _cmd_verify,
    "trace": _cmd_trace,
    "oracle": _cmd_oracle,
    "power": _cmd_power,
}


# options whose value is rational and so may start with a minus sign
_SIGNED_VALUE_OPTIONS = frozenset(("--set", "--gamma", "--x", "--a", "--b", "--alpha", "--beta"))


def _positional_guard(argv: list[str]) -> list[str]:
    """Keep values that start with a minus sign from reading as option flags.

    ``--set -1/8,4/25`` becomes ``--set=-1/8,4/25``, and ``power -8/27``
    gets a "--" before its value.
    """
    if argv and argv[0] == "power" and "--" not in argv:
        for i, tok in enumerate(argv[1:], 1):
            if tok.startswith("-") and tok not in ("-h", "--help"):
                return argv[:i] + ["--"] + argv[i:]
    joined: list[str] = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok == "--":
            return joined + argv[i:]
        if tok in _SIGNED_VALUE_OPTIONS and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            joined.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            joined.append(tok)
            i += 1
    return joined


def _refuse_missing_values(args: argparse.Namespace) -> None:
    """Python 3.11's argparse reads ``--opt=--`` as the value [], not as a string."""
    for dest, value in vars(args).items():
        if isinstance(value, list):
            raise ValidationError(f"--{dest.replace('_', '-')} needs a value")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    tokens = _positional_guard(list(sys.argv[1:] if argv is None else argv))
    try:
        args = parser.parse_args(tokens)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _refuse_missing_values(args)
        return _DISPATCH[args.command](args)
    except (ValidationError, CapacityError, OSError) as exc:
        code = "capacity" if isinstance(exc, CapacityError) else "validation"
        sys.stderr.write(jsonio.dumps(jsonio.error_to_json(str(exc), code)))
        return 2
    except Exception as exc:
        # a bug, not bad input: report it with its traceback, never as exit 2
        import traceback  # only here, to keep it out of every command's start-up

        document = jsonio.error_to_json(f"{type(exc).__name__}: {exc}", "internal")
        document["error"]["traceback"] = "".join(traceback.format_exception(exc))
        sys.stderr.write(jsonio.dumps(document))
        return 3


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
