"""Command-line front end: construct -> check -> trace -> frame-test.

Exit codes: 0 all pass, 1 any fail (a broken paper equation included), 2 any
uncertain/inconclusive; parse errors and broken structural premises of a
family file also exit 2 after printing the location or the premise.
The one random draw, the points of `trace --grid auto`, is seeded
(`trace.GRID_SEED`); outputs are canonical JSON / CSV, so reruns with the
same inputs are byte-identical.

`main` may be called many times in one process. It parses through one
parser, built on first use (not at import), and picks the subcommand's
handler by name at each call, so a handler rebound on this module after the
first call is the one that runs.
"""

from __future__ import annotations

import argparse
import functools
import math
import re
import sys
from fractions import Fraction
from pathlib import Path

from . import __version__
from .construction import (SpectralSpec, build_family,
                           classify_waveletset_seed, example_by_name,
                           waveletset_sigma, ClosureDidNotStabilize)
from .intervals import union_all
from .rationals import TooManyDigits, parse_int
from .sequences import Sequence
from .serialize import (ParseError, digest_of, dumps_canonical,
                        family_from_jsonable, family_to_jsonable,
                        loads_json, pwl_from_jsonable, sets_from_jsonable)
from .trace import _nonempty_hull, diagonal_traces
from .verification import (SUITES, VerificationReport, check_suites,
                           check_wavelet_set_tiling, family_grid)


def _write(path: str, text: str) -> None:
    Path(path).write_text(text, encoding="utf-8")


def _load_family(path: str):
    obj = loads_json(Path(path).read_text(encoding="utf-8"), path)
    return family_from_jsonable(obj)


def _exit_code(status: str) -> int:
    return {"pass": 0, "fail": 1}.get(status, 2)


def _parse_option(option: str, parse, text: str):
    """parse(text) for a string option; an integer in the text past the
    digit limit is reported under the option's name."""
    try:
        return parse(text)
    except TooManyDigits as e:
        raise ValueError(f"{option}: {e}") from None


def cmd_construct(args) -> int:
    if args.example is not None:
        spec = _parse_option("--example", example_by_name, args.example)
        if args.a is not None:
            spec = SpectralSpec(spec.sigma, args.a)
        source = {"example": args.example, "dilation": spec.dilation}
    else:
        obj = loads_json(Path(args.sigma).read_text(encoding="utf-8"), args.sigma)
        if isinstance(obj, dict) and "sigma" in obj:
            sigma = pwl_from_jsonable(obj["sigma"], "sigma")
            dilation = args.a if args.a is not None else obj.get("dilation", 2)
        else:
            sigma = pwl_from_jsonable(obj, "sigma")
            dilation = args.a if args.a is not None else 2
        if isinstance(dilation, bool) or not isinstance(dilation, int):
            raise ParseError("dilation: expected an integer")
        spec = SpectralSpec(sigma, dilation)
        source = {"sigma_file": obj, "dilation": dilation}
    scaling, wavelets = build_family(spec, partition=args.partition)
    payload = family_to_jsonable(scaling, wavelets, digest_of(source))
    _write(args.out, dumps_canonical(payload))
    print(f"family with {len(wavelets.profiles)} wavelet profile(s) and "
          f"{len(scaling.profiles)} scaling window(s) -> {args.out}")
    return 0


def cmd_check(args) -> int:
    scaling, wavelets = _load_family(args.family)
    names = list(dict.fromkeys(s.strip() for s in args.suite.split(",") if s.strip()))
    if not names:
        print(f"check: no suite given (choose from {','.join(SUITES)})",
              file=sys.stderr)
        return 2
    for n in names:
        if n not in SUITES:
            print(f"check: unknown suite {n!r} (choose from {','.join(SUITES)})",
                  file=sys.stderr)
            return 2
    reports = check_suites(scaling, wavelets, names)
    report = VerificationReport()
    for n in names:
        report.merge(reports[n], f"{n}:")
    payload = report.to_jsonable()
    payload["suite"] = names
    if args.out:
        _write(args.out, dumps_canonical(payload))
    print(f"check: {report.status} ({len(report.checks)} checks)")
    return _exit_code(report.status)


def cmd_check_waveletset(args) -> int:
    obj = loads_json(Path(args.E).read_text(encoding="utf-8"), args.E)
    sets = sets_from_jsonable(obj)
    report = check_wavelet_set_tiling(sets, args.a)
    if args.out:
        _write(args.out, dumps_canonical(report.to_jsonable()))
    print(f"check-waveletset: {report.status}")
    return _exit_code(report.status)


def cmd_waveletset(args) -> int:
    obj = loads_json(Path(args.E).read_text(encoding="utf-8"), args.E)
    sets = sets_from_jsonable(obj)
    union = union_all(sets)
    if args.classify:
        cls = classify_waveletset_seed(union, args.a)
        print(f"{cls.verdict}: {cls.reason}")
        return 0 if cls.verdict != "not_admissible" else 1
    try:
        sigma = waveletset_sigma(union, args.a)
    except ClosureDidNotStabilize as e:
        print(f"waveletset: {e}", file=sys.stderr)
        return 1
    spec = SpectralSpec(sigma, args.a)
    scaling, wavelets = build_family(spec)
    if args.out:
        payload = family_to_jsonable(scaling, wavelets,
                                     digest_of({"E": [list(map(str, p)) for s in sets for p in s.pieces],
                                                "dilation": args.a}))
        _write(args.out, dumps_canonical(payload))
    print(f"wavelet-set family with {len(wavelets.profiles)} profile(s)"
          + (f" -> {args.out}" if args.out else ""))
    return 0


def _even_grid(hull, n: int) -> list:
    """The n points lo + (hi - lo) i / n, 0 <= i < n, of the hull (of [-1, 1)
    when it is empty), each one integer over the denominator of the first."""
    lo, hi = _nonempty_hull(hull)
    den = lo.denominator * hi.denominator * n
    start = lo.numerator * hi.denominator * n
    step = hi.numerator * lo.denominator - lo.numerator * hi.denominator
    return [Fraction(start + step * i, den) for i in range(n)]


def _integer(text: str) -> int:
    """argparse type of the integer options: an optional sign and ASCII
    digits, as for the indices of a sequence (int() also reads the digits of
    other scripts, '_' separators and surrounding spaces).  An integer past
    the digit limit is refused by its digit count, without its digits."""
    if not re.fullmatch(r"[+-]?[0-9]+", text):
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    try:
        return parse_int(text)
    except TooManyDigits as e:
        raise argparse.ArgumentTypeError(str(e)) from None


def _grid_option(text: str):
    """argparse type of trace --grid: "auto" or an integer."""
    return text if text == "auto" else _integer(text)


def _grid_size(n: int) -> int:
    """A --grid point count; below 1 the CSV would hold only its header."""
    if n < 1:
        raise ValueError(f"--grid must be >= 1, got {n}")
    return n


def cmd_trace(args) -> int:
    scaling, wavelets = _load_family(args.family)
    f = _parse_option("--f", Sequence.parse, args.f)
    gen = scaling.generator_set()
    if args.grid == "auto":
        grid = family_grid(gen, wavelets.generator_set())
    else:
        grid = _even_grid(gen.support_hull(), _grid_size(args.grid))
    fns = diagonal_traces(gen, f, grid)
    lines = ["xi,spectral,dim,tau_f"]
    for p, q in ((xi.numerator, xi.denominator) for xi in grid):
        # N / (scale q) rounds once, as int / int does: the float of the Fraction
        lines.append(",".join([repr(p / q)] + [repr(g._numerator(p, q) / (g.scale * q))
                                               for g in fns]))
    _write(args.out, "\n".join(lines) + "\n")
    print(f"trace: {len(grid)} rows -> {args.out}")
    return 0


def cmd_frame_test(args) -> int:
    from .frametest import TestSignal, frame_energy  # numpy loads with it, here only
    if not (math.isfinite(args.tol) and args.tol > 0):
        raise ValueError(f"--tol must be finite and > 0, got {args.tol}")
    scaling, wavelets = _load_family(args.family)
    signal = _parse_option("--signal", TestSignal.parse, args.signal)
    report = frame_energy(signal, wavelets, j_min=args.jmin, j_max=args.jmax,
                          k_tail_target=args.ktail, k_budget=args.kbudget)
    payload = report.to_jsonable()
    payload["signal"] = signal.label
    payload["tolerance"] = args.tol
    # the tail holds the exact energy of the scales outside the j range
    within = abs(report.ratio + report.tail_estimate / float(report.norm2) - 1.0) \
        <= args.tol
    payload["within_tolerance"] = within
    if args.out:
        _write(args.out, dumps_canonical(payload))
    print(f"frame-test: ratio {report.ratio:.8f} "
          f"(tail estimate {report.tail_estimate:.3g})"
          + (" [inconclusive]" if report.inconclusive else ""))
    if report.inconclusive:
        return 2
    return 0 if within else 1


def cmd_sample(args) -> int:
    scaling, wavelets = _load_family(args.family)
    grid = _even_grid(wavelets.generator_set().support_hull(), _grid_size(args.grid))
    header = ["xi"] + [f"psi_hat_{i}" for i in range(len(wavelets.profiles))] + ["sigma"]
    lines = [",".join(header)]
    for xi in grid:
        row = [repr(float(xi))]
        for psi in wavelets.profiles:
            row.append(repr(float(psi.value_sq(xi)) ** 0.5))
        row.append(repr(float(wavelets.sigma.eval(xi))))
        lines.append(",".join(row))
    _write(args.out, "\n".join(lines) + "\n")
    print(f"sample: {len(grid)} rows -> {args.out}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process and shared by every caller.
    argparse makes a fresh namespace per parse and reads the output streams
    and the terminal width only when it prints, so sharing keeps no state
    between calls."""
    p = argparse.ArgumentParser(
        prog="framesmith",
        description=(
            "Construct normalized-tight-frame wavelet families from spectral "
            "profiles (exact rational arithmetic in units of pi) and verify "
            "the characterization identities."))
    p.add_argument("--version", action="version", version=f"framesmith {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="build a family from a spectral profile")
    source = c.add_mutually_exclusive_group(required=True)
    source.add_argument("--sigma", help="JSON file: {sigma: <pwl>, dilation: a}")
    source.add_argument("--example", help="built-in: shannon | journe | pwl:a=1/2,b=1/2")
    c.add_argument("--a", type=_integer, default=None, help="integer dilation, |a| >= 2")
    c.add_argument("--partition", choices=("greedy", "windows"), default="greedy",
                   help="layer rule: greedy multiplicity peeling (default) or "
                        "fundamental-window intersection")
    c.add_argument("--out", required=True)

    k = sub.add_parser("check", help="run verification suites on a family file")
    k.add_argument("--family", required=True)
    k.add_argument("--suite", default=",".join(SUITES),
                   help=f"comma list from {','.join(SUITES)}, each run once; "
                        "decay = the split identities + outward decay, density "
                        "= the three admissibility conditions on the scaling "
                        "square sum, sufficiency = local finiteness + split + "
                        "outward decay + density's inward limit 1 + the NTF "
                        "check as a meta check")
    k.add_argument("--out")

    w = sub.add_parser("check-waveletset", help=(
        "tiling checks for wavelet sets, the dilation tiling for all xi != 0"))
    w.add_argument("--E", required=True, help="JSON interval set(s)")
    w.add_argument("--a", type=_integer, default=2)
    w.add_argument("--out")

    ws = sub.add_parser("waveletset", help=(
        "build the sigma = chi_U family, U the union of E/a^j over j >= 1 "
        "(exit 1 when U is not a finite union), or classify a seed"))
    ws.add_argument("--E", required=True, help="JSON interval set(s)")
    ws.add_argument("--a", type=_integer, default=2)
    only = ws.add_mutually_exclusive_group()
    only.add_argument("--classify", action="store_true",
                      help="treat E as the sigma-support seed and classify it "
                           "(writes no file, so not with --out)")
    only.add_argument("--out")

    t = sub.add_parser("trace", help="CSV of spectral/dimension/restricted trace")
    t.add_argument("--family", required=True)
    t.add_argument("--f", default="1@0", help='sequence, e.g. "1@0,1@1" or "i@2"')
    t.add_argument("--grid", type=_grid_option, default="auto",
                   help='"auto" or a point count')
    t.add_argument("--out", required=True)

    ft = sub.add_parser("frame-test", help="numerical Parseval energy check")
    ft.add_argument("--family", required=True)
    ft.add_argument("--signal", default="tent:[-1,1)",
                    help="tent:[lo,hi) or chi:[lo,hi)")
    ft.add_argument("--jmin", type=_integer, default=-8)
    ft.add_argument("--jmax", type=_integer, default=8)
    ft.add_argument("--tol", type=float, default=3e-3,
                    help="bound on |ratio + tail estimate/||f||^2 - 1|")
    ft.add_argument("--ktail", type=float, default=1e-6,
                    help="per-scale k-truncation target (fraction of ||f||^2)")
    ft.add_argument("--kbudget", type=_integer, default=1 << 21)
    ft.add_argument("--out")

    s = sub.add_parser("sample", help="CSV samples of the profiles for plotting")
    s.add_argument("--family", required=True)
    s.add_argument("--grid", type=_integer, default=1024)
    s.add_argument("--out", required=True)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # looked up at each call, so a rebound cmd_* is the one that runs
    handlers = {"construct": cmd_construct, "check": cmd_check,
                "check-waveletset": cmd_check_waveletset,
                "waveletset": cmd_waveletset, "trace": cmd_trace,
                "frame-test": cmd_frame_test, "sample": cmd_sample}
    try:
        return handlers[args.command](args)
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return 2
    except (ValueError, ClosureDidNotStabilize, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
