"""Command-line front end; JSON for scalar reports, CSV for tables.

Each command imports the ecss modules it uses when it runs, so a job loads
only its own subcommand's modules.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import os
import sys

from .errors import ScaleGuardError, ValidationError, validate_int

VERSION = 1

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_SCALE_GUARD = 3
EXIT_IO = 4

MAX_CHECK_SAMPLES = 10**7  # expsum-check --samples draws, one int64 each
CHUNK_ROWS = 4096  # gen and expsum-check rows formatted by one % and written at once


@contextlib.contextmanager
def _output(path: str | None):
    """The text stream for --output: standard output for None or '-', else the file."""
    if path is None or path == "-":
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8") as handle:
            yield handle


def _emit_json(payload: dict, path: str | None) -> None:
    text = json.dumps({"version": VERSION, **payload}) + "\n"  # first, so a failure leaves no empty file
    with _output(path) as handle:
        handle.write(text)


def _write_table(path: str | None, header: list[str] | None, row: str, table) -> None:
    """Write each row of a 2-D array through the % format row, one % and one write per CHUNK_ROWS rows.

    A header comes first, after the version comment, in the csv.writer layout; None writes neither.
    """
    with _output(path) as handle:
        if header is not None:
            handle.write(f"# version={VERSION}\n" + ",".join(header) + "\r\n")
        for start in range(0, len(table), CHUNK_ROWS):
            chunk = table[start : start + CHUNK_ROWS]
            handle.write((row * len(chunk)) % tuple(chunk.ravel().tolist()))


def _parse_bits(text: str) -> tuple[int, ...]:
    if not text or any(ch not in "01" for ch in text):
        raise ValidationError(f"bit string must be nonempty 0/1 characters, got {text!r}")
    return tuple(int(ch) for ch in text)


def _cmd_gen(args) -> None:
    import numpy as np

    from . import curve, experiments, generator, gf2

    if args.n < 1:
        raise ValidationError("--n must be >= 1")
    params = curve.parse_curve(args.curve)
    poly = gf2.BinaryPoly.from_hex(args.poly)
    init = _parse_bits(args.init) if args.init is not None else gf2.default_init(poly.degree)
    source = gf2.LfsrSource(poly, init)
    if args.weights is not None:
        points = (curve.parse_point(part) for part in args.weights.split(";") if part.strip())
        weights = tuple(points)
    else:
        weights = experiments.sample_weight_vectors(params, poly.degree, 1, args.seed)[0]
    config = generator.GeneratorConfig(source=source, weights=weights, curve=params)
    values = generator.output_normalized(config, args.n)
    if args.s is None:
        _write_table(args.output, None, "%.17g\n", values[:, None])
    else:
        window = generator.s_tuples(values, args.s)
        table = np.column_stack((np.arange(1, window.n + 1), window.rows))  # %d renders the float n exactly
        _write_table(args.output, ["n"] + [f"c{i}" for i in range(args.s)],
                     "%d" + ",%.17g" * args.s + "\r\n", table)  # the csv.writer layout


def _cmd_curve_info(args) -> None:
    from . import curve

    params = curve.parse_curve(args.curve)
    order = len(curve.point_table(params))  # raises unless the order meets the Hasse bound
    _emit_json(
        {"p": params.p, "a": params.a, "b": params.b, "order": order, "hasse_ok": True},
        args.output,
    )


def _cmd_lfsr_info(args) -> None:
    from . import gf2

    poly = gf2.BinaryPoly.from_hex(args.poly)
    init = _parse_bits(args.init) if args.init is not None else gf2.default_init(poly.degree)
    period = gf2.sequence_period(poly, init)  # degree-guarded, so before the slower irreducibility test
    _emit_json(
        {
            "poly": poly.to_hex(),
            "degree": poly.degree,
            "irreducible": gf2.poly_is_irreducible(poly),
            "period": period,
            "max_period": period == 2**poly.degree - 1,
            "windows_distinct": True,  # the period walk's return to the start certifies it
        },
        args.output,
    )


def _read_points(path: str):
    """The PointSet of a point CSV file, or of standard input for '-'."""
    import csv

    from .discrepancy import PointSet

    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
    except UnicodeDecodeError as exc:
        raise ValidationError(f"point input is not UTF-8 text: {exc}") from exc
    rows = []
    header: list[str] | None = None
    for record in csv.reader(line for line in text.splitlines() if line and not line.startswith("#")):
        try:
            rows.append([float(v) for v in record])
        except ValueError:
            if header is None and not rows:
                header = [name.strip() for name in record]
            else:
                raise ValidationError(f"non-numeric row in point input: {record!r}")
    if header is not None and rows and len(header) != len(rows[0]):
        raise ValidationError(f"point input header has {len(header)} columns but its rows have {len(rows[0])}")
    if header and header[0] == "n":
        if len(header) == 1:
            raise ValidationError("point input has no coordinate columns besides the n index")
        rows = [row[1:] for row in rows]
    return PointSet(rows)


def _cmd_disc(args) -> None:
    from . import discrepancy

    points = _read_points(args.input)
    s = points.s
    if args.method == "exact":
        if s > 3:
            raise ValidationError("exact discrepancy supports s <= 3; use --method mc")
        report = discrepancy.exact_extreme_1d(points) if s == 1 else discrepancy.exact_extreme_multi(points, s)
    else:
        trials = discrepancy.DEFAULT_MC_TRIALS if args.trials is None else args.trials
        report = discrepancy.mc_box_lower_bound(points, trials, args.seed)
    _emit_json({"n": report.n, "s": report.s, "value": report.value, "method": report.method}, args.output)


def _cmd_bounds(args) -> None:
    from . import discrepancy

    inputs = discrepancy.BoundInputs(n=args.n, p=args.p, r=args.r, tau=args.tau,
                                     delta=args.delta, s=args.s)
    payload = {
        **dataclasses.asdict(inputs),  # n, p, r, tau, delta, s
        "bound_1d": discrepancy.discrepancy_bound_1d(inputs),
        "elmahassni": discrepancy.elmahassni_bound(inputs),
        "bound_multi": discrepancy.discrepancy_bound_multi(inputs) if args.s and args.s >= 2 else None,
        "gamma": discrepancy.nontrivial_exponent(args.s) if args.s else None,
        "note": "bare expressions with implied constant 1 and natural logs; "
                "cross-bound comparisons are order-of-magnitude only",
    }
    _emit_json(payload, args.output)


def _cmd_badpairs(args) -> None:
    from . import combinat

    if args.h is not None:
        combinat.validate_pattern(args.s, args.h)
    tally = combinat.bad_pair_count(args.r, args.s)  # validates r and s first
    try:
        bound = combinat.bad_pair_upper_bound(args.r, args.s)
    except ValidationError:  # the float overflows past r = 520-650; f and per_h stay exact
        bound = None
    per_h = list(tally.per_h) if args.h is None else [tally.per_h[args.h - 1]]
    _emit_json(
        {
            "r": args.r,
            "s": args.s,
            "f": tally.f,
            "bound": bound,
            "per_h": per_h,
        },
        args.output,
    )


def _cmd_beta(args) -> None:
    from . import combinat

    radii = combinat.pattern_radii(args.s, args.tolerance)
    _emit_json(
        {
            "s": args.s,
            "beta": max(radii),
            "alpha": combinat.alpha(args.s),
            "dominant_h": list(combinat.dominant_patterns(radii)),
        },
        args.output,
    )


def _cmd_expsum_check(args) -> None:
    import numpy as np

    from . import curve, expsum

    params = curve.parse_curve(args.curve)
    shift = curve.parse_point(args.c) if args.c is not None else curve.INFINITY
    # Before the argument checks, so the enumeration cap is still reported first.  The table goes inline,
    # so nothing holds it through the FFT, and by keyword, as perfbench's tracer reads it.
    sums = expsum.curve_char_sums_all(params, points=curve.point_table(params))
    p = params.p
    if args.all_a:
        a_values, index = np.arange(1, p), slice(1, p)
    elif args.samples < 1:
        raise ValidationError("--samples must be >= 1")
    elif args.samples > MAX_CHECK_SAMPLES:
        raise ScaleGuardError(f"--samples {args.samples} exceeds {MAX_CHECK_SAMPLES} draws")
    else:
        rng = np.random.default_rng(validate_int(args.seed, "seed", 0))
        a_values = index = np.unique(rng.integers(1, p, size=args.samples))
    if not curve.is_on_curve(shift, params):
        raise ValidationError("shift point must lie on the curve")
    sums = sums[index]
    # hypot is the modulus abs() of a Python complex returns; np.abs rounds some differently in the last place.
    magnitudes = np.hypot(sums.real, sums.imag)
    sqrt_p = math.sqrt(p)
    row = f"{p},%d,%.12g,{sqrt_p:.12g},%.12g\r\n"  # the csv.writer layout, constants rendered once
    table = np.column_stack((a_values, magnitudes, magnitudes / sqrt_p))  # %d renders the float a exactly
    _write_table(args.output, ["p", "a", "abs_sum", "sqrt_p", "ratio"], row, table)


def _cmd_experiment(args) -> None:
    import numpy as np

    from . import curve, experiments, gf2

    with open(args.config, "r", encoding="utf-8") as handle:
        try:
            raw = json.load(handle)
        except ValueError as exc:
            raise ValidationError(f"experiment config is not valid JSON: {exc}") from exc
    try:
        params = curve.CurveParams(raw["curve"]["p"], raw["curve"]["a"], raw["curve"]["b"])
        config = experiments.ExperimentConfig(
            curve=params,
            poly=gf2.BinaryPoly.from_hex(raw["poly_hex"]),
            r=raw["r"],
            s=raw["s"],
            n_grid=tuple(raw["n_grid"]),
            samples=raw["samples"],
            delta=raw["delta"],
            seed=raw["seed"] if args.seed is None else args.seed,
        )
    except KeyError as exc:
        raise ValidationError(f"experiment config is missing field {exc}")
    except TypeError as exc:
        raise ValidationError(f"experiment config has a field of the wrong type: {exc}") from exc
    rows = experiments.discrepancy_sweep(config)
    table = np.array([[row.n, row.mean, row.median, row.q90, row.thm_bound, row.elma_bound] for row in rows])
    _write_table(args.output, ["N", "mean", "median", "q90", "thm_bound", "elma_bound"],
                 "%d" + ",%.12g" * 5 + "\r\n", table)  # %d renders the float N exactly


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ecss", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="emit normalised generator output")
    gen.add_argument("--curve", required=True, help="curve as 'p,a,b'")
    gen.add_argument("--poly", required=True, help="characteristic polynomial as a hex mask")
    gen.add_argument("--init", help="initial register window as a bit string, e.g. '10'")
    gen.add_argument("--weights", help="semicolon-separated points 'x,y' or 'inf'")
    gen.add_argument("--n", type=int, required=True, help="number of sequence values")
    gen.add_argument("--s", type=int, help="emit overlapping s-tuples as CSV instead")
    gen.add_argument("--seed", type=int, default=0, help="seed for sampled weights")
    gen.set_defaults(func=_cmd_gen)

    info = sub.add_parser("curve-info", help="order and Hasse check of a curve")
    info.add_argument("--curve", required=True)
    info.set_defaults(func=_cmd_curve_info)

    lfsr = sub.add_parser("lfsr-info", help="irreducibility, period and window report")
    lfsr.add_argument("--poly", required=True)
    lfsr.add_argument("--init")
    lfsr.set_defaults(func=_cmd_lfsr_info)

    disc = sub.add_parser("disc", help="discrepancy of a CSV point set")
    disc.add_argument("--input", default="-", help="CSV path, '-' for stdin")
    disc.add_argument("--method", choices=["exact", "mc"], default="exact")
    disc.add_argument("--trials", type=int)  # None: discrepancy.DEFAULT_MC_TRIALS
    disc.add_argument("--seed", type=int, default=0)
    disc.set_defaults(func=_cmd_disc)

    bounds = sub.add_parser("bounds", help="evaluate the closed-form bound expressions")
    bounds.add_argument("--n", type=int, required=True)
    bounds.add_argument("--p", type=int, required=True)
    bounds.add_argument("--r", type=int, required=True)
    bounds.add_argument("--tau", type=int, required=True)
    bounds.add_argument("--delta", type=float, default=1.0)
    bounds.add_argument("--s", type=int)
    bounds.set_defaults(func=_cmd_bounds)

    bad = sub.add_parser("badpairs", help="exact bad-pair counts from a flag automaton")
    bad.add_argument("--r", type=int, required=True)
    bad.add_argument("--s", type=int, required=True)
    bad.add_argument("--h", type=int)
    bad.set_defaults(func=_cmd_badpairs)

    beta = sub.add_parser("beta", help="observed bad-pair growth base via power iteration")
    beta.add_argument("--s", type=int, required=True)
    beta.add_argument("--tolerance", type=float, default=1e-9)
    beta.set_defaults(func=_cmd_beta)

    check = sub.add_parser("expsum-check", help="curve character-sum magnitudes as CSV")
    check.add_argument("--curve", required=True)
    check.add_argument("--c", help="shift point 'x,y' or 'inf'; validated, and the sums do not depend on it")
    group = check.add_mutually_exclusive_group()
    group.add_argument("--all-a", action="store_true", help="sweep every a in 1..p-1")
    group.add_argument("--samples", type=int, default=20)
    check.add_argument("--seed", type=int, default=0)
    check.set_defaults(func=_cmd_expsum_check)

    exp = sub.add_parser("experiment", help="average-case discrepancy sweep from a JSON config")
    exp.add_argument("--config", required=True)
    exp.add_argument("--seed", type=int, help="override the config seed")
    exp.set_defaults(func=_cmd_experiment)

    for command in sub.choices.values():  # last, as every subcommand's final argument
        command.add_argument("--output", help="output path (default stdout)")
    return parser


def _exit_watched() -> bool:
    """True when something runs after the command: a tracer or a profiler (coverage, cProfile, pdb),
    a sys.monitoring tool (Python >= 3.12) or the -i prompt."""
    if sys.flags.inspect or sys.gettrace() is not None or sys.getprofile() is not None:
        return True
    monitoring = getattr(sys, "monitoring", None)
    return monitoring is not None and any(monitoring.get_tool(tool) is not None for tool in range(6))


def main(argv=None) -> int:
    """Run one command and return its exit code; called with no argv, as the program, end the process.

    The program flushes its output and leaves by os._exit, skipping the interpreter's teardown of
    every module, numpy's included, unless something waits for the exit (_exit_watched).
    """
    args = build_parser().parse_args(argv)
    code = EXIT_OK
    try:
        args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = EXIT_VALIDATION
    except ScaleGuardError as exc:
        print(f"scale guard: {exc}", file=sys.stderr)
        code = EXIT_SCALE_GUARD
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        code = EXIT_IO
    if argv is not None or _exit_watched():
        return code
    try:
        sys.stdout.flush()
    except OSError as exc:  # a closed pipe or a full disk
        if code != EXIT_IO:  # else an i/o error, most often this one, is already reported
            print(f"i/o error: {exc}", file=sys.stderr)
        code = EXIT_IO
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    sys.exit(main())
