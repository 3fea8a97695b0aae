"""Command-line front end; JSON for scalar reports, CSV for tables."""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

import numpy as np

from . import combinat, curve, discrepancy, experiments, expsum, gf2, generator
from .errors import ScaleGuardError, ValidationError

VERSION = 1

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_SCALE_GUARD = 3
EXIT_IO = 4


def _write_text(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _emit_json(payload: dict, path: str | None) -> None:
    payload = {"version": VERSION, **payload}
    _write_text(json.dumps(payload) + "\n", path)


def _emit_csv(header: list[str], rows, path: str | None) -> None:
    buf = io.StringIO()
    buf.write(f"# version={VERSION}\n")
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    _write_text(buf.getvalue(), path)


def _parse_bits(text: str) -> tuple[int, ...]:
    if not text or any(ch not in "01" for ch in text):
        raise ValidationError(f"bit string must be nonempty 0/1 characters, got {text!r}")
    return tuple(int(ch) for ch in text)


def _parse_weights(text: str) -> tuple[curve.CurvePoint, ...]:
    return tuple(curve.parse_point(part) for part in text.split(";") if part.strip())


def _default_init(degree: int) -> tuple[int, ...]:
    return (1,) + (0,) * (degree - 1)


def _cmd_gen(args) -> int:
    if args.n < 1:
        raise ValidationError("--n must be >= 1")
    params = curve.parse_curve(args.curve)
    poly = gf2.BinaryPoly.from_hex(args.poly)
    init = _parse_bits(args.init) if args.init else _default_init(poly.degree)
    source = gf2.LfsrSource(poly, init)
    if args.weights:
        weights = curve.WeightVector(_parse_weights(args.weights))
    else:
        weights = experiments.sample_weight_vectors(params, poly.degree, 1, args.seed)[0]
    config = generator.GeneratorConfig(source=source, weights=weights, curve=params)
    values = generator.output_normalized(config, args.n)
    if args.s is None:
        _write_text("".join(f"{v:.17g}\n" for v in values), args.output)
    else:
        window = generator.s_tuples(values, args.s)
        header = ["n"] + [f"c{i}" for i in range(args.s)]
        rows = [[n + 1] + [f"{v:.17g}" for v in row] for n, row in enumerate(window.rows)]
        _emit_csv(header, rows, args.output)
    return EXIT_OK


def _cmd_curve_info(args) -> int:
    params = curve.parse_curve(args.curve)
    points = curve.enumerate_points(params)
    order = len(points)
    hasse_ok = (order - params.p - 1) ** 2 <= 4 * params.p
    _emit_json(
        {"p": params.p, "a": params.a, "b": params.b, "order": order, "hasse_ok": hasse_ok},
        args.output,
    )
    return EXIT_OK


def _cmd_lfsr_info(args) -> int:
    poly = gf2.BinaryPoly.from_hex(args.poly)
    init = _parse_bits(args.init) if args.init else _default_init(poly.degree)
    irreducible = gf2.poly_is_irreducible(poly)
    period = gf2.sequence_period(poly, init)
    source = gf2.LfsrSource(poly, init)
    _emit_json(
        {
            "poly": poly.to_hex(),
            "degree": poly.degree,
            "irreducible": irreducible,
            "period": period,
            "max_period": period == 2**poly.degree - 1,
            "windows_distinct": gf2.windows_distinct(source, poly.degree, period),
        },
        args.output,
    )
    return EXIT_OK


def _read_point_rows(path: str) -> np.ndarray:
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
        if not record:
            continue
        try:
            rows.append([float(v) for v in record])
        except ValueError:
            if header is None and not rows:
                header = [name.strip() for name in record]
            else:
                raise ValidationError(f"non-numeric row in point input: {record!r}")
    if not rows:
        raise ValidationError("point input is empty")
    if len({len(row) for row in rows}) != 1:
        raise ValidationError("point input rows have differing column counts")
    arr = np.asarray(rows, dtype=float)
    if header and header[0] == "n":
        arr = arr[:, 1:]
    return arr


def _cmd_disc(args) -> int:
    arr = _read_point_rows(args.input)
    s = arr.shape[1]
    if args.method == "exact":
        if s == 1:
            report = discrepancy.exact_extreme_1d(arr)
        elif s in (2, 3):
            report = discrepancy.exact_extreme_multi(arr, s)
        else:
            raise ValidationError("exact discrepancy supports s <= 3; use --method mc")
    else:
        report = discrepancy.mc_box_lower_bound(arr, args.trials, args.seed)
    _emit_json({"n": report.n, "s": report.s, "value": report.value, "method": report.method}, args.output)
    return EXIT_OK


def _cmd_bounds(args) -> int:
    inputs = discrepancy.BoundInputs(n=args.n, p=args.p, r=args.r, tau=args.tau,
                                     delta=args.delta, s=args.s)
    payload = {
        "n": args.n,
        "p": args.p,
        "r": args.r,
        "tau": args.tau,
        "delta": args.delta,
        "s": args.s,
        "bound_1d": discrepancy.discrepancy_bound_1d(inputs),
        "elmahassni": discrepancy.elmahassni_bound(inputs),
        "bound_multi": discrepancy.discrepancy_bound_multi(inputs) if args.s and args.s >= 2 else None,
        "gamma": discrepancy.nontrivial_exponent(args.s) if args.s else None,
        "note": "bare expressions with implied constant 1 and natural logs; "
                "cross-bound comparisons are order-of-magnitude only",
    }
    _emit_json(payload, args.output)
    return EXIT_OK


def _cmd_badpairs(args) -> int:
    if args.h is not None:
        combinat.WindowPattern(args.s, args.h)
    tally = combinat.brute_force_bad_count(args.r, args.s)
    per_h = list(tally.per_h) if args.h is None else [tally.per_h[args.h - 1]]
    _emit_json(
        {
            "r": args.r,
            "s": args.s,
            "f": tally.f,
            "bound": combinat.bad_pair_upper_bound(args.r, args.s),
            "per_h": per_h,
        },
        args.output,
    )
    return EXIT_OK


def _cmd_beta(args) -> int:
    _emit_json(
        {
            "s": args.s,
            "beta": combinat.beta(args.s, args.tolerance),
            "alpha": combinat.alpha(args.s),
            "dominant_h": list(combinat.which_h_dominates(args.s, args.tolerance)),
        },
        args.output,
    )
    return EXIT_OK


def _cmd_expsum_check(args) -> int:
    params = curve.parse_curve(args.curve)
    shift = curve.parse_point(args.c) if args.c else curve.INFINITY
    points = curve.enumerate_points(params)
    p = params.p
    if args.all_a:
        a_values = range(1, p)
    elif args.samples < 1:
        raise ValidationError("--samples must be >= 1")
    else:
        rng = np.random.default_rng(args.seed)
        a_values = sorted(set(int(a) for a in rng.integers(1, p, size=args.samples)))
    sums = expsum.curve_char_sums_all(params, shift, points)
    rows = []
    for a in a_values:
        magnitude = abs(sums[a])
        rows.append([p, a, f"{magnitude:.12g}", f"{math.sqrt(p):.12g}", f"{magnitude / math.sqrt(p):.12g}"])
    _emit_csv(["p", "a", "abs_sum", "sqrt_p", "ratio"], rows, args.output)
    return EXIT_OK


def _cmd_experiment(args) -> int:
    with open(args.config, "r", encoding="utf-8") as handle:
        try:
            raw = json.load(handle)
        except ValueError as exc:
            raise ValidationError(f"experiment config is not valid JSON: {exc}") from exc
    try:
        params = curve.validate_curve(raw["curve"]["p"], raw["curve"]["a"], raw["curve"]["b"])
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
    _emit_csv(
        ["N", "mean", "median", "q90", "thm_bound", "elma_bound"],
        [
            [row.n, f"{row.mean:.12g}", f"{row.median:.12g}", f"{row.q90:.12g}",
             f"{row.thm_bound:.12g}", f"{row.elma_bound:.12g}"]
            for row in rows
        ],
        args.output,
    )
    return EXIT_OK


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
    gen.add_argument("--output", help="output path (default stdout)")
    gen.set_defaults(func=_cmd_gen)

    info = sub.add_parser("curve-info", help="order and Hasse check of a curve")
    info.add_argument("--curve", required=True)
    info.add_argument("--output")
    info.set_defaults(func=_cmd_curve_info)

    lfsr = sub.add_parser("lfsr-info", help="irreducibility, period and window report")
    lfsr.add_argument("--poly", required=True)
    lfsr.add_argument("--init")
    lfsr.add_argument("--output")
    lfsr.set_defaults(func=_cmd_lfsr_info)

    disc = sub.add_parser("disc", help="discrepancy of a CSV point set")
    disc.add_argument("--input", default="-", help="CSV path, '-' for stdin")
    disc.add_argument("--method", choices=["exact", "mc"], default="exact")
    disc.add_argument("--trials", type=int, default=experiments.DEFAULT_MC_TRIALS)
    disc.add_argument("--seed", type=int, default=0)
    disc.add_argument("--output")
    disc.set_defaults(func=_cmd_disc)

    bounds = sub.add_parser("bounds", help="evaluate the closed-form bound expressions")
    bounds.add_argument("--n", type=int, required=True)
    bounds.add_argument("--p", type=int, required=True)
    bounds.add_argument("--r", type=int, required=True)
    bounds.add_argument("--tau", type=int, required=True)
    bounds.add_argument("--delta", type=float, default=1.0)
    bounds.add_argument("--s", type=int)
    bounds.add_argument("--output")
    bounds.set_defaults(func=_cmd_bounds)

    bad = sub.add_parser("badpairs", help="exact bad-pair counts by enumeration")
    bad.add_argument("--r", type=int, required=True)
    bad.add_argument("--s", type=int, required=True)
    bad.add_argument("--h", type=int)
    bad.add_argument("--output")
    bad.set_defaults(func=_cmd_badpairs)

    beta = sub.add_parser("beta", help="observed bad-pair growth base via power iteration")
    beta.add_argument("--s", type=int, required=True)
    beta.add_argument("--tolerance", type=float, default=1e-9)
    beta.add_argument("--output")
    beta.set_defaults(func=_cmd_beta)

    check = sub.add_parser("expsum-check", help="curve character-sum magnitudes as CSV")
    check.add_argument("--curve", required=True)
    check.add_argument("--c", help="shift point 'x,y' or 'inf' (default inf)")
    group = check.add_mutually_exclusive_group()
    group.add_argument("--all-a", action="store_true", help="sweep every a in 1..p-1")
    group.add_argument("--samples", type=int, default=20)
    check.add_argument("--seed", type=int, default=0)
    check.add_argument("--output")
    check.set_defaults(func=_cmd_expsum_check)

    exp = sub.add_parser("experiment", help="average-case discrepancy sweep from a JSON config")
    exp.add_argument("--config", required=True)
    exp.add_argument("--seed", type=int, help="override the config seed")
    exp.add_argument("--output")
    exp.set_defaults(func=_cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ScaleGuardError as exc:
        print(f"scale guard: {exc}", file=sys.stderr)
        return EXIT_SCALE_GUARD
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
