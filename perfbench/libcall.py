"""Job entry for the library call the benchmark times: expsum.avg_square_sum_over_weights.

usage: libcall.py --curve p,a,b --poly HEX --init BITS --n N --a A

Prints {"value": <average square sum>} as JSON on stdout.
"""

from __future__ import annotations

import argparse
import json
import sys

from ecss import curve, expsum, gf2


def avg_square(args: argparse.Namespace) -> float:
    params = curve.parse_curve(args.curve)
    poly = gf2.BinaryPoly.from_hex(args.poly)
    source = gf2.LfsrSource(poly, tuple(int(bit) for bit in args.init))
    return expsum.avg_square_sum_over_weights(params, poly.degree, args.a, args.n, source)


def parse(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="libcall.py", description=__doc__)
    parser.add_argument("--curve", required=True)
    parser.add_argument("--poly", required=True)
    parser.add_argument("--init", required=True)
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--a", type=int, required=True)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    print(json.dumps({"value": avg_square(parse(argv))}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
