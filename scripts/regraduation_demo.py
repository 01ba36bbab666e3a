"""Regraduate x + y + xy to an additive scale and compare against the
closed-form logarithm it must reproduce.

Usage: python3 scripts/regraduation_demo.py
"""

import math

from qlprob.funceq import (
    additive_conjugate,
    builtin,
    check_associativity,
    regraduate,
)


def main():
    rule = builtin("sumprod")
    assoc = check_associativity(rule)
    print(f"x + y + xy associativity residual: {assoc.max_residual:.3e}")

    result = regraduate(rule)
    print(f"regraduated; additivity residual {result.max_residual:.3e}, "
          f"anchor x1 = {result.anchor}")

    scale = math.log1p(result.anchor)
    print(f"\n{'x':>8}  {'w(x)':>12}  {'ln(1+x)/ln(1+x1)':>18}  {'diff':>9}")
    for x, w in list(zip(result.grid, result.values))[::4]:
        oracle = math.log1p(x) / scale
        print(f"{x:8.4f}  {w:12.6f}  {oracle:18.6f}  {abs(w - oracle):9.2e}")

    conj = additive_conjugate(result)
    c_assoc = check_associativity(conj)
    print(f"\nw^-1(w(x)+w(y)) associativity residual: {c_assoc.max_residual:.3e} "
          f"({c_assoc.skipped} skipped)")


if __name__ == "__main__":
    main()
