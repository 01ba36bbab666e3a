"""Walk through the firefly-box lattice: classification, the affine
relations its states obey, the extreme states, and a pair witnessing
the failure of classical decomposition.

Usage: python3 scripts/firefly_report.py [--dot out.dot]
"""

import argparse

from qlprob import builders
from qlprob.classify import classify
from qlprob.io import to_dot
from qlprob.states import extreme_states, find_state, implied_affine_relations


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--dot", metavar="PATH", default=None,
                        help="also write the Hasse diagram as Graphviz")
    args = parser.parse_args()

    l12 = builders.firefly_l12()
    report = classify(l12)
    print("firefly box: 12 elements,",
          f"orthomodular={report.is_orthomodular},",
          f"distributive={report.is_distributive},",
          f"modular={report.is_modular}")
    print("maximal Boolean blocks:")
    for block in report.blocks:
        print("  {" + ", ".join(l12.names[e] for e in block) + "}")

    print("\nevery state satisfies:")
    for relation in implied_affine_relations(l12):
        print(" ", relation.display())

    vertices = extreme_states(l12)
    print(f"\n{len(vertices)} extreme states (atom values):")
    atoms = [l12.names[a] for a in l12.atoms]
    print("  " + "  ".join(f"{a:>3}" for a in atoms))
    for v in vertices:
        print("  " + "  ".join(f"{str(v.value(a)):>3}" for a in atoms))

    center = find_state(l12)
    print("\nbarycenter state:",
          ", ".join(f"{a}={center.value(a)}" for a in atoms))

    # one concentrated extreme state breaks a ∧ b / a ∧ ~b bookkeeping
    target = next(v for v in vertices if v.value("l") == 1)
    idx = l12.index
    a, b = idx["l"], idx["f"]
    lhs = (target.values[l12.meet(a, l12.neg[b])]
           + target.values[l12.meet(a, b)])
    print(f"\nwith s the extreme state at l: "
          f"s(l^~f) + s(l^f) = {lhs} < s(l) = {target.values[a]}")

    if args.dot:
        with open(args.dot, "w") as fh:
            fh.write(to_dot(l12, "l12"))
        print(f"\nwrote {args.dot}")


if __name__ == "__main__":
    main()
