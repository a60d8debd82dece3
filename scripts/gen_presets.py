#!/usr/bin/env python3
"""Regenerate the bundled compactly-supported cohomology presets.

    python scripts/gen_presets.py [OUT_DIR]

Writes one JSON document per manifold into OUT_DIR, by default the
package's src/confspace/presets/.  Each table lists H_c as a basis with
degrees plus all nonzero products; the loader validates graded
commutativity and associativity, so both orders of every nonzero product
must be present.
"""

import argparse
import json
import pathlib
import sys

OUT = pathlib.Path(__file__).resolve().parent.parent / "src" / "confspace" / "presets"


def doc(name, n, basis, products):
    return {
        "name": name,
        "ambient_dim": n,
        "basis": [{"name": b, "degree": d} for b, d in basis],
        "products": [
            {"left": left, "right": right,
             "result": [{"basis": z, "coeff": c} for z, c in res]}
            for left, right, res in products
        ],
    }


def euclidean(n):
    return doc("euclidean-%d" % n, n, [("p", n)], [])


def punctured_surface(g, name):
    # genus g with one boundary circle: H_c^1 = Q^{2g} symplectic, H_c^2 = Q
    basis = []
    products = []
    for i in range(1, g + 1):
        basis += [("x%d" % i, 1), ("y%d" % i, 1)]
        products += [("x%d" % i, "y%d" % i, [("z", 1)]),
                     ("y%d" % i, "x%d" % i, [("z", -1)])]
    basis.append(("z", 2))
    return doc(name, 2, basis, products)


def twice_punctured_plane():
    # two boundary classes with zero intersection form
    return doc("twice-punctured-plane", 2, [("x", 1), ("y", 1), ("z", 2)], [])


def closed_surface(g):
    # ordinary cohomology with unit and intersection form
    basis = [("e", 0)]
    products = [("e", "e", [("e", 1)])]
    names = []
    for i in range(1, g + 1):
        names += ["x%d" % i, "y%d" % i]
        basis += [("x%d" % i, 1), ("y%d" % i, 1)]
        products += [("x%d" % i, "y%d" % i, [("z", 1)]),
                     ("y%d" % i, "x%d" % i, [("z", -1)])]
    basis.append(("z", 2))
    for w in names + ["z"]:
        products += [("e", w, [(w, 1)]), (w, "e", [(w, 1)])]
    return doc("closed-surface-%d" % g, 2, basis, products)


def degreewise(name, n, classes):
    # all products land above degree n or in a zero group
    return doc(name, n, classes, [])


def main(argv=None):
    parser = argparse.ArgumentParser(description="Regenerate the preset documents.")
    parser.add_argument("out", nargs="?", type=pathlib.Path, default=OUT,
                        help="output directory (default: %(default)s)")
    out = parser.parse_args(argv).out
    docs = [
        euclidean(2),
        euclidean(3),
        euclidean(4),
        punctured_surface(1, "punctured-torus"),
        punctured_surface(2, "surface-2-1"),
        twice_punctured_plane(),
        closed_surface(1),
        closed_surface(2),
        degreewise("solid-torus", 3, [("a", 2), ("p", 3)]),
        degreewise("s1xr2", 3, [("a", 2), ("p", 3)]),
    ]
    for g in (1, 2, 3):
        docs.append(degreewise("handlebody-%d" % g, 3,
                               [("a%d" % i, 2) for i in range(1, g + 1)] + [("p", 3)]))
    for m in (1, 2, 3):
        docs.append(degreewise("r3-minus-%d" % m, 3,
                               [("c%d" % i, 1) for i in range(1, m + 1)] + [("p", 3)]))

    out.mkdir(parents=True, exist_ok=True)
    for d in docs:
        path = out / (d["name"] + ".json")
        path.write_text(json.dumps(d, indent=2) + "\n")
        print("wrote", path)
    print("%d presets" % len(docs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
