"""Compactly-supported cohomology tables for common open manifolds.

Each preset is a document in the algebra schema of ce.load_algebra, built
here on every call.  A table lists H_c as a basis with degrees plus all
nonzero products; the loader validates graded commutativity and
associativity, so both orders of every nonzero product are listed.
Closed surfaces use ordinary cohomology with the intersection-form product.
"""

from __future__ import annotations

from .ce import load_algebra


class PresetError(Exception):
    pass


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


def closed_surface_doc(g):
    """Closed genus-g surface, g >= 0: ordinary cohomology with unit and
    intersection form."""
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


_PRESETS = {
    "euclidean-2": lambda: euclidean(2),
    "euclidean-3": lambda: euclidean(3),
    "euclidean-4": lambda: euclidean(4),
    "punctured-torus": lambda: punctured_surface(1, "punctured-torus"),
    "surface-2-1": lambda: punctured_surface(2, "surface-2-1"),
    "twice-punctured-plane": twice_punctured_plane,
    "closed-surface-1": lambda: closed_surface_doc(1),
    "closed-surface-2": lambda: closed_surface_doc(2),
    "solid-torus": lambda: degreewise("solid-torus", 3, [("a", 2), ("p", 3)]),
    "s1xr2": lambda: degreewise("s1xr2", 3, [("a", 2), ("p", 3)]),
    **{"handlebody-%d" % g: lambda g=g: degreewise(
        "handlebody-%d" % g, 3, [("a%d" % i, 2) for i in range(1, g + 1)] + [("p", 3)])
       for g in (1, 2, 3)},
    **{"r3-minus-%d" % m: lambda m=m: degreewise(
        "r3-minus-%d" % m, 3, [("c%d" % i, 1) for i in range(1, m + 1)] + [("p", 3)])
       for m in (1, 2, 3)},
}


def list_presets():
    """Sorted names of all bundled presets."""
    return sorted(_PRESETS)


def preset_document(name):
    """A fresh copy of the JSON document of a preset."""
    if name not in _PRESETS:
        raise PresetError(
            "unknown preset %r; available: %s" % (name, ", ".join(list_presets())))
    return _PRESETS[name]()


def load_preset(name):
    """Validated CAlgebra for a bundled preset."""
    return load_algebra(preset_document(name))
