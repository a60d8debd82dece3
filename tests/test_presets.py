"""Bundled coefficient algebras."""

import hashlib
import json

import pytest

from confspace import ce, presets


def test_every_preset_loads_and_validates():
    names = presets.list_presets()
    assert len(names) >= 16
    for name in names:
        a = presets.load_preset(name)
        assert a.name == name
        assert a.n >= 2


def test_ambient_dimensions():
    expect = {
        "euclidean-2": 2, "euclidean-3": 3, "euclidean-4": 4,
        "punctured-torus": 2, "twice-punctured-plane": 2,
        "closed-surface-1": 2, "closed-surface-2": 2, "surface-2-1": 2,
        "solid-torus": 3, "s1xr2": 3,
        "handlebody-1": 3, "handlebody-2": 3, "handlebody-3": 3,
        "r3-minus-1": 3, "r3-minus-2": 3, "r3-minus-3": 3,
    }
    for name, n in expect.items():
        assert presets.load_preset(name).n == n


def test_unknown_preset():
    with pytest.raises(presets.PresetError,
                       match=r"unknown preset 'moebius'; available: closed-surface-1, "):
        presets.load_preset("moebius")


def test_preset_document_is_plain_data():
    doc = presets.preset_document("solid-torus")
    assert isinstance(doc, dict)
    assert doc["name"] == "solid-torus"
    a = ce.load_algebra(doc)
    assert a.n == 3
    doc["basis"].clear()
    assert presets.preset_document("solid-torus")["basis"]


def test_punctured_torus_classes():
    # compactly supported cohomology of the punctured torus
    a = presets.load_preset("punctured-torus")
    degrees = sorted(a.degree.values())
    assert degrees == [1, 1, 2]


def test_handlebody_growth():
    # H_c of a genus-g handlebody: H_i(M) = {0: 1, 1: g} placed at n - i
    for g in (1, 2, 3):
        a = presets.load_preset("handlebody-%d" % g)
        by_degree = {}
        for x, d in a.degree.items():
            by_degree[d] = by_degree.get(d, 0) + 1
        assert by_degree == {2: g, 3: 1}


# sha256 of json.dumps(document, sort_keys=True) for every preset, taken from
# the JSON files that stored the presets before presets.py built them
DIGESTS = {
    "closed-surface-1":
        "7c2e3b652fdea71a11f6e34b6afe59eb5b7af8c089ce016b0f08644d3bda2fe7",
    "closed-surface-2":
        "6b525700d05da76c6322aabc4dfbc4e11fbf11e45168fdc1f2003e67d45fddba",
    "euclidean-2":
        "43ec31b45761764c001b741cbb4f6de664c11772986af9f5766d179c894016de",
    "euclidean-3":
        "5814b896abb3c98c22025005215d7c7b8a99da11ad505b25e96763f1a1b9cde4",
    "euclidean-4":
        "3c2f480a77c75e5e875a18d8be7c8aecb94d6a6b4ffb2e8fa9054f73c75df291",
    "handlebody-1":
        "af7425fbfc7e7dc1066e61a3c4f8596dc236459c4581d7b7d4c95ab912bdb2ac",
    "handlebody-2":
        "65e40f9755c2115daca61f368d5bdb867f4d10af6ad669d87572b106829d2585",
    "handlebody-3":
        "64d67196f75cadefd3c09febda5b17219fed9ed3233063798c68336d3f033e85",
    "punctured-torus":
        "bd02ffdccff7e778be9a9c097d5fb2833f0df39d2ea6add6d96efe1f1f8ebe45",
    "r3-minus-1":
        "c064a86bcaa1d7f8494aeca5452184aa4eae3835d0874153909604e7591b2331",
    "r3-minus-2":
        "be9f46253a622d77d83a303cc060f796aa5e8c4a8979cb0986f7bb1acf12894f",
    "r3-minus-3":
        "5bcb7394ebd78ec17f740067d59607af25f2cdaff2a8c1c4ea8b9e1da90c704f",
    "s1xr2":
        "957e549f8b4f5fdae7d068557ffe71d9eb7d29303af17f73508c41f7671e0ae3",
    "solid-torus":
        "3ae558296bae3e1f3095ddf6fa8da4f3ce08e5c724c03acd4f4ffacd5fda68aa",
    "surface-2-1":
        "4114a86bdaf61805daa46fc3da721350de7ef202212facfd03f0a4c424a845db",
    "twice-punctured-plane":
        "07e782c81c668d6c946a0ad044048c60bfb94b75ad68709b89c1dfdd8fd75269",
}


def test_preset_documents_are_pinned():
    assert presets.list_presets() == sorted(DIGESTS)
    for name, digest in DIGESTS.items():
        text = json.dumps(presets.preset_document(name), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == digest, name
    for g in (1, 2):
        assert presets.preset_document("closed-surface-%d" % g) == presets.closed_surface_doc(g)
