"""Bundled coefficient algebras."""

import pathlib
import subprocess
import sys

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
    with pytest.raises(presets.PresetError):
        presets.load_preset("moebius")


def test_preset_document_is_plain_data():
    doc = presets.preset_document("solid-torus")
    assert isinstance(doc, dict)
    assert doc["name"] == "solid-torus"
    a = ce.load_algebra(doc)
    assert a.n == 3


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


def test_gen_presets_reproduces_the_bundled_documents(tmp_path):
    root = pathlib.Path(__file__).resolve().parent.parent
    subprocess.run([sys.executable, str(root / "scripts" / "gen_presets.py"), str(tmp_path)],
                   check=True, capture_output=True)
    bundled = root / "src" / "confspace" / "presets"
    names = sorted(p.name for p in bundled.glob("*.json"))
    assert len(names) == 16
    assert sorted(p.name for p in tmp_path.iterdir()) == names
    for name in names:
        assert (tmp_path / name).read_bytes() == (bundled / name).read_bytes(), name
