import hashlib
import xml.etree.ElementTree as ET

import pytest

from rodvec import RodriguesVector, UnitVector, Vec3, figure_scene
from rodvec.geometry import FIGURE_KINDS, Arc, Label, Segment
from rodvec.svg import render_scene, write_scene

NS = "{http://www.w3.org/2000/svg}"


def _census(svg_text):
    root = ET.fromstring(svg_text)
    return {
        "paths": root.findall(f".//{NS}path"),
        "lines": root.findall(f".//{NS}line"),
        "texts": root.findall(f".//{NS}text"),
    }


@pytest.fixture
def fig1a_scene():
    return figure_scene("fig1a", RodriguesVector(0, 0, 1), x=Vec3(1, 0, 0))


def test_well_formed_and_census_matches_scene(fig1a_scene):
    svg = render_scene(fig1a_scene)
    got = _census(svg)  # ET.fromstring already asserts well-formedness
    assert len(got["paths"]) == fig1a_scene.count(Arc)
    assert len(got["lines"]) == fig1a_scene.count(Segment)
    assert len(got["texts"]) == fig1a_scene.count(Label)


def test_fig1a_element_classes(fig1a_scene):
    got = _census(render_scene(fig1a_scene))
    classes = sorted(el.get("class") for el in got["lines"])
    assert classes == ["ray bisector", "segment radius", "segment tangent"]
    assert [el.get("class") for el in got["paths"]] == ["arc rotation-arc"]


def test_all_kinds_render_well_formed():
    q = RodriguesVector(1, 0, 0)
    q2 = RodriguesVector(0, 1, 0)
    x = Vec3(0.3, 1.0, 0.5)
    for kind in ("fig1a", "fig1b", "fig1c", "fig2"):
        scene = figure_scene(kind, q, x=x)
        census = _census(render_scene(scene))
        assert len(census["paths"]) == scene.count(Arc)
        assert len(census["lines"]) == scene.count(Segment)
    for kind in ("fig4", "fig5"):
        scene = figure_scene(kind, q, q2=q2)
        census = _census(render_scene(scene))
        assert len(census["paths"]) == scene.count(Arc)


def test_fig4_has_four_triangle_outlines():
    scene = figure_scene("fig4", RodriguesVector(1, 0, 0), q2=RodriguesVector(0, 1, 0))
    got = _census(render_scene(scene))
    by_role = {}
    for el in got["paths"]:
        role = el.get("class").split()[1]
        by_role[role] = by_role.get(role, 0) + 1
    assert by_role == {f"triangle-{i}": 3 for i in range(4)}


def test_byte_determinism(fig1a_scene, tmp_path):
    a = render_scene(fig1a_scene)
    b = render_scene(figure_scene("fig1a", RodriguesVector(0, 0, 1), x=Vec3(1, 0, 0)))
    assert a == b
    p1 = tmp_path / "one.svg"
    p2 = tmp_path / "two.svg"
    write_scene(fig1a_scene, str(p1))
    write_scene(fig1a_scene, str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_view_axis_override_changes_projection(fig1a_scene):
    default = render_scene(fig1a_scene)
    tilted = render_scene(fig1a_scene, view_axis=UnitVector.from_vec(Vec3(1.0, 1.0, 1.0)))
    assert default != tilted


#: the sha256 of each kind's SVG text, so that a change to the scene
#: arithmetic or to the rendering cannot move a byte unnoticed
SVG_DIGESTS = {
    "fig1a": "47f389660cfc2cd34d45df54b8c98d0e078653b34f56c3aabca7f25e36ef6b53",
    "fig1b": "878eb02344dee37732b6b52935c5c5140d664a0ea10aef0b459d9fc3161de1d5",
    "fig1c": "15def5cdbce9d4707151dc301804a13ea26c73b390ea696637206f60097397f9",
    "fig2": "02bc9b8eb5960d9a4b0990bcd3dec599d57a40c68c46ad456e451f39e147ea2d",
    "fig4": "5f40a89a7e8ae99c3ef940a26d3c94b255e9fc2acfe19acf14b49bc2e68439b5",
    "fig5": "b8669efd02cb3c577b4570c1a299c0112c8ec19991c4e058832a93823749514a",
}


@pytest.mark.parametrize("kind", FIGURE_KINDS)
def test_svg_bytes_are_pinned(kind):
    q = RodriguesVector(0.3, -0.2, 1.1)
    x = Vec3(0.3, 1.0, 0.5)
    q2 = RodriguesVector(-0.7, 0.4, 0.25)
    if kind in ("fig4", "fig5"):
        scene = figure_scene(kind, q, q2=q2)
    else:
        scene = figure_scene(kind, q, x=x)
    assert hashlib.sha256(render_scene(scene).encode()).hexdigest() == SVG_DIGESTS[kind]
