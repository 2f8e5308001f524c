import pytest

from pclean.errors import MalformedSpec
from pclean.specs import (
    FamilySpec,
    ProductSpec,
    QuadExtSpec,
    QuotientSpec,
    ZnSpec,
    canon,
    parse_ring_spec,
    spec_order,
)


@pytest.mark.parametrize(
    "text,expected",
    [
        ("Z4", ZnSpec(4)),
        ("z8[i]", QuadExtSpec(8, "i")),
        ("Z9[w]", QuadExtSpec(9, "w")),
        ("M2(Z4)", FamilySpec("M", 2, ZnSpec(4))),
        ("T2(Z2)", FamilySpec("T", 2, ZnSpec(2))),
        ("Tc3(Z4)", FamilySpec("Tc", 3, ZnSpec(4))),
        ("Z4xZ2", ProductSpec((ZnSpec(4), ZnSpec(2)))),
        ("Z4/(2)", QuotientSpec(ZnSpec(4), ("2",))),
        ("Z8[i]/(1+i)", QuotientSpec(QuadExtSpec(8, "i"), ("1+i",))),
        ("  m2( z4 x z2 ) ", FamilySpec("M", 2, ProductSpec((ZnSpec(4), ZnSpec(2))))),
        ("(Z4xZ2)/([2,0])", QuotientSpec(ProductSpec((ZnSpec(4), ZnSpec(2))), ("[2,0]",))),
        ("T2(Z2)/([0,1;0,0])", QuotientSpec(FamilySpec("T", 2, ZnSpec(2)), ("[0,1;0,0]",))),
    ],
)
def test_parse(text, expected):
    assert parse_ring_spec(text) == expected


@pytest.mark.parametrize(
    "text",
    ["Z4", "Z8[i]", "Z9[w]", "M2(Z4)", "T2(Z2)", "Tc3(Z4)", "Z4xZ2", "Z4/(2)",
     "M2(Z4xZ2)", "(Z4xZ2)/([2,0])"],
)
def test_canon_round_trip(text):
    spec = parse_ring_spec(text)
    assert parse_ring_spec(canon(spec)) == spec


@pytest.mark.parametrize(
    "text,order",
    [
        ("Z4", 4),
        ("Z8[i]", 64),
        ("M2(Z4)", 256),
        ("T3(Z2)", 64),
        ("Tc3(Z4)", 256),
        ("Z4xZ2", 8),
        ("M3(Z2)", 512),
    ],
)
def test_spec_order(text, order):
    assert spec_order(parse_ring_spec(text)) == order


@pytest.mark.parametrize(
    "bad",
    ["", "Z1", "Z", "Q4", "M0(Z2)", "Z4[q]", "Z4/(", "Z4 extra", "M2(Z4", "Z4//(2)", "Z\u00b2"],
)
def test_parse_errors(bad):
    with pytest.raises(MalformedSpec):
        parse_ring_spec(bad)


@pytest.mark.parametrize("text,offset", [("Z2x", 3), ("M2(", 3), ("Z4xZ2x", 6)])
def test_spec_cut_short_says_end_of_spec(text, offset):
    with pytest.raises(MalformedSpec) as exc:
        parse_ring_spec(text)
    assert str(exc.value) == f"unexpected end of spec (at byte offset {offset})"


def test_error_carries_offset():
    with pytest.raises(MalformedSpec) as exc:
        parse_ring_spec("Z4[q]")
    assert "offset" in str(exc.value)


def test_quotient_generator_must_parse_in_base():
    from pclean.rings import build_ring

    with pytest.raises(MalformedSpec):
        build_ring("Z4/(i)")


@pytest.mark.parametrize(
    "text,offset",
    # the last three: signs belong to element literals, never to sizes
    [("Z4 extra", 3), ("M2( Z4", 6), ("  Q5", 2), ("Z+4", 1), ("M+2(Z4)", 1), ("Tc+2(Z2)", 2)],
)
def test_error_offset_points_into_the_given_text(text, offset):
    # offsets index the text as typed, whitespace included
    with pytest.raises(MalformedSpec) as exc:
        parse_ring_spec(text)
    assert exc.value.offset == offset
