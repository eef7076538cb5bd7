"""Property tests: the PPM codec on arbitrary bytes, the configs on arbitrary floats."""

import dataclasses
import math
import operator

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from swarmseg.core import ClusterConfig
from swarmseg.imaging import PpmParseError, RawImage, load_ppm, write_ppm
from swarmseg.swarm import SwarmConfig

QUICK = settings(max_examples=60, deadline=None, database=None)

# header-like fragments reach the dimension, maxval and payload checks far
# more often than uniform bytes do
HEADER_PIECES = [b"0", b"1", b"2", b"255", b"+", b"-", b"_", b"x", b" ", b"\n", b"#"]


@st.composite
def raw_images(draw):
    width, height = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    size = 3 * width * height
    return RawImage(width, height, draw(st.binary(min_size=size, max_size=size)))


@QUICK
@given(raw_images())
def test_ppm_round_trip(image):
    assert load_ppm(write_ppm(image)) == image


@QUICK
@given(
    st.one_of(
        st.binary(max_size=64),
        st.lists(st.sampled_from(HEADER_PIECES), max_size=24).map(b"".join),
    )
)
def test_load_ppm_returns_an_image_or_raises_a_parse_error(tail):
    try:
        image = load_ppm(b"P6 " + tail)
    except PpmParseError:
        return
    assert isinstance(image, RawImage)


@QUICK
@pytest.mark.parametrize("config_type", [ClusterConfig, SwarmConfig])
@given(data=st.data())
def test_configs_take_finite_values_or_raise_value_error(config_type, data):
    fields = {f.name: f.type for f in dataclasses.fields(config_type)}
    values = data.draw(st.dictionaries(st.sampled_from(sorted(fields)), st.floats()))
    try:
        config = config_type(**values)
    except ValueError:
        return
    for name, kind in fields.items():
        value = getattr(config, name)
        assert math.isfinite(value)
        if kind == "int":
            operator.index(value)
