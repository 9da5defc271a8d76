"""The numerical-range numbers of the n=24 fixtures against the
high-precision oracle in ``oracle.py``. The fixtures pin the code's own output;
these tests say how far that output is from the exact values."""

import functools
import json
import os

import oracle
import pytest

from fracspec.cli import _build_model

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
FIXTURES = ["verify-kipriyanov1d-n24", "verify-riesz-n24", "verify-difference-n24"]


@functools.lru_cache(maxsize=None)
def fixture_and_exact(name):
    """The fixture's numerical-range numbers, and (lambda_min(Re L), theta*)
    of the model its config describes."""
    with open(os.path.join(DATA, name + ".json")) as fh:
        doc = json.load(fh)
    numbers = next(c["numbers"] for c in doc["checks"] if c["name"] == "numerical-range")
    return numbers, oracle.sector(_build_model(doc["config"])[0].L)


@pytest.mark.parametrize("name", FIXTURES)
def test_vertex_is_the_least_eigenvalue_of_the_real_part(name):
    numbers, (lam_min, _) = fixture_and_exact(name)
    assert numbers["vertex"] == pytest.approx(lam_min, rel=1e-12, abs=0)


@pytest.mark.parametrize("name", FIXTURES)
def test_sampled_angle_is_at_most_the_exact_angle(name):
    # the sampled points lie in W(L), so their sector is no wider than W(L)'s
    numbers, (_, theta) = fixture_and_exact(name)
    assert numbers["semi_angle_origin"] <= theta * (1 + 1e-12)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: the 256 sampled boundary points "
                   "miss the direction of W(L)'s widest angle; the exact angle comes from "
                   "the sectorial factor")
@pytest.mark.parametrize("name", FIXTURES)
def test_sampled_angle_is_the_exact_angle(name):
    numbers, (_, theta) = fixture_and_exact(name)
    assert numbers["semi_angle_origin"] == pytest.approx(theta, rel=1e-6)
