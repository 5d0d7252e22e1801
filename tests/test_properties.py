"""Property tests for invariants of the metric layer on random small hosts."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import graphonlab as gl

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None)


@st.composite
def hosts(draw, values=st.floats(0.0, 1.0)):
    """A graphon with 1..8 steps: positive measures, symmetric values."""
    k = draw(st.integers(1, 8))
    mass = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k)))
    a = np.array(draw(st.lists(values, min_size=k * k, max_size=k * k))).reshape(k, k)
    return gl.StepGraphon(mass / mass.sum(), np.triu(a) + np.triu(a, 1).T)


#: values on a grid of quarters, so twins are frequent and rows that are not
#: twins lie at least min(mu)/4 apart, far above purify's tolerance
grid_hosts = hosts(values=st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]))


@PROPERTY_SETTINGS
@given(hosts())
def test_similarity_metric_below_neighborhood_metric(w):
    sim = gl.similarity_metric(w).dist
    nbr = gl.neighborhood_metric(w).dist
    assert np.all(sim <= nbr + 1e-12)


@PROPERTY_SETTINGS
@given(grid_hosts)
def test_purify_is_idempotent(w):
    pure, mapping = gl.purify(w)
    assert sorted(set(mapping)) == list(range(pure.k))
    again, identity = gl.purify(pure)
    assert again is pure and identity == list(range(pure.k))
