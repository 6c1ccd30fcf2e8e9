"""Property tests over random valid models of both parities.

Examples are derandomized with a fixed count, so every run checks the
same models.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from aaatrig.cli import model_from_dict, model_to_dict
from aaatrig.trigbary import Parity, TrigModel, TWO_PI, evaluate_batch

from conftest import random_model

PROPERTY_SETTINGS = settings(max_examples=60, derandomize=True, deadline=None)

models = st.builds(
    lambda seed, m, parity, im_range: random_model(
        np.random.default_rng(seed), m, parity, im_range=im_range
    ),
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(1, 9),
    parity=st.sampled_from(list(Parity)),
    im_range=st.floats(0.0, 3.0),
)


def probe_points(model):
    rng = np.random.default_rng(model.m)
    return rng.uniform(0, TWO_PI, 12) + 1j * rng.uniform(-2, 2, 12)


@PROPERTY_SETTINGS
@given(model=models)
def test_interpolates_support_values(model):
    assert np.array_equal(evaluate_batch(model, model.support), model.fvals)


@PROPERTY_SETTINGS
@given(model=models, k=st.integers(-5, 5))
def test_periodic(model, k):
    zs = probe_points(model)
    base = evaluate_batch(model, zs)
    shifted = evaluate_batch(model, zs + TWO_PI * k)
    assert np.all(np.abs(shifted - base) <= 1e-12 * (1 + np.abs(base)))


@PROPERTY_SETTINGS
@given(
    model=models,
    scale=st.complex_numbers(min_magnitude=1e-3, max_magnitude=1e3, allow_nan=False,
                             allow_infinity=False),
)
def test_weight_scaling_invariance(model, scale):
    scaled = TrigModel.build(model.parity, model.support, model.fvals, model.weights * scale)
    zs = probe_points(model)
    a = evaluate_batch(model, zs)
    b = evaluate_batch(scaled, zs)
    assert np.all(np.abs(a - b) <= 1e-13 * (1 + np.abs(a)))


@PROPERTY_SETTINGS
@given(model=models)
def test_model_dict_round_trip(model):
    back = model_from_dict(model_to_dict(model))
    assert back.parity is model.parity
    for name in ("support", "fvals", "weights", "err_history"):
        assert np.array_equal(getattr(back, name), getattr(model, name))
    assert back.scale == model.scale
    assert back.converged == model.converged
