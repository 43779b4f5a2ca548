import gc
import weakref

import numpy as np
import pytest

from cdwork import (HOConfig, HarmonicOscillator, ParametrizedModel,
                    SpectrumCache, ensemble_rates, model_ensemble,
                    quintic_ramp, two_level_model)


def assert_same_spectrum(a, b):
    assert np.array_equal(a.energies, b.energies)
    assert np.array_equal(a.states, b.states)


class TestSpectrumCache:
    def test_evicts_least_recently_used(self):
        model = two_level_model(quintic_ramp([0.0], [1.0], 1.0))
        specs = [model.spectrum0_at(t) for t in (0.1, 0.2, 0.3)]
        cache = SpectrumCache(2)
        cache.put("a", specs[0])
        cache.put("b", specs[1])
        assert cache.get("a") is specs[0]
        cache.put("c", specs[2])
        assert len(cache._entries) == 2
        assert cache.get("b") is None
        assert cache.get("a") is specs[0] and cache.get("c") is specs[2]

    def test_rejects_empty_bound(self):
        with pytest.raises(ValueError):
            SpectrumCache(0)


def test_private_store_bounds_both_kinds():
    sz = np.diag([1.0, -1.0]).astype(complex)
    sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    model = ParametrizedModel(quintic_ramp([0.0], [1.0], 1.0),
                              h0_of=lambda lam: lam[0] * sz + sx,
                              dh0_of=lambda lam: [sz], cache_size=4)
    times = (0.2, 0.4, 0.6)
    for t in times:
        model.spectrum0_at(t)
        model.spectrum_cd_at(t)
    # the last two points of each kind, and nothing else
    assert len(model._store._entries) == 4
    h0_last = model.spectrum0_at(0.6)
    assert model.spectrum_cd_at(0.6) is not h0_last
    assert_same_spectrum(model.spectrum_cd_at(0.6),
                         model._diagonalize([model.h_drive_at(0.6, 1.0)])[0])


def test_default_store_is_private():
    a = HarmonicOscillator(HOConfig(1.0, 3.0, 0.8, dim=40))
    b = HarmonicOscillator(HOConfig(1.0, 3.0, 0.8, dim=40))
    a.spectrum0_at(0.3)
    assert a.spectrum0_at(0.3) is not b.spectrum0_at(0.3)


def test_store_holds_cache_size_spectra():
    model = HarmonicOscillator(HOConfig(1.0, 3.0, 0.8, dim=40), cache_size=25)
    for t in np.linspace(0.0, 0.8, 31):
        model.spectrum0_at(t)
        assert len(model._store._entries) <= 25
    assert len(model._store._entries) == 25
    # the 25 latest points are held, the earlier ones were evicted
    assert model._store.get((0.0, 0.8)) is not None
    assert model._store.get((0.0, 0.0)) is None


def test_finished_model_freed_without_cyclic_gc():
    gc.collect()
    gc.disable()
    try:
        model = HarmonicOscillator(HOConfig(1.0, 3.0, 0.8, dim=60))
        ensemble = model_ensemble(model, 1.0)
        model.spectrum0_at(0.4)
        model.spectrum_cd_at(0.4)
        ensemble_rates(model, ensemble, [0.2, 0.4])
        ref = weakref.ref(model)
        del model, ensemble
        assert ref() is None
    finally:
        gc.enable()
