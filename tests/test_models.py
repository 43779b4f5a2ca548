import gc
import weakref

import numpy as np
import pytest

from cdwork import (HOConfig, HarmonicOscillator, ParametrizedModel,
                    SpectrumCache, model_ensemble, quintic_ramp,
                    two_level_model)


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
        assert len(cache) == 2
        assert cache.get("b") is None
        assert cache.get("a") is specs[0] and cache.get("c") is specs[2]

    def test_rejects_empty_bound(self):
        with pytest.raises(ValueError):
            SpectrumCache(0)

    def test_keeps_one_family(self):
        store = SpectrumCache(8)
        HarmonicOscillator(HOConfig(1.0, 3.0, 0.8, dim=40), h0_store=store)
        HarmonicOscillator(HOConfig(1.0, 3.0, 1.6, dim=40), h0_store=store)
        with pytest.raises(ValueError, match="harmonic-oscillator"):
            HarmonicOscillator(HOConfig(1.0, 3.0, 0.8, dim=60), h0_store=store)
        with pytest.raises(ValueError):
            ParametrizedModel(quintic_ramp([0.0], [1.0], 1.0),
                              h0_of=lambda lam: lam[0] * np.eye(2),
                              h0_store=store)


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
    assert len(model._h0_store) == 4
    h0_last = model.spectrum0_at(0.6)
    assert model.spectrum_cd_at(0.6) is not h0_last
    assert_same_spectrum(model.spectrum_cd_at(0.6),
                         model._diagonalize(model.h_cd_at(0.6)))


class TestSharedH0Store:
    def test_spectra_bit_identical_to_fresh_model(self):
        store = SpectrumCache(200)
        grid_points = 41
        for tau in (0.4, 0.8, 1.2):
            shared = HarmonicOscillator(HOConfig(1.0, 3.0, tau, dim=60),
                                        h0_store=store)
            fresh = HarmonicOscillator(HOConfig(1.0, 3.0, tau, dim=60))
            for t in np.linspace(0.0, tau, grid_points):
                assert_same_spectrum(shared.spectrum0_at(t),
                                     fresh.spectrum0_at(t))
                assert_same_spectrum(shared.spectrum_cd_at(t),
                                     fresh.spectrum_cd_at(t))

    def test_durations_reuse_frequency_points(self):
        store = SpectrumCache(100)
        solves = []
        for tau in (0.5, 1.0):
            model = HarmonicOscillator(HOConfig(1.0, 3.0, tau, dim=40),
                                       h0_store=store)
            before = len(store)
            for t in np.linspace(0.0, tau, 21):
                model.spectrum0_at(t)
            solves.append(len(store) - before)
        # the endpoints and the midpoint are exact in both grids
        assert solves[0] == 21
        assert solves[1] < 21

    def test_store_stays_within_bound(self):
        store = SpectrumCache(25)
        for tau in (0.5, 0.7, 0.9):
            model = HarmonicOscillator(HOConfig(1.0, 3.0, tau, dim=40),
                                       h0_store=store)
            for t in np.linspace(0.0, tau, 31):
                model.spectrum0_at(t)
                assert len(store) <= 25
        assert len(store) == 25

    def test_default_store_is_private(self):
        a = HarmonicOscillator(HOConfig(1.0, 3.0, 0.8, dim=40))
        b = HarmonicOscillator(HOConfig(1.0, 3.0, 0.8, dim=40))
        a.spectrum0_at(0.3)
        assert a.spectrum0_at(0.3) is not b.spectrum0_at(0.3)


def test_finished_model_freed_without_cyclic_gc():
    gc.collect()
    gc.disable()
    try:
        model = HarmonicOscillator(HOConfig(1.0, 3.0, 0.8, dim=60))
        ensemble = model_ensemble(model, 1.0)
        model.spectrum0_at(0.4)
        model.spectrum_cd_at(0.4)
        model.dh0_dt_at(0.4)
        ref = weakref.ref(model)
        del model, ensemble
        assert ref() is None
    finally:
        gc.enable()
