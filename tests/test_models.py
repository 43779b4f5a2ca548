import gc
import weakref

import numpy as np
import pytest

from cdwork import (HOConfig, HarmonicOscillator, ParametrizedModel,
                    SpectrumCache, ensemble_rates, model_ensemble,
                    quintic_ramp)
from conftest import two_level_model


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


@pytest.mark.parametrize("kind", ["h0", "driven"])
def test_block_read_solves_in_bounded_chunks(kind):
    # 81 grid spectra read as one block: the bits of 81 single reads, in
    # ceil(81 / BLOCK_POINTS) = 6 solver calls
    grid = np.linspace(0.0, 0.8, 81)
    block, single = (HarmonicOscillator(HOConfig(1.0, 3.0, 0.8, dim=60))
                     for _ in range(2))
    calls = []
    solve = block._diagonalize
    block._diagonalize = lambda hs: calls.append(len(hs)) or solve(hs)
    read = {"h0": (block.spectra0_at, single.spectrum0_at),
            "driven": (block.spectra_cd_at, single.spectrum_cd_at)}[kind]
    for spec, t in zip(read[0](grid), grid):
        assert_same_spectrum(spec, read[1](t))
    assert calls == [16] * 5 + [1]


def test_dense_evolve_block_is_its_eigh_steps():
    # the generic model's hook: one eigh per step, applied in order
    rng = np.random.default_rng(7)
    a = rng.standard_normal((5, 6, 6)) + 1j * rng.standard_normal((5, 6, 6))
    hs = list(a + a.conj().transpose(0, 2, 1))
    dts = [0.1, 0.25, 0.05, 0.4, 0.2]
    psi = rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2))
    model = two_level_model(quintic_ramp([0.0], [1.0], 1.0))
    out = model.evolve_block(hs, dts, psi)
    assert out.shape == (5, 6, 2)
    for h, dt, state in zip(hs, dts, out):
        e, v = np.linalg.eigh(h)
        psi = (v * np.exp(-1j * e * dt)) @ (v.conj().T @ psi)
        assert np.array_equal(state, psi)


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
