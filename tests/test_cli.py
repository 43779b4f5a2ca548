import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from functools import partial
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cdwork import HOConfig, HarmonicOscillator, ValidityWarning, model_ensemble
from cdwork import cli, figures, ising, lanes, oscillator, spectral, verify
from cdwork.cli import main

SMALL_HO = ["--beta", "2", "--fock-dim", "80", "--grid", "51",
            "--tau", "0.8", "--tau-list", "0.8,1.2,1.6"]


def read_all(outdir):
    return {p.name: p.read_bytes() for p in sorted(outdir.iterdir())}


def strict_json(path):
    """The file parsed as RFC 8259 JSON, which has no Infinity or NaN."""
    def refuse(name):
        raise ValueError(f"{path.name}: {name} is not JSON")
    return json.loads(path.read_text(), parse_constant=refuse)


class TestHoFigure1:
    def test_small_run_and_determinism(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            code = main(["ho-figure1", *SMALL_HO, "--out", str(out)])
            assert code == 0
        assert read_all(out_a) == read_all(out_b)
        names = set(read_all(out_a))
        assert {"ho_figure1_mean_work.csv", "ho_figure1_variance.csv",
                "ho_figure1_excess.csv", "ho_figure1_fluctuation_average.csv",
                "ho_figure1_summary.json"} <= names

    def test_summary_contents(self, tmp_path):
        main(["ho-figure1", *SMALL_HO, "--out", str(tmp_path)])
        summary = json.loads((tmp_path / "ho_figure1_summary.json").read_text())
        assert summary["passed"] is True
        assert summary["ordering_ok"] is True
        assert summary["max_equality_residual"] <= 1e-6
        assert 0.0 < summary["bures_length"] < summary["eta_length"] \
            < summary["ell"]
        assert summary["fit"]["exponent"] == pytest.approx(-1.0, abs=1e-6)
        model = HarmonicOscillator(HOConfig(1.0, 3.0, 0.8, dim=80))
        ensemble = model_ensemble(model, 2.0)
        assert summary["ensemble_levels"] == ensemble.n_levels
        assert summary["tail_bound"] == ensemble.tail_bound

    def test_flat_ramp_skips_fit(self, tmp_path):
        code = main(["ho-figure1", "--omega-i", "2", "--omega-f", "2",
                     "--beta", "2", "--fock-dim", "80", "--grid", "31",
                     "--tau-list", "0.8,1.2,1.6", "--out", str(tmp_path)])
        assert code == 0
        summary = json.loads((tmp_path / "ho_figure1_summary.json").read_text())
        assert summary["fit"] is None
        assert summary["ell"] == 0.0

    def test_csv_metadata_layout(self, tmp_path):
        main(["ho-figure1", *SMALL_HO, "--out", str(tmp_path)])
        lines = (tmp_path / "ho_figure1_mean_work.csv").read_text().splitlines()
        assert lines[0].startswith("# cdwork ")
        header_at = next(i for i, line in enumerate(lines)
                         if not line.startswith("#"))
        assert lines[header_at].split(",") == ["t", "mean_cd", "mean_ad"]
        assert any(line.startswith("# config-hash=") for line in lines[:header_at])

    def test_json_format(self, tmp_path):
        code = main(["ho-figure1", *SMALL_HO, "--format", "json",
                     "--out", str(tmp_path)])
        assert code == 0
        data = json.loads((tmp_path / "ho_figure1_mean_work.json").read_text())
        assert set(data["columns"]) == {"t", "mean_cd", "mean_ad"}


    def test_infinite_beta_summary_is_a_config(self, tmp_path):
        # the echoed beta is the string "inf", which --config reads back
        argv = ["ho-figure1", *SMALL_HO, "--beta", "inf"]
        first, second = tmp_path / "first", tmp_path / "second"
        assert main([*argv, "--out", str(first)]) == 0
        config = strict_json(first / "ho_figure1_summary.json")["config"]
        assert config["beta"] == "inf"
        (tmp_path / "config.json").write_text(json.dumps(config))
        assert main(["ho-figure1", "--config", str(tmp_path / "config.json"),
                     "--out", str(second)]) == 0
        assert read_all(first) == read_all(second)

    def test_failed_equality_named(self, tmp_path, capsys):
        # Simpson on 4 points misses every time average by 14%
        code = main(["ho-figure1", "--grid", "4", "--out", str(tmp_path)])
        assert code == 1
        line = capsys.readouterr().out.strip()
        assert line.startswith("FAIL ho-figure1: ell=")
        assert line.endswith(
            "; equality_ok failed at tau=0.2,0.4,0.6,0.8,1,1.2,1.4,1.6,1.8,"
            "2,2.2,2.4,2.6,2.8,3 (worst 0.14)")
        assert "chain_ok" not in line and "ordering_ok" not in line

    def test_failed_ordering_named(self, tmp_path, capsys, monkeypatch):
        # an energy deviation below the excess deviation breaks
        # bures/<dDW> >= bures/<dE_cd>: in a pure state the two are
        # equal, so halve it at tau = 1.6 only
        chain = figures.bound_chain

        def halved(series, *lengths):
            if series["tau"][0] == 1.6:
                series = dict(series, energy_dev=0.5 * series["energy_dev"])
            return chain(series, *lengths)

        monkeypatch.setattr(figures, "bound_chain", halved)
        code = main(["ho-figure1", "--grid", "101", "--beta", "inf",
                     "--tau-list", "0.8,1.6", "--out", str(tmp_path)])
        assert code == 1
        line = capsys.readouterr().out.strip()
        assert re.search(r"; ordering_ok failed at tau=1\.6 \(worst "
                         r"\d\.\d+\)$", line), line
        assert "chain_ok" not in line and "tau=0.8" not in line

    @pytest.mark.parametrize("tau", [1e157, 1e160])
    def test_pure_state_keeps_its_energy_deviation(self, tmp_path, tau):
        # in a pure state the energy variance of H_cd is v^2 ||U||^2 with
        # v = 0.8 / tau: subnormal at 1e157, its square root 0/0 at 1e160
        # if the scale is squared; the energy deviation is neither
        code = main(["ho-figure1", "--grid", "101", "--beta", "inf",
                     "--tau-list", repr(tau), "--out", str(tmp_path)])
        assert code == 0
        summary = json.loads((tmp_path / "ho_figure1_summary.json").read_text())
        rows = {row["tau"]: row["avg_energy_dev"] for row in summary["per_tau"]}
        assert rows[tau] * tau / 0.8 == pytest.approx(rows[0.8], rel=1e-14)

    def test_huge_duration_keeps_its_excess_deviation(self, tmp_path):
        # v = 0.8 / 1e300: v^2 ||U||^2 underflows to zero, the excess
        # deviation v sqrt(sum_n p_n ||U||^2) does not
        code = main(["ho-figure1", "--grid", "101", "--tau-list", "1e300",
                     "--out", str(tmp_path)])
        assert code == 0
        summary = json.loads((tmp_path / "ho_figure1_summary.json").read_text())
        rows = {row["tau"]: row["avg_excess_dev"] for row in summary["per_tau"]}
        assert rows[1e300] * 1e300 / 0.8 == pytest.approx(rows[0.8], rel=1e-14)

    def test_pass_line_names_no_flag(self, tmp_path, capsys):
        assert main(["ho-figure1", *SMALL_HO, "--out", str(tmp_path)]) == 0
        line = capsys.readouterr().out.strip()
        assert re.fullmatch(r"PASS ho-figure1: ell=\d\.\d{6} "
                            r"bures=\d\.\d{6} fit coefficient=\d\.\d{4}",
                            line), line


class TestIsingFigure2:
    def test_sweep_run(self, tmp_path):
        code = main(["ising-figure2", "--n-list", "32,64,128,256,512,1024",
                     "--grid", "101", "--out", str(tmp_path)])
        assert code == 0
        summary = json.loads(
            (tmp_path / "ising_figure2_summary.json").read_text())
        assert 0.50 <= summary["scaling"]["alpha"] <= 0.53
        assert summary["scaling"]["passed"] is True

    def test_single_size_skips_fit(self, tmp_path):
        code = main(["ising-figure2", "--n-list", "32",
                     "--trajectory-sites", "32", "--grid", "51",
                     "--out", str(tmp_path)])
        assert code == 0
        summary = json.loads(
            (tmp_path / "ising_figure2_summary.json").read_text())
        assert summary["scaling"] is None
        assert not (tmp_path / "ising_figure2_scaling.csv").exists()

    def test_invalid_n_list_without_fit_named(self, tmp_path, capsys):
        # two sizes run no fit, but each must still be a chain length
        code = main(["ising-figure2", "--n-list", "3,7", "--grid", "21",
                     "--out", str(tmp_path)])
        assert code == 2
        assert "n_list" in capsys.readouterr().err
        assert not (tmp_path / "ising_figure2_summary.json").exists()

    def test_missed_fit_gate_writes_data_and_exits_one(self, tmp_path, capsys):
        code = main(["ising-figure2", "--n-list", "4,6,8,10,200",
                     "--delta", "0.01", "--grid", "21",
                     "--trajectory-sites", "8", "--out", str(tmp_path)])
        assert code == 1
        assert "FAIL ising-figure2" in capsys.readouterr().out
        summary = json.loads(
            (tmp_path / "ising_figure2_summary.json").read_text())
        assert summary["scaling"]["passed"] is False
        assert summary["scaling"]["residual_rms"] > 0.02
        assert (tmp_path / "ising_figure2_scaling.csv").exists()

    def test_huge_sweep_reaches_the_fit(self, tmp_path, capsys):
        # at lam ~ 1e77 the metric's squared gap form overflowed, although
        # the metric itself only underflows
        code = main(["ising-figure2", "--delta", "1e77",
                     "--n-list", "4,6,8,10,128", "--grid", "3",
                     "--out", str(tmp_path)])
        assert code == 0, capsys.readouterr().err
        summary = json.loads(
            (tmp_path / "ising_figure2_summary.json").read_text())
        assert summary["scaling"]["passed"] is True


class TestIonWaveforms:
    def test_csv_schema(self, tmp_path):
        code = main(["ion-waveforms", "--nu", "3", "--grid", "101",
                     "--out", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "ion_waveforms.csv").read_text().splitlines()
        header = next(line for line in lines if not line.startswith("#"))
        assert header.split(",") == [
            "t", "omega", "omega_dot", "Omega", "re_Omega_eff1",
            "im_Omega_eff1", "Omega_eff2", "validity_ratio"]
        validity = json.loads(
            (tmp_path / "ion_waveforms_validity.json").read_text())
        assert validity["within_validity"] is True

    def test_json_format(self, tmp_path):
        code = main(["ion-waveforms", "--nu", "3", "--grid", "21",
                     "--format", "json", "--out", str(tmp_path)])
        assert code == 0
        assert not (tmp_path / "ion_waveforms.csv").exists()
        data = strict_json(tmp_path / "ion_waveforms.json")
        assert len(data["columns"]["Omega"]) == 21
        assert data["metadata"]["command"] == "ion-waveforms"
        # at t = tau omega = nu and the drive vanishes: an infinite ratio
        assert data["columns"]["validity_ratio"][-1] == "inf"
        strict_json(tmp_path / "ion_waveforms_validity.json")

    def test_constant_ramp_validity_is_json(self, tmp_path):
        assert main(["ion-waveforms", "--omega-i", "3", "--omega-f", "3",
                     "--grid", "5", "--out", str(tmp_path)]) == 0
        summary = strict_json(tmp_path / "ion_waveforms_validity.json")
        assert summary["min_validity_ratio"] == "inf"

    def test_failed_round_trip_exit_code(self, tmp_path, capsys):
        with pytest.warns(ValidityWarning):
            code = main(["ion-waveforms", "--nu", "1e8", "--grid", "21",
                         "--out", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert "InvalidDetuning" in err and "round trip" in err

    def test_bad_detuning_exit_code(self, tmp_path, capsys):
        code = main(["ion-waveforms", "--nu", "2", "--out", str(tmp_path)])
        assert code == 1
        assert "InvalidDetuning" in capsys.readouterr().err


class TestConfigHandling:
    def test_unknown_config_key_named(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"omega_i": 1.0, "frequenzy": 2.0}))
        code = main(["ho-figure1", "--config", str(cfg)])
        assert code == 2
        assert "frequenzy" in capsys.readouterr().err

    def test_seed_key_only_for_verify(self, tmp_path, capsys):
        # ho-figure1 draws no random number, so a seed is not part of
        # its configuration
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 7}))
        code = main(["ho-figure1", "--config", str(cfg)])
        assert code == 2
        assert "'seed'" in capsys.readouterr().err

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "omega_f": 2.5, "beta": 2.0, "fock_dim": 80, "grid": 101,
            "tau_list": [0.8, 1.2, 1.6]}))
        out = tmp_path / "out"
        code = main(["ho-figure1", "--config", str(cfg),
                     "--omega-f", "2.0", "--out", str(out)])
        assert code == 0
        summary = json.loads((out / "ho_figure1_summary.json").read_text())
        assert summary["config"]["omega_f"] == 2.0
        assert summary["config"]["beta"] == 2.0

    def test_invalid_values_exit_two(self, capsys):
        assert main(["ho-figure1", "--beta", "-1"]) == 2
        assert main(["ho-figure1", "--tau", "-0.5"]) == 2
        cfg_err = capsys.readouterr().err
        assert "beta" in cfg_err and "tau" in cfg_err

    @pytest.mark.parametrize("command, config, key", [
        ("ho-figure1", {"grid": 3.5}, "grid"),
        ("ho-figure1", {"fock_dim": "abc"}, "fock_dim"),
        ("ho-figure1", {"tau_list": 0.8}, "tau_list"),
        ("ho-figure1", {"tau_list": [0.8, "x"]}, "tau_list"),
        ("ho-figure1", {"grid": None}, "grid"),
        ("ho-figure1", {"beta": "warm"}, "beta"),
        ("ho-figure1", {"omega_i": True}, "omega_i"),
        ("verify", {"seed": "x"}, "seed"),
        ("ion-waveforms", {"out": 5}, "out"),
    ])
    def test_wrong_type_in_config_file_named(self, tmp_path, capsys,
                                             command, config, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert main([command, "--config", str(cfg)]) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("below", ["", "sub"])
    def test_out_through_an_existing_file_exits_two(self, tmp_path, capsys,
                                                    monkeypatch, below):
        # rejected before the subcommand runs, not when it writes
        monkeypatch.setattr(cli, "ion_waveforms", None)
        blocker = tmp_path / "taken"
        blocker.write_text("")
        assert main(["ion-waveforms", "--out", str(blocker / below)]) == 2
        err = capsys.readouterr().err
        assert "out" in err and str(blocker) in err

    @pytest.mark.parametrize("omega_f", ["1e200", "1e300"])
    def test_overflowing_frequency_exits_two(self, tmp_path, capsys, omega_f):
        # omega^2 overflows the Fock-space Hamiltonian
        assert main(["ho-figure1", "--omega-f", omega_f,
                     "--out", str(tmp_path)]) == 2
        assert "omega_f" in capsys.readouterr().err

    @pytest.mark.parametrize("command, flag, value", [
        ("ising-figure2", "--delta", "inf"),
        ("ho-figure1", "--tau-list", "0.4,inf"),
        ("ion-waveforms", "--nu", "inf"),
    ])
    def test_non_finite_value_exits_two(self, tmp_path, capsys, command,
                                        flag, value):
        assert main([command, flag, value, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"{flag[2:].replace('-', '_')} must be" in err
        assert "finite" in err

    def test_infinite_beta_accepted(self, tmp_path):
        assert main(["ho-figure1", *SMALL_HO, "--beta", "inf",
                     "--out", str(tmp_path)]) == 0

    @pytest.mark.parametrize("grid", ["1", "2"])
    def test_grid_below_three_exits_two(self, tmp_path, capsys, grid):
        assert main(["ho-figure1", "--grid", grid,
                     "--out", str(tmp_path)]) == 2
        assert "grid" in capsys.readouterr().err

    # values past float range: g lamdot^2 with lamdot ~ delta / tau, and
    # the coupling rates |lamdot <n|dH0|k>|^2 with lamdot ~ 1 / tau
    @pytest.mark.parametrize("argv, keys", [
        (["ising-figure2", "--n-list", "32", "--delta", "3",
          "--tau-list", "1e-300", "--grid", "34"], ("tau_list", "delta")),
        (["ho-figure1", "--tau", "2.589258758753062e-196",
          "--tau-list", "0.00022621737363199605,3.4304911597934754e-109",
          "--fock-dim", "57", "--grid", "23", "--beta", "inf"],
         ("tau", "tau_list")),
        (["ion-waveforms", "--omega-i", "1e-300", "--omega-f", "1e-300",
          "--tau", "1e-300", "--nu", "1e300", "--grid", "3"], ("nu",)),
    ], ids=["ising-figure2", "ho-figure1", "ion-waveforms"])
    def test_float_range_error_names_keys(self, tmp_path, capsys, argv, keys):
        assert main([*argv, "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("FloatingPointError: ")
        for key in keys:
            assert re.search(rf"\b{key}\b", err), err

    def test_truncation_error_exit_one(self, tmp_path, capsys):
        code = main(["ho-figure1", "--fock-dim", "40", "--grid", "21",
                     "--tau-list", "0.8", "--out", str(tmp_path)])
        assert code == 1
        assert "TruncationError" in capsys.readouterr().err

    # a retained state that leaks past the basis, and a thermal tail on
    # the top level: fock_dim is the key that enlarges the basis
    @pytest.mark.parametrize("argv", [
        ["--omega-f", "1e5"], ["--beta", "0.01"]],
        ids=["leakage", "thermal-tail"])
    def test_truncation_error_names_fock_dim(self, tmp_path, capsys, argv):
        assert main(["ho-figure1", "--fock-dim", "40", "--grid", "3", *argv,
                     "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("TruncationError: ")
        assert re.search(r"\bfock_dim\b", err), err


# positive numbers from the bottom to the top of the float range
EXTREME = st.one_of(st.sampled_from([1e-300, 1e-5, 1.0, 3.0, 1e5, 1e300]),
                    st.floats(1e-300, 1e300))


@st.composite
def fit_ladders(draw):
    """Five or more distinct even chain lengths in 4..256 spanning at
    least 1.5 decades: every ladder that ``ising.scaling_fit`` takes."""
    low = draw(st.sampled_from([4, 6, 8]))
    high = 2 * draw(st.integers(math.ceil(low * 10**1.5 / 2), 128))
    middle = draw(st.sets(st.integers(low // 2 + 1, high // 2 - 1),
                          min_size=3, max_size=6))
    return draw(st.permutations([low, high, *(2 * k for k in middle)]))


def exit_code_in_process(command, argv, keyed=()):
    """main's exit code for one run into a scratch directory, after
    checking that an exit-2 message, and an exit-1 message of an error
    named in ``keyed``, names one of the command's keys.
    ValidityWarning is documented ion-waveforms output; any other
    warning is an error."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as out, warnings.catch_warnings(), \
            redirect_stdout(io.StringIO()), redirect_stderr(err):
        warnings.simplefilter("ignore", ValidityWarning)
        code = main([command, *argv, "--out", out])
    message = err.getvalue()
    if code == 2 or code == 1 and message.startswith(
            tuple(f"{name}: " for name in keyed)):
        assert any(re.search(rf"\b{key}\b", message)
                   for key in cli._COMMANDS[command]), message
    return code


class TestHoFigure1ConfigSpace:
    @settings(max_examples=100, deadline=None)
    @given(omega_i=EXTREME, omega_f=EXTREME,
           beta=st.one_of(EXTREME, st.just(math.inf)), tau=EXTREME,
           tau_list=st.lists(EXTREME, min_size=1, max_size=3),
           fock_dim=st.integers(40, 80), grid=st.integers(3, 41))
    # each once raised instead of exiting: an infinite v^2 times a zero
    # ramp-end norm, grid steps whose product underflows, beta * gap past
    # float range, a power-law fit through underflowed averages, and a
    # squared coupling past float range
    @example(1e-5, 1e-5, 1e5, 1e-5, [1e-300], 40, 3)
    @example(1e-5, 1e-5, 1e5, 1e-300, [1e-300], 40, 3)
    @example(3.7173932435387287e+52, 5.9172095549149565e+57,
             2.009683117866449e+278, 1e5, [1e-5], 51, 5)
    @example(1.0, 1.8296112156007298, 2.863959888394249e+49,
             46.35868266809509, [1e5, 1e300], 70, 27)
    @example(1.0, 3.0, math.inf, 2.589258758753062e-196,
             [0.00022621737363199605, 3.4304911597934754e-109], 57, 23)
    def test_every_config_exits_with_a_documented_code(
            self, omega_i, omega_f, beta, tau, tau_list, fock_dim, grid):
        assert exit_code_in_process("ho-figure1", [
            "--omega-i", repr(omega_i), "--omega-f", repr(omega_f),
            "--beta", repr(beta), "--tau", repr(tau),
            "--tau-list", ",".join(map(repr, tau_list)),
            "--fock-dim", str(fock_dim), "--grid", str(grid)],
            keyed=("TruncationError", "FloatingPointError")) in (0, 1, 2)


class TestIsingFigure2ConfigSpace:
    @settings(max_examples=60, deadline=None)
    @given(delta=EXTREME, tau_list=st.lists(EXTREME, min_size=1, max_size=3),
           grid=st.integers(3, 41),
           n_list=st.lists(st.integers(1, 256), min_size=1, max_size=6),
           trajectory_sites=st.integers(1, 64))
    # an excess past float range once warned and wrote inf cells; an odd
    # trajectory chain and a too-narrow fit ladder exited 2 naming no
    # key; a delta that rounds away raised a ValueError from the fit
    @example(3.0, [1e-300], 34, [32], 64)
    @example(1.0, [1.0], 21, [32], 5)
    @example(1.0, [1.0], 21, [32, 64, 128, 256, 512], 64)
    @example(1e-20, [1.0], 21, [32, 64, 128, 256, 512, 1024], 64)
    # the sweep-cost quadrature once spent time growing with log(delta)
    @example(1e70, [1e70], 21, [8, 16, 32, 64, 128, 256], 16)
    def test_every_config_exits_with_a_documented_code(
            self, delta, tau_list, grid, n_list, trajectory_sites):
        assert exit_code_in_process("ising-figure2", [
            "--delta", repr(delta), "--tau-list", ",".join(map(repr, tau_list)),
            "--grid", str(grid), "--n-list", ",".join(map(str, n_list)),
            "--trajectory-sites", str(trajectory_sites)],
            keyed=("FloatingPointError",)) in (0, 1, 2)

    @settings(max_examples=30, deadline=None)
    # every delta that moves lam off the critical point in floating point,
    # up to where the trajectories, which run before the fit, exit 1: past
    # lam ~ 1e154 their lamdot^2 overflows
    @given(delta=st.floats(2.0**-52, 1e150), n_list=fit_ladders(),
           grid=st.integers(3, 41))
    def test_every_fit_ladder_reaches_the_fit(self, delta, n_list, grid):
        with mock.patch.object(ising, "scaling_fit",
                               wraps=ising.scaling_fit) as fit:
            code = exit_code_in_process("ising-figure2", [
                "--delta", repr(delta), "--n-list", ",".join(map(str, n_list)),
                "--grid", str(grid)], keyed=("FloatingPointError",))
        assert code in (0, 1, 2)
        fit.assert_called_once()


class TestIonWaveformsConfigSpace:
    @settings(max_examples=100, deadline=None)
    @given(omega_i=EXTREME, omega_f=EXTREME, tau=EXTREME, nu=EXTREME,
           grid=st.integers(3, 41))
    # each once raised a RuntimeWarning: omega^2 past float range, and
    # the round trip's square root of a potential that overflowed to inf;
    # nu^2 past float range once exited 1 naming no key
    @example(1e300, 1e300, 1.0, 1e300, 5)
    @example(1.0, 3.0, 1e-300, 1e300, 5)
    @example(1e-300, 1e-300, 1e-300, 1e300, 3)
    def test_every_config_exits_with_a_documented_code(
            self, omega_i, omega_f, tau, nu, grid):
        assert exit_code_in_process("ion-waveforms", [
            "--omega-i", repr(omega_i), "--omega-f", repr(omega_f),
            "--tau", repr(tau), "--nu", repr(nu), "--grid", str(grid)],
            keyed=("FloatingPointError",)) in (0, 1, 2)


class TestVerifyCommand:
    def test_default_run_passes(self, tmp_path, capsys):
        code = main(["verify", "--chain-samples", "2",
                     "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "all 24 checks passed" in out
        report = json.loads((tmp_path / "verify_report.json").read_text())
        assert report["passed"] is True
        assert len(report["checks"]) == 24

    def test_seed_flag_reaches_the_suite(self, monkeypatch, capsys):
        seen = {}

        def fake_run(seed, **kwargs):
            seen["seed"] = seed
            return []

        monkeypatch.setattr(cli, "run_verification", fake_run)
        assert main(["verify", "--seed", "8"]) == 0
        assert seen["seed"] == 8

    @pytest.mark.parametrize("seed", ["-5", "-1"])
    def test_negative_seed_exits_two(self, capsys, seed):
        assert main(["verify", "--seed", seed]) == 2
        assert "seed" in capsys.readouterr().err

    def test_auxiliary_scale_is_no_flag(self, capsys):
        # the certificate always runs the true auxiliary term
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--h1-scale", "2"])
        assert exc.value.code == 2
        assert "--h1-scale" in capsys.readouterr().err

    def test_auxiliary_scale_is_no_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"h1_scale": 2.0}))
        assert main(["verify", "--config", str(cfg)]) == 2
        assert "unknown config key 'h1_scale'" in capsys.readouterr().err

    @staticmethod
    def _scaled_certificate(monkeypatch, h1_scale):
        # the certificate check at a wrong auxiliary scale; the bare
        # control calls spectral.level_propagation, which this leaves be
        monkeypatch.setattr(verify, "transitionless_certificate", partial(
            spectral.transitionless_certificate, h1_scale=h1_scale))

    def test_corrupted_auxiliary_term_fails(self, monkeypatch, capsys):
        self._scaled_certificate(monkeypatch, 2.0)
        code = main(["verify", "--chain-samples", "1"])
        out = capsys.readouterr().out
        assert code == 1
        assert "FAIL transitionless-certificate" in out
        assert "PASS bare-drive-control-fails" in out

    def test_huge_auxiliary_term_ends_in_step_budget(self, tmp_path,
                                                     monkeypatch, capsys):
        # under the CLI's floating-point policy the propagation of a
        # 1e300 auxiliary term stops on its step budget, not on an
        # overflow in the Magnus commutator
        self._scaled_certificate(monkeypatch, 1e300)
        code = main(["verify", "--chain-samples", "1",
                     "--out", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert "StepNotConverged" in err
        assert "FloatingPointError" not in err

    def test_small_basis_surfaces_truncation_error(self, capsys):
        code = main(["verify", "--fock-dim", "40", "--chain-samples", "1"])
        assert code == 1
        err = capsys.readouterr().err
        assert "TruncationError" in err and "fock_dim = 40" in err

    def test_dead_forked_lane_exits_one_with_one_line(self, tmp_path,
                                                      monkeypatch, capsys):
        parent = os.getpid()

        def die():
            # only the forked child ends: a serial run would end pytest
            if os.getpid() == parent:
                raise AssertionError("lane B ran in the parent process")
            os._exit(9)

        monkeypatch.setattr(lanes, "_two_cpus", lambda: True)
        monkeypatch.setattr(verify, "_check_ising_trajectory", die)
        code = main(["verify", "--chain-samples", "1",
                     "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.count("\n") == 1 and "exit status 9" in err


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "cdwork.cli", "--version"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip()


def test_cli_never_loads_scipy(tmp_path):
    # importing scipy (scipy.linalg alone pulls in numpy.f2py) took longer
    # than a whole ho-figure1 run; the package calls LAPACK through
    # numpy's OpenBLAS, and imports scipy only where numpy ships none
    script = (
        "import sys\n"
        "def scipy_modules():\n"
        "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "import cdwork\n"
        "loaded = [scipy_modules()]\n"
        "from cdwork.cli import main\n"
        "loaded.append(scipy_modules())\n"
        f"codes = [main(['ho-figure1', '--grid', '101', '--tau-list', "
        f"'0.4,0.8', '--out', {str(tmp_path)!r}]), "
        f"main(['ising-figure2', '--grid', '21', '--n-list', '32', "
        f"'--out', {str(tmp_path)!r}]), "
        f"main(['ion-waveforms', '--out', {str(tmp_path)!r}])]\n"
        "loaded.append(scipy_modules())\n"
        "print(codes, loaded)\n")
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[0, 0, 0] [[], [], []]"


def test_cli_never_loads_a_process_pool(tmp_path):
    # verify and ho-figure1 fork their second lane with os.fork; importing
    # multiprocessing or concurrent.futures would add to every start-up
    script = (
        "import sys\n"
        "def pool_modules():\n"
        "    pools = ('multiprocessing', 'concurrent')\n"
        "    return sorted(m for m in sys.modules\n"
        "                  if m.split('.')[0] in pools)\n"
        "from cdwork.cli import main\n"
        "loaded = [pool_modules()]\n"
        f"codes = [main(['verify', '--chain-samples', '1', '--out', "
        f"{str(tmp_path)!r}]), "
        f"main(['ho-figure1', '--grid', '101', '--tau-list', '0.4,0.8', "
        f"'--out', {str(tmp_path)!r}])]\n"
        "loaded.append(pool_modules())\n"
        "print(codes, loaded)\n")
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[0, 0] [[], []]"


def test_verify_bytes_do_not_depend_on_blas_threads(tmp_path):
    # a threaded BLAS rounds the Ising oracle's dense eigh differently at
    # each thread count; the CLI runs on one.  On a machine with a single
    # CPU OpenBLAS runs one thread whatever it is told, so there this
    # test cannot tell a pinned run from an unpinned one
    runs = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        proc = subprocess.run(
            [sys.executable, "-m", "cdwork.cli", "verify",
             "--chain-samples", "1", "--out", str(out)],
            capture_output=True, env=dict(os.environ,
                                          OPENBLAS_NUM_THREADS=threads))
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == b""
        runs.append((proc.stdout, read_all(out)))
    assert runs[0] == runs[1]


def test_main_runs_on_one_blas_thread_and_restores_the_count(monkeypatch):
    lib = oscillator._OPENBLAS
    if lib is None:
        pytest.skip("numpy ships no OpenBLAS")
    seen = []

    def handler(cfg):
        seen.append(lib.scipy_openblas_get_num_threads64_())
        return 0

    monkeypatch.setitem(cli._HANDLERS, "ion-waveforms", handler)
    before = lib.scipy_openblas_get_num_threads64_()
    lib.scipy_openblas_set_num_threads64_(2)
    try:
        threads = lib.scipy_openblas_get_num_threads64_()
        assert main(["ion-waveforms"]) == 0
        assert seen == [1]
        assert lib.scipy_openblas_get_num_threads64_() == threads
    finally:
        lib.scipy_openblas_set_num_threads64_(before)
