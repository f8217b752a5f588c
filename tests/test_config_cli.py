import ast
import hashlib
import re
import sys
from dataclasses import fields, make_dataclass, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import multicast_mimo
from multicast_mimo import config as config_module
from multicast_mimo import engine
from multicast_mimo.cli import main
from multicast_mimo.config import (
    ConfigError,
    NetworkConfig,
    apply_overrides,
    parse_config,
    serialize_config,
    validate_config,
)
from multicast_mimo.engine import run_experiment
from multicast_mimo.geometry import MAX_RADIUS_M
from multicast_mimo.scenarios import (
    CDF_COLUMNS,
    DEFAULT_E_SWEEP_DBW,
    PILOT_POWER_LEVELS_DBW,
    SCENARIOS,
    emit_csv,
    run_scenario,
    sweep_columns,
)

ROOT = Path(__file__).resolve().parents[1]

ASYNC = NetworkConfig(
    scheme="composite-async", async_offsets_s=(0.0,) * 21, pilot_symbol_s=1e-6
)


class TestParseConfig:
    def test_empty_document_gives_defaults(self):
        config = parse_config("")
        assert config.cells == 7
        assert config.users_per_cell == 3
        assert config.antennas is None
        assert config.radius_m == 1000.0
        assert config.exclusion_m == 100.0
        assert config.pathloss_intercept_db == 128.1
        assert config.pathloss_slope == 37.6
        assert config.shadow_sigma_db == 8.0
        assert config.penetration_loss_db == 20.0
        assert config.noise_psd_dbm_hz == -174.0
        assert config.bandwidth_hz == 20e6
        assert config.pilot_noise_ratio == 0.1
        assert config.pilot_length == 8
        assert config.p_u_dbw == 2.0

    def test_comments_and_blank_lines(self):
        config = parse_config("# a comment\n\ncells = 3  # trailing\n")
        assert config.cells == 3

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError) as err:
            parse_config("antenas = 32")
        assert "antenas" in str(err.value)

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("cells = 3\ncells = 7\n")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("cells = seven")

    def test_power_list_converts_to_watts(self):
        config = parse_config("E_dbw = 0,10,20")
        assert np.allclose(config.bs_power_w, [1.0, 10.0, 100.0], rtol=1e-12)
        assert parse_config("p_u_dbw = 2").peak_pilot_power_w == pytest.approx(
            10 ** 0.2, rel=1e-12
        )

    def test_pilot_length_invariants(self):
        with pytest.raises(ConfigError):
            parse_config("scheme = composite\npilot_length = 5")
        with pytest.raises(ConfigError):
            parse_config("scheme = individual-pilot\nusers_per_cell = 9")
        parse_config("scheme = individual-pilot\npilot_length = 3")  # K=3 fits

    def test_async_requirements(self):
        with pytest.raises(ConfigError):
            parse_config("scheme = composite-async")
        offsets = ",".join(["0.0"] * 21)
        config = parse_config(
            f"scheme = composite-async\nasync_offsets_s = {offsets}\npilot_symbol_s = 1e-6"
        )
        assert len(config.async_offsets_s) == 21

    def test_geometry_invariants(self):
        with pytest.raises(ConfigError):
            parse_config("exclusion_m = 1000")
        with pytest.raises(ConfigError):
            parse_config("cells = 4")

    @pytest.mark.parametrize("value", ["0", "-5"])
    def test_exclusion_disk_must_be_positive(self, value):
        with pytest.raises(ConfigError) as err:
            parse_config(f"exclusion_m = {value}")
        assert err.value.key == "exclusion_m"
        assert parse_config("exclusion_m = 0.5").exclusion_m == 0.5

    @pytest.mark.parametrize("value, admitted", [("866", True), ("867", False)])
    def test_exclusion_disk_must_fit_inside_the_hexagon(self, value, admitted):
        # the hexagon's inscribed radius is sqrt(3)/2 * 1000 m = 866.03 m
        if admitted:
            assert parse_config(f"exclusion_m = {value}").exclusion_m == float(value)
            return
        with pytest.raises(ConfigError) as err:
            parse_config(f"exclusion_m = {value}")
        assert err.value.key == "exclusion_m"

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize(
        "key, entry",
        [
            ("radius_m", lambda v: v),
            ("exclusion_m", lambda v: v),
            ("E_dbw", lambda v: (10.0, v)),
            ("p_u_dbw", lambda v: v),
            ("pilot_symbol_s", lambda v: v),
            ("async_offsets_s", lambda v: (0.0,) * 20 + (v,)),
            ("pathloss_intercept_db", lambda v: v),
            ("pathloss_slope", lambda v: v),
            ("shadow_sigma_db", lambda v: v),
            ("penetration_loss_db", lambda v: v),
            ("noise_psd_dbm_hz", lambda v: v),
            ("bandwidth_hz", lambda v: v),
            ("pilot_noise_ratio", lambda v: v),
        ],
    )
    def test_non_finite_float_names_its_key(self, key, entry, value):
        # built in code or parsed from a document, one check names the key
        with pytest.raises(ConfigError) as err:
            validate_config(replace(ASYNC, **{key: entry(value)}))
        assert err.value.key == key
        field = entry(value)
        text = ",".join(map(repr, field)) if isinstance(field, tuple) else repr(field)
        with pytest.raises(ConfigError) as err:
            apply_overrides(ASYNC, {key: text})
        assert err.value.key == key

    @pytest.mark.parametrize("value", [np.nan, 0.0, -1e-6])
    def test_async_symbol_duration_must_be_positive(self, value):
        with pytest.raises(ConfigError) as err:
            validate_config(replace(ASYNC, pilot_symbol_s=value))
        assert err.value.key == "pilot_symbol_s"

    @pytest.mark.parametrize(
        "offset, admitted",
        [
            (0.0, True),
            (np.nextafter(1e-6, 0.0), True),
            (-1e-12, False),
            (1e-6, False),
            (20e-6, False),
        ],
    )
    def test_async_offsets_must_lie_within_one_symbol(self, offset, admitted):
        config = replace(ASYNC, async_offsets_s=(0.0,) * 20 + (float(offset),))
        if admitted:
            validate_config(config)
            return
        with pytest.raises(ConfigError) as err:
            validate_config(config)
        assert err.value.key == "async_offsets_s"

    @pytest.mark.parametrize("num_large, admitted", [(2**32 - 1, True), (2**32, False)])
    def test_realization_count_fits_one_entropy_word(self, num_large, admitted):
        # realization t keys its generators with t as one 32-bit word
        document = f"num_large = {num_large}"
        if admitted:
            assert parse_config(document).num_large == num_large
            return
        with pytest.raises(ConfigError) as err:
            parse_config(document)
        assert err.value.key == "num_large"

    @pytest.mark.parametrize(
        "key, value",
        [("antennas", 2**64), ("antennas_sweep", (100, 2**64)), ("num_small", 2**63)],
    )
    def test_count_fits_int64(self, key, value):
        # numpy computes counts in int64: 2**64 antennas failed in np.sqrt
        with pytest.raises(ConfigError) as err:
            validate_config(replace(NetworkConfig(), **{key: value}))
        assert err.value.key == key
        text = ",".join(map(str, value)) if isinstance(value, tuple) else str(value)
        with pytest.raises(ConfigError) as err:
            apply_overrides(NetworkConfig(), {key: text})
        assert err.value.key == key

    def test_largest_count_and_any_seed_admitted(self):
        largest = 2**63 - 1
        validate_config(NetworkConfig(antennas=largest, antennas_sweep=(largest,)))
        validate_config(NetworkConfig(antennas=np.uint64(largest)))
        validate_config(NetworkConfig(master_seed=2**64))  # a seed is only hashed
        with pytest.raises(ConfigError) as err:
            validate_config(NetworkConfig(antennas=np.uint64(2**64 - 1)))
        assert err.value.key == "antennas"

    @pytest.mark.parametrize(
        "radius_m, admitted",
        [(MAX_RADIUS_M, True), (np.nextafter(MAX_RADIUS_M, np.inf), False), (9e307, False)],
    )
    def test_radius_keeps_the_drop_box_finite(self, radius_m, admitted):
        # the user drop's box spans 2 * radius_m; past the bound that span
        # is inf, no candidate is admissible, and the drop never returned
        config = NetworkConfig(radius_m=float(radius_m))
        if admitted:
            validate_config(config)
            return
        with pytest.raises(ConfigError) as err:
            validate_config(config)
        assert err.value.key == "radius_m"

    @pytest.mark.parametrize(
        "p_u_dbw, admitted", [(-3000.0, True), (3000.0, True), (-4000.0, False), (4000.0, False)]
    )
    def test_pilot_power_in_watts_is_positive_and_finite(self, p_u_dbw, admitted):
        # 0 W failed as a "zero mean min-SINR", an infinite power as a
        # "non-finite SINR", both at E_dbw = 10, and power control raised a
        # ValueError that named no key
        config = NetworkConfig(num_large=2, scheme="composite-power-controlled", p_u_dbw=p_u_dbw)
        if admitted:
            validate_config(config)
            return
        for check in (validate_config, run_experiment):
            with pytest.raises(ConfigError) as err:
                check(config)
            assert err.value.key == "p_u_dbw"

    @pytest.mark.parametrize("value", [np.nan, np.inf, 0.0, -1.0])
    @pytest.mark.parametrize("key", ["bandwidth_hz", "pilot_noise_ratio"])
    def test_fading_positive_fields_reject_non_finite(self, key, value):
        with pytest.raises(ConfigError) as err:
            validate_config(NetworkConfig(**{key: value}))
        assert err.value.key == key

    @pytest.mark.parametrize("value", [-1.0, -1e-9])
    def test_negative_shadow_sigma_names_its_key(self, value):
        with pytest.raises(ConfigError) as err:
            validate_config(NetworkConfig(shadow_sigma_db=value))
        assert err.value.key == "shadow_sigma_db"
        with pytest.raises(ConfigError) as err:
            parse_config(f"shadow_sigma_db = {value}")
        assert err.value.key == "shadow_sigma_db"
        assert parse_config("shadow_sigma_db = 0").shadow_sigma_db == 0.0

    @pytest.mark.parametrize(
        "document",
        ["pathloss_slope = 30\nbandwidth_hz = -5", "bandwidth_hz = -5\npathloss_slope = 30"],
    )
    def test_fading_error_names_the_key_at_fault(self, document):
        with pytest.raises(ConfigError) as err:
            parse_config(document)
        assert err.value.key == "bandwidth_hz"

    @pytest.mark.parametrize(
        "key, value",
        [
            ("num_large", np.nan),
            ("num_small", 2.5),
            ("antennas", np.nan),
            ("antennas", 16.0),
            ("pilot_length", 2.5),
            ("antennas_sweep", (100.5, 300)),
            ("master_seed", 1.5),
            ("users_per_cell", 2.0),
            ("cells", 7.0),
            ("num_large", True),
        ],
    )
    def test_non_integer_count_names_its_key(self, key, value):
        # a config built in code bypasses the parser's int()
        with pytest.raises(ConfigError) as err:
            validate_config(replace(NetworkConfig(), **{key: value}))
        assert err.value.key == key

    @pytest.mark.parametrize(
        "key, value",
        [
            ("async_power_control", "no"),
            ("async_power_control", 1),
            ("E_dbw", 10.0),
            ("E_dbw", [10.0]),
            ("E_dbw", (True,)),
            ("antennas_sweep", 100),
            ("antennas_sweep", [100, 300]),
            ("async_offsets_s", [0.0] * 21),
            ("radius_m", "1000"),
            ("p_u_dbw", None),
            ("p_u_dbw", True),
            ("p_u_dbw", np.float32(2.1)),
            ("pilot_symbol_s", "1e-6"),
            ("bandwidth_hz", "20e6"),
            ("shadow_sigma_db", None),
            ("pilot_noise_ratio", True),
            ("output_dir", None),
            ("output_dir", 5),
        ],
    )
    def test_mistyped_field_names_its_key(self, key, value):
        # a config built in code bypasses the parser's float() and types
        with pytest.raises(ConfigError) as err:
            validate_config(replace(NetworkConfig(), **{key: value}))
        assert err.value.key == key

    @pytest.mark.parametrize("key", ["E_dbw", "async_offsets_s", "antennas_sweep"])
    def test_empty_tuple_names_its_key(self, key, tmp_path):
        # the manifest would write "key = ", which does not parse back
        config = replace(NetworkConfig(num_large=2), **{key: ()})
        with pytest.raises(ConfigError, match="needs at least one value") as err:
            validate_config(config)
        assert err.value.key == key
        with pytest.raises(ConfigError) as err:
            run_scenario("fig2-cdf-perfect", config, tmp_path)
        assert err.value.key == key
        assert not any(tmp_path.iterdir())

    def test_numpy_integers_are_counts(self):
        validate_config(
            NetworkConfig(antennas=np.int64(16), antennas_sweep=(np.int64(100), 300))
        )

    @pytest.mark.parametrize("sweep", [(), (100, 100), (100, 300, 100)])
    def test_antenna_sweep_must_be_non_empty_and_distinct(self, sweep, tmp_path):
        with pytest.raises(ConfigError) as err:
            validate_config(replace(NetworkConfig(), antennas_sweep=sweep))
        assert err.value.key == "antennas_sweep"
        config = NetworkConfig(num_large=2, num_small=2, antennas_sweep=sweep)
        with pytest.raises(ConfigError) as err:
            run_scenario("fig10-finite-M", config, tmp_path)
        assert err.value.key == "antennas_sweep"
        assert not list(tmp_path.glob("*.csv"))

    def test_bs_powers_must_be_distinct(self, tmp_path, capsys):
        # a repeated power would write the same sweep row twice
        with pytest.raises(ConfigError) as err:
            validate_config(replace(NetworkConfig(), E_dbw=(10.0, 10.0, 20.0)))
        assert err.value.key == "E_dbw"
        with pytest.raises(ConfigError) as err:
            parse_config("E_dbw = 10, 10, 20")
        assert err.value.key == "E_dbw"
        args = ["fig5/6-sweep-E", "--set", "E_dbw=10,10,20", "--set", "num_large=4"]
        assert main(args + ["--out", str(tmp_path)]) == 1
        assert "'E_dbw'" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_one_key_vocabulary(self):
        # every key has a row of its own in the README's configuration table
        lines = (ROOT / "README.md").read_text().splitlines()
        start = lines.index("| key | default | meaning |")
        rows = []
        for line in lines[start + 2 :]:
            if not line.startswith("|"):
                break
            rows.append(line.split("|")[1])
        documented = {key for row in rows for key in re.findall(r"`([^`]+)`", row)}
        assert {f.name for f in fields(NetworkConfig)} <= documented

    @pytest.mark.parametrize(
        "annotation",
        [tuple, list[float], tuple[int, float], int | str, "int", complex],
        ids=["bare-tuple", "list", "pair", "union", "string", "complex"],
    )
    def test_unreadable_annotation_names_its_field(self, annotation):
        # the key table is read off the annotations when the package is
        # imported, so a field it cannot read stops the import
        odd = make_dataclass("Odd", [("cells", int), ("odd_key", annotation)])
        with pytest.raises(TypeError, match="'odd_key'"):
            config_module._key_table(odd)

    def test_round_trip_defaults(self):
        config = NetworkConfig()
        assert parse_config(serialize_config(config)) == config

    def test_round_trip_custom(self):
        # every key at a value other than its default, so that each kind of
        # key is parsed and written once
        offsets = tuple(float(x) for x in np.linspace(0, 9e-7, 6))
        overrides = {
            "cells": "3",
            "users_per_cell": "2",
            "antennas": "256",
            "radius_m": "500.5",
            "exclusion_m": "50.25",
            "E_dbw": "0.5,12.25",
            "p_u_dbw": "-3.5",
            "pilot_length": "4",
            "scheme": "composite-async",
            "async_offsets_s": ",".join(repr(o) for o in offsets),
            "pilot_symbol_s": "1e-06",
            "async_power_control": "false",
            "antennas_sweep": "16,64",
            "num_large": "7",
            "num_small": "9",
            "master_seed": "99",
            "output_dir": "runs/custom",
            "pathloss_intercept_db": "130.5",
            "pathloss_slope": "35.25",
            "shadow_sigma_db": "6.5",
            "penetration_loss_db": "10",
            "noise_psd_dbm_hz": "-170.5",
            "bandwidth_hz": "1e7",
            "pilot_noise_ratio": "0.25",
        }
        assert set(overrides) == {f.name for f in fields(NetworkConfig)}
        config = apply_overrides(NetworkConfig(), overrides)
        for f in fields(NetworkConfig):
            assert getattr(config, f.name) != f.default, f.name
        assert parse_config(serialize_config(config)) == config

    def test_asymptotic_antenna_round_trip(self):
        config = apply_overrides(NetworkConfig(), {"antennas": "asymptotic"})
        assert config.antennas is None
        assert "antennas = asymptotic" in serialize_config(config)

    @pytest.mark.parametrize("key", ["output_dir", "scheme"])
    @pytest.mark.parametrize("value", ["runs#2", "runs\n2", "runs\r2", "runs\u20282"])
    def test_text_that_would_not_round_trip_rejected(self, key, value):
        with pytest.raises(ConfigError) as err:
            apply_overrides(NetworkConfig(), {key: value})
        assert err.value.key == key

    @pytest.mark.parametrize(
        "value", ["runs#2", "runs\n2", "runs\r2", "runs\u20282", " runs", "runs "]
    )
    def test_text_set_in_code_that_would_not_round_trip_rejected(self, value):
        with pytest.raises(ConfigError) as err:
            validate_config(replace(NetworkConfig(), output_dir=value))
        assert err.value.key == "output_dir"

    @settings(max_examples=200, deadline=None)
    @given(
        output_dir=st.one_of(st.text(), st.text(alphabet="r/ #=\t\n\r\u2028")),
        e_dbw=st.lists(st.floats(-100, 100), min_size=1, max_size=3),
        p_u_dbw=st.floats(allow_nan=False, allow_infinity=False),
        shadow_sigma_db=st.floats(0, 20),
        antennas=st.one_of(st.none(), st.integers(1, 10**6)),
        master_seed=st.integers(0, 2**63),
    )
    def test_valid_configs_round_trip(
        self, output_dir, e_dbw, p_u_dbw, shadow_sigma_db, antennas, master_seed
    ):
        pairs = {
            "output_dir": output_dir,
            "E_dbw": ",".join(repr(e) for e in e_dbw),
            "p_u_dbw": repr(p_u_dbw),
            "shadow_sigma_db": repr(shadow_sigma_db),
            "antennas": "asymptotic" if antennas is None else str(antennas),
            "master_seed": str(master_seed),
        }
        try:
            config = apply_overrides(NetworkConfig(), pairs)
        except ConfigError:
            return
        assert parse_config(serialize_config(config)) == config


class TestNoisePower:
    def test_twenty_mhz_reference(self):
        # -174 dBm/Hz over 20 MHz: -100.99 dBm
        assert NetworkConfig().noise_power_w == pytest.approx(
            7.96214341106994e-14, rel=1e-12
        )

    def test_one_hz_is_psd(self):
        config = NetworkConfig(bandwidth_hz=1.0)
        assert 10 * np.log10(config.noise_power_w * 1000) == pytest.approx(-174.0)

    def test_doubling_bandwidth_adds_3db(self):
        a = NetworkConfig(bandwidth_hz=1e7).noise_power_w
        b = NetworkConfig(bandwidth_hz=2e7).noise_power_w
        assert 10 * np.log10(b / a) == pytest.approx(10 * np.log10(2), rel=1e-12)

    def test_pilot_noise_ratio(self):
        config = NetworkConfig()
        assert config.pilot_noise_power_w == pytest.approx(0.1 * config.noise_power_w, rel=1e-12)


class TestEmitCsv:
    def test_cdf_rows_sorted_with_six_decimals(self, tmp_path):
        report = run_experiment(
            NetworkConfig(antennas=None, num_large=5), scheme="perfect-optimal"
        )
        path = emit_csv(tmp_path / "cdf.csv", CDF_COLUMNS, report.cdf, "test curve")
        lines = path.read_text().splitlines()
        assert lines[0] == "# test curve"
        assert lines[1] == (
            "# columns: sinr_db = min-user SINR sample [dB]; probability = empirical CDF"
        )
        assert lines[2] == "sinr_db,probability"
        values = [float(line.split(",")[0]) for line in lines[3:]]
        assert values == sorted(values)
        assert all(len(part.split(".")[1]) == 6 for part in lines[3].split(","))

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_csv(tmp_path / "bad.csv", sweep_columns("E_dbw"), ())
        assert not (tmp_path / "bad.csv").exists()


class TestScenarios:
    def test_unknown_scenario(self, tmp_path):
        with pytest.raises(ValueError):
            run_scenario("fig99", NetworkConfig(), out_dir=tmp_path)

    def test_sweep_rows_sorted_by_x(self, tmp_path):
        # the preset lists its curve's points in the config's E_dbw order
        config = NetworkConfig(E_dbw=(20.0, 0.0, 10.0), num_large=2)
        path = run_scenario("fig5/6-sweep-E", config, out_dir=tmp_path)[1]
        lines = path.read_text().splitlines()
        assert lines[2] == "E_dbw,mean_min_sinr_db"
        assert list(_sweep_rows(path)[:, 0]) == [0.0, 10.0, 20.0]

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_invalid_config_writes_nothing(self, name, tmp_path):
        out = tmp_path / "out"
        with pytest.raises(ConfigError) as err:
            run_scenario(name, NetworkConfig(radius_m=float("nan")), out_dir=out)
        assert err.value.key == "radius_m"
        assert not out.exists()

    @pytest.mark.parametrize(
        "name, overrides, key",
        [
            ("fig3/4-cdf-schemes", {"pilot_length": "2"}, "pilot_length"),
            ("fig7-sweep-pu", {"pilot_length": "5"}, "pilot_length"),
            ("fig10-finite-M", {"E_dbw": "1,2"}, "E_dbw"),
        ],
    )
    def test_invalid_curve_writes_nothing(self, name, overrides, key, tmp_path):
        # the base config is valid; a curve after the first is not
        config = apply_overrides(NetworkConfig(), {"num_large": "2", **overrides})
        out = tmp_path / "out"
        with pytest.raises(ConfigError) as err:
            run_scenario(name, config, out_dir=out)
        assert err.value.key == key
        assert not out.exists()

    def test_non_finite_curve_writes_nothing(self, monkeypatch, tmp_path):
        # the third of the four curves, composite, goes non-finite
        original = engine.sinr_from_gains
        calls = []

        def nan_in_third_curve(gains, eval_amp, bs_power_w, sigma2):
            out = original(gains, eval_amp, bs_power_w, sigma2)
            calls.append(None)
            if len(calls) == 3:
                out[0, 0, 0, 0] = np.nan
            return out

        monkeypatch.setattr(engine, "sinr_from_gains", nan_in_third_curve)
        config = apply_overrides(NetworkConfig(), {"num_large": "2"})
        out = tmp_path / "out"
        with pytest.raises(ArithmeticError, match="non-finite SINR"):
            run_scenario("fig3/4-cdf-schemes", config, out_dir=out)
        assert len(calls) == 3
        assert not out.exists()

    def test_power_sweep_builds_one_context_per_scheme(self, monkeypatch, tmp_path):
        original = engine._build_trial_context
        schemes = []

        def recording(config, beta):
            schemes.append(config.scheme)
            return original(config, beta)

        monkeypatch.setattr(engine, "_build_trial_context", recording)
        config = apply_overrides(NetworkConfig(), {"num_large": "2"})
        paths = run_scenario("fig5/6-sweep-E", config, out_dir=tmp_path)
        assert len(paths) == 5
        assert sorted(schemes) == sorted(
            ("perfect-optimal", "individual-pilot", "composite", "composite-power-controlled")
        )

    def test_sweep_preset_accepts_several_powers(self, tmp_path):
        config = apply_overrides(NetworkConfig(), {"num_large": "2", "E_dbw": "1,2"})
        paths = run_scenario("fig5/6-sweep-E", config, out_dir=tmp_path)
        assert len(paths) == 5
        rows = paths[1].read_text().splitlines()[3:]
        assert [float(r.split(",")[0]) for r in rows] == [1.0, 2.0]

    def test_scheme_cdf_preset_writes_curves_and_manifest(self, tmp_path):
        config = apply_overrides(NetworkConfig(), {"num_large": "8"})
        paths = run_scenario("fig3/4-cdf-schemes", config, out_dir=tmp_path)
        names = sorted(p.name for p in paths)
        assert "manifest.cfg" in names
        assert "fig34_cdf_perfect-optimal_K3.csv" in names
        assert "fig34_cdf_individual-pilot_K3.csv" in names
        assert "fig34_cdf_composite_K3.csv" in names
        assert "fig34_cdf_composite-power-controlled_K3.csv" in names
        assert len(paths) == 5

    @pytest.mark.parametrize(
        "name, config",
        [
            (
                "fig2-cdf-perfect",
                apply_overrides(NetworkConfig(), {"num_large": "6", "master_seed": "77"}),
            ),
            # float keys set in code to an int or a numpy float
            ("fig7-sweep-pu", NetworkConfig(num_large=3, p_u_dbw=2)),
            ("fig2-cdf-perfect", NetworkConfig(num_large=3, radius_m=1000)),
            ("fig2-cdf-perfect", NetworkConfig(num_large=3, radius_m=np.float64(1000.0))),
        ],
        ids=["parsed", "int-p_u", "int-radius", "np-float64-radius"],
    )
    def test_manifest_reproduces_byte_identical_output(self, name, config, tmp_path):
        first = run_scenario(name, config, out_dir=tmp_path / "a")
        manifest = (tmp_path / "a" / "manifest.cfg").read_text()
        second = run_scenario(name, parse_config(manifest), out_dir=tmp_path / "b")
        for p1, p2 in zip(sorted(first), sorted(second)):
            assert p1.read_bytes() == p2.read_bytes()

    def test_sweep_preset_uses_default_sweep_for_single_power(self, tmp_path):
        config = apply_overrides(NetworkConfig(), {"num_large": "4"})
        paths = run_scenario("fig5/6-sweep-E", config, out_dir=tmp_path)
        sweep = next(p for p in paths if "perfect-optimal" in p.name)
        rows = sweep.read_text().splitlines()[3:]
        assert len(rows) == 7  # illustrative default sweep
        means = [float(r.split(",")[1]) for r in rows]
        assert all(b > a for a, b in zip(means, means[1:]))  # grows with power

    def test_manifest_names_the_package_version(self, tmp_path):
        config = apply_overrides(NetworkConfig(), {"num_large": "2"})
        manifest = run_scenario("fig3/4-cdf-schemes", config, out_dir=tmp_path)[0]
        lines = manifest.read_text().splitlines()
        assert f"# generator: multicast-mimo {multicast_mimo.__version__}" in lines

    def test_scheme_cdf_preset_ignores_the_config_scheme(self, tmp_path):
        # the preset sets each curve's scheme itself, so an unused scheme key
        # changes only the manifest
        for out, extra in (("a", []), ("b", ["--set", "scheme=composite"])):
            args = ["fig3/4-cdf-schemes", "--set", "num_large=4", "--out", str(tmp_path / out)]
            assert main(args + extra) == 0
        csvs = sorted(p.name for p in (tmp_path / "a").glob("*.csv"))
        assert len(csvs) == 4
        for name in csvs:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    # First 16 hex digits of the sha256 of each preset file at PINNED_CONFIG:
    # a CSV's data rows (its lines not starting with '#'; the header comments
    # carry fingerprints) and the whole manifest.  A declared change of a
    # random stream re-pins them.
    PINNED_CONFIG = NetworkConfig(
        num_large=4, num_small=2, antennas_sweep=(4, 16), master_seed=1
    )
    PINNED_DIGESTS = {
        ("fig10-finite-M", "manifest.cfg"): "e94f052660e7a0b4",
        ("fig10-finite-M", "fig10_finite_M_simulated.csv"): "f5ae1158db75941d",
        ("fig10-finite-M", "fig10_finite_M_asymptotic.csv"): "85f7080bb36190da",
        ("fig2-cdf-perfect", "manifest.cfg"): "cf936e3d3a548bda",
        ("fig2-cdf-perfect", "fig2_cdf_perfect-optimal_K3.csv"): "86a0bbd9539cc489",
        ("fig2-cdf-perfect", "fig2_cdf_perfect-equal_K3.csv"): "bc682cf23df0266f",
        ("fig2-cdf-perfect", "fig2_cdf_perfect-optimal_K10.csv"): "d8527396c73669cc",
        ("fig2-cdf-perfect", "fig2_cdf_perfect-equal_K10.csv"): "95b3a630f7ef5242",
        ("fig3/4-cdf-schemes", "manifest.cfg"): "d6841677f3a85f3e",
        ("fig3/4-cdf-schemes", "fig34_cdf_perfect-optimal_K3.csv"): "86a0bbd9539cc489",
        ("fig3/4-cdf-schemes", "fig34_cdf_individual-pilot_K3.csv"): "1e2481c156ae2cb0",
        ("fig3/4-cdf-schemes", "fig34_cdf_composite_K3.csv"): "e2cbc48f65f13b5f",
        ("fig3/4-cdf-schemes", "fig34_cdf_composite-power-controlled_K3.csv"): "02c7e7bcb4a6baca",
        ("fig5/6-sweep-E", "manifest.cfg"): "8c4305f5737fbfe6",
        ("fig5/6-sweep-E", "fig56_sweep_E_perfect-optimal_K3.csv"): "99a9936b9e836e5b",
        ("fig5/6-sweep-E", "fig56_sweep_E_individual-pilot_K3.csv"): "54414a68ef0a5199",
        ("fig5/6-sweep-E", "fig56_sweep_E_composite_K3.csv"): "57c9a3c213994e23",
        ("fig5/6-sweep-E", "fig56_sweep_E_composite-power-controlled_K3.csv"): "db6dc2bbee8c8ed1",
        ("fig7-sweep-pu", "manifest.cfg"): "f8ab787161fbe6d3",
        ("fig7-sweep-pu", "fig7_cdf_perfect-optimal.csv"): "86a0bbd9539cc489",
        ("fig7-sweep-pu", "fig7_cdf_composite-power-controlled_pu2dbw.csv"): "02c7e7bcb4a6baca",
        ("fig7-sweep-pu", "fig7_cdf_composite-power-controlled_pu4dbw.csv"): "ad3468cb3c66cdaa",
        ("fig7-sweep-pu", "fig7_cdf_composite-power-controlled_pu8dbw.csv"): "aa4e23f87134eab4",
    }

    def test_preset_outputs_are_pinned(self, tmp_path):
        got = {}
        for name in sorted(SCENARIOS):
            out = tmp_path / name.replace("/", "-")
            for path in run_scenario(name, self.PINNED_CONFIG, out_dir=out):
                lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
                if path.suffix == ".csv":
                    lines = [line for line in lines if not line.startswith("#")]
                digest = hashlib.sha256("".join(lines).encode()).hexdigest()[:16]
                got[(name, path.name)] = digest
        assert got == self.PINNED_DIGESTS

    def test_version_has_one_source(self):
        tomllib = pytest.importorskip("tomllib")  # standard library from 3.11
        project = tomllib.loads((ROOT / "pyproject.toml").read_text())
        assert "version" not in project["project"]
        assert project["project"]["dynamic"] == ["version"]
        dynamic = project["tool"]["setuptools"]["dynamic"]["version"]
        assert dynamic == {"attr": "multicast_mimo.__version__"}


def _sweep_rows(path):
    """(x, mean_min_sinr_db) rows of a sweep CSV."""
    lines = [line for line in path.read_text().splitlines() if not line.startswith("#")]
    return np.array([line.split(",") for line in lines[1:]], dtype=float)


def _top_slope(rows):
    (x0, y0), (x1, y1) = rows[-2:]
    return (y1 - y0) / (x1 - x0)


def _cdf_samples(paths, pattern):
    """Sorted dB samples of each CDF CSV whose name matches ``pattern``,
    keyed by the pattern's group."""
    curves = {}
    for path in paths[1:]:
        match = re.fullmatch(pattern, path.name)
        if match:
            lines = [line for line in path.read_text().splitlines() if not line.startswith("#")]
            curves[match.group(1)] = np.array([line.split(",") for line in lines[1:]], float)[:, 0]
    return curves


class TestPresetClaims:
    """Each preset's CSVs show the figure's claim, with the thresholds of the
    benchmark's preset checks (``perfbench/passes.py``), at the asym-figs
    workload's size; fig10's gap must shrink at every step of M, where the
    benchmark checks only the last against the first."""

    CONFIG = NetworkConfig(master_seed=1, num_large=20)

    @pytest.mark.parametrize("k", [3, 10])
    def test_optimal_combining_dominates_equal_combining(self, k, tmp_path):
        # fig2: rank by rank, the optimal beam's CDF lies right of the
        # equal-combining one
        paths = run_scenario("fig2-cdf-perfect", self.CONFIG, out_dir=tmp_path)
        curves = _cdf_samples(paths, rf"fig2_cdf_(.+)_K{k}\.csv")
        assert np.all(curves["perfect-optimal"] >= curves["perfect-equal"] - 1e-6)

    def test_scheme_cdfs_are_ordered(self, tmp_path):
        # fig3/4: perfect CSI bounds the power-controlled composite pilot rank
        # by rank, and power control > composite > per-user pilots in the mean
        paths = run_scenario("fig3/4-cdf-schemes", self.CONFIG, out_dir=tmp_path)
        curves = _cdf_samples(paths, r"fig34_cdf_(.+)_K3\.csv")
        controlled = curves["composite-power-controlled"]
        assert np.all(curves["perfect-optimal"] >= controlled - 1e-6)
        means = {scheme: samples.mean() for scheme, samples in curves.items()}
        assert means["composite-power-controlled"] > means["composite"]
        assert means["composite"] > means["individual-pilot"]

    def test_pilot_power_closes_the_gap_to_perfect_csi(self, tmp_path):
        # fig7: the mean gap of the power-controlled composite pilot to
        # perfect CSI is never negative and falls strictly with pilot power
        paths = run_scenario("fig7-sweep-pu", self.CONFIG, out_dir=tmp_path)
        curves = _cdf_samples(paths, r"fig7_cdf_(.+)\.csv")
        perfect = curves["perfect-optimal"].mean()
        gaps = [
            perfect - curves[f"composite-power-controlled_pu{pu:g}dbw"].mean()
            for pu in PILOT_POWER_LEVELS_DBW
        ]
        assert list(PILOT_POWER_LEVELS_DBW) == [2.0, 4.0, 8.0]
        assert gaps[0] > gaps[1] > gaps[2] >= -1e-6

    def test_finite_m_gap_shrinks(self, tmp_path):
        # fig10: both CSVs average over the same realizations, so each row's
        # simulated minus asymptotic value is the paired gap at that M; its
        # size falls strictly from M = 100 to 300 to 500 (the default sweep
        # and draw count, at which seeds 1-12 all showed it)
        paths = run_scenario("fig10-finite-M", self.CONFIG, out_dir=tmp_path)
        rows = {p.name: _sweep_rows(p) for p in paths[1:]}
        simulated = rows["fig10_finite_M_simulated.csv"]
        asymptotic = rows["fig10_finite_M_asymptotic.csv"]
        assert list(simulated[:, 0]) == list(asymptotic[:, 0]) == [100.0, 300.0, 500.0]
        gaps = np.abs(simulated[:, 1] - asymptotic[:, 1])
        assert gaps[0] > gaps[1] > gaps[2]

    def test_bs_power_sweep_saturates_only_under_contamination(self, tmp_path):
        # criterion 04's claim at the asym-figs workload's size: the top step
        # of the individual-pilot curve is flatter than 0.1 dB per dB, the
        # composite's steeper than 0.5, and power control never beats
        # perfect CSI
        config = NetworkConfig(master_seed=1, num_large=20)
        paths = run_scenario("fig5/6-sweep-E", config, out_dir=tmp_path)
        curves = {
            re.fullmatch(r"fig56_sweep_E_(.+)_K3\.csv", p.name).group(1): _sweep_rows(p)
            for p in paths[1:]
        }
        assert _top_slope(curves["individual-pilot"]) < 0.1
        assert _top_slope(curves["composite"]) > 0.5
        controlled, perfect = curves["composite-power-controlled"], curves["perfect-optimal"]
        assert np.array_equal(controlled[:, 0], perfect[:, 0])
        assert np.all(controlled[:, 1] <= perfect[:, 1] + 1e-6)


def _cdf_csv(config, scheme, path, prefix, label):
    report = run_experiment(config, scheme=scheme)
    return emit_csv(
        path / f"{prefix}_{label}.csv",
        CDF_COLUMNS,
        report.cdf,
        f"{prefix} curve: {label} (fingerprint {report.fingerprint})",
    )


class TestSharedBatchPresets:
    """Presets draw one large-scale batch per geometry; every CSV must equal
    the one built from ``run_experiment`` for that curve alone."""

    CONFIG = NetworkConfig(num_large=6, master_seed=21)

    def assert_same_files(self, got, expected):
        assert sorted(p.name for p in got) == sorted(p.name for p in expected)
        by_name = {p.name: p for p in expected}
        for p in got:
            assert p.read_bytes() == by_name[p.name].read_bytes(), p.name

    def test_perfect_csi_cdf(self, tmp_path):
        got = run_scenario("fig2-cdf-perfect", self.CONFIG, out_dir=tmp_path / "a")[1:]
        ref = tmp_path / "b"
        ref.mkdir()
        expected = [
            _cdf_csv(
                replace(self.CONFIG, users_per_cell=k),
                scheme,
                ref,
                "fig2_cdf",
                f"{scheme}_K{k}",
            )
            for k in (3, 10)
            for scheme in ("perfect-optimal", "perfect-equal")
        ]
        self.assert_same_files(got, expected)

    def test_bs_power_sweep(self, tmp_path):
        got = run_scenario("fig5/6-sweep-E", self.CONFIG, out_dir=tmp_path / "a")[1:]
        ref = tmp_path / "b"
        ref.mkdir()
        expected = []
        schemes = ("perfect-optimal", "individual-pilot", "composite")
        for scheme in schemes + ("composite-power-controlled",):
            rows = tuple(
                (e, run_experiment(replace(self.CONFIG, E_dbw=(e,)), scheme=scheme))
                for e in DEFAULT_E_SWEEP_DBW
            )
            rows = tuple((e, report.mean_min_sinr_db) for e, report in rows)
            expected.append(
                emit_csv(
                    ref / f"fig56_sweep_E_{scheme}_K3.csv",
                    sweep_columns("E_dbw"),
                    rows,
                    f"fig56 sweep: {scheme}, K=3",
                )
            )
        self.assert_same_files(got, expected)

    def test_pilot_power_sweep(self, tmp_path):
        got = run_scenario("fig7-sweep-pu", self.CONFIG, out_dir=tmp_path / "a")[1:]
        ref = tmp_path / "b"
        ref.mkdir()
        expected = [_cdf_csv(self.CONFIG, "perfect-optimal", ref, "fig7_cdf", "perfect-optimal")]
        for pu in PILOT_POWER_LEVELS_DBW:
            expected.append(
                _cdf_csv(
                    replace(self.CONFIG, p_u_dbw=pu),
                    "composite-power-controlled",
                    ref,
                    "fig7_cdf",
                    f"composite-power-controlled_pu{pu:g}dbw",
                )
            )
        self.assert_same_files(got, expected)


class TestCli:
    def test_unknown_scenario_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["fig99-nope"])
        assert err.value.code == 2

    def test_bad_override_returns_one(self, tmp_path, capsys):
        code = main(["fig2-cdf-perfect", "--set", "cells=4", "--out", str(tmp_path)])
        assert code == 1
        assert "cells" in capsys.readouterr().err

    def test_zero_exclusion_disk_returns_one(self, tmp_path, capsys):
        code = main(["fig2-cdf-perfect", "--set", "exclusion_m=0", "--out", str(tmp_path)])
        assert code == 1
        assert "'exclusion_m'" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_vanishing_own_cell_gain_is_named(self, tmp_path, capsys):
        # every path gain underflows to 0 at this radius, and the optimal
        # perfect-CSI beam, the preset's first curve, divides by its own
        args = ["fig2-cdf-perfect", "--set", "radius_m=1e200", "--set", "num_large=2"]
        assert main(args + ["--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err == (
            "error: zero own-cell gain at E_dbw = 10 in realization 0 (master seed 1)"
            " for scheme perfect-optimal\n"
        )
        assert not any(tmp_path.iterdir())

    def test_sinr_error_names_its_scheme(self, tmp_path, capsys):
        # of the preset's four curves only individual-pilot fails at this
        # shadowing; the message says which
        args = ["fig3/4-cdf-schemes", "--set", "shadow_sigma_db=1000", "--set", "num_large=5"]
        assert main(args + ["--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err == (
            "error: zero mean min-SINR at E_dbw = 10 in realization 2 (master seed 1)"
            " for scheme individual-pilot\n"
        )
        assert not any(tmp_path.iterdir())

    def test_no_seed_option(self, tmp_path):
        # the master seed is set like any key: --set master_seed=N
        with pytest.raises(SystemExit) as err:
            main(["fig2-cdf-perfect", "--seed", "3", "--out", str(tmp_path)])
        assert err.value.code == 2

    @pytest.mark.parametrize(
        "overrides, key",
        [
            (["pathloss_slope=30", "bandwidth_hz=-5"], "bandwidth_hz"),
            (["shadow_sigma_db=-1", "num_large=3"], "shadow_sigma_db"),
        ],
    )
    def test_fading_override_error_names_its_key(self, overrides, key, tmp_path, capsys):
        args = ["fig2-cdf-perfect"] + [a for item in overrides for a in ("--set", item)]
        assert main(args + ["--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: config key '{key}': ")
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "scenario, override, key",
        [
            ("fig10-finite-M", "antennas_sweep=18446744073709551616", "antennas_sweep"),
            ("fig3/4-cdf-schemes", "p_u_dbw=-4000", "p_u_dbw"),
            ("fig3/4-cdf-schemes", "p_u_dbw=4000", "p_u_dbw"),
        ],
    )
    def test_out_of_range_override_names_its_key(
        self, scenario, override, key, tmp_path, capsys
    ):
        args = [scenario, "--set", override, "--set", "num_large=2", "--set", "num_small=2"]
        assert main(args + ["--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: config key '{key}': ")
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("value, code", [("866", 0), ("867", 1)])
    def test_exclusion_disk_inside_the_hexagon(self, value, code, tmp_path, capsys):
        args = ["fig3/4-cdf-schemes", "--set", f"exclusion_m={value}", "--set", "num_large=2"]
        assert main(args + ["--out", str(tmp_path)]) == code
        if code:
            assert "'exclusion_m'" in capsys.readouterr().err
            assert not any(tmp_path.iterdir())

    def test_end_to_end_run_and_rerun(self, tmp_path, capsys):
        out1 = tmp_path / "run1"
        code = main(
            [
                "fig3/4-cdf-schemes",
                "--set",
                "num_large=5",
                "--set",
                "master_seed=123",
                "--out",
                str(out1),
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out.splitlines()
        assert str(out1 / "manifest.cfg") in printed
        out2 = tmp_path / "run2"
        code = main(
            [
                "fig3/4-cdf-schemes",
                "--config",
                str(out1 / "manifest.cfg"),
                "--out",
                str(out2),
            ]
        )
        assert code == 0
        for name in sorted(p.name for p in out1.iterdir()):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_config_file_layering_with_set(self, tmp_path):
        cfg_file = tmp_path / "base.cfg"
        cfg_file.write_text("num_large = 4\nusers_per_cell = 2\n")
        out = tmp_path / "out"
        code = main(
            [
                "fig3/4-cdf-schemes",
                "--config",
                str(cfg_file),
                "--set",
                "users_per_cell=4",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        manifest = (out / "manifest.cfg").read_text()
        assert "users_per_cell = 4" in manifest
        assert "num_large = 4" in manifest


class TestPackage:
    # the names the benchmark harness reads from the package namespace
    HARNESS_NAMES = ("NetworkConfig", "SCHEMES", "run_experiment", "run_scenario", "__version__")

    def test_every_exported_name_resolves(self):
        assert len(set(multicast_mimo.__all__)) == len(multicast_mimo.__all__)
        for name in multicast_mimo.__all__:
            assert getattr(multicast_mimo, name) is not None, name

    def test_star_import_binds_exactly_the_exported_names(self):
        namespace = {}
        exec("from multicast_mimo import *", namespace)
        del namespace["__builtins__"]
        assert sorted(namespace) == sorted(multicast_mimo.__all__)

    def test_names_the_harness_reads_are_present(self):
        for name in self.HARNESS_NAMES:
            assert hasattr(multicast_mimo, name), name

    @pytest.mark.parametrize("t", [0, 4])
    def test_readme_reproduces_one_realization_alone(self, t):
        # the README's "reproduce realization t alone" block, run as written
        text = (ROOT / "README.md").read_text()
        after = text.split("To reproduce realization `t` alone:", 1)[1]
        block = after.split("```python\n", 1)[1].split("```", 1)[0]
        config = NetworkConfig(cells=3, users_per_cell=4, num_large=5, master_seed=3)
        namespace = {"config": config, "t": t}
        exec(block, namespace)
        expected = multicast_mimo.large_scale_batch(config)[t]
        assert namespace["beta"].shape == expected.shape
        assert namespace["beta"].tobytes() == expected.tobytes()

    @pytest.mark.parametrize("scheme", ["perfect-optimal", "composite-async"])
    @pytest.mark.parametrize("t", [0, 4])
    def test_readme_reproduces_one_finite_m_sample_alone(self, t, scheme):
        # the README's two recipe blocks, run as written one after the other
        text = (ROOT / "README.md").read_text()
        blocks = []
        for marker in ("To reproduce realization `t` alone:", "To reproduce its finite-M sample"):
            after = text.split(marker, 1)[1]
            blocks.append(after.split("```python\n", 1)[1].split("```", 1)[0])
        config = NetworkConfig(
            cells=3,
            users_per_cell=4,
            num_large=5,
            master_seed=3,
            antennas=16,
            num_small=3,
            scheme=scheme,
            async_offsets_s=tuple(np.linspace(0.0, 0.9e-6, 12)),
            pilot_symbol_s=1e-6,
        )
        namespace = {"config": config, "t": t}
        for block in blocks:
            exec(block, namespace)
        expected = multicast_mimo.run_experiment(config).samples_db[t]
        assert namespace["sample_db"].tobytes() == expected.tobytes()

    def test_test_extras_cover_the_suite_imports(self):
        # and the package itself imports only its runtime dependencies, so a
        # test-only package such as scipy cannot become one unnoticed
        tomllib = pytest.importorskip("tomllib")  # standard library from 3.11
        project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]

        def names(requirements):
            return {re.split(r"[<>=!~ \[]", requirement)[0] for requirement in requirements}

        def third_party(paths, local):
            imported = set()
            for path in paths:
                for node in ast.walk(ast.parse(path.read_text())):
                    if isinstance(node, ast.Import):
                        imported |= {alias.name.split(".")[0] for alias in node.names}
                    elif isinstance(node, ast.ImportFrom) and node.level == 0:
                        imported.add(node.module.split(".")[0])
            return imported - set(sys.stdlib_module_names) - local

        runtime = names(project["dependencies"])
        declared = runtime | names(project["optional-dependencies"]["test"])
        tests = list((ROOT / "tests").glob("*.py"))
        local = {path.stem for path in tests} | {"multicast_mimo"}
        assert third_party(tests, local) <= declared
        package = list((ROOT / "src" / "multicast_mimo").glob("*.py"))
        assert package
        assert third_party(package, {"multicast_mimo"}) <= runtime

    def test_every_package_module_is_imported_by_the_package(self):
        # a module that only tests import belongs in tests/: every module but
        # __init__ and the cli entry point is imported by another module that
        # is not __init__, so a re-export alone does not keep a module
        source = Path(multicast_mimo.__file__).parent
        modules = {p.stem for p in source.glob("*.py")}
        imported = set()
        for path in source.glob("*.py"):
            if path.stem == "__init__":
                continue
            names = []
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    names += [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    module = "multicast_mimo." * node.level + (node.module or "")
                    names += [f"{module.rstrip('.')}.{alias.name}" for alias in node.names]
            stems = {n.split(".")[1] for n in names if n.startswith("multicast_mimo.")}
            imported |= stems - {path.stem}
        assert modules - {"__init__", "cli"} - imported == set()
