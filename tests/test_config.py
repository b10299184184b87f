from dataclasses import replace

import pytest

from mockchar.config import RunConfig, load_config, parse_config_text


class TestRunConfig:
    def test_defaults_mirror_classify_params(self):
        params = RunConfig().params
        assert params.multiplicativity_bound == 10_000
        assert params.max_preperiod == 500 and params.max_period == 2_000
        assert params.kernel_window == 512
        assert params.kernel_max_depth == 12 and params.kernel_max_size == 4_096

    def test_positive_bounds_enforced(self):
        with pytest.raises(ValueError):
            replace(RunConfig().params, max_period=0)
        with pytest.raises(ValueError):
            replace(RunConfig().params, kernel_window=-5)

    def test_format_validated(self):
        with pytest.raises(ValueError):
            RunConfig(format="xml")


class TestParse:
    def test_key_value_with_comments(self):
        cfg = parse_config_text("max_period = 128  # tighter\n\nformat=json\n")
        assert cfg.params.max_period == 128 and cfg.format == "json"
        assert cfg.params.kernel_window == 512  # untouched default

    def test_unknown_key(self):
        with pytest.raises(ValueError):
            parse_config_text("frobnicate = 1\n")

    def test_malformed_line(self):
        with pytest.raises(ValueError):
            parse_config_text("just some words\n")

    def test_env_lookup(self, tmp_path, monkeypatch):
        path = tmp_path / "cfg"
        path.write_text("digits = 6\n")
        monkeypatch.setenv("MOCKCHAR_CONFIG", str(path))
        assert load_config().digits == 6
        monkeypatch.delenv("MOCKCHAR_CONFIG")
        assert load_config().digits == 12
