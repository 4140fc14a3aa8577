import re
from pathlib import Path

import pytest

from spinflux import config as config_module
from spinflux.config import (ConfigError, config_hash, parse_config,
                             serialize_config, with_overrides)

README = Path(__file__).resolve().parents[1] / "README.md"

FIG2_TEXT = """\
# reference nonequilibrium run
chain.n = 3
chain.omega = 1.0
chain.lambda = 0.01
bath.left.beta = 0.41      # hot side
bath.left.kappa = 0.01
bath.right.beta = 1.39     # cold side
bath.right.kappa = 0.01
variant = weak_coupling
mode = compare
time.t_max = 400.0
time.steps = 200
mcwf.realizations = 100000
mcwf.seed = 20240
initial_state = maximally_mixed
output.dir = out
"""


class TestParse:
    def test_reference_file_round_trips(self):
        config = parse_config(FIG2_TEXT)
        again = parse_config(serialize_config(config))
        assert again == config
        assert config_hash(again) == config_hash(config)

    def test_values_land_in_spec(self):
        config = parse_config(FIG2_TEXT)
        assert config.chain.n == 3
        assert config.chain.field == 1.0
        assert config.chain.exchange == 0.01
        assert config.bath_left.beta == 0.41
        assert config.bath_right.beta == 1.39
        assert config.variant == "weak_coupling"
        assert config.realizations == 100000

    def test_defaults_fill_in(self):
        config = parse_config("chain.n = 3\n")
        assert config.chain.field == 1.0
        assert config.bath_left.beta == 0.41
        assert config.bath_right.beta == 1.39
        assert config.mode == "compare"
        assert config.initial_state == "maximally_mixed"

    def test_missing_required_key(self):
        with pytest.raises(ConfigError, match="chain.n"):
            parse_config("chain.omega = 1.0\n")

    def test_unknown_key_reports_line(self):
        with pytest.raises(ConfigError, match="line 2.*chain.gamma"):
            parse_config("chain.n = 3\nchain.gamma = 4\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("chain.n = 3\nchain.n = 4\n")

    def test_bad_number_reports_line(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("chain.n = three\n")
        with pytest.raises(ConfigError, match="line 2.*chain.omega.*needs a number"):
            parse_config("chain.n = 3\nchain.omega = x\n")

    def test_malformed_line(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config("chain.n: 3\n")

    def test_mcwf_needs_lindblad_variant(self):
        text = "chain.n = 3\nmode = mcwf\nvariant = redfield\n"
        with pytest.raises(ConfigError, match="Lindblad"):
            parse_config(text)

    def test_gibbs_initial_state(self):
        config = parse_config("chain.n = 3\ninitial_state = gibbs:1.5\n")
        assert config.initial_state == "gibbs:1.5"
        with pytest.raises(ConfigError, match="gibbs"):
            parse_config("chain.n = 3\ninitial_state = gibbs:x\n")

    @pytest.mark.parametrize("beta", ["nan", "inf", "0", "-1"])
    def test_gibbs_beta_must_be_positive_and_finite(self, beta):
        with pytest.raises(ConfigError, match="gibbs beta must be positive"):
            parse_config(f"chain.n = 3\ninitial_state = gibbs:{beta}\n")

    def test_unknown_initial_state(self):
        with pytest.raises(ConfigError, match="initial_state"):
            parse_config("chain.n = 3\ninitial_state = thermal\n")

    @pytest.mark.parametrize("seed", [-1, 2 ** 64])
    def test_seed_outside_64_bits_rejected(self, seed):
        # the seed is the upper half of each trajectory's 128-bit Philox key
        with pytest.raises(ConfigError, match=r"mcwf.seed must lie in \[0, 2\*\*64\)"):
            parse_config(f"chain.n = 3\nmcwf.seed = {seed}\n")

    @pytest.mark.parametrize("seed", [0, 2 ** 64 - 1])
    def test_seed_range_ends_accepted(self, seed):
        assert parse_config(f"chain.n = 3\nmcwf.seed = {seed}\n").master_seed == seed

    def test_invalid_physical_values_are_config_errors(self):
        with pytest.raises(ConfigError, match="bath"):
            parse_config("chain.n = 3\nbath.left.beta = -1.0\n")
        with pytest.raises(ConfigError, match="chain"):
            parse_config("chain.n = 1\n")
        with pytest.raises(ConfigError, match="t_max"):
            parse_config("chain.n = 3\ntime.t_max = 0.0\n")


class TestOverrides:
    def test_override_revalidates(self):
        config = parse_config("chain.n = 3\nvariant = redfield\nmode = steady\n")
        with pytest.raises(ConfigError, match="Lindblad"):
            with_overrides(config, mode="mcwf")

    def test_override_applies(self):
        config = parse_config("chain.n = 3\n")
        updated = with_overrides(config, mode="steady", variant="secular",
                                 master_seed=7, realizations=10,
                                 output_dir="elsewhere")
        assert updated.mode == "steady"
        assert updated.variant == "secular"
        assert updated.master_seed == 7
        assert updated.realizations == 10
        assert updated.output_dir == "elsewhere"

    def test_hash_ignores_an_output_dir_that_spans_lines(self):
        config = parse_config("chain.n = 3\n")
        moved = with_overrides(config, output_dir="a\ntolerance.cluster = 5")
        assert moved.cluster_tol is None
        assert config_hash(moved) == config_hash(config)

    def test_seed_override_is_range_checked(self):
        config = parse_config("chain.n = 3\n")
        for seed in (-1, 2 ** 64):
            with pytest.raises(ConfigError, match="mcwf.seed must lie in"):
                with_overrides(config, master_seed=seed)
        for seed in (0, 2 ** 64 - 1):
            assert with_overrides(config, master_seed=seed).master_seed == seed

    def test_no_override_is_identity(self):
        config = parse_config("chain.n = 3\n")
        assert with_overrides(config) is config

    def test_override_is_not_cut_at_a_hash(self, tmp_path):
        config = parse_config("chain.n = 3\nmode = steady\n")
        target = str(tmp_path / "run#1")
        assert with_overrides(config, output_dir=target).output_dir == target

    def test_override_type_is_checked_like_a_file_value(self):
        config = parse_config("chain.n = 3\n")
        with pytest.raises(ConfigError, match="mcwf.realizations.*needs an integer"):
            with_overrides(config, realizations=2.5)
        with pytest.raises(ConfigError, match="empty value.*output.dir"):
            with_overrides(config, output_dir="")


def readme_key_rows():
    """(keys, defaults) per row of README's configuration-format table."""
    section = README.read_text(encoding="utf-8").split("### Configuration format", 1)[1]
    section = section.split("\n###", 1)[0]
    rows = []
    for line in section.splitlines():
        if line.startswith("| `"):
            cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
            rows.append((re.findall(r"`([^`]+)`", cells[0]), cells[1]))
    return rows


class TestReadme:
    def test_table_lists_every_key_once(self):
        keys = [key for row_keys, _ in readme_key_rows() for key in row_keys]
        assert len(keys) == len(set(keys))
        assert set(keys) == set(config_module.KNOWN_KEYS)

    def test_table_defaults_match(self):
        table = {key: (kind, default)
                 for key, _, kind, default in config_module._KEYS}
        checked = 0
        for keys, cell in readme_key_rows():
            if cell in ("required", "`1e-9 * omega`"):
                continue
            literals = re.findall(r"`([^`]+)`", cell)
            if len(literals) == 1:
                literals *= len(keys)
            assert len(literals) == len(keys), (keys, cell)
            for key, literal in zip(keys, literals):
                kind, default = table[key]
                assert kind(literal) == default, (key, literal)
                checked += 1
        assert checked == len(table) - 2

    def test_library_use_block_runs(self):
        # the example uses only names the package exports
        section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
        block = section.split("```python\n", 1)[1].split("```", 1)[0]
        names = {}
        exec(compile(block, "README.md: Library use", "exec"), names)
        assert names["ensemble"].means["j1"].shape == (11,)
