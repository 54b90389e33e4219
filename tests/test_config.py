"""PPRConfig tests: validation, resolution, budget arithmetic."""

import numpy as np
import pytest

from repro.core import PPRConfig
from repro.exceptions import ConfigError


class TestValidation:
    def test_defaults_valid(self):
        config = PPRConfig()
        assert config.alpha == 0.01
        assert config.epsilon == 0.5

    @pytest.mark.parametrize("field,value", [
        ("alpha", 0.0), ("alpha", 1.0), ("alpha", -0.2),
        ("epsilon", 0.0), ("epsilon", -1.0),
        ("epsilon", np.nan), ("epsilon", np.inf), ("epsilon", -np.inf),
        ("alpha", np.nan), ("alpha", np.inf),
        ("mu", 0.0), ("failure_probability", 0.0),
        ("failure_probability", 1.0), ("r_max", 0.0),
        ("budget_scale", 0.0), ("push_cost_ratio", 0.0),
        ("max_forests", 0), ("max_walks", 0),
    ])
    def test_rejects_bad_values(self, field, value):
        with pytest.raises(ConfigError):
            PPRConfig(**{field: value})

    def test_frozen(self):
        config = PPRConfig()
        with pytest.raises(Exception):
            config.alpha = 0.5


class TestResolution:
    def test_mu_and_pf_default_to_inverse_n(self, k5):
        resolved = PPRConfig().resolve(k5)
        assert resolved.mu == pytest.approx(0.2)
        assert resolved.failure_probability == pytest.approx(0.2)

    def test_explicit_values_kept(self, k5):
        config = PPRConfig(mu=0.01, failure_probability=0.05)
        resolved = config.resolve(k5)
        assert resolved.mu == 0.01
        assert resolved.failure_probability == 0.05

    def test_resolve_idempotent(self, k5):
        resolved = PPRConfig().resolve(k5)
        assert resolved.resolve(k5) is resolved


class TestBudgets:
    def test_walk_budget_formula(self, k5):
        config = PPRConfig(epsilon=0.5, mu=0.2, failure_probability=0.2)
        want = (2 * 0.5 / 3 + 2) * np.log(2 / 0.2) / (0.5 ** 2 * 0.2)
        assert config.walk_budget(k5) == pytest.approx(want)

    def test_budget_scale_linear(self, k5):
        full = PPRConfig().walk_budget(k5)
        half = PPRConfig(budget_scale=0.5).walk_budget(k5)
        assert half == pytest.approx(full / 2)

    def test_budget_grows_with_n_through_mu(self, k5, grid3x3):
        # default mu = 1/n, so larger graphs get larger budgets
        assert PPRConfig().walk_budget(grid3x3) > PPRConfig().walk_budget(k5)

    def test_budget_decreases_with_epsilon(self, k5):
        loose = PPRConfig(epsilon=0.5).walk_budget(k5)
        tight = PPRConfig(epsilon=0.1).walk_budget(k5)
        assert tight > loose

    def test_num_forests_ceiling_and_clamps(self, k5):
        config = PPRConfig(max_forests=10)
        budget = config.walk_budget(k5)
        assert config.num_forests(k5, 1e-9) == 1          # floor at 1
        assert config.num_forests(k5, 1.0) == 10          # clamp at cap
        r_max = 3.0 / budget
        assert config.num_forests(k5, r_max) == 3         # ceil(r_max W)

    def test_with_overrides(self):
        config = PPRConfig().with_overrides(alpha=0.2, seed=9)
        assert config.alpha == 0.2
        assert config.seed == 9
        assert config.epsilon == 0.5
