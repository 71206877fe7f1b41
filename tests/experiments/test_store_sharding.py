"""The store_sharding experiment: grid, ordering checks, CLI, caching."""

import json

import pytest

from repro.engine import all_experiment_names, validate_artifact
from repro.experiments import store_sharding
from repro.experiments.__main__ import main

#: 800 requests per cell.
FAST = ["--scale", "0.04"]


@pytest.fixture(scope="module")
def grid():
    return store_sharding.run(n_requests=2000)


class TestRun:
    def test_full_grid(self, grid):
        assert set(grid) == set(store_sharding.DEFAULT_PATTERNS)
        for pattern, by_scheme in grid.items():
            assert set(by_scheme) == set(store_sharding.DEFAULT_SCHEMES)
            for report in by_scheme.values():
                assert report["telemetry"]["accesses"] == 2000

    def test_ordering_checks_all_hold(self, grid):
        """The acceptance criterion: pMod and pDisp strictly better
        balance than traditional modulo on strided and pow2 traffic."""
        checks = store_sharding.ordering_checks(grid)
        assert len(checks) == 4
        assert all(checks.values()), checks

    def test_render_has_tables_and_verdict(self, grid):
        out = store_sharding.render({
            "n_requests": 2000, "n_shards": 64, "patterns": grid,
            "checks": store_sharding.ordering_checks(grid),
        })
        for pattern in store_sharding.DEFAULT_PATTERNS:
            assert pattern in out
        assert "Figure 5 ordering on served traffic: ok (4/4" in out


class TestCli:
    def test_registered(self):
        assert "store_sharding" in all_experiment_names()

    def test_artifact_written(self, tmp_path, capsys):
        path = tmp_path / "store.json"
        main(["store_sharding", "--artifact", str(path), *FAST])
        artifact = json.loads(path.read_text())
        validate_artifact(artifact)
        assert artifact["experiment"] == "store_sharding"
        checks = artifact["data"]["checks"]
        assert all(checks.values()), checks
        assert "Store sharding" in capsys.readouterr().out

    def test_payload_cache_round_trip(self, tmp_path):
        cache = tmp_path / "cache"
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["store_sharding", "--artifact", str(a),
              "--cache-dir", str(cache), *FAST])
        assert list(cache.glob("*/*.payload.json"))
        main(["store_sharding", "--artifact", str(b),
              "--cache-dir", str(cache), *FAST])
        assert (json.loads(a.read_text())["data"]
                == json.loads(b.read_text())["data"])
