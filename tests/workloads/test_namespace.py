"""Unit + property tests for the synthetic namespace generator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.paths import parent_and_name
from repro.workloads.namespace import (
    build_namespace,
    deep_chain,
    ensure_chain,
)
from repro.workloads.profiles import (
    FIGURE3_PROFILES,
    TABLE3_PROFILES,
    depth_cdf,
    profile_by_name,
)


class TestBuildNamespace:
    def test_deterministic_for_seed(self):
        a = build_namespace(num_dirs=50, seed=7)
        b = build_namespace(num_dirs=50, seed=7)
        assert a.directories == b.directories
        assert a.objects == b.objects

    def test_different_seeds_differ(self):
        a = build_namespace(num_dirs=50, seed=7)
        b = build_namespace(num_dirs=50, seed=8)
        assert a.directories != b.directories or a.objects != b.objects

    def test_every_parent_exists(self):
        spec = build_namespace(num_dirs=120, seed=3)
        dirs = set(spec.directories) | {"/"}
        for path in spec.directories:
            if path.count("/") > 1:
                parent, _name = parent_and_name(path)
                assert parent in dirs
        for obj in spec.objects:
            parent, _name = parent_and_name(obj)
            assert parent in dirs

    def test_object_ratio_near_request(self):
        spec = build_namespace(num_dirs=200, objects_per_dir=10, seed=5)
        assert spec.object_ratio > 0.6

    def test_mean_depth_in_range(self):
        spec = build_namespace(num_dirs=400, mean_depth=11.0, max_depth=24,
                               seed=5)
        assert 7.0 <= spec.average_depth() <= 15.0
        assert spec.max_depth() <= 24

    def test_invalid_num_dirs(self):
        with pytest.raises(ValueError):
            build_namespace(num_dirs=0)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=1, max_value=120),
           st.integers(min_value=0, max_value=6),
           st.integers(min_value=0, max_value=2 ** 31))
    def test_property_consistency(self, num_dirs, objects_per_dir, seed):
        spec = build_namespace(num_dirs=num_dirs,
                               objects_per_dir=objects_per_dir, seed=seed)
        assert len(set(spec.directories)) == len(spec.directories)
        assert len(set(spec.objects)) == len(spec.objects)
        assert spec.total_entries == len(spec.directories) + len(spec.objects)
        histogram = spec.depth_histogram()
        assert sum(histogram.values()) == spec.total_entries


class TestHelpers:
    def test_deep_chain(self):
        assert deep_chain("/r", 3) == ["/r/l1", "/r/l1/l2", "/r/l1/l2/l3"]

    def test_ensure_chain_populates_system(self):
        from repro.core.config import MantleConfig
        from repro.core.service import MantleSystem
        system = MantleSystem(MantleConfig(
            num_db_servers=2, num_db_shards=4, num_proxies=1,
            index_replicas=1, index_cores=4, db_cores=4, proxy_cores=4))
        system.startup()
        deepest = ensure_chain(system, "/w", 4)
        assert deepest == "/w/l1/l2/l3/l4"
        system.shutdown()


class TestProfiles:
    def test_profile_lookup(self):
        assert profile_by_name("ns4").mean_depth == 10.6
        assert profile_by_name("C1").peak_lookup_kops == 400
        with pytest.raises(KeyError):
            profile_by_name("nope")

    def test_figure3_profiles_match_paper_stats(self):
        assert len(FIGURE3_PROFILES) == 5
        for profile in FIGURE3_PROFILES:
            assert profile.total_entries > 2e9
            assert 0.82 <= profile.object_fraction <= 0.917
            assert 10.0 <= profile.mean_depth <= 12.0

    def test_table3_small_object_fractions(self):
        fractions = [p.small_object_fraction for p in TABLE3_PROFILES]
        assert fractions == [0.620, 0.292, 0.337, 0.288, 0.281]

    def test_synthesize_respects_shape(self):
        spec = profile_by_name("ns1").synthesize(scale_entries=1500, seed=3)
        assert 500 <= spec.total_entries <= 4000
        assert spec.object_ratio > 0.7

    def test_depth_cdf_monotone_and_complete(self):
        spec = profile_by_name("ns2").synthesize(scale_entries=800, seed=4)
        cdf = depth_cdf(spec)
        values = list(cdf.values())
        assert values == sorted(values)
        assert values[-1] == pytest.approx(1.0)
