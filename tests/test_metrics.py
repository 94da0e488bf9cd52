"""Reconstruction quality metrics."""

import numpy as np
import pytest

from rodtwin.errors import MetricError
from rodtwin.core import RodGeometry
from rodtwin.mesh import build_rod_mesh
from rodtwin.metrics import _region_masks, compute_metrics, nl2_norm, r_squared


class TestRSquared:
    def test_perfect_prediction(self):
        t = np.array([1.0, 2.0, 3.0, 4.0])
        assert r_squared(t, t) == 1.0

    def test_mean_prediction_scores_zero(self):
        t = np.array([1.0, 2.0, 3.0, 4.0])
        p = np.full(4, t.mean())
        assert r_squared(p, t) == pytest.approx(0.0, abs=1e-12)

    def test_matches_two_pass_recomputation(self):
        rng = np.random.default_rng(17)
        p, t = rng.normal(size=10), rng.normal(size=10)
        tbar = sum(t) / 10
        ss_res = sum((a - b) ** 2 for a, b in zip(p, t))
        ss_tot = sum((b - tbar) ** 2 for b in t)
        assert r_squared(p, t) == pytest.approx(1.0 - ss_res / ss_tot, abs=1e-12)

    def test_constant_truth_rejected(self):
        with pytest.raises(MetricError):
            r_squared(np.array([1.0, 2.0]), np.array([3.0, 3.0]))

    def test_length_mismatch_rejected(self):
        with pytest.raises(MetricError):
            r_squared(np.array([1.0]), np.array([1.0, 2.0]))


class TestNl2:
    def test_perfect_prediction(self):
        t = np.array([1.0, 2.0, 3.0])
        assert nl2_norm(t, t) == 0.0

    def test_uniform_relative_offset(self):
        t = np.array([1.0, 2.0, 3.0])
        assert nl2_norm(1.01 * t, t) == pytest.approx(0.01, rel=1e-9)

    def test_zero_truth_rejected(self):
        with pytest.raises(MetricError):
            nl2_norm(np.array([1.0, 2.0]), np.zeros(2))


class TestReport:
    def test_full_report_fields(self):
        rng = np.random.default_rng(23)
        t = 600.0 + rng.uniform(-50.0, 50.0, size=20)
        p = t + rng.normal(scale=2.0, size=20)
        region = ["fuel"] * 12 + ["cladding"] * 8
        rep = compute_metrics(p, t, region)
        assert rep.r_squared <= 1.0
        assert rep.nl2 >= 0.0
        assert rep.max_abs_error == pytest.approx(np.abs(p - t).max())
        assert set(rep.by_region) == {"fuel", "cladding"}
        d = rep.to_dict()
        assert d["r_squared"] == rep.r_squared
        assert d["by_region"]["fuel"]["nl2"] == rep.by_region["fuel"]["nl2"]

    def test_report_without_regions(self):
        t = np.array([1.0, 2.0, 3.0])
        rep = compute_metrics(t, t)
        assert rep.by_region == {}
        assert rep.nl2 == 0.0


def _asarray_by_region(p, t, region):
    """by_region as compute_metrics built it before its masks were memoized:
    from np.asarray(region) on every call."""
    region = np.asarray(region)
    return {name: {"r_squared": r_squared(p[region == name], t[region == name]),
                   "nl2": nl2_norm(p[region == name], t[region == name])}
            for name in dict.fromkeys(region.tolist())}


class TestRegionMasks:
    @pytest.fixture
    def mesh_case(self, rng):
        mesh = build_rod_mesh(RodGeometry(), nr_fuel=4, nz=12, nr_clad=3)
        region = mesh.node_table()[2]
        t = 600.0 + rng.uniform(-50.0, 50.0, len(region))
        return t + rng.normal(scale=2.0, size=t.size), t, region

    @pytest.mark.parametrize("kind", [tuple, list, np.asarray])
    def test_same_report_as_asarray_path(self, mesh_case, kind):
        p, t, region = mesh_case
        rep = compute_metrics(p, t, kind(region))
        ref = _asarray_by_region(p, t, region)
        assert rep.by_region == ref
        assert list(rep.by_region) == list(ref) == ["fuel", "cladding"]
        whole = compute_metrics(p, t)
        assert (rep.r_squared, rep.nl2, rep.max_abs_error, rep.max_rel_error) \
            == (whole.r_squared, whole.nl2, whole.max_abs_error,
                whole.max_rel_error)

    def test_interleaved_tags_keep_first_seen_order(self, rng):
        region = ["b", "a", "c", "a", "b", "c", "c", "a", "b"] * 3
        t = 600.0 + rng.uniform(-50.0, 50.0, len(region))
        p = t + rng.normal(scale=2.0, size=t.size)
        rep = compute_metrics(p, t, region)
        assert rep.by_region == _asarray_by_region(p, t, region)
        assert list(rep.by_region) == ["b", "a", "c"]

    def test_list_edited_between_calls_gives_fresh_answer(self, rng):
        region = ["fuel"] * 6 + ["cladding"] * 6
        t = 600.0 + rng.uniform(-50.0, 50.0, len(region))
        p = t + rng.normal(scale=2.0, size=t.size)
        compute_metrics(p, t, region)
        region[:3] = ["gap"] * 3
        rep = compute_metrics(p, t, region)
        assert rep.by_region == _asarray_by_region(p, t, region)
        assert list(rep.by_region) == ["gap", "fuel", "cladding"]

    def test_masks_are_cached_and_read_only(self, mesh_case):
        region = mesh_case[2]
        masks = _region_masks(region)
        assert _region_masks(region) is masks
        assert [name for name, _ in masks] == ["fuel", "cladding"]
        for _, sel in masks:
            assert sel.dtype == bool and not sel.flags.writeable
            with pytest.raises(ValueError):
                sel[0] = not sel[0]

    @pytest.mark.parametrize("n_tags", [11, 13])
    def test_region_length_must_match_predicted(self, n_tags):
        t = np.linspace(1.0, 2.0, 12)
        with pytest.raises(MetricError, match=rf"{n_tags} region tags .* 12"):
            compute_metrics(t, t, ["fuel"] * n_tags)
