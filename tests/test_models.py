"""Model specs, parameter domains, series containers, window policy."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlscan import (
    DomainError,
    ModelFamily,
    ModelSpec,
    ParamDomain,
    ScanWindow,
    SeriesSegment,
    ShapeError,
    SizingError,
    ar_spec,
    arch_spec,
    default_window,
    garch_spec,
    in_domain,
)
from qlscan.models import in_domain_rows


class TestModelSpec:
    def test_dimensions(self):
        assert ModelSpec(family=ModelFamily.AR, p=1).d == 1
        assert ModelSpec(family=ModelFamily.AR, p=3).d == 3
        assert ModelSpec(family=ModelFamily.ARCH, p=1).d == 2
        assert ModelSpec(family=ModelFamily.GARCH, p=1).d == 3

    def test_helpers_match_direct_construction(self):
        assert ar_spec(2).d == 2
        assert arch_spec().family is ModelFamily.ARCH
        assert garch_spec().d == 3

    def test_order_validation(self):
        with pytest.raises(ShapeError):
            ModelSpec(family=ModelFamily.AR, p=0)
        with pytest.raises(ShapeError):
            ModelSpec(family=ModelFamily.ARCH, p=2)
        with pytest.raises(ShapeError):
            ModelSpec(family=ModelFamily.GARCH, p=3)

    def test_check_theta_shapes(self, ar2_spec, garch_spec):
        out = ar2_spec.check_theta([0.1, 0.2])
        assert out.dtype == np.float64 and out.shape == (2,)
        with pytest.raises(ShapeError):
            ar2_spec.check_theta([0.1])
        with pytest.raises(ShapeError):
            garch_spec.check_theta(np.zeros((3, 1)))

    def test_check_theta_names_an_infeasible_point(self, garch_spec):
        assert garch_spec.check_theta([1.0, 0.6, 0.5]).tolist() == [1.0, 0.6, 0.5]
        with pytest.raises(DomainError, match=r"^theta1 \[1\.0, 0\.6, 0\.5\] outside"):
            garch_spec.check_theta([1.0, 0.6, 0.5], "theta1")
        with pytest.raises(ShapeError):
            garch_spec.check_theta([1.0, 0.6], "theta1")

    def test_domain_dimension_must_match(self):
        bad = ParamDomain(lower=(-0.9,), upper=(0.9,))
        with pytest.raises(ShapeError):
            ModelSpec(family=ModelFamily.GARCH, p=1, domain=bad)

    @pytest.mark.parametrize("family, p, lower, upper, least", [
        (ModelFamily.AR, 1, (0.99,), (0.995,), "0.99"),
        (ModelFamily.AR, 2, (0.6, 0.5), (0.9, 0.9), "1.1"),
        (ModelFamily.GARCH, 1, (0.1, 0.6, 0.5), (10.0, 0.98, 0.98), "1.1"),
    ])
    def test_box_missing_the_stationarity_set_is_rejected(self, family, p, lower, upper,
                                                           least):
        # Every point of these boxes breaks the stationarity bound 0.98, so
        # no fit is possible; a scan once failed on them with a ScanError
        # that blamed the numerics.
        domain = ParamDomain(lower=lower, upper=upper)
        with pytest.raises(DomainError, match=re.escape(f"lower={lower},") + ".*"
                           + re.escape(f"above {least}, beyond the bound 0.98")):
            ModelSpec(family=family, p=p, domain=domain)

    @pytest.mark.parametrize("family, lower, name", [
        (ModelFamily.ARCH, (-1.0, 0.0), "alpha_0"),
        (ModelFamily.ARCH, (1e-4, -0.5), "alpha_1"),
        (ModelFamily.ARCH, (0.0, 0.0), "alpha_0"),
        (ModelFamily.GARCH, (0.1, 0.0, -0.1), "beta_1"),
    ])
    def test_volatility_box_must_keep_the_variance_positive(self, family, lower, name):
        # On these boxes h_t can reach 0 or go negative, and a fit once
        # took the log of it.
        domain = ParamDomain(lower=lower, upper=(10.0,) + (0.98,) * (len(lower) - 1))
        with pytest.raises(DomainError, match=rf"^{name} has lower bound"):
            ModelSpec(family=family, p=1, domain=domain)

    def test_box_touching_the_stationarity_set_is_accepted(self):
        # Boxes whose nearest point meets the bound exactly, or whose
        # coordinates straddle zero, keep a feasible point.
        for lower, upper in [((0.5, 0.48), (0.9, 0.9)), ((-0.9, 0.49), (-0.49, 0.9)),
                             ((-0.2, -0.3), (0.4, 0.2))]:
            ModelSpec(family=ModelFamily.AR, p=2,
                      domain=ParamDomain(lower=lower, upper=upper))
        ModelSpec(family=ModelFamily.GARCH, p=1,
                  domain=ParamDomain(lower=(0.1, 0.5, 0.48), upper=(10.0, 0.98, 0.98)))


class TestParamDomain:
    def test_validation(self):
        with pytest.raises(ShapeError):
            ParamDomain(lower=(0.0,), upper=(1.0, 2.0))
        with pytest.raises(DomainError):
            ParamDomain(lower=(1.0,), upper=(0.5,))
        with pytest.raises(DomainError):
            ParamDomain(lower=(0.0,), upper=(1.0,), margin=0.0)
        with pytest.raises(DomainError):
            ParamDomain(lower=(0.0,), upper=(1.0,), margin=1.0)

    def test_as_arrays(self):
        dom = ParamDomain(lower=(0.0, -1.0), upper=(1.0, 1.0))
        lo, hi = dom.as_arrays()
        np.testing.assert_array_equal(lo, [0.0, -1.0])
        np.testing.assert_array_equal(hi, [1.0, 1.0])
        assert dom.dim == 2


class TestInDomain:
    def test_ar_stationarity_margin(self, ar1_spec, ar2_spec):
        assert in_domain(ar1_spec, [0.9])
        assert in_domain(ar1_spec, [-0.98])
        assert not in_domain(ar1_spec, [0.99])
        # AR(2): the constraint is on the sum of absolute values.
        assert in_domain(ar2_spec, [0.5, -0.4])
        assert not in_domain(ar2_spec, [0.6, -0.6])

    def test_volatility_domains(self, arch_spec, garch_spec):
        assert in_domain(arch_spec, [1.0, 0.3])
        assert not in_domain(arch_spec, [0.0, 0.3])  # intercept below 1e-4
        assert not in_domain(arch_spec, [1.0, -0.01])
        assert not in_domain(arch_spec, [11.0, 0.3])
        assert in_domain(garch_spec, [1.0, 0.4, 0.5])
        assert not in_domain(garch_spec, [1.0, 0.5, 0.5])  # a + b > 0.98

    def test_boundary_has_slack(self, ar1_spec):
        # Points a hair outside from round-off still count as feasible.
        assert in_domain(ar1_spec, [0.98 + 1e-13])
        assert not in_domain(ar1_spec, [0.98 + 1e-9])


def in_domain_loop(spec, theta):
    """The scalar membership rule written out: box with slack, then the
    stationarity sum with slack."""
    lo, hi = spec.domain.as_arrays()
    tol = 1e-12
    if any(t < a - tol or t > b + tol for t, a, b in zip(theta, lo, hi)):
        return False
    c = 1.0 - spec.domain.margin
    if spec.family is ModelFamily.AR:
        return sum(abs(t) for t in theta) <= c + tol
    return sum(theta[1:]) <= c + tol


class TestInDomainRows:
    @pytest.mark.parametrize("spec", [ar_spec(3), arch_spec(), garch_spec()])
    def test_matches_the_scalar_rule_row_by_row(self, spec):
        # Rows spread over the box and beyond it, plus rows put exactly
        # on, just inside and just outside each face, so the slack decides.
        rng = np.random.default_rng(5)
        lo, hi = spec.domain.as_arrays()
        rows = [lo + (hi - lo) * rng.uniform(-0.1, 1.1, size=(400, spec.d))]
        c = 1.0 - spec.domain.margin
        base = lo + (hi - lo) * rng.uniform(0.0, 1.0, size=(200, spec.d))
        for shift in (-1e-9, -1e-13, 0.0, 1e-13, 1e-9):
            for j in range(spec.d):
                for edge in (lo, hi):
                    pts = base.copy()
                    pts[:, j] = edge[j] + shift
                    rows.append(pts)
            face = base.copy()
            if spec.family is ModelFamily.AR:
                face *= ((c + shift) / np.abs(face).sum(axis=1))[:, None]
            else:
                face[:, 1:] *= ((c + shift) / face[:, 1:].sum(axis=1))[:, None]
            rows.append(face)
        thetas = np.concatenate(rows)
        want = [in_domain_loop(spec, theta.tolist()) for theta in thetas]
        np.testing.assert_array_equal(in_domain_rows(spec, thetas), want)
        assert 0 < sum(want) < len(want)


class TestSeriesSegment:
    def test_full_prefix_suffix_cover_the_sample(self):
        x = np.arange(1.0, 11.0)
        full = SeriesSegment.full(x)
        assert (full.start, full.end, full.n, full.card) == (1, 10, 10, 10)
        pre = SeriesSegment.prefix(x, 4)
        suf = SeriesSegment.suffix(x, 4)
        assert (pre.start, pre.end, pre.card) == (1, 4, 4)
        assert (suf.start, suf.end, suf.card) == (5, 10, 6)
        # Both keep the complete series for the truncated likelihood.
        assert pre.n == suf.n == 10

    def test_data_is_a_read_only_copy(self):
        x = np.ones(5)
        seg = SeriesSegment.full(x)
        x[0] = 42.0
        assert seg.data[0] == 1.0
        with pytest.raises(ValueError):
            seg.data[0] = 0.0

    def test_validation(self):
        with pytest.raises(SizingError):
            SeriesSegment.full([])
        with pytest.raises(ShapeError):
            SeriesSegment.full(np.zeros((2, 2)))
        with pytest.raises(ValueError, match="index 3"):
            SeriesSegment.full([1.0, 2.0, np.nan, 4.0])
        with pytest.raises(SizingError):
            SeriesSegment(np.ones(5), 0, 3)
        with pytest.raises(SizingError):
            SeriesSegment(np.ones(5), 4, 3)
        with pytest.raises(SizingError):
            SeriesSegment(np.ones(5), 1, 6)


class TestScanWindow:
    def test_indices_and_size(self):
        w = ScanWindow(n=10, v_n=3)
        np.testing.assert_array_equal(w.indices, [3, 4, 5, 6, 7])
        assert w.size == 5

    def test_validation(self):
        with pytest.raises(SizingError):
            ScanWindow(n=10, v_n=0)
        with pytest.raises(SizingError):
            ScanWindow(n=10, v_n=6)
        # v_n = n - v_n is the largest admissible trimming.
        assert ScanWindow(n=10, v_n=5).size == 1

    @given(st.integers(min_value=2, max_value=500))
    def test_window_symmetric_in_k(self, n):
        v = max(1, n // 4)
        w = ScanWindow(n=n, v_n=v)
        ks = w.indices
        assert ks[0] == v and ks[-1] == n - v
        assert w.size == ks.size


class TestDefaultWindow:
    @pytest.mark.parametrize(
        "family_fixture, n, expected",
        [
            ("ar", 1024, 48),  # floor((ln 1024)^2)
            ("ar", 4096, 69),  # floor((ln 4096)^2)
            ("arch", 500, 96),  # floor((ln 500)^2.5)
            ("garch", 1500, 144),  # floor((ln 1500)^2.5)
            ("garch", 1000, 125),  # floor((ln 1000)^2.5)
        ],
    )
    def test_policy_values(self, all_specs, family_fixture, n, expected):
        spec = all_specs[family_fixture]
        w = default_window(spec, n)
        assert w.v_n == expected
        raw = math.log(n) ** (2.0 if spec.family is ModelFamily.AR else 2.5)
        assert w.v_n == math.floor(raw)

    def test_clamping(self, garch_spec):
        # At n=20 the GARCH formula gives floor((ln 20)^2.5) = 15, which
        # overshoots n/2 - 1 = 9 and is clamped there.
        w = default_window(garch_spec, 20)
        assert w.v_n == 9
        # And the trimming never drops below d + 1.
        assert default_window(garch_spec, 40).v_n >= garch_spec.d + 1

    def test_too_small_raises(self, ar1_spec):
        with pytest.raises(SizingError):
            default_window(ar1_spec, 19)

    @given(st.integers(min_value=20, max_value=100_000))
    @settings(max_examples=60)
    def test_always_valid(self, n):
        spec = garch_spec()
        w = default_window(spec, n)
        assert spec.d + 1 <= w.v_n <= w.n - w.v_n
        assert w.size >= 1
