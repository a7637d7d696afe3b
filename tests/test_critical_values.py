"""Critical values: bridge simulation, quantiles, table plumbing.

Continuum anchors, derived independently and frozen before the tests
were written (see the repository notes for the derivations):

* d=1: the limit law of sup |W_1|^2 is the squared Kolmogorov law, so
  the continuum 0.975-quantile is kolmogi(0.025)^2 = 2.191012.
* d=2: 2.894240, d=3: 3.468640 (series evaluation, confirmed by
  Richardson extrapolation of refined-grid Monte Carlo to 2.8928 and
  3.4700).

Finite grids bias the sup downward, so an m=1000 estimate must sit
below its continuum anchor but within a few hundredths of it.

Each bit-equality assertion says which kind it is.  Numpy-elementwise
(portable): both sides run numpy's own elementwise and reduction loops
(``cumsum``, ``max``, ``quantile``, integer arithmetic), which give the
same bits on every BLAS kernel.  BLAS/LAPACK-bound: the values pass
through ``np.linalg.solve``, ``eigh`` or a matmul sum, whose bits vary
between kernels.  Every bit equality here is portable: the bridge
simulation, its stream keys and the quantiles call no BLAS or LAPACK
routine, and a saved table round-trips through 17 significant digits.
"""

from __future__ import annotations

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qlscan import (
    CalibrationRequiredError,
    CriticalTable,
    calibrate,
    decide,
    simulate_sup_bb,
    sup_bb_quantile,
)
from qlscan import critical_values
from qlscan.critical_values import TableEntry

CONTINUUM = {1: 2.191012340767765, 2: 2.894240, 3: 3.468640}


class TestSimulateSupBB:
    def test_deterministic_per_replication(self):
        a = simulate_sup_bb(2, m=50, reps=10, seed=7)
        b = simulate_sup_bb(2, m=50, reps=10, seed=7)
        # Bit equality, portable: the same draws through the same
        # elementwise loops.
        np.testing.assert_array_equal(a, b)

    def test_streams_do_not_depend_on_rep_count(self):
        # Replication r draws from a stream keyed by (seed, r), so a
        # longer run extends the sample without changing its prefix.
        short = simulate_sup_bb(1, m=50, reps=10, seed=3)
        long = simulate_sup_bb(1, m=50, reps=700, seed=3)
        # Bit equality, portable, as above.
        np.testing.assert_array_equal(long[:10], short)

    @pytest.mark.parametrize("d, m", [(1, 1000), (3, 1000), (2, 50), (5, 40_000)])
    def test_chunks_change_no_value(self, monkeypatch, d, m):
        # Each replication, computed alone from its own stream with plain
        # array expressions, equals its value in the chunked simulation,
        # whatever the chunk size: one replication per chunk, the
        # default 2^15 grid values, or every replication at once.  One
        # nested run at dimension d gives every dimension up to d, and
        # each equals its own single-dimension simulation.
        reps = 7
        tau = np.arange(1, m + 1) / m
        want = np.empty((d, reps))
        for r in range(reps):
            rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((5, r))))
            walk = np.cumsum(rng.standard_normal((d, m)), axis=1) * (1.0 / np.sqrt(m))
            bridge = walk - tau * walk[:, -1:]
            norm = bridge[0] * bridge[0]
            want[0, r] = norm.max()
            for i in range(1, d):
                norm = norm + bridge[i] * bridge[i]
                want[i, r] = norm.max()
        # Bit equality, portable: cumsum, the bridge, the squares and
        # the maxima run numpy's elementwise and reduction loops, along
        # one replication's own axis whatever the chunk.
        for chunk in (1, 2**15, reps * d * m):
            monkeypatch.setattr(critical_values, "_CHUNK_VALUES", chunk)
            np.testing.assert_array_equal(
                critical_values._nested_sup_bb(d, m, reps, 5), want
            )
            for dim in range(1, d + 1):
                np.testing.assert_array_equal(
                    simulate_sup_bb(dim, m=m, reps=reps, seed=5), want[dim - 1]
                )

    @pytest.mark.parametrize("seed", [0, 1, 20260401, 2**32 - 1, 2**32, 2**70 + 3,
                                      2**100 + 7])
    def test_stream_keys_are_seed_sequence_keys(self, seed):
        # The keys are computed for every replication at once; each must
        # be the Philox key that SeedSequence((seed, r)) gives.  Seeds of
        # one to four 32-bit words: with r, four words fill the pool, and
        # more are mixed in afterwards.
        want = np.array([np.random.SeedSequence((seed, r)).generate_state(2, np.uint64)
                         for r in range(3000)])
        # Bit equality, portable: exact integer arithmetic.
        np.testing.assert_array_equal(critical_values._stream_keys(seed, 3000), want)

    @pytest.mark.parametrize("seed, error", [(-1, ValueError), (-(2**40), ValueError),
                                             (1.5, TypeError)])
    def test_bad_seeds_raise_what_seed_sequence_raises(self, seed, error):
        with pytest.raises(error):
            np.random.SeedSequence((seed, 0))
        with pytest.raises(error):
            critical_values._stream_keys(seed, 3)
        with pytest.raises(error):
            simulate_sup_bb(1, m=10, reps=3, seed=seed)

    def test_replication_bound_is_checked_before_allocating(self, monkeypatch):
        # 2^32 + 1 replications would ask numpy for about 34 GB: the bound
        # must raise before any array of that length is requested.
        empty = np.empty

        def guarded(shape, *args, **kwargs):
            assert np.prod(shape) < 2**20, f"np.empty{shape} before the reps check"
            return empty(shape, *args, **kwargs)

        monkeypatch.setattr(np, "empty", guarded)
        with pytest.raises(ValueError, match=r"at most 2\^32 replications"):
            simulate_sup_bb(1, m=2, reps=2**32 + 1)

    def test_nonnegative(self):
        s = simulate_sup_bb(3, m=40, reps=200, seed=1)
        assert np.all(s >= 0.0)

    def test_midpoint_law_pins_zero_endpoints(self):
        # With m=2 the grid holds tau = 1/2 and tau = 1.  The bridge is
        # zero at the endpoint by construction, so the sup reduces to
        # the squared bridge at the midpoint, distributed N(0, 1/4)^2
        # with mean 1/4.  A non-bridged endpoint would push the mean
        # well above that.
        s = simulate_sup_bb(1, m=2, reps=40_000, seed=11)
        assert_allclose(s.mean(), 0.25, rtol=0.05)

    def test_validation(self):
        with pytest.raises(ValueError):
            simulate_sup_bb(0)
        with pytest.raises(ValueError):
            simulate_sup_bb(1, m=1)
        with pytest.raises(ValueError):
            simulate_sup_bb(1, reps=0)


class TestQuantile:
    def test_level_convention(self):
        samples = np.arange(1.0, 1002.0)
        # alpha = 0.05 reads the 0.975-quantile.
        assert_allclose(
            sup_bb_quantile(samples, 0.05), np.quantile(samples, 0.975)
        )
        # alpha = 1 degenerates to the median.
        assert_allclose(sup_bb_quantile(samples, 1.0), np.median(samples))

    def test_monotone_in_alpha(self):
        samples = simulate_sup_bb(2, m=100, reps=5000, seed=2)
        qs = [sup_bb_quantile(samples, a) for a in (0.01, 0.05, 0.10, 0.5)]
        assert qs == sorted(qs, reverse=True)

    def test_validation(self):
        with pytest.raises(ValueError):
            sup_bb_quantile(np.ones(10), 0.0)
        with pytest.raises(ValueError):
            sup_bb_quantile(np.ones(10), 1.5)


class TestBuiltinTable:
    def test_values_are_plausible(self, builtin_table):
        # Below the continuum anchor (grid bias is downward), above it
        # minus a generous bias-plus-noise allowance.
        for d in (1, 2, 3):
            c = builtin_table.lookup(d, 0.05)
            assert CONTINUUM[d] - 0.12 < c < CONTINUUM[d]

    def test_monotonicity(self, builtin_table):
        builtin_table.validate()
        assert builtin_table.lookup(1, 0.10) < builtin_table.lookup(1, 0.05)
        assert builtin_table.lookup(1, 0.05) < builtin_table.lookup(2, 0.05)

    def test_missing_entry_raises(self, builtin_table):
        with pytest.raises(CalibrationRequiredError):
            builtin_table.lookup(4, 0.05)
        with pytest.raises(CalibrationRequiredError):
            builtin_table.lookup(1, 0.033)

    @pytest.mark.parametrize("d", [2.9, 1.5, float("nan"), float("inf")])
    def test_non_integral_dimension_is_invalid(self, builtin_table, d):
        # Not a missing entry, and no longer truncated: 2.9 once looked
        # up C(2, alpha).
        with pytest.raises(ValueError, match=r"^dimension must be an integer, got "):
            builtin_table.lookup(d, 0.05)
        with pytest.raises(ValueError, match=r"^dimension must be an integer, got "):
            decide(3.0, d, 0.05, builtin_table)
        with pytest.raises(ValueError, match=r"^dimension must be an integer, got "):
            CriticalTable(entries={(d, 0.05): builtin_table.entries[(2, 0.05)]})
        # Between two valid dimensions, d once reached the sample's index.
        with pytest.raises(ValueError, match=r"^dimension must be an integer, got "):
            calibrate(ds=(1, d, 3), m=50, reps=10)

    def test_integer_types_look_up_alike(self, builtin_table):
        # Bit equality, portable: one stored entry read three ways.
        for d in (1, 2, 3):
            want = builtin_table.lookup(d, 0.05)
            assert builtin_table.lookup(np.int64(d), 0.05) == want
            assert builtin_table.lookup(np.int32(d), 0.05) == want

    @pytest.mark.parametrize("alpha", [1.5, 0.0, -0.05, float("nan")])
    def test_alpha_outside_unit_interval_is_invalid(self, builtin_table, alpha):
        # Not a missing entry: no calibration can produce one.
        with pytest.raises(ValueError, match=r"alpha must lie in \(0, 1\]"):
            builtin_table.lookup(1, alpha)

    def test_small_recalibration_matches_builtin_stream(self, builtin_table):
        # The builtin table's provenance (m, reps, seed) is recorded in
        # each entry; recalibrating with the same seed but fewer reps
        # must draw the same leading replications.
        entry = builtin_table.entries[(1, 0.05)]
        sample = simulate_sup_bb(1, m=entry.m, reps=50, seed=entry.seed)
        full_like = simulate_sup_bb(1, m=entry.m, reps=120, seed=entry.seed)
        # Bit equality, portable, as in TestSimulateSupBB.
        np.testing.assert_array_equal(full_like[:50], sample)


class TestCalibrate:
    def test_builds_requested_grid(self):
        table = calibrate(ds=(1, 2), alphas=(0.05, 0.10), m=80, reps=2000, seed=9)
        assert set(table.entries) == {(1, 0.05), (1, 0.10), (2, 0.05), (2, 0.10)}
        table.validate()

    def test_reuses_one_sample_across_levels(self):
        table = calibrate(ds=(1,), alphas=(0.05, 0.10), m=80, reps=2000, seed=9)
        samples = simulate_sup_bb(1, m=80, reps=2000, seed=9)
        assert_allclose(
            table.lookup(1, 0.05), sup_bb_quantile(samples, 0.05), rtol=1e-15
        )
        assert_allclose(
            table.lookup(1, 0.10), sup_bb_quantile(samples, 0.10), rtol=1e-15
        )

    @pytest.mark.parametrize("ds", [(3, 1, 2), (2, 2)])
    def test_one_simulation_matches_single_dimension_calls(self, ds):
        # Every dimension is read off one simulation at max(ds), in any
        # order and with repeats, and equals a calibration of that
        # dimension alone, bit for bit (portable: the same elementwise
        # loops and numpy quantiles).
        alphas = (0.01, 0.05, 0.10)
        table = calibrate(ds=ds, alphas=alphas, m=70, reps=900, seed=21)
        want = {}
        for d in ds:
            alone = calibrate(ds=(d,), alphas=alphas, m=70, reps=900, seed=21)
            want.update(alone.entries)
        assert table.entries == want

    def test_dimension_validation(self):
        with pytest.raises(ValueError, match=r"^dimension must be >= 1, got 0$"):
            calibrate(ds=(0,), m=50, reps=10)
        with pytest.raises(ValueError, match=r"^dimension must be >= 1, got -1$"):
            calibrate(ds=(2, -1, 1), m=50, reps=10)
        assert calibrate(ds=(), m=50, reps=10).entries == {}

    def test_deterministic(self):
        a = calibrate(ds=(2,), alphas=(0.05,), m=60, reps=1500, seed=4)
        b = calibrate(ds=(2,), alphas=(0.05,), m=60, reps=1500, seed=4)
        # Bit equality, portable: the same calibration twice.
        assert a.lookup(2, 0.05) == b.lookup(2, 0.05)


class TestTableIO:
    def test_save_load_round_trip(self, tmp_path):
        table = calibrate(ds=(1, 3), alphas=(0.01, 0.05), m=60, reps=1000, seed=13)
        path = tmp_path / "table.txt"
        table.save(path)
        loaded = CriticalTable.load(path)
        assert set(loaded.entries) == set(table.entries)
        for key, entry in table.entries.items():
            got = loaded.entries[key]
            assert got.c == entry.c  # portable: 17 significant digits survive
            assert (got.m, got.reps, got.seed) == (entry.m, entry.reps, entry.seed)

    def test_load_drops_a_byte_order_mark(self, tmp_path):
        # A UTF-8 byte-order mark once made the first line, a comment,
        # read as a row of 11 fields.
        plain, bom = tmp_path / "plain.txt", tmp_path / "bom.txt"
        CriticalTable.builtin().save(plain)
        bom.write_text(plain.read_text(), encoding="utf-8-sig")
        # Bit equality, portable: the same digits parsed twice.
        assert CriticalTable.load(bom) == CriticalTable.load(plain)

    def test_load_rejects_malformed_rows(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("1 0.05 2.13\n")
        with pytest.raises(ValueError, match="line 1"):
            CriticalTable.load(bad)
        bad.write_text("# only comments\n")
        with pytest.raises(ValueError, match="no table rows"):
            CriticalTable.load(bad)
        bad.write_text("1 x 2.13 10 10 0\n")
        with pytest.raises(ValueError, match="line 1"):
            CriticalTable.load(bad)

    # Each row once loaded as written: a NaN C could never reject, a
    # negative one always did.
    @pytest.mark.parametrize("row, message", [
        ("1 0.05 nan 1000 100 0", "C must be finite"),
        ("1 0.05 -1 1000 100 0", "C must be finite"),
        ("1 0.05 0 1000 100 0", "C must be finite"),
        ("1 0.05 inf 1000 100 0", "C must be finite"),
        ("0 0.05 2.1 1000 100 0", "dimension"),
        ("1 0 2.1 1000 100 0", "alpha"),
        ("1 1.5 2.1 1000 100 0", "alpha"),
        ("1 0.05 2.1 1 100 0", "grid size"),
        ("1 0.05 2.1 1000 0 0", "replication count"),
    ])
    def test_load_rejects_invalid_rows(self, tmp_path, row, message):
        bad = tmp_path / "bad.txt"
        bad.write_text(f"# header\n{row}\n")
        with pytest.raises(ValueError, match=rf"bad\.txt: line 2: {message}"):
            CriticalTable.load(bad)

    def test_load_validates_monotonicity(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("1 0.05 2.0 10 10 0\n1 0.10 2.5 10 10 0\n")
        with pytest.raises(ValueError, match=r"bad\.txt: C\(d=1, alpha=0\.05\)"):
            CriticalTable.load(bad)

    @pytest.mark.parametrize("key, entry, message", [
        ((1, 0.05), (-1.0, 1000, 100, 0), "C must be finite"),
        ((1, 0.05), (float("nan"), 1000, 100, 0), "C must be finite"),
        ((1, 0.05), (2.1, 1, 100, 0), "grid size"),
        ((1, 0.05), (2.1, 1000, 0, 0), "replication count"),
        ((0, 0.05), (2.1, 1000, 100, 0), "dimension"),
        ((1, 0.0), (2.1, 1000, 100, 0), "alpha"),
        ((1, 1.5), (2.1, 1000, 100, 0), "alpha"),
    ])
    def test_tables_built_in_python_are_checked(self, key, entry, message):
        # A negative C built this way once made scan reject iid noise,
        # and a NaN C made it never reject.
        with pytest.raises(ValueError, match=message):
            CriticalTable(entries={key: TableEntry(*entry)})

    def test_validate_flags_inversions(self):
        entries = {
            (1, 0.05): TableEntry(2.0, 10, 10, 0),
            (1, 0.10): TableEntry(2.5, 10, 10, 0),  # must be below
        }
        with pytest.raises(ValueError):
            CriticalTable(entries=entries).validate()
        entries = {
            (1, 0.05): TableEntry(2.0, 10, 10, 0),
            (2, 0.05): TableEntry(1.5, 10, 10, 0),  # must be above
        }
        with pytest.raises(ValueError):
            CriticalTable(entries=entries).validate()
