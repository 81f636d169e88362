"""Rank-frequency curves and the five stream metrics.

Oracles are analytic: straight-line curves integrate to triangle and
rectangle areas, exact power-law count tables (720720 / r is an integer
for r <= 16) pin the slope, and multiplying all counts by k must shift
the area by ln(k) times the x span while leaving slope and deviation
untouched.
"""

from __future__ import annotations

import json
import math
import re
import tempfile
import tracemalloc
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import simpson

from tokscope import corpus_io
from tokscope import zipf_metrics
from tokscope.zipf_metrics import count_blocks
from tokscope import (
    DEFAULT_TRUNCATION_BOUND,
    METRIC_NAMES,
    MetricVector,
    RankFrequencyCurve,
    SIMPSON_GRID,
    TokenFrequencyTable,
    TokenSequence,
    auc,
    count_frequencies,
    count_token_file,
    generate_zipf_stream,
    load_token_stream,
    metadata_block,
    metric_vector,
    metric_vector_from_dict,
    metric_vector_from_table,
    metric_vector_to_dict,
    rank_frequency_curve,
    ranked_counts,
    zipf_fit,
    power_law_deviation,
    save_token_stream,
)


def seq(tokens):
    return TokenSequence(tokens=np.asarray(tokens, dtype=np.int64))


def table_from_counts(counts: dict[int, int]) -> TokenFrequencyTable:
    ids = np.array(sorted(counts), dtype=np.int64)
    return TokenFrequencyTable(ids=ids, counts=np.array([counts[i] for i in ids.tolist()]))


class TestCounting:
    def test_count_frequencies(self):
        stream = seq([5, 1, 5])
        table = count_frequencies(stream)
        ids, counts = np.unique(stream.tokens, return_counts=True)
        assert table.ids.tolist() == ids.tolist() == [1, 5]
        assert table.counts.tolist() == counts.tolist() == [1, 2]
        assert table.ids.dtype == table.counts.dtype == np.int64
        assert table.total == 3

    def test_compression_is_stream_length(self):
        assert metric_vector(seq([5, 1, 5])).compression == 3

    def test_cardinality_is_distinct_ids(self):
        assert metric_vector(seq([5, 1, 5])).cardinality == 2

    def test_empty_stream_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            count_frequencies(seq([]))

    def test_table_validation(self):
        with pytest.raises(ValueError, match="empty"):
            TokenFrequencyTable(ids=[], counts=[])
        with pytest.raises(ValueError, match="positive"):
            TokenFrequencyTable(ids=[1], counts=[0])
        with pytest.raises(ValueError, match="positive"):
            TokenFrequencyTable(ids=[1, 2], counts=[3, -1])
        with pytest.raises(ValueError, match="sorted and unique"):
            TokenFrequencyTable(ids=[2, 1], counts=[1, 1])
        with pytest.raises(ValueError, match="sorted and unique"):
            TokenFrequencyTable(ids=[1, 1], counts=[1, 1])
        with pytest.raises(ValueError, match="non-negative"):
            TokenFrequencyTable(ids=[-1, 2], counts=[1, 1])
        with pytest.raises(ValueError, match="equal length"):
            TokenFrequencyTable(ids=[1, 2], counts=[1])
        with pytest.raises(ValueError, match="equal length"):
            TokenFrequencyTable(ids=[[1, 2]], counts=[[1, 1]])

    def test_ranked_counts_descending(self):
        table = table_from_counts({3: 2, 1: 2, 2: 5})
        assert ranked_counts(table).tolist() == [5, 2, 2]


class TestCountTokenFile:
    @given(
        st.lists(st.integers(0, 2**63 - 1) | st.integers(0, 40), max_size=300),
        st.integers(1, 64),
    )
    def test_matches_unique_of_the_loaded_stream(self, tokens, block_bytes):
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "stream.txt"
            save_token_stream(seq(tokens), path, header="h")
            with mock.patch.object(corpus_io, "READ_BLOCK_BYTES", block_bytes):
                loaded = load_token_stream(path).tokens
                if not tokens:
                    with pytest.raises(ValueError, match="empty stream"):
                        count_token_file(path)
                    return
                table = count_token_file(path)
        ids, counts = np.unique(loaded, return_counts=True)
        np.testing.assert_array_equal(table.ids, ids)
        np.testing.assert_array_equal(table.counts, counts)
        assert table.total == len(tokens)

    @given(
        st.lists(
            st.lists(st.integers(0, 2**63 - 1) | st.integers(0, 40), max_size=30), max_size=20
        )
    )
    def test_blocks_fold_to_unique_of_the_stream(self, blocks):
        # Blocks of mostly new ids and of repeats, in any order, exercise
        # both the in-place add and the sorting-in of waiting ids.
        stream = np.array([t for block in blocks for t in block], dtype=np.int64)
        arrays = [np.array(block, dtype=np.int64) for block in blocks]
        if not len(stream):
            with pytest.raises(ValueError, match="^s: cannot count"):
                count_blocks(arrays, "s")
            return
        table = count_blocks(arrays, "s")
        ids, counts = np.unique(stream, return_counts=True)
        np.testing.assert_array_equal(table.ids, ids)
        np.testing.assert_array_equal(table.counts, counts)
        assert table.total == len(stream)

    def test_empty_stream_names_the_file(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("# header only\n\n", encoding="utf-8")
        with pytest.raises(
            ValueError, match=re.escape(f"{path}: cannot count frequencies of an empty stream")
        ):
            count_token_file(path)

    def test_malformed_entry_names_the_file(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("1 2 99999999999999999999 3\n", encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"{path}: entry 3: token id")):
            count_token_file(path)


HUGE = 2**62
SMALL_IDS = st.lists(st.integers(0, 60), max_size=30)


@st.composite
def regime_blocks(draw):
    """Blocks of ids, some empty, in one of three regimes: dense ids
    throughout, an id of 2**62 or more in the first block, or one in a
    late block after dense ones."""
    top = draw(st.integers(0, 60))
    blocks = draw(st.lists(SMALL_IDS.map(lambda b: [t % (top + 1) for t in b]),
                           min_size=1, max_size=8))
    regime = draw(st.sampled_from(["dense", "huge first", "huge late"]))
    if regime != "dense":
        block = blocks[0] if regime == "huge first" else draw(SMALL_IDS)
        if regime == "huge late":
            blocks.append(block)
        block.insert(draw(st.integers(0, len(block))), draw(st.integers(HUGE, 2**63 - 1)))
    return blocks


@st.composite
def sparse_then_dense_blocks(draw):
    """A first block of a few ids spread up to a top id, then blocks that
    cover the ids below it densely enough for the array again."""
    top = draw(st.integers(30, 400))
    first = draw(st.lists(st.integers(0, top), min_size=1, max_size=top // 4))
    rest = draw(st.lists(st.lists(st.integers(0, top), max_size=60), min_size=1, max_size=10))
    return [[*first, top], *rest]


class TestCountBlocks:
    """Counting by id while ids are dense, and by sorted table after."""

    @given(regime_blocks())
    @example([[0, 2, 1, 2], [], [5, 0, 5], [], [9, 3, 9, 8], [1]])  # dense, growing twice
    @example([[3, HUGE + 7, 3], [], [1, HUGE + 7], [2**63 - 1]])
    @example([[0, 4, 2, 4], [], [1, 3], [], [2, HUGE, 4, 60], [HUGE, 0, 7]])
    def test_matches_unique_and_counter_of_the_stream(self, blocks):
        stream = np.array([t for block in blocks for t in block], dtype=np.int64)
        arrays = [np.array(b, dtype=np.int64) for b in blocks]
        if not len(stream):
            with pytest.raises(ValueError, match="^s: cannot count"):
                count_blocks(arrays, "s")
            return
        table = count_blocks(arrays, "s")
        ids, counts = np.unique(stream, return_counts=True)
        np.testing.assert_array_equal(table.ids, ids)
        np.testing.assert_array_equal(table.counts, counts)

    @given(sparse_then_dense_blocks())
    @example([[0, 99], [1] * 10, list(range(0, 100, 2)), list(range(100)),
              [5, 120]])  # back to the array, grown
    def test_sparse_first_block_then_dense_matches_counter(self, blocks):
        arrays = [np.array(b, dtype=np.int64) for b in blocks]
        expected = Counter(t for block in blocks for t in block)
        table = count_blocks(arrays, "s")
        assert table.ids.tolist() == sorted(expected)
        assert table.counts.tolist() == [expected[t] for t in sorted(expected)]

    def test_dense_stream_with_a_sparse_first_block_returns_to_the_array(self):
        # Like gen-zipf with more types than a block holds: every id below
        # 200,000 is used, but the first block's 20,000 ids reach 199,999.
        rng = np.random.default_rng(3)
        stream = rng.permutation(np.repeat(np.arange(200_000), 3))
        blocks = np.split(stream, range(20_000, len(stream), 20_000))
        unique = np.unique
        with mock.patch.object(zipf_metrics.np, "unique", side_effect=unique) as sorting:
            table = count_blocks(blocks, "s")
        assert 0 < sorting.call_count < 10  # of 30 blocks
        np.testing.assert_array_equal(table.ids, np.arange(200_000))
        assert set(table.counts.tolist()) == {3}

    @pytest.mark.parametrize("blocks", [[[0, 2**40]], [[2**40, 0, 2**40]], [[0], [], [2**40]]])
    def test_far_apart_ids_allocate_no_array_that_spans_them(self, blocks):
        tracemalloc.start()
        try:
            table = count_blocks([np.array(b, dtype=np.int64) for b in blocks], "s")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert table.ids.tolist() == [0, 2**40]
        assert table.total == sum(map(len, blocks))
        assert peak < 1 << 20

    def test_benchmark_sized_stream_is_counted_by_id(self):
        # Like the 200 k-type benchmark streams: ids 100000-299999, fewer
        # than half of them used, and the first block already holds the
        # largest. Such streams must not fall back to sorting.
        rng = np.random.default_rng(0)
        used = np.sort(rng.choice(np.arange(100_000, 300_000), 86_000, replace=False))
        zipf = 1 / np.arange(1, len(used) + 1)
        stream = rng.choice(used, 900_000, p=zipf / zipf.sum())
        stream[:2] = used[-1], used[0]
        ids, counts = np.unique(stream, return_counts=True)
        with mock.patch.object(zipf_metrics.np, "unique", side_effect=AssertionError("sorted")):
            table = count_blocks(np.split(stream, range(149_787, len(stream), 149_787)), "s")
        np.testing.assert_array_equal(table.ids, ids)
        np.testing.assert_array_equal(table.counts, counts)

    @pytest.mark.parametrize("blocks", [[[3, -1]], [[0, 1, 2], [-5]], [[HUGE], [-1, 0]]])
    def test_negative_id_rejected(self, blocks):
        with pytest.raises(ValueError, match="token ids must be non-negative"):
            count_blocks([np.array(b, dtype=np.int64) for b in blocks], "s")


class TestCurve:
    def test_points_and_log_axes(self):
        curve = rank_frequency_curve(count_frequencies(seq([5, 1, 5])))
        assert len(curve) == 2
        np.testing.assert_allclose(curve.x, [0.0, math.log(2)])
        np.testing.assert_allclose(curve.y, [math.log(2), 0.0])

    def test_truncation_keeps_403_ranks(self):
        # ln(403) = 5.999 <= 6 < ln(404), so exactly 403 ranks survive.
        table = table_from_counts({i: 1 for i in range(500)})
        assert len(rank_frequency_curve(table)) == 403
        assert len(rank_frequency_curve(table, truncation_bound=np.inf)) == 500

    def test_shape_validation(self):
        with pytest.raises(ValueError, match=r"\(n, 2\)"):
            RankFrequencyCurve(points=np.zeros(4))
        with pytest.raises(ValueError, match="strictly increasing"):
            RankFrequencyCurve(points=np.array([[0.0, 1.0], [0.0, 2.0]]))

    def test_increasing_y_is_allowed(self):
        curve = RankFrequencyCurve(points=np.array([[0.0, 0.0], [1.0, 1.0]]))
        assert auc(curve) == pytest.approx(0.5, abs=1e-12)


class TestFitAndDeviation:
    def test_two_point_stream(self):
        # Counts (2, 1) make the log-log curve a straight segment from
        # (0, ln 2) to (ln 2, 0): slope -1, zero deviation.
        curve = rank_frequency_curve(count_frequencies(seq([5, 1, 5])))
        fit = zipf_fit(curve)
        assert fit.beta1 == pytest.approx(-1.0, abs=1e-12)
        assert fit.beta0 == pytest.approx(math.log(2), abs=1e-12)
        assert power_law_deviation(curve, fit) == pytest.approx(0.0, abs=1e-12)

    def test_exact_power_law_table(self):
        # 720720 is divisible by every rank up to 16, so count = C / r
        # is exact and every point lies on y = ln C - x.
        C, N = 720720, 16
        table = table_from_counts({r - 1: C // r for r in range(1, N + 1)})
        curve = rank_frequency_curve(table)
        fit = zipf_fit(curve)
        assert fit.beta1 == pytest.approx(-1.0, abs=1e-9)
        assert fit.beta0 == pytest.approx(math.log(C), abs=1e-9)
        assert power_law_deviation(curve, fit) == pytest.approx(0.0, abs=1e-9)

    def test_uniform_counts_fit_flat(self):
        stream = seq(np.repeat(np.arange(10), 7))
        mv = metric_vector(stream)
        assert mv.slope == pytest.approx(0.0, abs=1e-12)
        assert mv.power_law == pytest.approx(0.0, abs=1e-12)
        assert mv.auc == pytest.approx(math.log(7) * math.log(10), abs=1e-12)

    def test_single_point_curve_unfittable(self):
        curve = rank_frequency_curve(count_frequencies(seq([7, 7, 7])))
        with pytest.raises(ValueError, match="at least 2"):
            zipf_fit(curve)


class TestAuc:
    def test_constant_two_point_curve(self):
        c = math.log(5)
        curve = RankFrequencyCurve(points=np.array([[0.0, c], [6.0, c]]))
        assert auc(curve) == pytest.approx(6 * c, abs=1e-12)

    def test_linear_three_samples(self):
        curve = RankFrequencyCurve(points=np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]))
        assert auc(curve) == pytest.approx(2.0, abs=1e-12)

    def test_dense_quadratic_samples(self):
        xs = np.linspace(0.0, 3.0, 4097)
        curve = RankFrequencyCurve(points=np.column_stack([xs, xs**2]))
        assert auc(curve) == pytest.approx(9.0, abs=1e-6)

    def test_resampling_ignores_point_spacing(self):
        # Same underlying segment, sampled unevenly: identical area.
        a = RankFrequencyCurve(points=np.array([[0.0, 1.0], [4.0, 5.0]]))
        b = RankFrequencyCurve(
            points=np.array([[0.0, 1.0], [0.1, 1.1], [3.9, 4.9], [4.0, 5.0]])
        )
        assert auc(a) == pytest.approx(auc(b), abs=1e-12)

    @given(
        st.lists(st.floats(0, 12), min_size=2, max_size=60, unique=True).flatmap(
            lambda xs: st.tuples(st.just(sorted(xs)), st.lists(
                st.floats(-20, 20), min_size=len(xs), max_size=len(xs)))),
        st.integers(1, 1100).map(lambda k: 2 * k + 1),
    )
    @settings(deadline=None)
    def test_matches_scipy_simpson_of_the_resampling(self, points, grid):
        xs, ys = points
        assume(xs[-1] - xs[0] > 1e-6)
        curve = RankFrequencyCurve(points=np.column_stack([xs, ys]))
        grid_x = np.linspace(xs[0], xs[-1], grid)
        want = simpson(np.interp(grid_x, xs, ys), x=grid_x)
        assert auc(curve, grid=grid) == pytest.approx(want, rel=1e-9, abs=1e-9)

    def test_grid_validation(self):
        curve = RankFrequencyCurve(points=np.array([[0.0, 1.0], [1.0, 1.0]]))
        with pytest.raises(ValueError, match="odd"):
            auc(curve, grid=4)
        with pytest.raises(ValueError, match="odd"):
            auc(curve, grid=1)
        with pytest.raises(ValueError, match="at least 2"):
            auc(RankFrequencyCurve(points=np.array([[0.0, 1.0]])))


class TestMetricVector:
    def test_two_type_stream_end_to_end(self):
        mv = metric_vector(seq([5, 1, 5]))
        assert mv.compression == 3
        assert mv.cardinality == 2
        assert mv.slope == pytest.approx(-1.0, abs=1e-12)
        assert mv.power_law == pytest.approx(0.0, abs=1e-12)
        assert mv.auc == pytest.approx(math.log(2) ** 2 / 2, abs=1e-12)

    @pytest.mark.parametrize(
        "n_tokens, exponent", [(1_000_000, 1.0), (1_000, 0.0)], ids=["ideal", "flat"]
    )
    def test_from_table_equals_from_stream(self, tmp_path, n_tokens, exponent):
        # The two streams of acceptance criterion 3, written to disk.
        path = tmp_path / "zipf.txt"
        save_token_stream(generate_zipf_stream(n_tokens, 403, exponent, seed=0), path)
        from_table = metric_vector_from_table(count_token_file(path))
        from_stream = metric_vector(load_token_stream(path))
        for name in METRIC_NAMES:
            assert getattr(from_table, name) == getattr(from_stream, name), name

    def test_as_features_order_and_names(self):
        mv = metric_vector(seq([5, 1, 5]))
        np.testing.assert_allclose(
            mv.as_features(("slope", "compression")), [mv.slope, 3.0]
        )
        full = mv.as_features()
        assert full.shape == (len(METRIC_NAMES),)
        with pytest.raises(ValueError, match="unknown metric"):
            mv.as_features(("slope", "entropy"))

    @given(
        st.lists(st.integers(0, 30), min_size=2, max_size=400).filter(
            lambda t: len(set(t)) >= 2
        )
    )
    def test_invariants_hold_on_arbitrary_streams(self, tokens):
        mv = metric_vector(seq(tokens))
        assert mv.compression == len(tokens)
        assert mv.cardinality == len(set(tokens))
        assert mv.power_law >= 0.0
        # Ranked counts never increase, so the fitted slope cannot be positive.
        assert mv.slope <= 1e-12
        curve = rank_frequency_curve(count_frequencies(seq(tokens)))
        span = curve.x[-1] - curve.x[0]
        assert curve.y.min() * span - 1e-9 <= mv.auc <= curve.y.max() * span + 1e-9

    @given(
        st.dictionaries(
            st.integers(0, 60), st.integers(1, 1000), min_size=2, max_size=60
        ),
        st.integers(2, 50),
    )
    def test_count_scaling_shifts_area_only(self, counts, k):
        base = rank_frequency_curve(table_from_counts(counts))
        scaled = rank_frequency_curve(
            table_from_counts({i: k * c for i, c in counts.items()})
        )
        fit_base, fit_scaled = zipf_fit(base), zipf_fit(scaled)
        assert fit_scaled.beta1 == pytest.approx(fit_base.beta1, abs=1e-9)
        assert power_law_deviation(scaled, fit_scaled) == pytest.approx(
            power_law_deviation(base, fit_base), abs=1e-9
        )
        span = base.x[-1] - base.x[0]
        assert auc(scaled) - auc(base) == pytest.approx(math.log(k) * span, abs=1e-9)


class TestSerialization:
    def test_metadata_block(self):
        assert metadata_block() == {
            "log_base": "e",
            "truncation_bound": 6,
            "simpson_grid": 2049,
        }
        assert metadata_block(4.5) == {
            "log_base": "e",
            "truncation_bound": 4.5,
            "simpson_grid": 2049,
        }
        assert SIMPSON_GRID == 2049
        assert DEFAULT_TRUNCATION_BOUND == 6.0

    def test_round_trip_through_json(self):
        mv = metric_vector(seq([5, 1, 5, 2, 2, 2, 9]))
        payload = metric_vector_to_dict(mv, tokenizer="toy", language="aa")
        again = metric_vector_from_dict(json.loads(json.dumps(payload)))
        assert again == mv
        assert payload["tokenizer"] == "toy"
        assert payload["language"] == "aa"
        assert payload["metadata"] == metadata_block()

    def test_missing_field_reported(self):
        with pytest.raises(ValueError, match="power_law"):
            metric_vector_from_dict(
                {"compression": 3, "cardinality": 2, "auc": 0.2, "slope": -1.0}
            )

    def test_dataclass_is_frozen(self):
        mv = MetricVector(3, 2, 0.24, -1.0, 0.0)
        with pytest.raises(AttributeError):
            mv.slope = 0.0
