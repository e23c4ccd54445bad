import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cctrack.correlation import _exact_in_int64, _fast_len, correlate_track
from cctrack.geometry import BoundingBox

from oracles import correlate_track_reference


def textured_frame(rng, h=80, w=100):
    return rng.integers(0, 256, size=(h, w)).astype(np.uint8)


def shifted(frame, dx, dy, fill=0):
    """Translate content by (dx, dy): pixel (y, x) moves to (y+dy, x+dx)."""
    out = np.full_like(frame, fill)
    h, w = frame.shape
    src_x = slice(max(0, -dx), min(w, w - dx))
    src_y = slice(max(0, -dy), min(h, h - dy))
    dst_x = slice(max(0, dx), min(w, w + dx))
    dst_y = slice(max(0, dy), min(h, h + dy))
    out[dst_y, dst_x] = frame[src_y, src_x]
    return out


class TestSelfCorrelation:
    def test_identical_frames_return_input_bbox(self, rng):
        frame = textured_frame(rng)
        bbox = BoundingBox(30, 20, 50, 40)
        result = correlate_track(frame, frame, bbox, search_margin=10)
        assert result.bbox == bbox
        assert (result.dx, result.dy) == (0, 0)
        assert not result.degenerate
        assert result.score == pytest.approx(1.0, abs=1e-12)

    def test_periodic_texture_still_prefers_zero_offset(self):
        # a repeating pattern produces exact NCC ties; smallest shift wins
        tile = np.arange(25, dtype=np.uint8).reshape(5, 5)
        frame = np.tile(tile, (16, 20))
        bbox = BoundingBox(20, 20, 35, 35)
        result = correlate_track(frame, frame, bbox, search_margin=10)
        assert (result.dx, result.dy) == (0, 0)


class TestTranslationRecovery:
    def test_recovers_three_right_two_up(self, rng):
        prev = textured_frame(rng)
        cur = shifted(prev, 3, -2)
        bbox = BoundingBox(40, 30, 60, 50)
        result = correlate_track(prev, cur, bbox, search_margin=6)
        assert (result.dx, result.dy) == (3, -2)
        assert result.bbox == bbox.translate(3, -2)

    def test_exhaustive_integer_offsets_within_margin(self, rng):
        prev = textured_frame(rng, 60, 60)
        bbox = BoundingBox(25, 25, 40, 40)
        for dx in (-5, -1, 0, 2, 5):
            for dy in (-5, 0, 1, 4):
                cur = shifted(prev, dx, dy)
                result = correlate_track(prev, cur, bbox, search_margin=5)
                assert (result.dx, result.dy) == (dx, dy)

    def test_offset_bounded_by_margin(self, rng):
        prev = textured_frame(rng)
        cur = textured_frame(np.random.default_rng(999))  # unrelated content
        bbox = BoundingBox(30, 30, 45, 45)
        for margin in (0, 1, 4, 9):
            result = correlate_track(prev, cur, bbox, search_margin=margin)
            assert abs(result.dx) <= margin
            assert abs(result.dy) <= margin


class TestDegenerateAndErrors:
    def test_flat_patch_flagged_and_unchanged(self):
        prev = np.zeros((50, 50), dtype=np.uint8)
        cur = np.zeros((50, 50), dtype=np.uint8)
        bbox = BoundingBox(10, 10, 20, 20)
        result = correlate_track(prev, cur, bbox, search_margin=5)
        assert result.degenerate
        assert result.bbox == bbox
        assert (result.dx, result.dy) == (0, 0)

    def test_bbox_outside_frame_rejected(self, rng):
        frame = textured_frame(rng, 40, 40)
        with pytest.raises(ValueError, match="outside frame"):
            correlate_track(frame, frame, BoundingBox(30, 30, 45, 45), 5)
        with pytest.raises(ValueError, match="outside frame"):
            correlate_track(frame, frame, BoundingBox(-3, 0, 10, 10), 5)

    def test_mismatched_frames_rejected(self, rng):
        with pytest.raises(ValueError, match="shapes differ"):
            correlate_track(textured_frame(rng, 40, 40), textured_frame(rng, 40, 42),
                            BoundingBox(5, 5, 15, 15), 3)

    def test_brightness_and_contrast_invariance(self, rng):
        # NCC must ignore affine intensity changes
        prev = textured_frame(rng).astype(np.float64)
        cur = shifted(prev, 2, 3) * 1.7 + 21.0
        bbox = BoundingBox(40, 30, 60, 50)
        result = correlate_track(prev, cur, bbox, search_margin=5)
        assert (result.dx, result.dy) == (2, 3)

    def test_fractional_bbox_coordinates_are_rasterized(self, rng):
        prev = textured_frame(rng)
        cur = shifted(prev, 1, 1)
        result = correlate_track(prev, cur, BoundingBox(30.4, 20.7, 50.2, 40.9), 4)
        assert (result.dx, result.dy) == (1, 1)


PERIODIC_4X4 = np.array([[246, 210, 105, 246], [245, 38, 214, 245]] * 2, dtype=np.uint8)


@st.composite
def correlation_cases(draw):
    """Two uint8 frames, a box (often touching a frame edge) and a margin."""
    h = draw(st.integers(4, 40))
    w = draw(st.integers(4, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    levels = draw(st.sampled_from([2, 4, 256]))  # few levels give flat windows and ties
    content = draw(st.sampled_from(["shifted", "unrelated", "periodic"]))
    if content == "periodic":
        tile = rng.integers(0, levels, size=(draw(st.integers(1, 6)), draw(st.integers(1, 6))))
        prev = np.tile(tile, (h // tile.shape[0] + 1, w // tile.shape[1] + 1))[:h, :w]
        prev = prev.astype(np.uint8)
    else:
        prev = rng.integers(0, levels, size=(h, w)).astype(np.uint8)
    if content == "unrelated":
        cur = rng.integers(0, levels, size=(h, w)).astype(np.uint8)
    else:
        dx = draw(st.integers(-min(6, w - 1), min(6, w - 1)))
        dy = draw(st.integers(-min(6, h - 1), min(6, h - 1)))
        cur = shifted(prev, dx, dy)

    box_w = draw(st.integers(1, w))
    box_h = draw(st.integers(1, h))
    x1 = draw(st.one_of(st.just(0), st.just(w - box_w), st.integers(0, w - box_w)))
    y1 = draw(st.one_of(st.just(0), st.just(h - box_h), st.integers(0, h - box_h)))
    bbox = BoundingBox(x1, y1, x1 + box_w, y1 + box_h)
    return prev, cur, bbox, draw(st.integers(0, 12))


class TestAgainstEinsumOracle:
    @settings(max_examples=400, deadline=None)
    @given(correlation_cases())
    # A periodic frame whose one-pixel-wide column scores exactly 1.0; float64
    # sums of the same 8-bit windows score it 1.0000000000177494.
    @example((PERIODIC_4X4, PERIODIC_4X4, BoundingBox(0, 0, 1, 3), 0))
    def test_matches_oracle_exactly_on_uint8_frames(self, case):
        prev, cur, bbox, margin = case
        expected = correlate_track_reference(prev, cur, bbox, margin)
        result = correlate_track(prev, cur, bbox, margin)
        assert (result.dx, result.dy, result.degenerate) == (
            expected.dx,
            expected.dy,
            expected.degenerate,
        )
        assert result.bbox == expected.bbox
        assert result.score == expected.score

    # (box x1, box y1, box width, box height): search windows of 83x79 and
    # 101x97 px in the open, and of 67x61 px clipped at the top-left corner.
    @pytest.mark.parametrize("box", [(60, 60, 43, 39), (50, 50, 61, 57), (0, 0, 47, 41)])
    @pytest.mark.parametrize("shift", [(0, 0), (3, -2), (-7, 5)])
    def test_prime_sided_search_windows_match_oracle(self, rng, box, shift):
        x1, y1, w, h = box
        margin = 20
        search_w = min(200, x1 + w + margin) - max(0, x1 - margin)
        search_h = min(200, y1 + h + margin) - max(0, y1 - margin)
        assert all(n > 2 and all(n % k for k in range(2, n)) for n in (search_w, search_h))
        prev = textured_frame(rng, 200, 200)
        cur = shifted(prev, *shift)
        bbox = BoundingBox(x1, y1, x1 + w, y1 + h)
        expected = correlate_track_reference(prev, cur, bbox, margin)
        result = correlate_track(prev, cur, bbox, margin)
        assert (result.dx, result.dy, result.degenerate) == (expected.dx, expected.dy, False)
        assert result.score == expected.score
        if x1 > 0:  # content shifted off the frame edge is not recoverable
            assert (result.dx, result.dy) == shift

    def test_flat_search_windows_score_exactly_zero(self, rng):
        prev = textured_frame(rng, 40, 40)
        cur = np.full((40, 40), 77, dtype=np.uint8)
        result = correlate_track(prev, cur, BoundingBox(10, 10, 20, 20), search_margin=5)
        assert (result.dx, result.dy, result.score) == (0, 0, 0.0)


class TestFastLen:
    def test_matches_brute_force(self):
        def smooth(m):
            for p in (2, 3, 5):
                while m % p == 0:
                    m //= p
            return m == 1

        for n in range(1, 2001):
            expected = next(m for m in range(n, 2 * n + 1) if smooth(m))
            assert _fast_len(n) == expected, n


class TestFloatFrames:
    def test_identical_periodic_float_frames_prefer_zero_offset(self):
        tile = np.arange(25, dtype=np.float64).reshape(5, 5) / 7.0 + 0.3
        frame = np.tile(tile, (16, 20))
        result = correlate_track(frame, frame, BoundingBox(20, 20, 35, 35), search_margin=10)
        assert (result.dx, result.dy) == (0, 0)
        assert result.score == pytest.approx(1.0, abs=1e-12)

    def test_non_integer_frames_match_oracle_offsets(self, rng):
        prev = rng.random((60, 80)) * 255.0
        for dx, dy in ((0, 0), (3, -2), (-4, 5)):
            cur = shifted(prev, dx, dy) + rng.normal(0.0, 2.0, size=prev.shape)
            for bbox, margin in ((BoundingBox(30, 20, 50, 40), 6), (BoundingBox(0, 0, 12, 9), 5)):
                expected = correlate_track_reference(prev, cur, bbox, margin)
                result = correlate_track(prev, cur, bbox, margin)
                assert (result.dx, result.dy) == (expected.dx, expected.dy)
                assert result.score == pytest.approx(expected.score, abs=1e-9)

    def test_frames_shifted_by_1e12_match_the_unshifted_frames(self, rng):
        # NCC ignores a common offset; unshifted by the template mean, the
        # n-scaled sums of values near 1e12 would cancel to noise
        prev = textured_frame(rng).astype(np.float64)
        cur = shifted(prev, 2, 3)
        bbox = BoundingBox(40, 30, 60, 50)
        expected = correlate_track(prev, cur, bbox, search_margin=5)
        result = correlate_track(prev + 1e12, cur + 1e12, bbox, search_margin=5)
        assert (result.dx, result.dy) == (expected.dx, expected.dy) == (2, 3)
        assert result.score == pytest.approx(expected.score, abs=1e-9)


class TestWideIntegerFrames:
    """Integer frames too wide for exact int64 sums fall back to float64."""

    @staticmethod
    def frames(rng, base, size, dx, dy):
        prev = (base + rng.integers(-1000, 1000, size=(size, size))).astype(np.int32)
        return prev, shifted(prev, dx, dy, fill=base)

    def test_int64_overflow_takes_float_path(self, rng):
        # n * max**2 * n = 4096**2 * 1e12 > 2**63 for a 64x64 box near 1e6
        prev, cur = self.frames(rng, 1_000_000, 100, 2, -3)
        bbox = BoundingBox(18, 18, 82, 82)
        assert not _exact_in_int64(prev[18:82, 18:82], cur)
        expected = correlate_track_reference(prev, cur, bbox, 8)
        result = correlate_track(prev, cur, bbox, 8)
        assert (result.dx, result.dy) == (expected.dx, expected.dy) == (2, -3)
        assert result.score == pytest.approx(expected.score, abs=1e-6)

    def test_fft_past_2_53_takes_float_path(self, rng):
        # n * max**2 = 64 * 4e14 > 2**53, though every int64 sum would fit
        prev, cur = self.frames(rng, 20_000_000, 40, -1, 2)
        bbox = BoundingBox(16, 16, 24, 24)
        assert 64 * 20_001_000**2 > 2**53 and 64**2 * 20_001_000**2 < 2**63
        assert not _exact_in_int64(prev[16:24, 16:24], cur)
        expected = correlate_track_reference(prev, cur, bbox, 5)
        result = correlate_track(prev, cur, bbox, 5)
        assert (result.dx, result.dy) == (expected.dx, expected.dy) == (-1, 2)

    def test_same_shapes_in_uint8_stay_exact(self, rng):
        frame = textured_frame(rng, 100, 100)
        assert _exact_in_int64(frame[18:82, 18:82], frame)
