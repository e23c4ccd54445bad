"""Normalized cross-correlation patch tracking for frames without detections.

A grayscale frame is a 2D numpy array indexed [row, col] == [y, x]. The
tracker extracts the patch under a box from the previous frame and slides
it over a dilated search window in the current frame; the box is moved to
the correlation peak.

The search is Lewis's fast NCC (J. P. Lewis, "Fast Normalized
Cross-Correlation", Vision Interface 1995): per-offset window sums come
from integral images of the search window and the cross term from one
rfft2 product, zero-padded to fast FFT lengths. Integer frames stay in
int64 throughout, the FFT cross term rounded back to its exact integer
value, so 8-bit frames get exact scores; float frames, and integer frames
too wide for that, take the same formulas in float64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .geometry import BoundingBox

if TYPE_CHECKING:
    import numpy as np

# NCC scores within this of the max tie for the peak; ties resolve to the
# smallest displacement so a static scene never drifts.
_PEAK_TIE_EPS = 1e-12

# Float64 unit roundoff u, and a generous constant C for the forward-error
# bound of an N-point FFT correlation of a search window W (zero-padded to N
# points) with an n-pixel template T: |error| <= C * u * log2(N) * sqrt(n)
# * |W|_2 * |T|_2 (after Higham, "Accuracy and Stability of Numerical
# Algorithms", ch. 24). With every value at most m in magnitude,
# |W|_2 * |T|_2 <= sqrt(N * n) * m**2.
_UNIT_ROUNDOFF = 2.0**-53
_FFT_ERROR_CONSTANT = 32.0


@dataclass(frozen=True)
class CorrelationResult:
    """Outcome of one NCC search: the moved box and the integer offset."""

    bbox: BoundingBox
    dx: int
    dy: int
    degenerate: bool = False
    score: float = 0.0


def _raster_bounds(bbox: BoundingBox) -> tuple[int, int, int, int]:
    """Integer pixel bounds covering the box; zero-extent sides widen to 1 px."""
    x1 = math.floor(bbox.x1)
    y1 = math.floor(bbox.y1)
    x2 = max(math.ceil(bbox.x2), x1 + 1)
    y2 = max(math.ceil(bbox.y2), y1 + 1)
    return x1, y1, x2, y2


def _fast_len(n: int) -> int:
    """Smallest 2**a * 3**b * 5**c >= n: a length pocketfft transforms quickly."""
    best = 1 << max(n - 1, 0).bit_length()
    power5 = 1
    while power5 < best:
        odd = power5
        while odd < best:
            # odd * 2**a reaches n once 2**a >= ceil(n / odd).
            ceiling = -(-n // odd)
            best = min(best, odd << (ceiling - 1).bit_length())
            odd *= 3
        power5 *= 5
    return best


def _exact_in_int64(template: np.ndarray, search: np.ndarray) -> bool:
    """True if integer template/search sums fit int64 and rint recovers the FFT cross term.

    Bounds every int64 intermediate by the largest magnitude in either
    array, and the FFT's float64 error by the bound above, with N the
    padded transform's point count. 8-bit frames pass both for templates
    up to 378x378 pixels at margin 20.
    """
    if template.dtype.kind not in "biu" or search.dtype.kind not in "biu":
        return False
    peak = max(max(-int(a.min()), int(a.max())) for a in (template, search))
    n = template.size
    if max(n * n, search.size) * peak * peak >= 2**63:
        return False
    points = _fast_len(search.shape[0]) * _fast_len(search.shape[1])
    fft_error = (
        _FFT_ERROR_CONSTANT * _UNIT_ROUNDOFF * max(math.log2(points), 1.0)
        * n * math.sqrt(points) * peak * peak
    )
    return fft_error < 0.25


def _window_sums(values: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """Sum of every shape-sized window of values, from one integral image."""
    import numpy as np

    h, w = shape
    integral = np.zeros((values.shape[0] + 1, values.shape[1] + 1), dtype=values.dtype)
    np.cumsum(values, axis=0, out=integral[1:, 1:])
    np.cumsum(integral[1:, 1:], axis=1, out=integral[1:, 1:])
    return integral[h:, w:] - integral[:-h, w:] - integral[h:, :-w] + integral[:-h, :-w]


def _window_cross(search: np.ndarray, template: np.ndarray) -> np.ndarray:
    """Sum of window * template for every placement, by one rfft2 product."""
    import numpy as np

    (h, w), (th, tw) = search.shape, template.shape
    shape = (_fast_len(h), _fast_len(w))
    # Both zero-padded to fast lengths and transformed in one call.
    stacked = np.zeros((2, *shape))
    stacked[0, :h, :w] = search
    stacked[1, :th, :tw] = template
    spectra = np.fft.rfft2(stacked)
    full = np.fft.irfft2(spectra[0] * np.conj(spectra[1]), shape)
    # Placements that fit inside the search window never wrap around.
    return full[: h - th + 1, : w - tw + 1]


def correlate_track(
    prev_frame: np.ndarray,
    cur_frame: np.ndarray,
    bbox: BoundingBox,
    search_margin: int = 20,
) -> CorrelationResult:
    """Locate the previous frame's patch under bbox in the current frame.

    Searches offsets up to search_margin pixels per axis. A zero-variance
    (flat) patch has no correlation signal: the box is returned unchanged
    with the degenerate flag set. Raises ValueError if bbox falls outside
    the previous frame or the frames disagree in shape.
    """
    import numpy as np

    prev = np.asarray(prev_frame)
    cur = np.asarray(cur_frame)
    if prev.ndim != 2 or cur.ndim != 2:
        raise ValueError("frames must be 2D grayscale arrays")
    if prev.shape != cur.shape:
        raise ValueError(f"frame shapes differ: {prev.shape} vs {cur.shape}")
    if search_margin < 0:
        raise ValueError(f"search_margin must be non-negative, got {search_margin}")

    frame_h, frame_w = prev.shape
    x1, y1, x2, y2 = _raster_bounds(bbox)
    if x1 < 0 or y1 < 0 or x2 > frame_w or y2 > frame_h:
        raise ValueError(
            f"bbox raster ({x1}, {y1}, {x2}, {y2}) outside frame {frame_w}x{frame_h}"
        )

    template = prev[y1:y2, x1:x2]
    if template.min() == template.max():
        return CorrelationResult(bbox, 0, 0, degenerate=True, score=0.0)

    sx1 = max(0, x1 - search_margin)
    sy1 = max(0, y1 - search_margin)
    sx2 = min(frame_w, x2 + search_margin)
    sy2 = min(frame_h, y2 + search_margin)
    search = cur[sy1:sy2, sx1:sx2]

    # n-scaled centred sums (n*sum(wt) - sum(w)*sum(t), likewise the energies);
    # float ones stay small after a shift by the template mean, which NCC
    # ignores. astype copies, so the caller's frames are untouched.
    exact = _exact_in_int64(template, search)
    template = template.astype(np.int64 if exact else np.float64)
    search = search.astype(template.dtype)
    if not exact:
        t_mean = template.mean()
        template -= t_mean
        search -= t_mean
    n = template.size
    t_sum = template.sum()
    t_energy = n * np.sum(template * template) - t_sum * t_sum
    win_sum = _window_sums(search, template.shape)
    win_energy = n * _window_sums(search * search, template.shape) - win_sum * win_sum
    raw_cross = _window_cross(search, template)
    if exact:
        raw_cross = np.rint(raw_cross).astype(np.int64)
    cross = n * raw_cross - win_sum * t_sum

    # A float window's energy can round below zero.
    denom = np.sqrt(np.maximum(win_energy * float(t_energy), 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        ncc = np.where(denom > 0.0, cross / denom, 0.0)

    peak = float(ncc.max())
    rows, cols = np.nonzero(ncc >= peak - _PEAK_TIE_EPS)
    dys = rows + (sy1 - y1)
    dxs = cols + (sx1 - x1)
    # Smallest |dx| + |dy| wins, then smallest dy, then smallest dx.
    best = np.lexsort((dxs, dys, np.abs(dxs) + np.abs(dys)))[0]
    dx, dy = int(dxs[best]), int(dys[best])
    return CorrelationResult(bbox.translate(dx, dy), dx, dy, degenerate=False, score=peak)
