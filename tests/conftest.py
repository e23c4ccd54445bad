import pytest
from hypothesis import strategies as st

from cctrack.geometry import BoundingBox, Detection


@pytest.fixture
def rng():
    import numpy as np

    return np.random.default_rng(1234)


def det(frame, x1, y1, x2, y2, confidence=1.0, class_id=0):
    return Detection(frame, BoundingBox(x1, y1, x2, y2), confidence, class_id)


# Numbers the writers must format as json.dumps does: integers up to 2**53,
# and finite floats, with these by name, each also as a numpy float64.
EDGE_FLOATS = (-0.0, 5e-324, 1e-7, 1e16, 2.0**53, -(2.0**53))
output_ints = st.integers(0, 2**53)


def output_floats(low=None, high=None):
    """Finite floats in [low, high], the edge floats among them, as float or numpy float64."""
    import numpy as np

    edges = [v for v in EDGE_FLOATS if (low is None or low <= v) and (high is None or v <= high)]
    plain = st.floats(low, high, allow_nan=False, allow_infinity=False) | st.sampled_from(edges)
    return plain | plain.map(np.float64)


@st.composite
def boxes(draw):
    x1, x2 = sorted(draw(st.lists(output_floats(), min_size=2, max_size=2)))
    y1, y2 = sorted(draw(st.lists(output_floats(), min_size=2, max_size=2)))
    return BoundingBox(x1, y1, x2, y2)


detections = st.builds(Detection, output_ints, boxes(), output_floats(0.0, 1.0), output_ints)
