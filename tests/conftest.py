import pytest

from cctrack.geometry import BoundingBox, Detection


@pytest.fixture
def rng():
    import numpy as np

    return np.random.default_rng(1234)


def det(frame, x1, y1, x2, y2, confidence=1.0, class_id=0):
    return Detection(frame, BoundingBox(x1, y1, x2, y2), confidence, class_id)
