import pytest

from cctrack.priorbox import (
    FeatureMapSpec,
    default_layer_specs,
    generate_prior_centers,
    prior_box_count,
)

EXPECTED_LAYERS = [
    ("Conv4_3", 38, 38, 4, 5776),
    ("Conv7", 19, 19, 6, 2166),
    ("Conv8_2", 10, 10, 6, 600),
    ("Conv9_2", 5, 5, 6, 150),
    ("Conv10_2", 3, 3, 4, 36),
    ("Conv11_2", 1, 1, 4, 4),
]


def test_spec_validation():
    with pytest.raises(ValueError):
        FeatureMapSpec("bad", 0, 3, 4)
    with pytest.raises(ValueError):
        FeatureMapSpec("bad", 3, 3, 0)


def test_default_layers_in_order():
    specs = default_layer_specs()
    assert len(specs) == 6
    for spec, (name, gw, gh, boxes, _) in zip(specs, EXPECTED_LAYERS):
        assert (spec.name, spec.grid_w, spec.grid_h, spec.boxes_per_cell) == (name, gw, gh, boxes)
    assert specs[0] == FeatureMapSpec("Conv4_3", 38, 38, 4)
    assert specs[3] == FeatureMapSpec("Conv9_2", 5, 5, 6)


def test_per_layer_contributions_and_total():
    specs = default_layer_specs()
    assert [(s.name, s.num_priors) for s in specs] == [
        (name, count) for name, _, _, _, count in EXPECTED_LAYERS
    ]
    assert prior_box_count(specs) == 8732


def test_count_edge_cases():
    assert prior_box_count([]) == 0
    assert prior_box_count([FeatureMapSpec("Conv4_3", 38, 38, 4)]) == 5776


def test_single_cell_center():
    assert [(p.x, p.y) for p in generate_prior_centers(FeatureMapSpec("one", 1, 1, 4))] == [
        (0.5, 0.5)
    ]


def test_two_by_two_row_major():
    points = generate_prior_centers(FeatureMapSpec("quad", 2, 2, 6))
    assert [(p.x, p.y) for p in points] == [
        (0.25, 0.25),
        (0.75, 0.25),
        (0.25, 0.75),
        (0.75, 0.75),
    ]


def test_large_grid_count_and_bounds():
    points = generate_prior_centers(FeatureMapSpec("Conv4_3", 38, 38, 4))
    assert len(points) == 38 * 38 == 1444
    assert all(0.0 < p.x < 1.0 and 0.0 < p.y < 1.0 for p in points)


def test_centers_strictly_inside_unit_square_everywhere():
    for spec in default_layer_specs():
        for point in generate_prior_centers(spec):
            assert 0.0 < point.x < 1.0
            assert 0.0 < point.y < 1.0


def test_generation_is_deterministic():
    spec = FeatureMapSpec("Conv8_2", 10, 10, 6)
    assert generate_prior_centers(spec) == generate_prior_centers(spec)
