"""Tests for the synthetic KAIST / UCLA campus builders."""

from functools import cache

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.maps import build_campus, build_kaist, build_ucla
from repro.maps.campus import (
    KAIST_BUILDINGS,
    KAIST_HEIGHT,
    KAIST_SENSORS,
    KAIST_WIDTH,
    UCLA_BUILDINGS,
    UCLA_HEIGHT,
    UCLA_SENSORS,
    UCLA_WIDTH,
)
from repro.maps.geometry import point_segment_distance

from ..conftest import make_toy_campus


@pytest.fixture(scope="module")
def kaist():
    return build_kaist()


@pytest.fixture(scope="module")
def ucla():
    return build_ucla()


@cache
def _segment_campus(name):
    """A campus plus its building-box edge coordinates, each also nudged
    by the reject test's 1e-9 margin and by one ulp past it."""
    campus = make_toy_campus() if name == "toy" else build_campus(name, scale=0.3)
    boxes = np.array([[b.bbox.min_x, b.bbox.min_y, b.bbox.max_x, b.bbox.max_y]
                      for b in campus.buildings])

    def nudged(lo, hi):
        values = [lo, hi, lo - 1e-9, hi + 1e-9,
                  np.nextafter(lo - 1e-9, -np.inf), np.nextafter(hi + 1e-9, np.inf)]
        return sorted({float(v) for v in np.concatenate(values)})

    return (campus, nudged(boxes[:, 0], boxes[:, 2]),
            nudged(boxes[:, 1], boxes[:, 3]))


class TestPaperStatistics:
    def test_kaist_extent(self, kaist):
        assert kaist.width == pytest.approx(1539.63)
        assert kaist.height == pytest.approx(1433.37)

    def test_kaist_counts(self, kaist):
        assert kaist.num_buildings == KAIST_BUILDINGS == 85
        assert kaist.num_sensors == KAIST_SENSORS == 138

    def test_ucla_extent(self, ucla):
        assert ucla.width == pytest.approx(1675.36)
        assert ucla.height == pytest.approx(1737.15)

    def test_ucla_counts(self, ucla):
        assert ucla.num_buildings == UCLA_BUILDINGS == 163
        assert ucla.num_sensors == UCLA_SENSORS == 236

    def test_ucla_more_complex_than_kaist(self, kaist, ucla):
        # The paper: UCLA's road network is more complicated.
        assert ucla.roads.number_of_edges() > kaist.roads.number_of_edges()


class TestStructuralValidity:
    def test_roads_connected(self, kaist, ucla):
        assert nx.is_connected(kaist.roads)
        assert nx.is_connected(ucla.roads)

    def test_buildings_inside_workzone(self, kaist):
        for b in kaist.buildings:
            box = b.bbox
            assert box.min_x >= 0 and box.min_y >= 0
            assert box.max_x <= kaist.width and box.max_y <= kaist.height

    def test_buildings_clear_of_roads(self, kaist):
        edges = list(kaist.road_edges())
        for building in kaist.buildings:
            centre = building.centroid
            dist = min(point_segment_distance(centre, a, b) for a, b in edges)
            assert dist > 10.0  # road margin was enforced

    def test_sensors_attached_to_host_buildings(self, kaist):
        for pos, host in zip(kaist.sensor_positions, kaist.sensor_buildings):
            building = kaist.buildings[host]
            edge_dist = min(point_segment_distance(pos, a, b) for a, b in building.edges())
            assert edge_dist < 1e-6

    def test_ucla_lawn_centre_empty(self, ucla):
        centre = ucla.center
        lawn_radius = 0.16 * min(ucla.width, ucla.height)
        for building in ucla.buildings:
            assert np.linalg.norm(building.centroid - centre) > lawn_radius * 0.5

    def test_ucla_data_split_east_west(self, ucla):
        # The thin-corridor band holds no buildings.
        band_lo, band_hi = ucla.width * 0.42, ucla.width * 0.58
        in_band = [b for b in ucla.buildings if band_lo < b.centroid[0] < band_hi]
        assert not in_band

    def test_point_in_building_and_segment_queries(self, kaist):
        building = kaist.buildings[0]
        centre = building.centroid
        assert kaist.point_in_building(centre)
        assert kaist.segment_hits_building(centre, centre + np.array([500.0, 0.0]))
        assert not kaist.point_in_building((-50.0, -50.0))

    @pytest.mark.parametrize("name", ["toy", "kaist"])
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_segment_hits_building_matches_per_polygon_loop(self, name, data):
        """The one-pass box reject gives the per-polygon loop's answer,
        with endpoints on (and 1e-9 around) box edges and zero-length
        segments included."""
        campus, edges_x, edges_y = _segment_campus(name)

        def coord(edges, extent):
            return st.one_of(st.floats(-10.0, extent + 10.0),
                             st.sampled_from(edges))

        point = st.tuples(coord(edges_x, campus.width),
                          coord(edges_y, campus.height))
        a = np.array(data.draw(point))
        b = a.copy() if data.draw(st.booleans()) else np.array(data.draw(point))
        expected = any(poly.intersects_segment(a, b) for poly in campus.buildings)
        assert campus.segment_hits_building(a, b) == expected

    def test_distance_to_road_positive_off_road(self, kaist):
        building = kaist.buildings[0]
        assert kaist.distance_to_road(building.centroid) > 0

    def test_distance_to_road_is_the_nearest_edge_distance(self, kaist):
        for building in kaist.buildings[:10]:
            centre = building.centroid
            want = min(point_segment_distance(centre, a, b)
                       for a, b in kaist.road_edges())
            assert kaist.distance_to_road(centre) == want


class TestDeterminismAndScaling:
    def test_same_seed_same_campus(self):
        a = build_kaist(seed=42)
        b = build_kaist(seed=42)
        np.testing.assert_array_equal(a.sensor_positions, b.sensor_positions)
        assert a.roads.number_of_edges() == b.roads.number_of_edges()

    def test_different_seed_differs(self):
        a = build_kaist(seed=1)
        b = build_kaist(seed=2)
        assert not np.array_equal(a.sensor_positions, b.sensor_positions)

    def test_build_campus_by_name(self):
        assert build_campus("kaist").name == "kaist"
        assert build_campus("UCLA").name == "ucla"

    def test_build_campus_unknown_name(self):
        with pytest.raises(KeyError):
            build_campus("stanford")

    def test_build_campus_invalid_scale(self):
        with pytest.raises(ValueError):
            build_campus("kaist", scale=1.5)
        with pytest.raises(ValueError):
            build_campus("kaist", scale=0.0)

    def test_scaled_campus_shrinks_consistently(self, kaist):
        mini = build_campus("kaist", scale=0.3)
        assert mini.width == pytest.approx(kaist.width * 0.3)
        assert mini.height == pytest.approx(kaist.height * 0.3)
        assert 0 < mini.num_buildings < kaist.num_buildings
        assert 0 < mini.num_sensors < kaist.num_sensors
        assert nx.is_connected(mini.roads)

    def test_scaled_ucla_keeps_corridor_structure(self):
        mini = build_campus("ucla", scale=0.3)
        assert nx.is_connected(mini.roads)
        assert mini.num_sensors >= 6


class TestRandomCampus:
    def test_parameters_respected(self):
        from repro.maps import random_campus

        campus = random_campus("demo", width=600, height=500, buildings=8,
                               sensors=12, seed=3)
        assert campus.name == "demo"
        assert campus.width == 600 and campus.height == 500
        assert campus.num_buildings <= 8 and campus.num_buildings >= 4
        assert campus.num_sensors == 12

    def test_irregular_style(self):
        from repro.maps import random_campus

        campus = random_campus(road_style="irregular", seed=5, junctions=20)
        assert nx.is_connected(campus.roads)

    def test_unknown_style_rejected(self):
        from repro.maps import random_campus

        with pytest.raises(ValueError):
            random_campus(road_style="spiral")

    def test_invalid_counts_rejected(self):
        from repro.maps import random_campus

        with pytest.raises(ValueError):
            random_campus(buildings=0)
        with pytest.raises(ValueError):
            random_campus(width=-5)

    def test_simulatable_end_to_end(self):
        from repro.env import AirGroundEnv, EnvConfig
        from repro.maps import build_stop_graph, random_campus

        campus = random_campus(width=500, height=500, buildings=6, sensors=10,
                               seed=1)
        stops = build_stop_graph(campus)
        env = AirGroundEnv(campus, EnvConfig(num_ugvs=2, num_uavs_per_ugv=1,
                                             episode_len=4), stops=stops, seed=0)
        res = env.reset()
        while not res.done:
            res = env.step([g.stop for g in env.ugvs], [None] * 2)
        assert env.metrics().psi >= 0.0

    def test_deterministic(self):
        from repro.maps import random_campus

        a = random_campus(seed=9)
        b = random_campus(seed=9)
        np.testing.assert_array_equal(a.sensor_positions, b.sensor_positions)
