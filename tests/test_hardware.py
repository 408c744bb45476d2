"""Tests for coupling graphs, X-Tree construction, grids and yield model."""

import os
import subprocess
import sys
from dataclasses import FrozenInstanceError
from pathlib import Path

import numpy as np
import pytest

from repro.hardware import (
    CollisionModel,
    CouplingGraph,
    allocate_frequencies,
    estimate_yield,
    grid,
    get_device,
    grid17q,
    xtree,
)
from repro.core.cache import coupling_key
from repro.hardware.frequency import chip_functions
from repro.hardware.yield_model import yield_sweep


def test_import_does_not_load_networkx():
    """Coupling graphs are plain adjacency sets: no graph library loads."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])
    ))
    subprocess.run(
        [sys.executable, "-c", "import sys, repro; assert 'networkx' not in sys.modules"],
        env=env, check=True,
    )


class TestCouplingGraph:
    def test_duplicate_edges_normalized(self):
        g = CouplingGraph(3, [(0, 1), (1, 0), (1, 2)])
        assert g.num_edges == 2

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            CouplingGraph(2, [(1, 1)])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            CouplingGraph(2, [(0, 5)])

    def test_distance_matrix_path(self):
        g = CouplingGraph(4, [(0, 1), (1, 2), (2, 3)])
        distances = g.distance_matrix()
        assert distances[0, 3] == 3
        assert distances[1, 1] == 0

    def test_levels_from_center(self):
        g = CouplingGraph(4, [(0, 1), (1, 2), (2, 3)])
        # Center of a path = middle node.
        assert g.center in (1, 2)
        assert g.max_level() == 2

    def test_parent_child_relations(self):
        tree = xtree(8)
        for qubit in range(1, 8):
            parent = tree.parent(qubit)
            assert parent is not None
            assert tree.levels()[parent] == tree.levels()[qubit] - 1
            assert qubit in tree.children(parent)

    def test_is_tree(self):
        assert xtree(17).is_tree()
        assert not grid17q().is_tree()
        assert not grid(2, 3).is_tree()


class TestSharedDevice:
    """The registry hands out one immutable graph per device name."""

    @pytest.mark.parametrize(
        "attribute, value",
        [("edges", ()), ("center", 3), ("gate_set", frozenset({"cx"}))],
    )
    def test_registry_device_is_frozen(self, attribute, value):
        device = get_device("xtree17")
        with pytest.raises(FrozenInstanceError):
            setattr(device, attribute, value)

    def test_one_instance_per_normalized_name(self):
        assert get_device("xtree17") is get_device("XTree17Q")
        assert get_device("grid2x4") is get_device("Grid_2x4")

    def test_distance_matrix_is_read_only(self):
        with pytest.raises(ValueError):
            get_device("xtree17").distance_matrix()[0, 1] = 5

    def test_content_key_is_the_coupling_digest(self):
        device = get_device("xtree17")
        assert device.content_key == coupling_key(xtree(17))
        # The digest of this graph before the key was memoized.
        assert device.content_key == (
            "ee43edbbfc0fda3ce5176b45cd309f336a4f6d7698f3aa09f328db6a0a98348c"
        )

    def test_derived_tables_cannot_be_mutated(self):
        device = get_device("xtree17")
        with pytest.raises(AttributeError):
            device.neighbors(0).add(16)
        with pytest.raises(AttributeError):
            device.levels().append(3)
        shared = get_device("XTree17Q")
        assert not shared.are_connected(0, 16)
        assert (0, 16) not in shared.edges
        assert 16 not in shared.neighbors(0)

    def test_edges_are_a_normalized_tuple(self):
        g = CouplingGraph(3, [(1, 0), (2, 1)])
        assert g.edges == ((0, 1), (1, 2))
        assert g == CouplingGraph(3, ((0, 1), (1, 2)))


class TestXTree:
    @pytest.mark.parametrize("size", [1, 2, 5, 8, 17, 26, 40])
    def test_minimal_connections(self, size):
        tree = xtree(size)
        assert tree.num_edges == size - 1
        assert tree.is_connected()

    def test_degree_bound(self):
        for size in (5, 8, 17, 26, 64):
            tree = xtree(size)
            assert max(tree.degree(q) for q in range(size)) <= 4

    def test_xtree17_level_structure(self):
        # Figure 6: root, 4 level-1 qubits, 12 level-2 qubits.
        tree = xtree(17)
        levels = tree.levels()
        assert levels.count(0) == 1
        assert levels.count(1) == 4
        assert levels.count(2) == 12

    def test_xtree5_is_star(self):
        tree = xtree(5)
        assert tree.degree(0) == 4

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            xtree(0)


class TestGrid:
    def test_grid17_edge_count(self):
        # The paper: Grid17Q has 24 connections vs XTree17Q's 16.
        assert grid17q().num_edges == 24
        assert xtree(17).num_edges == 16

    def test_grid17_connected_and_degree(self):
        g = grid17q()
        assert g.is_connected()
        assert max(g.degree(q) for q in range(17)) == 4

    def test_generic_grid_edges(self):
        g = grid(3, 4)
        assert g.num_edges == 3 * 3 + 2 * 4  # rows*(cols-1) + (rows-1)*cols

    def test_bad_dimensions(self):
        with pytest.raises(ValueError):
            grid(0, 3)


class TestFrequencyModel:
    def test_degenerate_pair_collides(self):
        model = CollisionModel()
        assert model.pair_collides(5.00, 5.005)

    def test_well_separated_pair_ok(self):
        model = CollisionModel()
        assert not model.pair_collides(5.00, 5.10)

    def test_too_far_pair_collides(self):
        # Detuning beyond |anharmonicity| makes the CR gate unusable.
        model = CollisionModel()
        assert model.pair_collides(5.00, 5.40)

    def test_spectator_degeneracy(self):
        model = CollisionModel()
        assert model.spectator_collides(5.10, 5.11)
        assert not model.spectator_collides(5.10, 5.20)

    def test_allocation_is_collision_free(self):
        for device in (xtree(17), grid17q()):
            frequencies = allocate_frequencies(device)
            assert chip_functions(device, frequencies), device.name

    def test_allocation_within_band(self):
        frequencies = allocate_frequencies(xtree(8), f_min=5.0, f_max=5.3)
        assert np.all(frequencies >= 5.0 - 1e-9)
        assert np.all(frequencies <= 5.3 + 1e-9)


class TestYield:
    def test_zero_noise_perfect_yield(self):
        estimate = estimate_yield(xtree(8), 0.0, trials=50)
        assert estimate.yield_rate == 1.0

    def test_yield_decreases_with_precision(self):
        estimates = yield_sweep(xtree(17), [0.05, 0.3, 0.6], trials=300, seed=5)
        rates = [e.yield_rate for e in estimates]
        assert rates[0] >= rates[1] >= rates[2]

    def test_xtree_beats_grid(self):
        """The Figure 11 headline: sparser X-Tree yields strictly better."""
        precision = 0.25
        xtree_estimate = estimate_yield(xtree(17), precision, trials=600, seed=9)
        grid_estimate = estimate_yield(grid17q(), precision, trials=600, seed=9)
        assert xtree_estimate.yield_rate > grid_estimate.yield_rate

    def test_negative_precision_rejected(self):
        with pytest.raises(ValueError):
            estimate_yield(xtree(5), -0.1, trials=10)

    def test_reproducible_with_seed(self):
        a = estimate_yield(xtree(8), 0.3, trials=200, seed=3)
        b = estimate_yield(xtree(8), 0.3, trials=200, seed=3)
        assert a.yield_rate == b.yield_rate
