import itertools

import pytest

from plateau.lattice import Cell, GridSpec, connected_components
from plateau.linking import DualLoop, crossed_faces, step_face
from plateau.spanning import fundamental_cycle

from conftest import (
    bounding_chain,
    chain_boundary,
    linking_number,
    loop_crossing_parity,
    rectangle_loops,
)


def test_dual_loop_validation():
    with pytest.raises(ValueError):
        DualLoop(((0, 0, 0),))
    with pytest.raises(ValueError):
        DualLoop(((0, 0, 0), (1, 1, 0)))  # diagonal step
    loop = DualLoop(((0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)))
    assert len(loop.steps()) == 4


def test_step_face_sign_convention():
    face, sign = step_face((0, 0, 0), (1, 0, 0))
    assert face == Cell((1, 0, 0), 0b110)
    assert sign == 1
    face, sign = step_face((1, 0, 0), (0, 0, 0))
    assert face == Cell((1, 0, 0), 0b110)
    assert sign == -1


def test_crossed_faces_cancel_out_of_box():
    grid = GridSpec(3, 0, ((0, 2), (0, 2), (0, 2)))
    # a loop whose return leg runs outside the box
    loop = DualLoop(
        ((0, 0, 0), (1, 0, 0), (2, 0, 0), (2, -1, 0), (1, -1, 0), (0, -1, 0),
         (-1, -1, 0), (-1, 0, 0))
    )
    faces = crossed_faces(loop, grid)
    assert all(grid.contains_cell(f) for f, _ in faces)


def test_bounding_chain_boundary(tiny_problem):
    grid = tiny_problem.grid
    rings = connected_components(tiny_problem.A)
    for ring in rings:
        cyc = fundamental_cycle(ring, 2)
        for order in itertools.permutations(range(3)):
            F = bounding_chain(cyc, grid, order)
            assert chain_boundary(F) == cyc


def test_bounding_chain_rejects_non_cycles():
    grid = GridSpec(3, 0, ((0, 2), (0, 2), (0, 2)))
    with pytest.raises(ValueError):
        bounding_chain({Cell((0, 0, 0), 0b001): 1}, grid)
    with pytest.raises(ValueError):
        bounding_chain({Cell((0, 0, 0), 0b011): 1}, grid)


def _yz_rectangle(x, y_range, z_range):
    """Dual rectangle in the (y, z) plane at fixed x, as a voxel loop."""
    y0, y1 = y_range
    z0, z1 = z_range
    vox = []
    for z in range(z0, z1):
        vox.append((x, y0, z))
    for y in range(y0, y1):
        vox.append((x, y, z1))
    for z in range(z1, z0, -1):
        vox.append((x, y1, z))
    for y in range(y1, y0, -1):
        vox.append((x, y, z0))
    return DualLoop(tuple(vox))


def test_linking_number_threading_column(tiny_problem):
    """A dual loop threading every ring once links each exactly once."""
    grid = tiny_problem.grid
    rings = connected_components(tiny_problem.A)
    lo, hi = grid.box[2]
    # up through the ring interiors at column (1, 1), back outside at y = 10
    loop = _yz_rectangle(1, (1, 10), (lo - 1, hi))
    assert len(rings) == 3
    for ring in rings:
        for order in itertools.permutations(range(3)):
            assert abs(linking_number(loop, ring, grid, order)) == 1


def test_linking_axis_order_independence(tiny_problem):
    """Different sweep orders give bounding chains differing by a 2-cycle,
    so the crossing count is identical, sign included."""
    grid = tiny_problem.grid
    rings = connected_components(tiny_problem.A)
    loops = rectangle_loops(grid)[::97][:12]
    for loop in loops:
        for ring in rings:
            vals = {
                linking_number(loop, ring, grid, order)
                for order in itertools.permutations(range(3))
            }
            assert len(vals) == 1
            assert all(isinstance(v, int) for v in vals)


def test_loop_crossing_parity(tiny_problem):
    grid = tiny_problem.grid
    disk = [Cell((x, y, 3), 0b011) for x in range(3) for y in range(3)]
    loop = _yz_rectangle(1, (1, 4), (-1, 5))
    assert loop_crossing_parity(loop, disk, grid) == 1
    assert loop_crossing_parity(loop, [], grid) == 0
