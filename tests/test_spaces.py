import numpy as np
import pytest

from gencube.pauli import BlochOp, single_born
from gencube.spaces import (
    CUBE_SIGNS,
    CUBE_SYMMETRIES,
    VERTEX_PERMS,
    PovmSet,
    StateSpaceSpec,
    contains,
    cube_vertices,
    frame_scale,
    noise_to_R,
    operator_compatible,
    projective_qubit_povm,
    qubit_xyz_povms,
    rescale,
    rescale2,
    solve_outcome_systems,
    vertex_index,
)


def test_cube_vertices_canonical():
    verts = cube_vertices()
    assert len(verts) == 8
    assert tuple(verts[0].bloch) == (1, 1, 1)
    assert tuple(verts[-1].bloch) == (-1, -1, -1)
    # deterministic single-qubit outcomes on every axis
    for v in verts:
        for axis in "XYZ":
            probs = {single_born(v, axis, o) for o in (1, -1)}
            assert probs == {0.0, 1.0}


def test_vertex_index_inverts_cube_signs():
    np.testing.assert_array_equal(vertex_index(CUBE_SIGNS), np.arange(8))
    assert [vertex_index(v.bloch) for v in cube_vertices()] == list(range(8))
    assert all(np.array_equal(v.bloch, s) for v, s in zip(cube_vertices(), CUBE_SIGNS))


@pytest.mark.parametrize("signs", [(0.5, 1, 1), (0, -1, 1), (1, 1, 1, -1), (1, 1),
                                   (1, np.nan, 1), 1])
def test_vertex_index_refuses_non_vertices(signs):
    with pytest.raises(ValueError, match="not a cube vertex"):
        vertex_index(signs)


def test_cube_symmetries_are_the_signed_permutation_group():
    G = CUBE_SYMMETRIES
    assert G.shape == (48, 3, 3)
    assert len({g.tobytes() for g in G}) == 48
    for g in G:
        np.testing.assert_array_equal(g @ g.T, np.eye(3))
    members = {g.tobytes() for g in G}
    assert all((g @ h).tobytes() in members for g in G for h in G)
    # rows 0-7 are the sign flips in vertex order
    for k in range(8):
        np.testing.assert_array_equal(G[k], np.diag(CUBE_SIGNS[k]))


def test_vertex_perms_are_the_symmetries_on_vertex_indices():
    for g, perm in zip(CUBE_SYMMETRIES, VERTEX_PERMS):
        np.testing.assert_array_equal(perm, vertex_index(CUBE_SIGNS @ g.T))
        assert sorted(perm) == list(range(8))


def test_contains():
    t_state = BlochOp(np.ones(3) / np.sqrt(3))
    assert contains(StateSpaceSpec.cube(1.0), t_state)
    assert contains(StateSpaceSpec.sphere(1.0), t_state)
    corner = BlochOp(np.ones(3))
    assert contains(StateSpaceSpec.cube(1.0), corner)
    assert not contains(StateSpaceSpec.sphere(1.0), corner)
    assert contains(StateSpaceSpec.sphere(np.sqrt(3.0)), corner)


def test_space_spec_validation():
    with pytest.raises(ValueError):
        StateSpaceSpec.cube(0.0)
    with pytest.raises(ValueError):
        StateSpaceSpec("octahedron", 1.0)


@pytest.mark.parametrize("R", [0.0, -1.0, np.inf, -np.inf, np.nan])
def test_every_reader_of_R_refuses_it_outside_the_positive_finite_reals(R):
    a = BlochOp(np.array([1.0, 0.0, 0.0]))
    for refuse in (lambda: StateSpaceSpec.cube(R), lambda: StateSpaceSpec.sphere(R),
                   lambda: frame_scale(R), lambda: rescale(a, R)):
        with pytest.raises(ValueError, match="rescaling factor R must be positive and finite"):
            refuse()


def test_rescale():
    a = BlochOp(np.array([1.0, 0.0, 0.0]))
    assert np.allclose(rescale(a, 2.0).bloch, [2.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        rescale(a, 0.0)


def test_rescale2_homogeneity_and_inverse():
    rng = np.random.default_rng(11)
    from gencube.pauli import PauliCoeffs2Q, product

    u = BlochOp(rng.uniform(-1, 1, 3))
    v = BlochOp(rng.uniform(-1, 1, 3))
    R = 1.7
    lhs = rescale2(product(u, v), R)
    rhs = product(rescale(u, R), rescale(v, R))
    assert np.max(np.abs(lhs.coeffs - rhs.coeffs)) < 1e-12
    A = PauliCoeffs2Q(rng.standard_normal((4, 4)))
    back = rescale2(rescale2(A, R), 1 / R)
    assert np.max(np.abs(back.coeffs - A.coeffs)) < 1e-12


def test_noise_to_R():
    assert abs(noise_to_R("measurement", 1 - 1 / np.sqrt(3)) - np.sqrt(3)) < 1e-12
    assert abs(noise_to_R("measurement", 0.422649) - 1.73) < 0.005
    assert noise_to_R("measurement", 0.0) == 1.0
    assert abs(noise_to_R("preparation", 1 - 1 / np.sqrt(2)) - 1 / np.sqrt(2)) < 1e-12
    with pytest.raises(ValueError):
        noise_to_R("measurement", 1.0)
    with pytest.raises(ValueError):
        noise_to_R("sideways", 0.1)


def test_povm_set_validation():
    good = qubit_xyz_povms()
    assert good.outcome_count == 6
    bad = [(np.eye(2) * 0.7, np.eye(2) * 0.7)]
    with pytest.raises(ValueError):
        PovmSet(tuple(bad), dim=2)


@pytest.mark.parametrize("dim", [0, -1, 2.0, True, "2"])
def test_povm_set_refuses_a_dim_that_is_not_a_positive_integer(dim):
    with pytest.raises(ValueError, match="dim must be a positive integer"):
        PovmSet((projective_qubit_povm((0, 0, 1)),), dim)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, np.nan)])
def test_povm_set_refuses_a_non_finite_element(bad):
    # NaN fails no comparison, so it would pass the positivity and sum checks
    z = projective_qubit_povm((0, 0, 1))
    with pytest.raises(ValueError, match="element 0 of POVM 1 has a non-finite entry"):
        PovmSet((z, (np.diag([bad, 1.0]), np.diag([1.0, 0.0]))), dim=2)


def test_povm_set_refuses_a_non_hermitian_element():
    # the Hermitian parts are I/2 +- X/2, a projective POVM, so a check of
    # the Hermitian part alone passes this pair
    a = np.array([[0.5, 1.0], [0.0, 0.5]])
    b = np.array([[0.5, -1.0], [0.0, 0.5]])
    with pytest.raises(ValueError, match="element 0 of POVM 1 is not Hermitian to 1e-12"):
        PovmSet((projective_qubit_povm((0, 0, 1)), (a, b)), dim=2)
    # within HERMITICITY_TOL of Hermitian still passes
    c = np.array([[0.5, 0.5 + 5e-13], [0.5, 0.5]])
    d = np.array([[0.5, -0.5 - 5e-13], [-0.5, 0.5]])
    assert PovmSet(((c, d),), dim=2).outcome_count == 2


@pytest.mark.parametrize("axis", [(0, 0, 0), (np.nan, 0, 1), (np.inf, 0, 0)])
def test_projective_povm_refuses_an_axis_without_a_direction(axis):
    with pytest.raises(ValueError, match="measurement axis must be a nonzero finite vector"):
        projective_qubit_povm(axis)


def test_projective_povm_normalizes_its_axis():
    assert all(np.array_equal(a, b) for a, b in zip(projective_qubit_povm((0, 0, 2)),
                                                    projective_qubit_povm((0, 0, 1))))


def test_povm_set_refuses_an_empty_list():
    with pytest.raises(ValueError, match="at least one POVM"):
        PovmSet((), 2)


def test_xyz_compatible_corners_match_cube_vertices():
    res = operator_compatible(qubit_xyz_povms())
    assert res.compatible
    assert len(res.corners) == 8
    verts = {tuple(v.bloch) for v in cube_vertices()}
    got = set()
    for c in res.corners:
        m = c.entries
        b = tuple(round(2 * np.real(np.trace(m @ p))) for p in
                  (np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]),
                   np.array([[1, 0], [0, -1]])))
        # operators are (1/2)(I + eX + fY + gZ): Bloch reads off with trace pairing
        got.add(tuple(int(x) / 2 for x in b))
    # compare through from_dense at tolerance 1e-10
    recovered = set()
    for c in res.corners:
        m = c.entries
        bx = np.real(np.trace(m @ np.array([[0, 1], [1, 0]], dtype=complex)))
        by = np.real(np.trace(m @ np.array([[0, -1j], [1j, 0]], dtype=complex)))
        bz = np.real(np.trace(m @ np.array([[1, 0], [0, -1]], dtype=complex)))
        recovered.add((round(bx), round(by), round(bz)))
        assert min(abs(bx - s) for s in (1, -1)) < 1e-10
    assert recovered == verts


def test_counting_prefilter():
    # N = 2 qubit projective POVMs pass the bound (4 <= 5)
    two = PovmSet(tuple([projective_qubit_povm((1, 0, 0)),
                         projective_qubit_povm((0, 0, 1))]), dim=2)
    assert two.outcome_count <= 2 ** 2 + 2 - 1
    assert operator_compatible(two).compatible

    rng = np.random.default_rng(21)
    axes = rng.standard_normal((4, 3))
    four = PovmSet(tuple(projective_qubit_povm(a) for a in axes), dim=2)
    res = operator_compatible(four)
    assert not res.compatible
    assert "exceeds" in res.reason
    # oracle: the outcome systems really are unreachable (lstsq residual)
    combos, _, resid = solve_outcome_systems(four)
    worst = max(resid[combos.index(combo)]
                for combo in [(0, 0, 0, 0), (1, 0, 1, 0), (0, 1, 1, 1)])
    assert worst > 1e-8


def test_counting_rejects_d_plus_2_projective_sets():
    rng = np.random.default_rng(22)
    # d = 2: four projective measurements
    axes = rng.standard_normal((4, 3))
    four = PovmSet(tuple(projective_qubit_povm(a) for a in axes), dim=2)
    assert not operator_compatible(four).compatible
    # d = 3: five projective 3-outcome measurements from random unitaries
    povms = []
    for _ in range(5):
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        q, _ = np.linalg.qr(g)
        povms.append(tuple(np.outer(q[:, k], q[:, k].conj()) for k in range(3)))
    five = PovmSet(tuple(povms), dim=3)
    assert five.outcome_count > 3 ** 2 + 5 - 1
    assert not operator_compatible(five).compatible


def test_three_rotated_qubit_measurements_compatible():
    # generic rank case below the counting bound
    rng = np.random.default_rng(23)
    axes = rng.standard_normal((3, 3))
    povms = PovmSet(tuple(projective_qubit_povm(a) for a in axes), dim=2)
    res = operator_compatible(povms)
    assert res.compatible
    assert len(res.corners) == 8


def test_corners_are_the_trace_one_solutions_closest_to_the_maximally_mixed_state():
    # two random qubit axes leave the Bloch vector free along n1 x n2; the
    # trace-one solution closest to I/2 has no component there
    rng = np.random.default_rng(24)
    n1, n2 = (a / np.linalg.norm(a) for a in rng.standard_normal((2, 3)))
    res = operator_compatible(PovmSet((projective_qubit_povm(n1),
                                       projective_qubit_povm(n2)), dim=2))
    assert res.compatible
    paulis = (np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]),
              np.array([[1, 0], [0, -1]]))
    signs = [(s1, s2) for s1 in (1, -1) for s2 in (1, -1)]
    for (s1, s2), c in zip(signs, res.corners):
        bloch = np.array([np.real(np.trace(c.entries @ p)) for p in paulis])
        assert abs(np.real(np.trace(c.entries)) - 1.0) < 1e-12
        assert abs(bloch @ n1 - s1) < 1e-12 and abs(bloch @ n2 - s2) < 1e-12
        assert abs(bloch @ np.cross(n1, n2)) < 1e-12
