import re
from dataclasses import replace

import numpy as np
import pytest

from qcsa.codes import ParameterError, QcsaParams, dual_multipliers, qcsa_matrix
from qcsa.field import PrimeField, next_prime
from qcsa.matrix import FieldMatrix, Permutation, block_diag, hstack
from qcsa.nsumbox import (
    DualityViolationError,
    NotSSOError,
    QcsaSystem,
    SingularGHError,
    build_qcsa_box,
    build_qcsa_system,
    channel_from_gh,
    gh_column_permutation,
    is_sso,
    qcsa_channel,
    selector_matrix,
    selector_row_indices,
    verify_box,
    verify_system,
)

from oracles import (
    adjugate_inverse,
    block_diag_channel,
    dual_mult,
    matmul,
    permutation_entries,
    symplectic_entries,
)
from test_acceptance import GRID, PAIR_GRID

GF5 = PrimeField(5)
GF13 = PrimeField(13)

WORKED = QcsaParams(GF5, 2, 1, (1, 2), (1, 1), (3,))


def symplectic_form(field, n):
    """The oracle's 2n x 2n symplectic form J, as a FieldMatrix."""
    return FieldMatrix(field, symplectic_entries(n, field.p))


def permutation_matrix(field, perm):
    """The oracle's permutation matrix of ``perm``, as a FieldMatrix."""
    return FieldMatrix(field, permutation_entries(perm.image))


def test_symplectic_form_examples():
    j = symplectic_form(GF5, 1)
    assert j == FieldMatrix(GF5, [[0, 4], [1, 0]])
    for n in (1, 2, 5):
        j = symplectic_form(GF5, n)
        assert j.T == FieldMatrix(GF5, -j.array)
        assert j @ j == FieldMatrix(GF5, -np.eye(2 * n, dtype=np.int64))


def test_is_sso_examples():
    assert is_sso(FieldMatrix(GF5, [[1], [0]]))
    g = FieldMatrix(GF5, [[1], [1]])
    j = symplectic_form(GF5, 1)
    assert (g.T @ j @ g).is_zero()  # direct triple product
    assert is_sso(g)
    assert not is_sso(FieldMatrix(GF5, [[0], [0]]))
    with pytest.raises(ValueError):
        is_sso(FieldMatrix(GF5, [[1, 0], [0, 1]]))


def test_is_sso_rejects_random_non_sso():
    rng = np.random.default_rng(71)
    j = {n: symplectic_form(GF13, n) for n in (2, 3, 4)}
    rejected = 0
    while rejected < 100:
        n = int(rng.integers(2, 5))
        g = FieldMatrix(GF13, rng.integers(0, 13, size=(2 * n, n)))
        if g.rank() != n:
            continue
        if (g.T @ j[n] @ g).is_zero():
            continue
        assert not is_sso(g)
        rejected += 1


def test_channel_from_identity_witness():
    n = 3
    g = FieldMatrix(GF5, np.vstack([np.eye(n, dtype=np.int64), np.zeros((n, n), np.int64)]))
    h = FieldMatrix(GF5, np.vstack([np.zeros((n, n), np.int64), np.eye(n, dtype=np.int64)]))
    box = channel_from_gh(g, h)
    expected = FieldMatrix(GF5, np.hstack([np.zeros((n, n), np.int64), np.eye(n, dtype=np.int64)]))
    assert box.M == expected


def test_channel_annihilates_g_and_inverts_h():
    rng = np.random.default_rng(72)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        params = QcsaParams.random(GF13, n, int(rng.integers(1, n // 2 + 1)), rng)
        system = build_qcsa_system(params)
        box = channel_from_gh(system.box.G, system.box.H)
        assert (box.M @ box.G).is_zero()
        assert box.M @ box.H == FieldMatrix.identity(GF13, n)
        assert box.M == system.box.M


def test_channel_rejects_non_sso_g():
    rng = np.random.default_rng(73)
    n = 3
    j = symplectic_form(GF13, n)
    while True:
        g = FieldMatrix(GF13, rng.integers(0, 13, size=(2 * n, n)))
        if g.rank() == n and not (g.T @ j @ g).is_zero():
            break
    with pytest.raises(NotSSOError):
        channel_from_gh(g, FieldMatrix.identity(GF13, 2 * n).take_columns(range(n)))


def test_channel_rejects_singular_gh():
    system = build_qcsa_system(WORKED)
    with pytest.raises(SingularGHError):
        channel_from_gh(system.box.G, system.box.G)


def test_selector_matrix_worked_case():
    assert selector_matrix(GF5, 2, 1) == FieldMatrix(GF5, [[1, 0, 0, 0], [0, 0, 1, 0]])
    assert selector_row_indices(2, 1) == (1, 3)


def test_selector_matrix_at_half_rate():
    # L = N/2: both interference blocks vanish
    sel = selector_matrix(GF5, 4, 2)
    rows = selector_row_indices(4, 2)
    assert rows == (1, 2, 5, 6)
    for i, coord in enumerate(rows):
        expected = np.zeros(8, dtype=np.int64)
        expected[coord - 1] = 1
        assert sel.array[i].tolist() == expected.tolist()


def test_selector_rows_are_distinct_basis_vectors():
    for n in range(2, 10):
        for l in range(1, n // 2 + 1):
            sel = selector_matrix(GF5, n, l)
            assert sel.shape == (n, 2 * n)
            assert sorted(selector_row_indices(n, l)) == sorted(set(selector_row_indices(n, l)))
            assert (sel.array.sum(axis=1) == 1).all()
            assert sel.rank() == n


def test_selector_rejects_l_beyond_half():
    with pytest.raises(ParameterError):
        selector_matrix(GF5, 4, 3)
    with pytest.raises(ParameterError):
        gh_column_permutation(4, 3)


def test_gh_permutation_worked_case():
    assert gh_column_permutation(2, 1) == Permutation((2, 4, 1, 3))


def test_selector_equals_permuted_coordinate_projection():
    for n in range(2, 13):
        for l in range(1, n // 2 + 1):
            pi = gh_column_permutation(n, l)
            assert sorted(pi.image) == list(range(1, 2 * n + 1))
            p_inv = permutation_matrix(GF5, pi).T
            bottom = FieldMatrix(
                GF5,
                np.hstack([np.zeros((n, n), np.int64), np.eye(n, dtype=np.int64)]),
            )
            assert bottom @ p_inv == selector_matrix(GF5, n, l)


def test_build_worked_micro_instance():
    system = build_qcsa_system(WORKED)
    assert system.v == (4, 1)
    assert system.qu == FieldMatrix(GF5, [[3, 1], [1, 1]])
    assert system.qv == FieldMatrix(GF5, [[2, 4], [1, 1]])
    assert system.box.M == FieldMatrix(GF5, [[3, 2, 0, 0], [0, 0, 2, 2]])
    # independent route: adjugate inverse of the block diagonal + row pick
    bd = [[3, 1, 0, 0], [1, 1, 0, 0], [0, 0, 2, 4], [0, 0, 1, 1]]
    bd_inv = adjugate_inverse(bd, 5)
    selector = [[1, 0, 0, 0], [0, 0, 1, 0]]
    assert system.box.M.array.tolist() == matmul(selector, bd_inv, 5)


def test_build_identities_on_a_grid():
    from qcsa.field import next_prime

    rng = np.random.default_rng(74)
    for n in range(2, 13):
        for l in range(1, n // 2 + 1):
            for q in (next_prime(n + l), 31, 101):
                field = PrimeField(q)
                for draw in range(2):
                    if draw == 0:
                        params = QcsaParams.default(field, n, l)
                    else:
                        params = QcsaParams.random(field, n, l, rng)
                    system = build_qcsa_system(params)
                    box = system.box
                    assert is_sso(box.G)
                    gh = hstack([box.G, box.H])
                    assert gh.rank() == 2 * n
                    bd = block_diag([system.qu, system.qv])
                    assert gh == bd @ permutation_matrix(field, box.pi)
                    assert box.M @ bd == selector_matrix(field, n, l)
                    # the permutation drags the GRS columns to the front: the
                    # first N permuted columns are exactly G
                    assert gh.take_columns(range(n)) == box.G
                    # cross blocks of G^T J G vanish separately
                    gamma_top = box.G.take_rows(range(n)).take_columns(range(params.half_ceil))
                    gamma_bot = box.G.take_rows(range(n, 2 * n)).take_columns(
                        range(params.half_ceil, n)
                    )
                    assert (gamma_top.T @ gamma_bot).is_zero()
                    assert (gamma_bot.T @ gamma_top).is_zero()


def test_build_odd_n_demoted_column_placement():
    params = QcsaParams.default(GF13, 5, 2)
    system = build_qcsa_system(params)
    n, l = 5, 2
    ceil_half = 3
    # H columns: L from Qu's Cauchy block, floor-L from Qu's tail, L from
    # Qv's Cauchy block, then the demoted GRS column of Qv, then Qv's tail.
    demoted_pos = l + (n // 2 - l) + l
    h_col = system.box.H.take_columns([demoted_pos])
    top = h_col.take_rows(range(n))
    bottom = h_col.take_rows(range(n, 2 * n))
    assert top.is_zero()
    assert bottom == system.qv.take_columns([l + ceil_half - 1])
    # G's bottom block lost exactly that column
    assert system.box.G.shape == (10, 5)
    assert system.box.G.take_rows(range(n, 2 * n)).take_columns(
        range(ceil_half, n)
    ) == system.qv.take_columns(range(l, l + n // 2))


def test_build_rejects_mismatched_pair():
    qu = qcsa_matrix(WORKED)
    v = dual_multipliers(GF5, WORKED.alpha, WORKED.beta)
    qv = qcsa_matrix(WORKED.with_beta(v))
    duality = "^GRS blocks of the supplied pair are not mutually orthogonal$"
    qu_off = re.escape("Qu does not match the matrix rebuilt from (alpha, u, f)")
    qv_off = re.escape("Qv does not match the dual matrix rebuilt from (alpha, u, f)")
    # swap the roles: the GRS blocks are no longer orthogonal
    with pytest.raises(DualityViolationError, match=duality):
        build_qcsa_box(qu, qu, WORKED)
    # orthogonality intact but a Cauchy entry of Qv is off
    tampered = FieldMatrix(GF5, [[2, 4], [2, 1]])
    assert (qcsa_matrix(WORKED).take_columns([1]).T @ tampered.take_columns([1])).is_zero()
    with pytest.raises(ParameterError, match=f"^{qv_off}$"):
        build_qcsa_box(qu, tampered, WORKED)
    assert qv != tampered
    # Qu bumped in its Cauchy column, duality intact
    bumped = FieldMatrix(GF5, qu.array + np.array([[1, 0], [0, 0]]))
    assert (bumped.take_columns([1]).T @ qv.take_columns([1])).is_zero()
    with pytest.raises(ParameterError, match=f"^{qu_off}$"):
        build_qcsa_box(bumped, qv, WORKED)
    # the order: duality before Qu, and Qu before Qv
    with pytest.raises(DualityViolationError, match=duality):
        build_qcsa_box(bumped, bumped, WORKED)
    with pytest.raises(ParameterError, match=f"^{qu_off}$"):
        build_qcsa_box(bumped, tampered, WORKED)


def test_transmit():
    system = build_qcsa_system(WORKED)
    box = system.box
    assert box.transmit([0, 0, 0, 0]).tolist() == [0, 0]
    for j in range(box.N):
        h_col = box.H.take_columns([j]).array.ravel()
        e_j = [1 if i == j else 0 for i in range(box.N)]
        assert box.transmit(h_col).tolist() == e_j
    for j in range(box.N):
        g_col = box.G.take_columns([j]).array.ravel()
        assert box.transmit(g_col).tolist() == [0, 0]
    with pytest.raises(ValueError):
        box.transmit([1, 2, 3])


def test_verify_box_and_system():
    system = build_qcsa_system(WORKED)
    assert all(verify_box(system.box).values())
    assert all(verify_system(system).values())


def test_to_dict_gives_plain_int_lists():
    # construct writes the same layout from int64 arrays; library callers get lists.
    doc = build_qcsa_system(QcsaParams.default(PrimeField(65521), 48, 12)).to_dict()
    for key in ("Qu", "Qv", "G", "H", "M_Q"):
        assert all(type(x) is int for x in doc[key]["data"]), key
    assert all(type(x) is int for key in ("u", "v") for x in doc[key])


def test_verify_detects_tampering():
    system = build_qcsa_system(QcsaParams.default(GF13, 4, 1))
    doc = system.to_dict()

    corrupted = dict(doc)
    m_doc = dict(doc["M_Q"])
    data = list(m_doc["data"])
    data[0] = (data[0] + 1) % 13
    m_doc["data"] = data
    corrupted["M_Q"] = m_doc

    checks = verify_system(QcsaSystem.from_dict(corrupted))
    assert not checks["selector_identity"]

    corrupted = dict(doc)
    g_doc = dict(doc["G"])
    data = list(g_doc["data"])
    n_cols = g_doc["cols"]
    for row in range(g_doc["rows"]):
        data[row * n_cols] = 0
    g_doc["data"] = data
    corrupted["G"] = g_doc
    checks = verify_system(QcsaSystem.from_dict(corrupted))
    assert not checks["g_rank"]


@pytest.mark.parametrize("name,shape", [("M", (4, 7)), ("G", (7, 4)), ("H", (7, 4))])
def test_a_box_of_the_wrong_shape_fails_without_raising(name, shape):
    # verify_system once multiplied or stacked such a box and raised ValueError.
    system = build_qcsa_system(QcsaParams.default(GF13, 4, 2))
    box = replace(system.box, **{name: FieldMatrix(GF13, np.ones(shape, dtype=np.int64))})
    assert verify_box(box) == {"shapes": False}
    checks = verify_system(replace(system, box=box))
    assert list(checks.items()) == [
        ("dual_multipliers", True), ("qu_matches_params", True), ("qv_matches_dual", True),
        ("grs_duality", True), ("shapes", False), ("pi_present", True),
        ("gh_is_permuted_blockdiag", False), ("selector_identity", False),
    ]


def test_box_serialization_round_trip():
    system = build_qcsa_system(QcsaParams.default(GF13, 5, 2))
    system2 = QcsaSystem.from_dict(system.to_dict())
    assert system2.qu == system.qu and system2.qv == system.qv
    assert system2.box == system.box
    assert all(verify_system(system2).values())


# Reference formulas: the construction and the check by brute force over
# the 2N x 2N block diagonal and [G H].  The package derives both from the
# cached C^{-1} and three cheap identities; these pin it to the brute-force
# route.

def reference_channel(system) -> FieldMatrix:
    """M_Q = selector @ Block-Diag(Qu, Qv)^{-1}."""
    params = system.params
    bd = block_diag([system.qu, system.qv])
    return selector_matrix(params.field, params.N, params.L) @ bd.inverse()


def reference_verify_box(box) -> dict:
    """The box checks with the 2N x 2N rank and inverse of [G H]."""
    field, n = box.field, box.N
    checks = {}
    checks["shapes"] = (
        box.M.shape == (n, 2 * n) and box.G.shape == (2 * n, n) and box.H.shape == (2 * n, n)
    )
    if not checks["shapes"]:
        return checks
    j = symplectic_form(field, n)
    checks["g_rank"] = box.G.rank() == n
    checks["g_symplectic_orthogonal"] = (box.G.T @ j @ box.G).is_zero()
    gh = hstack([box.G, box.H])
    checks["gh_full_rank"] = gh.rank() == 2 * n
    if checks["gh_full_rank"]:
        checks["m_from_gh"] = box.M == gh.inverse().take_rows(range(n, 2 * n))
    else:
        checks["m_from_gh"] = False
    checks["m_annihilates_g"] = (box.M @ box.G).is_zero()
    checks["m_inverts_h"] = box.M @ box.H == FieldMatrix.identity(field, n)
    return checks


def _tampered_boxes(box, rng):
    """One bumped entry and one zeroed column in each of M, G and H."""
    for name in ("M", "G", "H"):
        bumped = getattr(box, name).array.copy()
        i, j = (int(rng.integers(k)) for k in bumped.shape)
        bumped[i, j] += 1
        yield replace(box, **{name: FieldMatrix(box.field, bumped)})
        zeroed = getattr(box, name).array.copy()
        zeroed[:, int(rng.integers(zeroed.shape[1]))] = 0
        yield replace(box, **{name: FieldMatrix(box.field, zeroed)})


def reference_verify_system(system) -> dict:
    """verify_system with no premise: every box check from the dense verify_box.

    The test below pins verify_box itself to reference_verify_box.
    """
    params = system.params
    field, n, l = params.field, params.N, params.L
    box = system.box
    v = dual_multipliers(field, params.alpha, params.beta)
    gamma_top = system.qu.take_columns(range(l, l + params.half_ceil))
    gamma_bot = system.qv.take_columns(range(l, l + params.half_floor))
    checks = {
        "dual_multipliers": tuple(system.v) == v,
        "qu_matches_params": system.qu == qcsa_matrix(params),
        "qv_matches_dual": system.qv == qcsa_matrix(params.with_beta(v)),
        "grs_duality": (gamma_top.T @ gamma_bot).is_zero(),
    }
    checks.update(verify_box(box))
    checks["pi_present"] = box.pi is not None
    if checks["pi_present"]:
        bd = block_diag([system.qu, system.qv])
        checks["gh_is_permuted_blockdiag"] = (
            hstack([box.G, box.H]) == bd @ permutation_matrix(field, box.pi)
        )
        checks["selector_identity"] = dense_selector_identity(system)
    return checks


def _regathered(system, qu, qv, image):
    """The system with Qu, Qv and pi replaced and [G H] gathered to match them."""
    n = system.params.N
    gh = block_diag([qu, qv]).take_columns([i - 1 for i in image])
    box = replace(system.box, G=gh.take_columns(range(n)),
                  H=gh.take_columns(range(n, 2 * n)), pi=Permutation(image))
    return replace(system, qu=qu, qv=qv, box=box)


def _with_m(system, rows):
    return replace(system, box=replace(system.box, M=FieldMatrix(system.params.field, rows)))


def _tampered_systems(system, rng):
    """Edits that keep verify_system's premise, and edits that break it.

    The premise is pi = the layout, [G H] = the gather of Block-Diag(Qu, Qv)
    at pi, and Qu, Qv = the pair the parameters give.
    """
    n = system.params.N
    layout = system.box.pi.image
    for box in _tampered_boxes(system.box, rng):
        yield replace(system, box=box)
    # pi off the layout: once with [G H] left alone, once regathered to match
    swapped = list(layout)
    a, b = rng.choice(2 * n, 2, replace=False)
    swapped[a], swapped[b] = swapped[b], swapped[a]
    yield replace(system, box=replace(system.box, pi=Permutation(swapped)))
    yield _regathered(system, system.qu, system.qv, layout[n:] + layout[:n])
    yield _regathered(system, system.qu, system.qv, tuple(rng.permutation(2 * n) + 1))
    # Qu or Qv off the parameters, with [G H] regathered so the gather holds
    for name in ("qu", "qv"):
        bumped = getattr(system, name).array.copy()
        bumped[tuple(int(rng.integers(n)) for _ in range(2))] += 1
        zeroed = getattr(system, name).array.copy()
        zeroed[:, int(rng.integers(n))] = 0
        for entries in (bumped, zeroed):
            pair = {"qu": system.qu, "qv": system.qv, name: FieldMatrix(system.qu.field, entries)}
            yield _regathered(system, pair["qu"], pair["qv"], layout)
    # M rows moved within the row space of M (MH breaks, MG stays 0) and
    # of the top rows T of [G H]^{-1} (MG breaks, MH stays I).
    m = system.box.M.array
    top = hstack([system.box.G, system.box.H]).inverse().array[:n]
    i, j = (int(rng.integers(n)) for _ in range(2))
    yield _with_m(system, m + np.eye(n, dtype=np.int64)[:, [i]] * m[j])
    yield _with_m(system, m + np.eye(n, dtype=np.int64)[:, [i]] * top[j])


DIFFERENTIAL_GRID = GRID + [(n, l, 2**31 - 1) for n, l in PAIR_GRID]


@pytest.mark.parametrize("n,l,q", DIFFERENTIAL_GRID)
def test_channel_and_checks_match_reference_formulas(n, l, q):
    field = PrimeField(q)
    rng = np.random.default_rng((75, n, l, q))
    seen = set()
    for params in (QcsaParams.default(field, n, l), QcsaParams.random(field, n, l, rng)):
        system = build_qcsa_system(params)
        assert system.box.M == reference_channel(system)
        assert selector_row_indices(n, l) == gh_column_permutation(n, l).image[n:]
        for box in (system.box, *_tampered_boxes(system.box, rng)):
            assert list(verify_box(box).items()) == list(reference_verify_box(box).items())
        for tampered in (system, *_tampered_systems(system, rng)):
            checks = verify_system(tampered)
            assert list(checks.items()) == list(reference_verify_system(tampered).items())
            seen.add((checks["m_annihilates_g"], checks["m_inverts_h"]))
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


@pytest.mark.parametrize("n,l,q", DIFFERENTIAL_GRID)
def test_build_qcsa_box_returns_the_systems_box(n, l, q):
    field = PrimeField(q)
    rng = np.random.default_rng((78, n, l, q))
    for params in (QcsaParams.default(field, n, l), QcsaParams.random(field, n, l, rng)):
        system = build_qcsa_system(params)
        box = build_qcsa_box(system.qu, system.qv, params)
        assert (box.M, box.G, box.H, box.pi) == (
            system.box.M, system.box.G, system.box.H, system.box.pi)


def test_verify_system_gathers_what_the_permutation_matrix_multiplies():
    rng = np.random.default_rng(76)
    for n, l, q in GRID[::5]:
        field = PrimeField(q)
        system = build_qcsa_system(QcsaParams.random(field, n, l, rng))
        bd = block_diag([system.qu, system.qv])
        gh = hstack([system.box.G, system.box.H])
        for pi in (system.box.pi, Permutation(rng.permutation(2 * n) + 1)):
            checks = verify_system(replace(system, box=replace(system.box, pi=pi)))
            assert checks["gh_is_permuted_blockdiag"] == (
                gh == bd @ permutation_matrix(field, pi)
            )


def dense_symplectic_orthogonal(g) -> bool:
    """G^T J G = 0 with the 2N x 2N symplectic form written out."""
    return (g.T @ symplectic_form(g.field, g.cols) @ g).is_zero()


def dense_selector_identity(system) -> bool:
    """M @ Block-Diag(Qu, Qv) == selector, with the zero blocks multiplied."""
    params = system.params
    bd = block_diag([system.qu, system.qv])
    return system.box.M @ bd == selector_matrix(params.field, params.N, params.L)


@pytest.mark.parametrize("n,l,q", GRID)
def test_block_checks_match_dense_formulas(n, l, q):
    field = PrimeField(q)
    rng = np.random.default_rng((77, n, l, q))
    seen = set()
    for params in (QcsaParams.default(field, n, l), QcsaParams.random(field, n, l, rng)):
        system = build_qcsa_system(params)
        for box in (system.box, *_tampered_boxes(system.box, rng)):
            dense = dense_symplectic_orthogonal(box.G)
            assert verify_box(box)["g_symplectic_orthogonal"] == dense
            assert is_sso(box.G) == (box.G.rank() == n and dense)
            selector = verify_system(replace(system, box=box))["selector_identity"]
            assert selector == dense_selector_identity(replace(system, box=box))
            seen.add((dense, selector))
    assert seen >= {(True, True), (True, False)}


def _check_channel(params):
    v, m = qcsa_channel(params)
    assert list(v) == dual_mult(list(params.alpha), list(params.beta), params.field.p)
    assert m == block_diag_channel(params), (params.field.p, params.N, params.L)


@pytest.mark.parametrize("modulus", ["next-prime", 101, 2**31 - 1])
def test_the_channel_equals_the_block_diag_assembly_for_every_small_shape(modulus):
    """Every 2 <= N <= 16 and 1 <= L <= N/2, at default and at random points."""
    for n in range(2, 17):
        for l in range(1, n // 2 + 1):
            field = PrimeField(next_prime(n + l) if modulus == "next-prime" else modulus)
            rng = np.random.default_rng((n, l, field.p))
            for params in (QcsaParams.default(field, n, l), QcsaParams.random(field, n, l, rng)):
                _check_channel(params)


@pytest.mark.parametrize("n,l,p", [(256, 64, 65521), (255, 64, 2**31 - 1)])
def test_the_channel_equals_the_block_diag_assembly_at_the_benchmark_sizes(n, l, p):
    field = PrimeField(p)
    _check_channel(QcsaParams.default(field, n, l))
    _check_channel(QcsaParams.random(field, n, l, np.random.default_rng(n)))
