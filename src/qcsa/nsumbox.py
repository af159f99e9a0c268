"""The N-sum box layer: SSO matrices, feasible channels, QCSA synthesis.

An N-sum box is the classical face of an entanglement-assisted quantum
multiple-access channel: N servers each control two coordinates of a
2N-long input vector x, the receiver measures y = M x over GF(q), and the
whole exchange costs N qudits.  A channel matrix M is feasible exactly
when it can be written

    M = (0_N  I_N) (G  H)^{-1}

with G strongly self-orthogonal (rank N and G^T J G = 0 for the
symplectic form J) and [G H] invertible.  Only this classical functional
contract is modeled here; the stabilizer protocol realizing it is taken
as given.

``build_qcsa_system`` synthesizes the specific feasible box that decodes
two cross-subspace-aligned instances over the air: G stacks the mutually
dual GRS blocks of a QCSA matrix pair (the classic CSS recipe for
producing an SSO matrix), H collects the leftover columns, and the
resulting M routes the desired symbols, plus a fixed tail of interference
symbols, straight to the output.  [G H] is a column gather of
Block-Diag(Qu, Qv) at one fixed layout, and because Qu = Diag(u) C and
Qv = Diag(v) C for the one CSA matrix C, M's top rows are selected rows
of C^{-1} Diag(u)^{-1} and its bottom rows selected rows of
C^{-1} Diag(v)^{-1}, so the synthesis never inverts a 2N x 2N matrix.
``qcsa_channel`` builds v and M alone, all the :mod:`qcsa.scheme` trial engine
reads besides u and C, with v = 1/(u d) for the closed-form C^{-1}'s products
d_n = prod_{m != n} (alpha_n - alpha_m); ``build_qcsa_system`` adds Qu, Qv, G and H.
``build_qcsa_box`` checks a supplied pair against that system's own Qu and Qv.

``verify_system`` re-checks a bundle through the same algebra, but takes v
from the GRS dual formula (``codes.dual_multipliers``).  When pi is
the layout, [G H] is the gather of Block-Diag(Qu, Qv) and Qu, Qv are the
pair the parameters give, rank G = N, G^T J G = 0, rank [G H] = 2N, MG = 0
and MH = I follow from the parameter, duality, gather and selector checks
it makes anyway; any other bundle gets the dense checks of ``verify_box``.
Both paths fill in the same seven box checks, defined once.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .codes import (
    ParameterError,
    QcsaParams,
    _csa_inverse,
    dual_multipliers,
    qcsa_grs_submatrix,
    qcsa_matrix,
)
from .field import PrimeField
from .matrix import (
    FieldMatrix,
    Permutation,
    SingularMatrixError,
    block_diag,
    hstack,
    inverse_residues,
    json_int,
    json_ints,
)


class NotSSOError(ValueError):
    """G is not strongly self-orthogonal."""


class SingularGHError(ValueError):
    """[G H] is not invertible, so no channel matrix exists for the pair."""


class DualityViolationError(ValueError):
    """The supplied QCSA pair's GRS blocks are not mutually orthogonal."""


def _symplectic_orthogonal(g: FieldMatrix) -> bool:
    """G^T J G = 0, through the blocks of J instead of the 2N x 2N matrix.

    With G = [G_top; G_bot], G^T J G = G_bot^T G_top - G_top^T G_bot,
    which is X - X^T for X = G_bot^T G_top: zero iff X is symmetric.
    """
    n = g.cols
    x = g[n:, :].T @ g[:n, :]
    return x == x.T


def is_sso(g: FieldMatrix) -> bool:
    """Strong self-orthogonality: full column rank N and G^T J G = 0."""
    if g.rows != 2 * g.cols:
        raise ValueError(f"expected a 2N x N matrix, got {g.shape}")
    return g.rank() == g.cols and _symplectic_orthogonal(g)


def _layout(n: int, l: int) -> tuple:
    """The column layout of [G | H] inside Block-Diag(Qu, Qv), 1-based.

    The first N entries pick out the two GRS blocks (these become G): Qu's
    ceil(N/2) columns after its Cauchy block, then Qv's floor(N/2).  The
    last N sweep up, in order, Qu's Cauchy block, Qu's Vandermonde tail,
    Qv's Cauchy block, for odd N the one GRS column of Qv dropped from G,
    and Qv's tail.  Those last N are also the coordinates of x that the
    QCSA channel forwards to y.
    """
    if 2 * l > n:
        raise ParameterError(f"L={l} exceeds N/2={n / 2}")
    ceil_half = (n + 1) // 2
    floor_half = n // 2
    return (
        tuple(range(l + 1, l + ceil_half + 1))
        + tuple(range(n + l + 1, n + l + floor_half + 1))
        + tuple(range(1, l + 1))
        + tuple(range(l + ceil_half + 1, n + 1))
        + tuple(range(n + 1, n + l + 1))
        + tuple(range(n + l + floor_half + 1, 2 * n + 1))
    )


def selector_row_indices(n: int, l: int) -> tuple:
    """1-based coordinates of x that the QCSA channel forwards to y.

    Four runs: desired symbols of instance 1, trailing interference of
    instance 1, desired symbols of instance 2, trailing interference of
    instance 2.
    """
    return _layout(n, l)[n:]


def selector_matrix(field: PrimeField, n: int, l: int) -> FieldMatrix:
    """The N x 2N row selector the synthesized channel realizes.

    Row i is the standard basis vector at coordinate
    ``selector_row_indices(n, l)[i]``, so in block form

        [ I_L  0    0                  | 0    0    0                 ]
        [ 0    0    I_{floor(N/2)-L}   | 0    0    0                 ]
        [ 0    0    0                  | I_L  0    0                 ]
        [ 0    0    0                  | 0    0    I_{ceil(N/2)-L}   ]

    with column group widths (L, ceil(N/2), floor(N/2)-L) on each half.
    """
    rows = [i - 1 for i in selector_row_indices(n, l)]
    return FieldMatrix.identity(field, 2 * n).take_rows(rows)


def gh_column_permutation(n: int, l: int) -> Permutation:
    """Column order mapping Block-Diag(Qu, Qv) onto [G | H]."""
    return Permutation(_layout(n, l))


@dataclass(frozen=True)
class NSumBox:
    """A feasible channel y = M x with its (G, H) witness.

    M is N x 2N, G and H are 2N x N, and M = (0_N I_N)(G H)^{-1} holds
    exactly.  ``pi`` is present when the box came from the QCSA synthesis
    and records how [G H] permutes the columns of Block-Diag(Qu, Qv).
    Server n controls input coordinates n and N + n; one use costs N
    qudits.
    """

    field: PrimeField
    N: int
    M: FieldMatrix
    G: FieldMatrix
    H: FieldMatrix
    pi: Permutation | None = None

    def transmit(self, x) -> np.ndarray:
        """Receiver's measurement outcome y = M x for a 2N-long input."""
        return self.M.matvec(x)


def _parse(doc: dict, key: str, parse):
    """parse(doc[key]) of a JSON object, with its errors re-raised as ValueErrors naming ``key``.

    A missing ``key`` itself stays a KeyError, for the caller to name.
    """
    value = doc[key]
    if not isinstance(value, dict):
        raise ValueError(f"{key} must be an object, got {type(value).__name__}")
    try:
        return parse(value)
    except KeyError as exc:
        raise ValueError(f"{key}: missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{key}: {exc}") from exc


def _matrix(doc: dict, key: str, p: int, shape: tuple) -> FieldMatrix:
    mat = _parse(doc, key, FieldMatrix.from_dict)
    if mat.field.p != p:
        raise ValueError(f"{key} modulus disagrees with the header")
    if mat.shape != shape:
        raise ValueError(f"{key} must have shape {shape}, got {mat.shape}")
    return mat


def channel_from_gh(g: FieldMatrix, h: FieldMatrix) -> NSumBox:
    """Feasible channel for an arbitrary SSO G and full-rank [G H].

    Accepts any valid witness pair, not just the QCSA-synthesized one, so
    this doubles as a general feasibility checker.
    """
    g._check_field(h)
    if g.rows != 2 * g.cols or h.shape != g.shape:
        raise ValueError(f"G and H must both be 2N x N, got {g.shape} and {h.shape}")
    if not is_sso(g):
        raise NotSSOError("G must be strongly self-orthogonal")
    gh = hstack([g, h])
    try:
        gh_inv = gh.inverse()
    except SingularMatrixError as exc:
        raise SingularGHError("[G H] is singular; the channel is infeasible") from exc
    n = g.cols
    m = gh_inv.take_rows(range(n, 2 * n))
    return NSumBox(g.field, n, m, g, h)


@dataclass(frozen=True)
class QcsaSystem:
    """A complete construction bundle: parameters, matrix pair, channel."""

    params: QcsaParams
    v: tuple
    qu: FieldMatrix
    qv: FieldMatrix
    box: NSumBox

    @property
    def u(self) -> tuple:
        return self.params.beta

    @cached_property
    def _trial_engine(self):
        """The :mod:`qcsa.scheme` trial engine on this system's v and M_Q, built on first use."""
        from .scheme import _TrialEngine  # scheme imports this module

        return _TrialEngine(self.params, self.v, self.box.M)

    def to_dict(self) -> dict:
        """The bundle, as ``construct`` writes it without its ``seed`` and ``Q_beta``."""
        return self._doc(FieldMatrix.to_dict)

    def _doc(self, matrix=FieldMatrix._doc) -> dict:
        """The bundle's one layout, each matrix as ``matrix`` gives it; ``construct`` writes it."""
        return {
            "params": self.params.to_dict(),
            "u": list(self.u),
            "v": list(self.v),
            "Qu": matrix(self.qu),
            "Qv": matrix(self.qv),
            "G": matrix(self.box.G),
            "H": matrix(self.box.H),
            "pi": self.box.pi.to_dict() if self.box.pi is not None else None,
            "M_Q": matrix(self.box.M),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "QcsaSystem":
        """Strict inverse of :meth:`to_dict`; every error names the key at fault.

        ``seed`` and ``Q_beta``, which ``construct`` may add, are checked
        when present (an integer, and an N x N matrix over GF(p)) but not kept.
        """
        if not isinstance(doc, dict):
            raise ValueError(f"bundle must be a JSON object, got {type(doc).__name__}")
        params = _parse(doc, "params", QcsaParams.from_dict)
        p, n = params.field.p, params.N
        qu, qv = (_matrix(doc, key, p, (n, n)) for key in ("Qu", "Qv"))
        if "seed" in doc:
            json_int(doc["seed"], "seed")
        if "Q_beta" in doc:
            _matrix(doc, "Q_beta", p, (n, n))
        m = _matrix(doc, "M_Q", p, (n, 2 * n))
        g, h = (_matrix(doc, key, p, (2 * n, n)) for key in ("G", "H"))
        pi = _parse(doc, "pi", Permutation.from_dict) if doc["pi"] is not None else None
        if pi is not None and pi.n != 2 * n:
            raise ValueError(f"pi must permute [1..{2 * n}], got length {pi.n}")
        if tuple(json_ints(doc["u"], "u", 0, p).tolist()) != params.beta:
            raise ValueError("u disagrees with the parameter header")
        v = tuple(json_ints(doc["v"], "v", 0, p).tolist())
        return cls(params, v, qu, qv, NSumBox(params.field, n, m, g, h, pi))


def qcsa_channel(params: QcsaParams) -> tuple:
    """v and the channel matrix M_Q of :func:`build_qcsa_system`, without Qu, Qv, G or H.

    M_Q is the selector's rows of Block-Diag(C^{-1} Diag(u)^{-1}, C^{-1} Diag(v)^{-1}).
    With C^{-1} = R Diag(F) Diag(d)^{-1} from :func:`codes._csa_inverse` and v = 1/(u d),
    those blocks are R Diag(F v) and R Diag(F u), so u d is the one vector inverted.
    M_Q's top floor(N/2) rows are rows [0, L) and [L + ceil(N/2), N) of R Diag(F v), in
    columns [0, N), and its bottom ceil(N/2) rows are rows [0, L) and [L + floor(N/2), N)
    of R Diag(F u), in columns [N, 2N).  So only the first L and the last
    ceil(N/2) - L rows of R Diag(F) are built.
    """
    n, l, floor, p = params.N, params.L, params.half_floor, params.field.p
    rows, d = _csa_inverse(params.csa, params.alpha, params.f, params.half_ceil - l)
    u = np.array(params.beta, dtype=np.int64)
    v = inverse_residues(u * d % p, p)
    m = np.zeros((n, 2 * n), dtype=np.int64)
    m[:l, :n] = rows[:l] * v % p
    m[l:floor, :n] = rows[l + n % 2:] * v % p  # odd N: C^{-1} row L + N // 2 is bottom's only
    m[floor:, n:] = rows * u % p
    return tuple(v.tolist()), FieldMatrix._from_canonical(params.field, m)


def build_qcsa_system(params: QcsaParams) -> QcsaSystem:
    """Construct v, Qu, Qv and the feasible box that decodes them, in one pass.

    ``params.beta`` is the free multiplier vector u, and v its dual
    multipliers, so the GRS blocks of Qu = Diag(u) C and Qv = Diag(v) C
    are mutually orthogonal.  G = Block-Diag of the [N, ceil(N/2)] GRS
    block of Qu and the [N, floor(N/2)] GRS block of Qv (for odd N the
    surplus GRS column of Qv is demoted to H).  H gathers the remaining
    columns of Block-Diag(Qu, Qv): Qu's Cauchy block, Qu's Vandermonde
    tail, Qv's Cauchy block, the demoted column when N is odd, then Qv's
    tail.  v and the channel matrix come from :func:`qcsa_channel`, which
    reads M_Q off the closed-form C^{-1}, so nothing is eliminated.
    """
    n = params.N
    v, m = qcsa_channel(params)
    qu, qv = qcsa_matrix(params), params.csa.scale_rows(v)
    pi = gh_column_permutation(n, params.L)
    gh = block_diag([qu, qv]).take_columns([i - 1 for i in pi.image])
    return QcsaSystem(params, v, qu, qv, NSumBox(params.field, n, m, gh[:, :n], gh[:, n:], pi))


def build_qcsa_box(qu: FieldMatrix, qv: FieldMatrix, params: QcsaParams) -> NSumBox:
    """The box of :func:`build_qcsa_system`, for a supplied pair checked against ``params``.

    Three checks, in this order: the GRS blocks of Qu and Qv must be
    mutually orthogonal (DualityViolationError), then Qu must equal the
    system's Diag(u) C and Qv its Diag(v) C (ParameterError each).
    """
    system = build_qcsa_system(params)
    if not _grs_duality(qu, qv, params):
        raise DualityViolationError("GRS blocks of the supplied pair are not mutually orthogonal")
    if qu != system.qu:
        raise ParameterError("Qu does not match the matrix rebuilt from (alpha, u, f)")
    if qv != system.qv:
        raise ParameterError("Qv does not match the dual matrix rebuilt from (alpha, u, f)")
    return system.box


def _grs_duality(qu: FieldMatrix, qv: FieldMatrix, params: QcsaParams) -> bool:
    """Gamma_top^T Gamma_bot = 0, after ``qcsa_grs_submatrix``'s shape and field checks."""
    gamma_top = qcsa_grs_submatrix(qu, params, params.half_ceil)
    gamma_bot = qcsa_grs_submatrix(qv, params, params.half_floor)
    return (gamma_top.T @ gamma_bot).is_zero()


def _shapes(box: NSumBox) -> bool:
    n = box.N
    return box.M.shape == (n, 2 * n) and box.G.shape == (2 * n, n) and box.H.shape == (2 * n, n)


def verify_box(box: NSumBox, *, proven: tuple | None = None) -> dict:
    """Re-check the seven feasibility invariants of a (possibly deserialized) box.

    ``proven`` replaces computing MG = 0, MH = I and G^T J G = 0 by the verdicts
    of a premise that also proves rank G = N and rank [G H] = 2N.
    """
    n = box.N
    checks = {"shapes": _shapes(box)}
    if not checks["shapes"]:
        return checks
    ranks_proven = proven is not None
    if ranks_proven:
        annihilates, inverts, symplectic = proven
    else:
        annihilates = (box.M @ box.G).is_zero()
        inverts = box.M @ box.H == FieldMatrix.identity(box.field, n)
        symplectic = _symplectic_orthogonal(box.G)
    checks["g_rank"] = ranks_proven or box.G.rank() == n
    checks["g_symplectic_orthogonal"] = symplectic
    # If rank G = N, MG = 0 and MH = I, then [G H] is invertible: applying M
    # to [G H](a, b) = 0 gives b = 0, and then G a = 0 gives a = 0.  And
    # M [G H] = (0 I) fixes M = (0 I)[G H]^{-1} uniquely.  So the 2N x 2N
    # rank is only needed when one of the cheap checks already failed.
    checks["gh_full_rank"] = (
        ranks_proven
        or (checks["g_rank"] and annihilates and inverts)
        or hstack([box.G, box.H]).rank() == 2 * n
    )
    checks["m_from_gh"] = checks["gh_full_rank"] and annihilates and inverts
    checks["m_annihilates_g"] = annihilates
    checks["m_inverts_h"] = inverts
    return checks


def verify_system(system: QcsaSystem) -> dict:
    """Named pass/fail re-checks for a full construction bundle.

    The box checks are those of :func:`verify_box`, but on a bundle whose
    [G H] is the QCSA gather of the very pair its parameters give, each is
    read off a value computed here anyway; any other bundle gets the dense
    checks.
    """
    params = system.params
    field, n, l = params.field, params.N, params.L
    box = system.box
    v = dual_multipliers(field, params.alpha, params.beta)
    checks = {
        "dual_multipliers": tuple(system.v) == v,
        "qu_matches_params": system.qu == qcsa_matrix(params),
        "qv_matches_dual": system.qv == params.csa.scale_rows(v),
        "grs_duality": _grs_duality(system.qu, system.qv, params),
    }
    layout = _layout(n, l)
    cols = np.array(layout) - 1
    tail = {"pi_present": box.pi is not None}
    if tail["pi_present"]:  # a box of the wrong shape fails both, with no product
        tail["gh_is_permuted_blockdiag"] = tail["selector_identity"] = False
    if tail["pi_present"] and _shapes(box):
        gathered = block_diag([system.qu, system.qv]).take_columns(np.array(box.pi.image) - 1)
        tail["gh_is_permuted_blockdiag"] = box.G == gathered[:, :n] and box.H == gathered[:, n:]
        # W = M Block-Diag(Qu, Qv) = [M_left Qu | M_right Qv], without the
        # zero blocks.  The selector's columns at the layout are (0 I), so
        # W equals it iff W's layout columns are 0 and then I.
        w = hstack([box.M[:, :n] @ system.qu, box.M[:, n:] @ system.qv])
        annihilates = w.take_columns(cols[:n]).is_zero()
        inverts = w.take_columns(cols[n:]) == FieldMatrix.identity(field, n)
        tail["selector_identity"] = annihilates and inverts
    premise = (
        tail.get("gh_is_permuted_blockdiag", False)
        and box.pi.image == layout
        and checks["qu_matches_params"]
        and checks["qv_matches_dual"]
    )
    # Premise P: [G H] is Block-Diag(Qu, Qv) gathered at the layout,
    # with Qu = Diag(u) C and Qv = Diag(v) C for the recomputed v.
    # QcsaParams makes alpha and f distinct and u nonzero, and each v_j
    # is an inverse, so nonzero.  Under P:
    # - G = Block-Diag(Gamma_top, Gamma_bot), each block Diag(nonzero)
    #   times a Vandermonde matrix on the distinct alpha with at most N
    #   columns, so rank G = ceil(N/2) + floor(N/2) = N.
    # - X = G_bot^T G_top has Gamma_bot^T Gamma_top as its only nonzero
    #   block, off the diagonal, so X = X^T iff Gamma_top^T Gamma_bot = 0,
    #   which is grs_duality.
    # - C is invertible (N + L distinct points), hence so are Qu, Qv
    #   and [G H]: rank [G H] = 2N.
    # - M [G H] = W gathered at the layout, so MG = 0 and MH = I are
    #   the two halves of selector_identity.
    proven = (annihilates, inverts, checks["grs_duality"]) if premise else None
    checks.update(verify_box(box, proven=proven))
    checks.update(tail)
    return checks
