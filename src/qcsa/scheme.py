"""End-to-end simulation of over-the-air CSA decoding, with rate accounting.

A classical CSA instance mixes L desired symbols and N - L interference
symbols into N server answers through the Cauchy-Vandermonde matrix; the
user classically downloads all N answers and inverts.  The quantum path
runs two instances at once: each server scales its two answers by its u
and v multipliers, feeds them into the synthesized N-sum box, and the
receiver's N-symbol measurement already contains both desired blocks
(plus a fixed tail of interference symbols) with no inversion left to do.
Two instances then cost N qudits instead of 2N dits, which is where the
factor-2 superdense gain shows up.

Symbols are drawn from a seedable PCG64 stream and every report records
the seed, so trials replay bit-exactly.  :func:`trial_blocks` is the one
trial loop: it yields each block of up to ``TRIAL_BLOCK`` trials as arrays,
so a caller that writes them out as they come (``qcsa simulate`` does)
holds one block at a time, whatever the trial count; :func:`run_trials`
collects them into report rows.  Trial t draws its 2N symbols delta(1),
nu(1), delta(2), nu(2) into column t of a 2N x T stack as numpy's
``default_rng((seed, t)).integers(0, p, size=2N)``, replayed exactly by
:func:`qcsa.stream.draws` for a block at once (so the draws do not depend
on the installed numpy);
:func:`qcsa_roundtrip` draws its one seed with :func:`qcsa.stream.column`.
One engine reads only u, v, C and M_Q: a given
:class:`~qcsa.nsumbox.QcsaSystem`'s own v and M_Q, or without one those of
:func:`qcsa.nsumbox.qcsa_channel`, which builds no Qu, Qv, G or H.  Prepared
once, it runs a stack's trials with their two instances as one stack, through
C and M_Q's diagonal blocks, so ``qcsa_roundtrip(params, (seed, t))``
replays any trial of a batch on its own.  :func:`server_scale` and
:meth:`SchemeInstance.from_symbols` remain the per-server operations, for
hand-built inputs; no trial runs through them.
"""

import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

import numpy as np

from .codes import ParameterError, QcsaParams, check_room
from .field import PrimeField
from .matrix import FieldMatrix, _apply, _mod_matmul, _prepare, _reduce, as_residue_vector
from .nsumbox import QcsaSystem, qcsa_channel, selector_row_indices

RNG_NAME = "pcg64"
# trial_blocks runs at most this many trials at a time, so a streamed run
# holds one block's arrays (about 14N int64 entries per trial, 1.8 MB at
# N = 64) whatever its trial count.  It divides 2^32, as stream.draws needs.
TRIAL_BLOCK = 256


@dataclass(frozen=True)
class SchemeInstance:
    """One CSA instance: symbols in, answers out.

    answers = CSA(alpha, f) applied to the stacked vector (delta, nu);
    :meth:`from_symbols` validates hand-built symbols and computes that
    product, and the trial engine fills in its own.
    """

    index: int
    delta: tuple
    nu: tuple
    answers: tuple

    @classmethod
    def from_symbols(cls, params: QcsaParams, index: int, delta, nu) -> "SchemeInstance":
        d = tuple(as_residue_vector(params.field, delta, params.L).tolist())
        v = tuple(as_residue_vector(params.field, nu, params.N - params.L).tolist())
        answers = params.csa.matvec(d + v)
        return cls(index, d, v, tuple(answers.tolist()))


def make_instances(params: QcsaParams, seed) -> tuple:
    """The two CSA instances of ``qcsa_roundtrip(params, seed)``; a seed is an int or ints."""
    return qcsa_roundtrip(params, seed).instances


def classical_decode(answers, params: QcsaParams) -> np.ndarray:
    """Recover the stacked symbol vector by inverting the CSA matrix.

    ``answers`` may be one N-long vector or an N x T column stack of T
    trials; the result has the same shape, with the first L rows holding
    the desired symbols.
    """
    arr = np.asarray(answers)
    if arr.ndim not in (1, 2) or arr.shape[0] != params.N:
        raise ValueError(f"answers must be length {params.N} or {params.N} x T, got {arr.shape}")
    stack = FieldMatrix(params.field, arr.reshape(params.N, -1)).array
    return _mod_matmul(params.csa_inverse.array, stack, params.field.p).reshape(arr.shape)


def server_scale(field: PrimeField, a1, a2, u, v) -> np.ndarray:
    """The stacked box input x: x_n = u_n A_n(1), x_{N+n} = v_n A_n(2)."""
    a1v = as_residue_vector(field, a1)
    a2v = as_residue_vector(field, a2, len(a1v))
    uv = as_residue_vector(field, u, len(a1v))
    vv = as_residue_vector(field, v, len(a1v))
    if np.any(uv == 0) or np.any(vv == 0):
        raise ParameterError("scaling multipliers must be nonzero")
    return np.concatenate([a1v * uv % field.p, a2v * vv % field.p])


class _TrialEngine:
    """One channel's trial pipeline, with everything but the draws prepared once.

    Reads only u (``params.beta``), v, C and M_Q.  Holds the draws of 2N symbols
    mod p, the (2, N, 1) multipliers [u; v] (checked nonzero here), the selector
    gather, C, and M_Q's top floor(N/2) rows in instance 1's columns over its
    bottom ceil(N/2) in instance 2's (the off-diagonal blocks only if nonzero),
    split once by ``matrix._prepare`` for ``matrix._apply``, whose exactness
    bounds hold only for canonical residues: every right operand is reduced first.
    """

    def __init__(self, params: QcsaParams, v, m: FieldMatrix):
        # Imported here, not with ``import qcsa``: construct and verify never draw.
        from .stream import column, draws

        field, n, l, f = params.field, params.N, params.L, params.half_floor
        self.uv = np.array([as_residue_vector(field, x, n) for x in (params.beta, v)])[..., None]
        if not self.uv.all():
            raise ParameterError("scaling multipliers must be nonzero")
        self.p, self.n = field.p, n
        self.column = partial(column, p=field.p, count=2 * n)
        self.draws = partial(draws, p=field.p, count=2 * n)
        self.csa = _prepare(params.csa.array, field.p)
        a, pad = m.array, np.zeros((n % 2, n), dtype=np.int64)  # odd N's top: a zero row first
        diag, off = [pad, a[:f, :n], a[f:, n:]], [pad, a[:f, n:], a[f:, :n]]
        self.m_q = _prepare(np.concatenate(diag).reshape(2, -1, n), field.p)
        self.m_off = (_prepare(np.concatenate(off).reshape(2, -1, n), field.p)
                      if any(map(np.count_nonzero, off)) else None)
        self.select = np.asarray(selector_row_indices(n, l)) - 1

    def run(self, symbols) -> tuple:
        """Run the drawn 2N x T stack S of symbols, one trial per column.

        Returns three arrays with one column per trial:

        1. encode: the answers A = [C S[:N]; C S[N:]], one product of C with S as (2, N, T);
        2. scale and transmit: Y = M_Q (Diag(u, v) A mod p), the diagonal blocks against
           the two instances (any off-diagonal ones against them swapped), less the zero row;
        3. predict: M_Q Block-Diag(Qu, Qv) is the selector, so the expected
           output is the row gather S[selector_row_indices(N, L) - 1].
        """
        n, p, t = self.n, self.p, symbols.shape[1]
        answers = _apply(self.csa, symbols.reshape(2, n, t), p)
        scaled = _reduce(self.uv * answers, p)
        y = _apply(self.m_q, scaled, p)
        if self.m_off is not None:
            y = _reduce(y + _apply(self.m_off, scaled[::-1], p), p)
        return answers.reshape(2 * n, t), y.reshape(-1, t)[n % 2:], symbols[self.select]


def _engine_for(params: QcsaParams, system: QcsaSystem | None) -> _TrialEngine:
    """``system``'s engine, checked against ``params``, or one on ``qcsa_channel(params)``."""
    if system is None:
        return _TrialEngine(params, *qcsa_channel(params))
    if system.params != params:
        raise ParameterError("the system was built for other parameters than those given")
    return system._trial_engine


@dataclass(frozen=True)
class RoundTrip:
    """One trial through the box: what it ran (``seed`` as an int or a list of ints) and got."""

    params: QcsaParams
    seed: object
    instances: tuple
    y: tuple
    expected: tuple

    @property
    def passed(self) -> bool:
        return self.y == self.expected

    @property
    def delta1(self) -> tuple:
        return self.instances[0].delta

    @property
    def delta2(self) -> tuple:
        return self.instances[1].delta

    @property
    def nu_tail1(self) -> tuple:
        return self.instances[0].nu[self.params.half_ceil:]

    @property
    def nu_tail2(self) -> tuple:
        return self.instances[1].nu[self.params.half_floor:]

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "params": self.params.to_dict(),
            "y": list(self.y),
            "expected": list(self.expected),
            "pass": self.passed,
            "costs": trial_costs(self.params),
        }


def qcsa_roundtrip(params: QcsaParams, seed, system: QcsaSystem | None = None) -> RoundTrip:
    """Generate, scale, transmit, and compare against the predicted output.

    The box output must equal, entry for entry: delta(1), the last
    floor(N/2) - L interference symbols of instance 1, delta(2), the last
    ceil(N/2) - L interference symbols of instance 2.  When L = N/2 the
    interference segments are empty and y is just the two desired blocks.
    This is one trial of the prepared engine, on the stream ``seed``.
    """
    engine = _engine_for(params, system)
    n, l = params.N, params.L
    drawn = np.array(engine.column(seed), dtype=np.int64)[:, None]
    symbols, answers, y, expected = (tuple(a[:, 0].tolist()) for a in (drawn, *engine.run(drawn)))
    instances = (SchemeInstance(1, symbols[:l], symbols[l:n], answers[:n]),
                 SchemeInstance(2, symbols[n:n + l], symbols[n + l:], answers[n:]))
    seed = [int(s) for s in seed] if isinstance(seed, (tuple, list)) else int(seed)
    return RoundTrip(params, seed, instances, y, expected)


def trial_costs(params: QcsaParams) -> dict:
    """What one trial downloads: N qudits for 2L desired symbols, against 2N dits."""
    n, l = params.N, params.L
    return {
        "downloaded_qudits": n,
        "desired_symbols": 2 * l,
        "classical_download_dits": 2 * n,
        "qudits_per_desired_symbol": str(Fraction(n, 2 * l)),
    }


def trial_blocks(params: QcsaParams, seed: int, trials: int, system: QcsaSystem | None = None):
    """Run seeded trials a block at a time; trial t uses the derived stream (seed, t).

    The seed (a non-negative int), the trial count and the system are
    checked, and the channel built, when this is called; the trials run as
    the result is iterated.  It yields ``(block, y, expected, ok)`` for each
    block of up to TRIAL_BLOCK trials in order: the range of the block's t,
    the box outputs and the predicted outputs as N x T arrays with column j
    for trial ``block[j]``, and the bool mask of the trials whose output
    matched the prediction exactly.  Column j holds the y and expected of
    ``qcsa_roundtrip(params, (seed, block[j]), system)``.
    """
    seed, trials = operator.index(seed), operator.index(trials)
    if seed < 0:
        raise ParameterError(f"seed must be nonnegative, got {seed}")
    if trials < 0:
        raise ParameterError(f"trial count must be nonnegative, got {trials}")
    engine = _engine_for(params, system)

    def blocks():
        for first in range(0, trials, TRIAL_BLOCK):
            block = range(first, min(first + TRIAL_BLOCK, trials))
            _, y, expected = engine.run(engine.draws(seed, block))
            yield block, y, expected, (y == expected).all(axis=0)

    return blocks()


def trial_summary(params: QcsaParams, seed: int, trials: int) -> dict:
    """:func:`run_trials`' result without its reports and ``passed``; seed and trials as ints."""
    costs = trial_costs(params)
    del costs["qudits_per_desired_symbol"]
    return {
        "params": params.to_dict(),
        "seed": operator.index(seed),
        "rng": RNG_NAME,
        "trials": operator.index(trials),
        "costs_per_trial": costs,
    }


def run_trials(params: QcsaParams, seed: int, trials: int,
               system: QcsaSystem | None = None) -> dict:
    """Run seeded trials; trial t uses the derived stream (seed, t).

    Returns a summary with per-trial reports; ``passed`` counts trials
    whose output matched the prediction exactly.  Report t equals
    ``qcsa_roundtrip(params, (seed, t), system).to_dict()``; the trials
    run through :func:`trial_blocks`, which holds one block at a time, but
    the reports hold every trial.  The summary and all reports share one
    ``params`` dict, and the reports one ``costs`` dict: copy a report's
    dict before editing it.
    """
    blocks = trial_blocks(params, seed, trials, system)
    summary, costs = trial_summary(params, seed, trials), trial_costs(params)
    summary["reports"] = [
        {"seed": [summary["seed"], t], "params": summary["params"], "y": y_t, "expected": e_t,
         "pass": ok_t, "costs": costs}
        for block, y, expected, ok in blocks
        for t, y_t, e_t, ok_t in zip(block, y.T.tolist(), expected.T.tolist(), ok.tolist())
    ]
    summary["passed"] = sum(row["pass"] for row in summary["reports"])
    return summary


def reduce_servers(n: int, l: int) -> tuple:
    """Shrink an over-provisioned scheme so the quantum path applies.

    For L <= N/2 nothing changes.  For L > N/2 the same interference
    dimension N - L fits in N' = 2N - 2L servers with L' = N - L desired
    symbols, i.e. L' = N'/2, which the quantum path turns into one qudit
    per desired symbol.
    """
    if l < 1 or l >= n:
        raise ParameterError(f"need 1 <= L < N, got N={n}, L={l}")
    if 2 * l <= n:
        return n, l
    return 2 * n - 2 * l, n - l


def reduced_params(field: PrimeField, n: int, l: int, alpha=None, beta=None, f=None) -> QcsaParams:
    """Parameters for the (possibly reduced) scheme actually run.

    Given points are those of the requested point: N of alpha and beta and
    L of f.  The server reduction when L > N/2 keeps the first N' of alpha
    and beta and the first L' of f.  Defaults follow the deterministic rule
    alpha_n = n - 1, f_j = N + j - 1 (with the original N, so reduced and
    unreduced runs stay comparable); only the kept prefixes are built,
    after N' + L' <= p is checked.
    """
    n2, l2 = reduce_servers(n, l)
    check_room(field, n2, l2)
    for name, points, size, count in (("alpha", alpha, "N", n), ("beta", beta, "N", n),
                                      ("f", f, "L", l)):
        if points is not None and len(points) != count:
            raise ParameterError(f"{name} must have {size}={count} entries, got {len(points)}")
    alpha = tuple(range(n2)) if alpha is None else tuple(alpha[:n2])
    f = tuple(range(n, n + l2)) if f is None else tuple(f[:l2])
    beta = (1,) * n2 if beta is None else tuple(beta[:n2])
    return QcsaParams(field, n2, l2, alpha, beta, f)


@dataclass(frozen=True)
class RateReport:
    """Exact rate and download accounting for one (N, L) operating point.

    rate_quantum = min(1, 2 * rate_classical); when the reduction fires,
    the reduced point runs at exactly one qudit per desired symbol.
    """

    N: int
    L: int
    N_reduced: int
    L_reduced: int
    rate_classical: Fraction
    rate_quantum: Fraction
    dits_per_symbol: Fraction
    qudits_per_symbol: Fraction

    def to_dict(self) -> dict:
        return {
            "N": self.N,
            "L": self.L,
            "N'": self.N_reduced,
            "L'": self.L_reduced,
            "R_C": str(self.rate_classical),
            "R_Q": str(self.rate_quantum),
            "dits_per_symbol": str(self.dits_per_symbol),
            "qudits_per_symbol": str(self.qudits_per_symbol),
            "R_C_decimal": float(self.rate_classical),
            "R_Q_decimal": float(self.rate_quantum),
        }


def rate_report(n: int, l: int) -> RateReport:
    """Classical and quantum rates for N servers and L desired symbols."""
    n2, l2 = reduce_servers(n, l)
    rate_c = Fraction(l, n)
    rate_q = min(Fraction(1), 2 * rate_c)
    qudits = Fraction(n, 2 * l) if 2 * l <= n else Fraction(1)
    return RateReport(n, l, n2, l2, rate_c, rate_q, Fraction(n, l), qudits)
