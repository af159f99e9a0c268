"""Independent brute-force oracles used to freeze and re-check goldens.

Everything here is plain Python ints on lists of lists: schoolbook
products, cofactor determinants, adjugate inverses, direct entry-formula
constructions, and a trial-by-trial referee for the simulator.  Nothing imports the package's elimination
kernels, so these stay an independent route for every value they check.
``block_diag_channel`` alone assembles package matrices: it keeps the whole
2N x 2N Block-Diag route to M_Q that ``nsumbox.qcsa_channel`` cuts short.
"""


def inv_mod(x: int, p: int) -> int:
    return pow(x % p, -1, p)


def matmul(a, b, p):
    rows, inner = len(a), len(b)
    cols = len(b[0]) if b else 0
    assert all(len(row) == inner for row in a) or inner == 0
    return [
        [sum(a[i][t] * b[t][j] for t in range(inner)) % p for j in range(cols)]
        for i in range(rows)
    ]


def mat_transpose(a):
    return [[a[i][j] for i in range(len(a))] for j in range(len(a[0]) if a else 0)]


def det(a, p) -> int:
    n = len(a)
    if n == 0:
        return 1
    if n == 1:
        return a[0][0] % p
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in a[1:]]
        sign = 1 if j % 2 == 0 else -1
        total += sign * a[0][j] * det(minor, p)
    return total % p


def adjugate_inverse(a, p):
    """Inverse via adjugate / determinant; None when singular."""
    n = len(a)
    d = det(a, p)
    if d == 0:
        return None
    d_inv = inv_mod(d, p)
    cof = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [row[:j] + row[j + 1:] for r, row in enumerate(a) if r != i]
            sign = 1 if (i + j) % 2 == 0 else -1
            cof[i][j] = sign * det(minor, p) % p
    return [[cof[j][i] * d_inv % p for j in range(n)] for i in range(n)]


def grs_entries(alpha, u, k, p):
    return [[u[i] * pow(alpha[i], j, p) % p for j in range(k)] for i in range(len(alpha))]


def dual_mult(alpha, u, p):
    n = len(alpha)
    v = []
    for j in range(n):
        prod = 1
        for i in range(n):
            if i != j:
                prod = prod * (alpha[j] - alpha[i]) % p
        v.append(inv_mod(u[j], p) * inv_mod(prod, p) % p)
    return v


def csa_entries(alpha, f, p):
    n, l = len(alpha), len(f)
    return [
        [inv_mod(f[j] - alpha[i], p) for j in range(l)]
        + [pow(alpha[i], t, p) for t in range(n - l)]
        for i in range(n)
    ]


def qcsa_entries(alpha, beta, f, p):
    return [
        [beta[i] * x % p for x in row] for i, row in enumerate(csa_entries(alpha, f, p))
    ]


def permutation_entries(image):
    """The permutation matrix whose column j is the basis vector e_{image[j]}.

    ``image`` is 1-based one-line notation, so (A P)[:, j] = A[:, image[j] - 1].
    """
    n = len(image)
    return [[int(image[j] == i + 1) for j in range(n)] for i in range(n)]


def symplectic_entries(n, p):
    """The 2n x 2n symplectic form J: -I in the top-right block, I bottom-left."""
    return [
        [p - 1 if i < n and j == i + n else int(i >= n and j == i - n) for j in range(2 * n)]
        for i in range(2 * n)
    ]


def qcsa_trials(alpha, f, u, m_rows, draws, p):
    """Slow referee for the two-instance trial pipeline, one dict per draw.

    Each draw holds one trial's 2N symbols in draw order: delta(1), nu(1),
    delta(2), nu(2).  Both instances are encoded with the CSA entries,
    server n scales its two answers by u_n and by the dual v_n, and the
    stacked input goes through ``m_rows`` (the channel matrix M_Q under
    test), all as schoolbook products.  The expected output is the paper's
    layout: delta(1), the last floor(N/2) - L symbols of nu(1), delta(2),
    the last ceil(N/2) - L symbols of nu(2).
    """
    n, l = len(alpha), len(f)
    csa = csa_entries(alpha, f, p)
    v = dual_mult(alpha, u, p)
    out = []
    for draw in draws:
        s1, s2 = list(draw[:n]), list(draw[n:])
        a1 = [row[0] for row in matmul(csa, [[x] for x in s1], p)]
        a2 = [row[0] for row in matmul(csa, [[x] for x in s2], p)]
        x = [u[i] * a1[i] % p for i in range(n)] + [v[i] * a2[i] % p for i in range(n)]
        y = [row[0] for row in matmul(m_rows, [[t] for t in x], p)]
        nu1, nu2 = s1[l:], s2[l:]
        tail1 = nu1[len(nu1) - (n // 2 - l):]
        tail2 = nu2[len(nu2) - ((n + 1) // 2 - l):]
        expected = s1[:l] + tail1 + s2[:l] + tail2
        out.append({"delta": (s1[:l], s2[:l]), "nu": (nu1, nu2), "answers": (a1, a2),
                    "y": y, "expected": expected, "passed": y == expected})
    return out


def block_diag_channel(params):
    """M_Q as the selector's rows of Block-Diag(C^{-1} Diag(u)^{-1}, C^{-1} Diag(v)^{-1}).

    Built from the full closed-form C^{-1} (``params.csa_inverse``, checked
    against Gauss-Jordan in test_codes) and this module's dual multipliers.
    """
    from qcsa.matrix import block_diag
    from qcsa.nsumbox import selector_row_indices

    p = params.field.p
    v = dual_mult(list(params.alpha), list(params.beta), p)
    blocks = [params.csa_inverse.scale_columns([inv_mod(x, p) for x in w])
              for w in (params.beta, v)]
    return block_diag(blocks).take_rows([i - 1 for i in selector_row_indices(params.N, params.L)])
