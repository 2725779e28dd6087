"""Reference functions the tests check the package against, one copy each."""

import functools
import math
from fractions import Fraction

import numpy as np

# The smallest length scale whose l^2 is a normal float, the largest
# whose eps^2 = 1 / (2 l^2) is (checked against the mpmath value in
# tests/test_mercer.py), and length scales past it that every
# length-scale argument refuses.
ELL_MIN = 1.4916681462400413e-154
ELL_MAX = 4.740375954054588e153
TOO_LARGE = (math.nextafter(ELL_MAX, math.inf), 1e200, 10**200, 1.7e308)


def gaussian_pdf(x: float) -> float:
    return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def double_factorial(j: int) -> int:
    out = 1
    for k in range(j - 1, 0, -2):
        out *= k
    return out


def exact_hermite(n: int, x: Fraction) -> Fraction:
    """Exact probabilists' Hermite value via the integer recurrence.

    Computed entirely in rational arithmetic, so this is an oracle with
    no rounding of its own: H_{k+1} = x H_k - k H_{k-1}.
    """
    prev, cur = Fraction(1), x
    if n == 0:
        return prev
    for k in range(1, n):
        prev, cur = cur, x * cur - k * prev
    return cur


def kernel_matrix(nodes, ell: float) -> np.ndarray:
    """The Gaussian kernel matrix [exp(-(x_i - x_j)^2 / (2 l^2))] for finite 2 l^2."""
    x = np.asarray(nodes, dtype=float)
    d = x[:, None] - x[None, :]
    return np.exp(-(d * d) / (2.0 * ell**2))


def kernel_weights_mp(nodes, ell: float, dps: int) -> np.ndarray:
    """Full-kernel quadrature weights at the float nodes, K w = k_mu solved in dps digits.

    Nodes that mirror to the bit (x reversed is -x) make K centrosymmetric
    and k_mu even, so the weights mirror too: the solve then runs on the
    first ceil(N/2) unknowns, each column j < N // 2 plus its mirror N - 1 - j.
    """
    import mpmath

    x = [float(v) for v in nodes]
    n = len(x)
    folded = x[::-1] == [-v for v in x]
    half = range((n + 1) // 2 if folded else n)
    with mpmath.workdps(dps):
        x = [mpmath.mpf(v) for v in x]
        ell = mpmath.mpf(ell)

        def k(i, j):
            return mpmath.exp(-((x[i] - x[j]) ** 2) / (2 * ell**2))

        kmat = mpmath.matrix([[k(i, j) + (k(i, n - 1 - j) if folded and 2 * j != n - 1 else 0)
                               for j in half] for i in half])
        s = 1 + ell**2
        kvec = mpmath.matrix([ell / mpmath.sqrt(s) * mpmath.exp(-x[i] * x[i] / (2 * s))
                              for i in half])
        w = [float(v) for v in mpmath.lu_solve(kmat, kvec)]
    return np.array(w + w[: n // 2][::-1] if folded else w)


def closed_form_weights_mp(ell: float, n: int) -> list:
    """approx_rule's closed form at its float nodes, in 60 digits.

    w_i = sqrt(tau) v_i exp(delta^2 x_i^2) sum_m lam^m r_m hhat_2m(t_i), with
    the float Gauss-Hermite nodes t_i and weights v_i of gh_rule(n), the
    float scaled nodes x_i and convergence_constants_mp's tau, delta^2 and
    lam.  The nodes mirror to the bit, so the first ceil(n/2) weights are
    computed and mirrored.
    """
    import mpmath

    from gkquad import basis_from, gh_rule, scaled_nodes

    consts = convergence_constants_mp(ell)
    rule, nodes = gh_rule(n), scaled_nodes(basis_from(ell), n)
    half = []
    with mpmath.workdps(60):
        lam, lead = consts["lam"], mpmath.sqrt(consts["tau"])
        for v, x, terms in zip(rule.weights, nodes, _even_series_terms_mp(n)):
            series = mpmath.polyval(terms[::-1], lam)
            half.append(lead * v * mpmath.exp(consts["delta_sq"] * mpmath.mpf(x) ** 2) * series)
    return half + half[: n // 2][::-1]


@functools.cache
def _even_series_terms_mp(n: int) -> list:
    """r_m hhat_2m(t_i) for m <= (n - 1) / 2 at the first ceil(n/2) nodes of gh_rule(n), in 60
    digits: hhat by its three-term recurrence, r_m = r_{m-1} sqrt((2m - 1) / 2m)."""
    import mpmath

    from gkquad import gh_rule

    rows = []
    with mpmath.workdps(60):
        root = [mpmath.sqrt(k) for k in range(n + 1)]
        ratios = [mpmath.mpf(1)]
        for m in range(1, (n - 1) // 2 + 1):
            ratios.append(ratios[-1] * root[2 * m - 1] / root[2 * m])
        for t in gh_rule(n).nodes[: (n + 1) // 2]:
            t = mpmath.mpf(t)
            prev, cur, even = mpmath.mpf(1), t, [mpmath.mpf(1)]  # hhat_0, hhat_1
            for k in range(1, 2 * len(ratios) - 2):
                prev, cur = cur, (t * cur - root[k] * prev) / root[k + 1]
                if k % 2:
                    even.append(cur)
            rows.append([r * h for r, h in zip(ratios, even)])
    return rows


def ulps(value: float, ref) -> float:
    """|value - ref| in units in the last place of the float nearest ref."""
    return float(abs(value - ref) / math.ulp(float(ref)))


def convergence_constants_mp(ell: float, dims=()) -> dict:
    """The Mercer and bound constants at the float length scale, as mpmath numbers.

    The defining formulas, with a = 1/sqrt(2) exact: the float
    gkquad.ALPHA_DEFAULT is 6.8e-17 (relative) away from it, and the
    package uses it only in beta.  Returns epsilon, beta, delta_sq,
    lam = eps^2 / (a^2 + delta^2 + eps^2), u = 1 / beta^2, tau = sqrt(a^2
    / (a^2 + delta^2 + eps^2)), eta = sqrt(lam) exp(u), rate = -ln(eta),
    c1, c2 = sqrt(tau) / (1 - sqrt(lam)), gap = 1 - eta and big_c[d] =
    2 d (C1 sqrt(tau) / gap)^d for each d in dims.  beta^2 - 1 cancels
    about 2 log10 l digits as l -> inf, and 1 - sqrt(lam) and -ln(eta)
    about 3 |log10 l| as l -> 0, so all are computed in 50 digits more
    than that.
    """
    import mpmath

    with mpmath.workdps(50 + 3 * math.ceil(abs(math.log10(ell)))):
        a2 = mpmath.mpf(1) / 2
        eps_sq = 1 / (2 * mpmath.mpf(ell) ** 2)
        beta = (1 + 4 * eps_sq / a2) ** mpmath.mpf(0.25)
        delta_sq = a2 / 2 * (beta**2 - 1)
        denom = a2 + delta_sq + eps_sq
        tau = mpmath.sqrt(a2 / denom)
        lam = eps_sq / denom
        eta = mpmath.sqrt(lam) * mpmath.exp(1 / beta**2)
        c1 = mpmath.mpf(1.087) * mpmath.sqrt(beta)
        out = dict(epsilon=mpmath.sqrt(eps_sq), beta=beta, delta_sq=delta_sq, lam=lam,
                   u=1 / beta**2, tau=tau, eta=eta, rate=-mpmath.log(eta), c1=c1,
                   c2=mpmath.sqrt(tau) / (1 - mpmath.sqrt(lam)), gap=1 - eta)
        out["big_c"] = {d: 2 * d * (c1 * mpmath.sqrt(tau) / (1 - eta)) ** d for d in dims}
    return out
