"""Reference computations that the tests hold the engine to, written apart
from the engine's own code paths."""

import math
from bisect import bisect_right


def _kahan_prefixes(xs):
    """The Kahan-compensated sum of every prefix of ``xs``, the empty one first."""
    s = c = 0.0
    out = [s]
    for x in xs:
        y = x - c
        t = s + y
        c = (t - s) - y
        s = t
        out.append(s)
    return out


def nagao_reference(exact, grid):
    """(S1, S2, n_primes) at each cutoff of ``grid`` from the exact (p, A_p)
    pairs, ascending in p: Kahan-compensated sums of -A_p log p and of -A_p
    over p <= cutoff, with each -A_p rounded once from its rational."""
    primes = [p for p, _ in exact]
    w = _kahan_prefixes(-float(a) * math.log(p) for p, a in exact)
    u = _kahan_prefixes(-float(a) for _, a in exact)
    out = []
    for cut in grid:
        k = bisect_right(primes, cut)
        out.append((w[k] / cut, u[k] / k if k else 0.0, k))
    return out


def genus1_trace_mod_p(f, p):
    """a_p of y^2 = f(x) for a cubic or quartic f, from the coefficient of
    x^(p-1) in f^((p-1)/2) mod p, as the symmetric residue in (-p/2, p/2).

    Sum_x f(x)^k over F_p, k = (p-1)/2, is minus the sum of the coefficients
    of x^(p-1) and x^(2(p-1)) in f^k.  For a cubic, f^k has no x^(2(p-1))
    term; for a quartic that term is lead^k = chi_p(lead), which cancels the
    point-at-infinity term, so in both a_p = c_(p-1) mod p.  With
    |a_p| <= 2 sqrt(p) < p/2 for p > 16 the residue fixes a_p.

    h = f^k satisfies f h' = k f' h; comparing coefficients of x^n gives
    (n+1) f_0 h_(n+1) = sum_(i>=1) (k i - (n+1-i)) f_i h_(n+1-i), with
    h_0 = f_0^k: O(p deg f) integer steps mod p.  Needs f(0) != 0 mod p.
    """
    fs = [c % p for c in f.coeffs]
    assert f.degree in (3, 4) and fs[0] != 0 and p > 16, (f, p)
    k = (p - 1) // 2
    inv_f0 = pow(fs[0], -1, p)
    h = [pow(fs[0], k, p)]
    terms = list(enumerate(fs))[1:]
    for m in range(1, p):  # m = n + 1
        s = 0
        for i, fi in terms:
            if i > m:
                break
            s += (k * i - (m - i)) * fi * h[m - i]
        h.append(s * pow(m, -1, p) % p * inv_f0 % p)
    c = h[p - 1]
    return c - p if c > p // 2 else c
