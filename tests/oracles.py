"""Reference computations that the tests hold the engine to, written apart
from the engine's own code paths."""

import math
from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate

from nagaolab.finite_field import _numpy, legendre, residue_table


def nagao_reference(exact, grid):
    """(S1, S2, n_primes) at each cutoff of ``grid`` from the exact (p, A_p)
    pairs, ascending in p, over the k primes p <= cutoff: S1 is ``math.fsum``
    of the double terms -float(A_p) log p divided by the cutoff, and S2 the
    exact ``Fraction`` mean of the -A_p rounded once."""
    primes = [p for p, _ in exact]
    terms = [-float(a) * math.log(p) for p, a in exact]
    sums = list(accumulate((-a for _, a in exact), initial=Fraction(0)))
    out = []
    for cut in grid:
        k = bisect_right(primes, cut)
        out.append((math.fsum(terms[:k]) / cut, float(sums[k] / k) if k else 0.0, k))
    return out


def _power_coeffs(fs, k, p, n):
    """[h_0, ..., h_n] of h = f^k mod p, for f given by its coefficients fs
    mod p, constant first, with fs[0] != 0 and n < p.

    h satisfies f h' = k f' h; comparing coefficients of x^(m-1) gives
    m f_0 h_m = sum_(i>=1) (k i - (m-i)) f_i h_(m-i), with h_0 = f_0^k:
    O(n deg f) integer steps mod p, each dividing by an m < p.
    """
    inv_f0 = pow(fs[0], -1, p)
    h = [pow(fs[0], k, p)]
    terms = list(enumerate(fs))[1:]
    for m in range(1, n + 1):
        s = 0
        for i, fi in terms:
            if i > m:
                break
            s += (k * i - (m - i)) * fi * h[m - i]
        h.append(s * pow(m, -1, p) % p * inv_f0 % p)
    return h


def _symmetric_residue(c, p):
    c %= p
    return c - p if c > p // 2 else c


def genus1_trace_mod_p(f, p):
    """a_p of y^2 = f(x) for a cubic or quartic f, from the coefficient of
    x^(p-1) in f^((p-1)/2) mod p, as the symmetric residue in (-p/2, p/2).

    Sum_x f(x)^k over F_p, k = (p-1)/2, is minus the sum of the coefficients
    of x^(p-1) and x^(2(p-1)) in f^k.  For a cubic, f^k has no x^(2(p-1))
    term; for a quartic that term is lead^k = chi_p(lead), which cancels the
    point-at-infinity term, so in both a_p = c_(p-1) mod p.  With
    |a_p| <= 2 sqrt(p) < p/2 for p > 16 the residue fixes a_p.  The
    coefficient comes from ``_power_coeffs``.  Needs f(0) != 0 mod p.
    """
    fs = [c % p for c in f.coeffs]
    assert f.degree in (3, 4) and fs[0] != 0 and p > 16, (f, p)
    return _symmetric_residue(_power_coeffs(fs, (p - 1) // 2, p, p - 1)[p - 1], p)


def genus2_trace_mod_p(f, p):
    """a_p of y^2 = f(x) for a quintic or sextic f, as the symmetric residue
    of c_(p-1) + c_(2p-2) mod p, where c_j is the coefficient of x^j in f^k,
    k = (p-1)/2: the trace of the Hasse-Witt matrix.

    Sum_x f(x)^k is minus c_(p-1) + c_(2p-2) + c_(3p-3).  A quintic's f^k
    has degree below 3p-3; a sextic's c_(3p-3) is lead^k = chi_p(lead),
    which cancels the point-at-infinity term.  With |a_p| <= 4 sqrt(p) < p/2
    for p > 64 the residue fixes a_p.

    c_(p-1) comes from ``_power_coeffs`` run from the bottom of f^k.
    c_(2p-2) is the coefficient of x^(dk - 2(p-1)) in r^k, where
    r(x) = x^d f(1/x) and d = deg f: the same recurrence run from the top,
    to the index (d - 4)(p - 1)/2 < p, so no step divides by p.  Needs
    f(0) != 0 mod p.
    """
    fs = [c % p for c in f.coeffs]
    d, k = f.degree, (p - 1) // 2
    assert d in (5, 6) and fs[0] != 0 and p > 64, (f, p)
    bottom = _power_coeffs(fs, k, p, p - 1)[p - 1]
    top = _power_coeffs(fs[::-1], k, p, d * k - 2 * (p - 1))[-1]
    return _symmetric_residue(bottom + top, p)


def count_fp2_direct(f, p):
    """#C(F_{p^2}) for the smooth model of y^2 = f, with F_{p^2} = F_p[u]/(u^2 - n).

    The direct count over F_{p^2} that ``curves._count_fp2`` replaced, kept
    as its reference: it reads the residue table, not the chi-sum kernel.
    """
    np = _numpy()
    chi = residue_table(p).chi
    n = next(a for a in range(2, p) if legendre(a, p) == -1)
    # z = z0 + z1 u is a nonzero square in F_{p^2}  iff  chi_p(Norm z) = 1,
    # Norm(z) = z0^2 - n z1^2.
    total = 0
    x1 = np.arange(p, dtype=np.int64)
    for x0 in range(p):
        v0 = np.zeros(p, dtype=np.int64)
        v1 = np.zeros(p, dtype=np.int64)
        for c in reversed(f.coeffs):
            v0, v1 = (v0 * x0 + n * v1 * x1 + c) % p, (v0 * x1 + v1 * x0) % p
        norm = (v0 * v0 - n * v1 * v1) % p
        total += p + int(chi[norm].sum(dtype=np.int64))
    if f.degree % 2 == 1:
        total += 1
    else:
        # lead is a square in F_{p^2} iff it is nonzero mod p (norm of lead is lead^2)
        total += 1 + (1 if f.lead % p else 0)
    return total


def ks_distance_loop(angles, measure):
    """Kolmogorov-Smirnov distance between the empirical angle law and a measure.

    For the atom-carrying measure the continuous part is compared after removing
    samples that sit exactly on the atom (theta = pi/2, i.e. a_p = 0), and the
    atom's mass mismatch |fraction at pi/2 - mass| enters as a separate term;
    the reported distance is the max of the two.

    The running-max loop that ``stats.ks_distance`` replaced, kept as its
    reference; only its recursive call is renamed.
    """
    from nagaolab.stats import UNIFORM, STMeasure1D

    if len(angles) == 0:
        raise ValueError("ks_distance requires a nonempty sample")
    if measure.atom_mass > 0.0:
        half_pi = math.pi / 2
        cont = [t for t in angles if t != half_pi]
        atom_dev = abs((len(angles) - len(cont)) / len(angles) - measure.atom_mass)
        if not cont:
            return atom_dev
        # continuous part of the limit law, renormalized, is uniform on [0, pi]
        return max(atom_dev, ks_distance_loop(cont, STMeasure1D(UNIFORM)))
    xs = sorted(angles)
    n = len(xs)
    d = 0.0
    for i, x in enumerate(xs):
        fx = measure.cdf(x)
        d = max(d, abs(i / n - fx), abs((i + 1) / n - fx))
    return d
