"""Brute-force oracle of the discrete entropy residual, shared by the tests.

broadcast_entropy_matrix is the (K, J) residual of every sampled kappa and
cell, from the scheme's flux composed with max/min (see
lagflow.diagnostics.entropy_residual); brute_force_entropy takes its
maximum over a dense kappa grid and every kink of the residual.
"""

import numpy as np

from lagflow.schemes import extend3


def broadcast_entropy_matrix(
    rho, rho_next, v_lag, lam, sat, boundary, kappas, scheme="lf", alpha=None
):
    """The (K, J) residuals at the given kappas; v_lag is the J cells of the
    speed field, extended with the boundary's ghost cells."""
    rho = np.asarray(rho, dtype=float)
    rho_next = np.asarray(rho_next, dtype=float)
    kap = np.asarray(kappas, dtype=float)[:, None]
    r = extend3(rho, boundary)
    v = extend3(v_lag, boundary)
    f_r = sat(r)
    f_kap = sat(kap)
    flux_kap = kap * f_kap
    if scheme == "lf":
        d = r - kap
        dist = np.abs(d)
        p = np.subtract(r * f_r, flux_kap)
        p *= np.sign(d, out=d)
        p *= (0.5 * lam) * v
        residual = np.add(dist[:, 2:], dist[:, :-2])
        residual *= -0.5 * lam * alpha
        residual += p[:, 2:]
        residual -= p[:, :-2]
        mid = dist[:, 1:-1]
        mid *= lam * alpha - 1.0
        residual += mid
        gap = (0.5 * lam) * (v[2:] - v[:-2])
    else:
        u, f_w = r[:-1], f_r[1:]
        flux_k = np.maximum(u, kap)
        flux_k *= np.minimum(f_w, f_kap)
        flux_k -= np.minimum(u, kap) * np.maximum(f_w, f_kap)
        flux_k *= lam * v[1:]
        residual = np.subtract(flux_k[:, 1:], flux_k[:, :-1])
        residual -= np.abs(rho - kap)
        gap = lam * (v[2:] - v[1:-1])
    e = rho_next - kap
    sign_e = np.sign(e)
    e += flux_kap * gap
    e *= sign_e
    residual += e
    return residual


def brute_force_entropy(rho, rho_next, v_lag, lam, sat, boundary, scheme="lf", alpha=None):
    """The largest residual over 3001 equispaced kappas, from one data span
    below the least of the data, 0 and R to one span above the greatest,
    and over every kink of the residual (each cell value, each updated
    value, 0 and R) and 1e-13 either side of it."""
    kinks = np.concatenate([extend3(rho, boundary), rho_next, [0.0, sat.rho_max]])
    lo, hi = kinks.min(), kinks.max()
    span = max(hi - lo, 1e-3)
    kappas = np.concatenate(
        [np.linspace(lo - span, hi + span, 3001), kinks - 1e-13, kinks, kinks + 1e-13]
    )
    matrix = broadcast_entropy_matrix(
        rho, rho_next, v_lag, lam, sat, boundary, kappas, scheme, alpha
    )
    return float(np.max(matrix))
