"""Write perfbench/reference.json: high-precision rates for every benchmark input.

Run from the repository root:

    python3 perfbench/reference.py            # about ten minutes on 2 CPUs

Everything here is computed with mpmath from its own power functions and
prior densities; no bfdr code is imported and no program output is read.
For each rate-grid point it stores the joint probabilities A (null and
reject) and At (alternative and accept), the null and alternative prior
masses, the rejection probability B = A + lambda_alt - At and the rates
delta = A/B and eps = At/(1-B). It also stores the first-order closed forms
c1, d1 for the normal mean test under the N(0, 1) prior, and delta_n for
the `nalpha` scan under the scaled Cauchy priors.
"""

from __future__ import annotations

import json
import os
import sys
import time

import mpmath as mp

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import inputs  # noqa: E402

mp.mp.dps = 25
OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


def z_upper(alpha):
    """Upper-alpha point of N(0, 1)."""
    return mp.sqrt(2) * mp.erfinv(1 - 2 * mp.mpf(alpha))


# --- prior densities ---------------------------------------------------------


def prior_density(spec, tau=1):
    """(density, support) of a prior spec, optionally scaled by tau."""
    kind, *params = spec.split(":")
    params = [mp.mpf(p) for p in params]
    if kind == "normal":
        (s,) = params
        s = s * tau
        return (lambda t: mp.npdf(t, 0, s)), (-mp.inf, mp.inf)
    if kind == "cauchy":
        (s,) = params
        s = s * tau
        return (lambda t: s / (mp.pi * (s * s + t * t))), (-mp.inf, mp.inf)
    if kind == "t":
        m, s = params
        s = s * tau
        c = mp.gamma((m + 1) / 2) / (mp.gamma(m / 2) * mp.sqrt(m * mp.pi))
        return (lambda t: c * (1 + (t / s) ** 2 / m) ** (-(m + 1) / 2) / s), (-mp.inf, mp.inf)
    if kind == "gamma-mode1":
        (r,) = params
        rate = r - 1
        c = rate**r / mp.gamma(r)
        return (lambda t: c * t ** (r - 1) * mp.exp(-rate * t)), (mp.mpf(0), mp.inf)
    if kind == "f-mode1":
        r, s = params
        scale = r * (s + 1) / (s * (r - 1))
        c = (r / s) ** r / mp.beta(r, s) / scale

        def g(t):
            x = t / scale
            return c * x ** (r - 1) * (1 + r * x / s) ** (-(r + s))

        return g, (mp.mpf(0), mp.inf)
    raise ValueError(f"unknown prior {spec!r}")


# --- tests: power and the null side -----------------------------------------


def make_test(model, alpha, n):
    """(power, theta0, null_is_below, transition point, transition width).

    ``null_is_below`` says whether the null region lies below theta0 on the
    user parameter scale.
    """
    n = int(n)
    z = z_upper(alpha)
    rn = mp.sqrt(n)
    if model == "normal-mean":
        # sqrt(n)(Xbar - theta) ~ N(0, 1): reject when sqrt(n) Xbar > z.
        return (lambda t: mp.ncdf(rn * t - z)), mp.mpf(0), True, z / rn, 1 / rn
    if model == "exp-rate":
        # n Xbar theta ~ Gamma(n, 1); reject when Xbar > G/n with
        # P(Gamma(n, 1) > G) = alpha. Power falls in theta; null is theta >= 1.
        upper = lambda x: mp.gammainc(n, x, mp.inf, regularized=True)
        guess = n + z * rn + (z * z - 1) / 3
        G = mp.findroot(lambda x: upper(x) - alpha, (guess * 0.8, guess * 1.25 + 5),
                        solver="illinois")
        return (lambda t: upper(t * G)), mp.mpf(1), False, n / G, 1 / rn
    if model in ("normal-median", "cauchy-median"):
        # Reject when the sample median X_(k), k = floor(n/2)+1, exceeds
        # c = z / (2 f(0) sqrt(n)). P(X_(k) > c) = P(Bin(n, F(c - theta)) < k).
        if model == "normal-median":
            f0, F = 1 / mp.sqrt(2 * mp.pi), mp.ncdf
        else:
            f0, F = 1 / mp.pi, (lambda x: mp.mpf(1) / 2 + mp.atan(x) / mp.pi)
        k = n // 2 + 1
        c = z / (2 * f0 * rn)
        binom = [mp.binomial(n, j) for j in range(n + 1)]

        def power(t):
            p = F(c - t)
            q = F(t - c)  # 1 - p, by symmetry, without cancellation
            return mp.fsum(binom[j] * p**j * q ** (n - j) for j in range(k))

        return power, mp.mpf(0), True, c, 1 / rn
    raise ValueError(f"unknown model {model!r}")


def breakpoints(lo, hi, centre, width, theta0):
    """Interior split points so tanh-sinh sees smooth pieces."""
    pts = {theta0, centre}
    for j in (0.5, 1, 2, 4, 8, 16):
        pts.add(centre + j * width)
        pts.add(centre - j * width)
    for e in range(-3, 7):
        pts.add(theta0 + mp.mpf(2) ** e)
        pts.add(theta0 - mp.mpf(2) ** e)
    return sorted(p for p in pts if lo < p < hi)


def joint(model, prior_spec, alpha, n, tau=1):
    """A, At, null mass, alternative mass and the derived rates."""
    g, (lo, hi) = prior_density(prior_spec, tau)
    power, theta0, null_below, centre, width = make_test(model, alpha, n)
    cuts = breakpoints(lo, hi, centre, width, theta0)
    below = [lo] + [p for p in cuts if p < theta0] + [theta0]
    above = [theta0] + [p for p in cuts if p > theta0] + [hi]
    null_pts, alt_pts = (below, above) if null_below else (above, below)
    A = mp.quad(lambda t: power(t) * g(t), null_pts)
    At = mp.quad(lambda t: (1 - power(t)) * g(t), alt_pts)
    null_mass = mp.quad(g, null_pts)
    alt_mass = mp.quad(g, alt_pts)
    B = A + alt_mass - At
    return {
        "A": A, "At": At, "null_mass": null_mass, "lambda_alt": alt_mass,
        "B": B, "delta": A / B, "eps": At / (1 - B),
    }


def closed_forms(alpha):
    """c1, d1 for the normal mean test under N(0, 1): g(0) = 1/sqrt(2 pi).

    z is taken at the level 1 - alpha rounded to a double, as a program
    handed alpha as a double forms it: for tiny alpha that rounding moves z
    by up to 1e-16/phi(z) (about 1e-11 at alpha = 1e-6), which is a property
    of the input, not of the coefficient formula this checks.
    """
    z = mp.sqrt(2) * mp.erfinv(2 * mp.mpf(1.0 - alpha) - 1)
    g0 = 1 / mp.sqrt(2 * mp.pi)
    phi = mp.npdf(z)
    return {"c1": 2 * g0 * (phi - alpha * z), "d1": 2 * g0 * (phi + (1 - alpha) * z)}


def as_floats(d):
    return {k: float(v) for k, v in d.items()}


def main():
    t0 = time.time()
    points = {}
    grid = inputs.grid_points()
    for i, (model, prior, alpha, n) in enumerate(grid):
        points[inputs.point_key(model, prior, alpha, n)] = as_floats(joint(model, prior, alpha, n))
        if i % 66 == 65:
            print(f"{i + 1}/{len(grid)} points, {time.time() - t0:.0f} s", file=sys.stderr)

    forms = {repr(a): as_floats(closed_forms(a))
             for a in inputs.ALPHAS + (inputs.CLI_COEFFS_ALPHA,)}

    # delta_n under cauchy:tau for n = 1, 2, ... up to the first n with
    # delta_n <= alpha (the honesty threshold), for every tau of the scan.
    model, prior, alpha = inputs.NALPHA_CASE
    scans = []
    for tau in inputs.nalpha_taus():
        deltas = []
        for n in range(1, inputs.NALPHA_N_MAX + 1):
            deltas.append(float(joint(model, prior, alpha, n, tau=mp.mpf(tau))["delta"]))
            if deltas[-1] <= alpha:
                break
        scans.append({"tau": tau, "delta": deltas})
    print(f"nalpha scan done, {time.time() - t0:.0f} s", file=sys.stderr)

    table = {
        "generator": "python3 perfbench/reference.py",
        "mpmath": mp.__version__,
        "dps": mp.mp.dps,
        "points": points,
        "closed_forms": forms,
        "nalpha": scans,
    }
    with open(OUT, "w") as fh:
        json.dump(table, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"wrote {OUT} ({len(points)} points) in {time.time() - t0:.0f} s", file=sys.stderr)


if __name__ == "__main__":
    main()
