"""Self-check suites: independent oracles for the numerical kernels.

Each suite checks one code path against a different route to the same
number (coordinate-level geometry, high-resolution grids, Monte Carlo
moments, coupled simulations).  The geometry suites hold a hyperboloid
oracle: a point's frame step (`_tangent_axes(x, k).step`), exp step
(`_exp_step`) and reprojection (`_reproject`).  The exact-increment suite
compares it against the closed-form radial increment, and the
geodesic-step suite against the polar step of the walks that carry
directions (the radial increment and `_turn`), on one point at a time.
They look each kernel up on `geometry` at call time, so a perturbed kernel
shows in them as in the walks.  The CLI `validate` command runs every
suite and reports pass/fail per suite; the test suite reuses them at
larger sizes.

`fault` injects a deliberate error ("flip-phi-sign") into the formula side of
the radial-increment suite, as a negative control that the oracle actually
bites.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from . import geometry, increments, lamperti
from .errors import record
from .simulator import MODE_AMBIENT, WalkConfig, _lockstep_states


@record
class SuiteResult:
    name: str
    passed: bool
    checked: int
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        msg = f"{self.name}: {status} ({self.checked} checks)"
        if self.detail:
            msg += f" -- {self.detail}"
        return msg


def _rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(a), abs(b))


def _polar_point(k: float, R: float, direction: np.ndarray) -> np.ndarray:
    """The point of H_k at radius R in the unit spatial direction
    `direction`: (cosh kR, sinh kR * direction) / k."""
    return np.concatenate([[math.cosh(k * R)], math.sinh(k * R) * direction]) / k


def suite_exact_radial_increment(seed: int = 0, n: int = 10_000,
                                 tol: float = 1e-9,
                                 fault: Optional[str] = None) -> SuiteResult:
    """Radial-increment formula against the coordinate-level oracle.

    Draws random tuples (k in [0.25, 4], R in [0, 20], d_tot in [0, 10],
    phi in [-1, 1]), realises each as an actual point of the hyperboloid,
    from polar form, and a tangent vector of its frame (`_tangent_axes`) at
    a random position, and takes the oracle's step (`_exp_step`, then
    `_reproject`, which reads the new radius off the time coordinate,
    cancellation-free at any radius).
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    worst_tuple = None
    for i in range(n):
        d = int(rng.integers(2, 5))
        k = rng.uniform(0.25, 4.0)
        R = rng.uniform(0.0, 20.0)
        d_tot = rng.uniform(0.0, 10.0)
        phi = rng.uniform(-1.0, 1.0)

        x = _polar_point(k, R, increments._normal_rows(1, d, rng)[0])
        t_mag = d_tot * math.sqrt(max(0.0, 1.0 - phi * phi))
        t = t_mag * increments._normal_rows(1, d - 1, rng)[0]
        v = geometry._tangent_axes(x, k).step(phi * d_tot, t)
        oracle = 0.0
        if d_tot > 0.0:
            y = geometry._exp_step(x, v, d_tot, k)
            R_after, defect = geometry._reproject(y, k)
            if defect > geometry.REPROJECTION_DRIFT_TOL:
                return SuiteResult("exact-radial-increment", False, i + 1,
                                   str(geometry._reprojection_error(defect, i)))
            oracle = float(R_after) - R

        phi_used = -phi if fault == "flip-phi-sign" else phi
        formula = geometry.radial_increment_exact(R, d_tot, phi_used, k)
        err = _rel_err(formula, oracle)
        if err > worst:
            worst = err
            worst_tuple = (k, R, d_tot, phi)
    passed = worst <= tol
    detail = f"worst rel err {worst:.3e}"
    if not passed:
        detail += f" at (k, R, d_tot, phi) = {worst_tuple}"
    return SuiteResult("exact-radial-increment", passed, n, detail)


def suite_sandwich_bounds(n_lengths: int = 200, n_phis: int = 170,
                          slack: float = 1e-12) -> SuiteResult:
    """Sandwich inequality and ratio monotonicity on a dense grid.

    Checks d_rad + Jmin (d_tot^2 - d_rad^2) <= F <= d_rad + Jmax (...) with
    slack >= -1e-12, and that the ratio function is nonincreasing along every
    phi grid line.
    """
    ks = (0.5, 1.0, 2.0)
    lengths = np.geomspace(1e-3, 20.0, n_lengths)
    phis = np.linspace(-0.999, 0.999, n_phis)
    checked = 0
    worst = 0.0
    worst_where = ""
    mono_ok = True
    for k in ks:
        for d_tot in lengths:
            jmin = lamperti.sandwich_coeff_min(k, d_tot)
            jmax = lamperti.sandwich_coeff_max(k, d_tot)
            d_rad = phis * d_tot
            f = geometry.asymptotic_increment_batch(k, d_rad, np.full_like(d_rad, d_tot))
            spread = d_tot * d_tot - d_rad * d_rad
            low_gap = float(np.min(f - (d_rad + jmin * spread)))
            high_gap = float(np.min((d_rad + jmax * spread) - f))
            gap = min(low_gap, high_gap)
            if -gap > worst:
                worst = -gap
                worst_where = f"(k={k}, d_tot={d_tot:.4g})"
            g = (f - phis * d_tot) / (1.0 - phis ** 2)
            if np.any(np.diff(g) > 1e-12 * np.maximum(1.0, np.abs(g[:-1]))):
                mono_ok = False
                worst_where = f"ratio not decreasing at (k={k}, d_tot={d_tot:.4g})"
            checked += phis.size
    passed = worst <= slack and mono_ok
    return SuiteResult("sandwich-bounds", passed, checked,
                       f"worst violation {worst:.3e} {worst_where}")


def suite_geodesic_step(seed: int = 1, n: int = 2000, tol: float = 1e-8) -> SuiteResult:
    """The direction-carrying walk's polar step lands where the exp step
    does, a step's length away: the polar distance from the walk's endpoint
    to the oracle's, and its difference from the step length, stay within
    relative error `tol`.

    Draws x = (R, u) at radius up to 4/k from the origin and a step of
    length up to min(20, 8/k) in a uniform direction of x's frame.  The
    walk's step is the radial increment and the turn of u by the step's
    transverse part in u's Householder frame (`_turn`); the oracle takes
    `_tangent_axes(x, k).step`, `_exp_step`, then `_reproject`, whose drift
    check a step off the hyperboloid fails.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    for i in range(n):
        d = int(rng.integers(2, 5))
        k = rng.uniform(0.25, 4.0)
        u = increments._normal_rows(1, d, rng)[0]     # drawn before the radius
        R = rng.uniform(0.0, 4.0 / k)
        step = rng.uniform(0.0, min(20.0, 8.0 / k))
        w = step * increments._normal_rows(1, d, rng)[0]
        d_rad, t = w[0], w[1:]
        d_tot = math.sqrt(d_rad * d_rad + float(t @ t))
        x = _polar_point(k, R, u)
        y = geometry._exp_step(x, geometry._tangent_axes(x, k).step(d_rad, t), d_tot, k)
        R_y, defect = geometry._reproject(y, k)
        if defect > geometry.REPROJECTION_DRIFT_TOL:
            return SuiteResult("geodesic-step", False, i + 1,
                               str(geometry._reprojection_error(defect, i)))
        opp = geometry.one_plus_phi(d_rad, float(t @ t), d_tot)
        R_w = max(R + geometry.radial_increment_exact(R, d_tot, d_rad / d_tot, k), 0.0)
        n_w = geometry._turn(u, t, R, d_rad, d_tot, k, opp)
        n_y = y[1:] / max(float(geometry._safe_norm(y[1:])), 1e-300)
        apart = float(geometry._distance(R_w, n_w, R_y, n_y, k)) / max(1.0, d_tot)
        worst = max(worst, apart, _rel_err(float(geometry._distance(R, u, R_w, n_w, k)), d_tot))
    return SuiteResult("geodesic-step", worst <= tol, n, f"worst rel err {worst:.3e}")


def suite_mode_coupling(seed: int = 2, steps: int = 100) -> SuiteResult:
    """The lockstep that carries directions, as `neighborhood_return_probe`
    runs it, against the bare lockstep every ensemble runs, on the same
    draws, 4 walks each of an elliptic law on H^2 and in flat space and of
    the heavy-tail law (m = 4) on H^2, whose bare lockstep takes its
    straight steps in closed form and the carrying one through the kernel:
    their radii must agree bit for bit at every step.  Each step's radii
    are kept as the lockstep held them, uncopied, so a turn that wrote into
    the radii it read would show."""
    walks = 4
    ellipse = increments.EllipticLaw(increments.RadialProfile.constant(0.7),
                                     increments.RadialProfile.constant(0.7), 2)
    h2 = geometry.CurvatureModel.hyperbolic(1.0, 2)
    runs = ((h2, ellipse), (geometry.CurvatureModel.euclidean(2), ellipse),
            (h2, increments.HeavyTailLaw(4.0, 2)))
    worst, differ = 0.0, 0
    for model, law in runs:
        cfg = WalkConfig(model, law, steps, walks, seed, mode=MODE_AMBIENT)
        carried = [w.R for _, w in _lockstep_states(cfg, range(walks), directions=True)]
        bare = [w.R for _, w in _lockstep_states(cfg, range(walks))]
        for a, b in zip(carried, bare):
            differ += a.tobytes() != b.tobytes()
            worst = max(worst, float(np.max(np.abs(a - b) / np.maximum(1.0, np.abs(b)))))
    return SuiteResult("mode-coupling", differ == 0, len(runs) * steps * walks,
                       f"{differ} steps not bit-equal, worst rel err {worst:.3e}")


def suite_moment_identities(seed: int = 3, n: int = 200_000) -> SuiteResult:
    """Monte Carlo second moments of the shell and box laws against the
    closed forms, and the inward-biased radial mean against -N."""
    rng = np.random.default_rng(seed)
    checks = []     # (law, the known_moments entries checked, SE multiple)
    for a, b, d in ((2.0, 1.0, 3), (1.0, 0.5, 2)):
        for cls in (increments.EllipticLaw, increments.BoxLaw):
            checks.append((cls(increments.RadialProfile.constant(a),
                               increments.RadialProfile.constant(b), d), (0, 1), 3.0))
    checks.append((increments.InwardBiasedLaw(1.5, 3), (2,), 4.0))
    failures = []
    for law, entries, z in checks:
        d_rad, _, t_sq, _ = lamperti._draw(law, 1.0, n, rng)
        draws = (d_rad ** 2 + t_sq, d_rad ** 2, d_rad)
        known = law.known_moments(1.0)
        for i in entries:
            se = float(draws[i].std(ddof=1)) / math.sqrt(n)
            if abs(float(draws[i].mean()) - known[i]) > z * se:
                failures.append(f"{law.kind} {increments.MOMENT_NAMES[i]} off by > {z:g} SE")
    return SuiteResult("moment-identities", not failures, n,
                       "; ".join(failures) if failures else "all within tolerance")


def run_suites(seed: int = 0, fault: Optional[str] = None) -> list:
    """Run every suite; `fault` is forwarded to the radial-increment suite."""
    return [
        suite_exact_radial_increment(seed=seed, fault=fault),
        suite_sandwich_bounds(),
        suite_geodesic_step(seed=seed + 1),
        suite_mode_coupling(seed=seed + 2),
        suite_moment_identities(seed=seed + 3),
    ]
