"""Gauss quadrature over the step laws' own parameters.

A built-in law describes its steps at radius r as line bundles (the
`*_lines` functions below, behind each law's `quadrature_lines`): each line
runs a parameter s over [lo, hi], and maps s to a step (d_rad, |t|^2, d_tot),
a stable log(1 + phi) and the law's density in s.  `batches` puts Gauss
nodes on the lines and yields weighted steps, over which an expectation is
a sum of dot products.  A line may be cut where given functions of the step
change sign, so that an integrand with a jump or a kink there is integrated
piece by piece, each piece converging at the rate of a smooth one; the cuts
of every line at every radius of a grid are found in one root solve
(`sign_changes`).  `integrate` takes every expectation on the grid with n
and 2n nodes and returns the finer value with |Q_n - Q_2n| plus a rounding
floor as its error estimate, each radius's sums those it takes alone.

It builds on geometry.py, which holds the kernels it integrates: the
steps' stable log(1 + phi) and log(1 - phi) (`log_one_plus_phi`) and the
asymptotic increment's log form (`log_form_increment`).

Nodes and weights come from the Golub-Welsch eigenvalue method (Golub and
Welsch 1969, Math. Comp. 23, 221-230), built on first use and cached.  The
module itself is imported by the code that integrates, on first use, so
that commands which never integrate do not load it.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import InvariantViolationError, record
from .geometry import _LOG2, log_form_increment, log_one_plus_phi

MAX_ITERATIONS = 200    # root-finding steps per sign change, to a bracket below _TOL
_TOL = 16.0 * sys.float_info.epsilon
# a half-width's floor for rounding, relative to the sum of |weight * integrand|
_ROUNDING = 64.0 * sys.float_info.epsilon
_PROBE = 64         # evenly spaced probes per line, plus geometric ones at both ends
_PROBE_ENDS = 30
_BATCH = 1 << 18    # atoms evaluated at once


@lru_cache(maxsize=None)
def gauss_jacobi(n: int, beta: float = 0.0):
    """Nodes in (-1, 1), ascending, and weights of the n-point Gauss rule for
    the weight (1 + x)^beta, beta > -1; beta = 0 is Gauss-Legendre.

    The nodes are the eigenvalues of the Jacobi matrix of the rule's
    orthonormal polynomials (alpha = 0), from numpy's eigvalsh.  Each
    weight is 1 / sum_j p_j(x)^2 over those polynomials, run by their
    recurrence at the node, which keeps the smallest weights within 1e-13
    relative of mpmath where squared eigenvector components lose more.
    """
    j = np.arange(1, n, dtype=float)
    s = 2.0 * j + beta
    diag = np.empty(n)
    diag[0] = beta / (beta + 2.0)
    diag[1:] = beta * beta / (s * (s + 2.0))
    off = 2.0 * j * (j + beta) / (s * np.sqrt((s + 1.0) * (s - 1.0)))
    x = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    p_prev, p = np.zeros(n), np.full(n, math.sqrt((beta + 1.0) / 2.0 ** (beta + 1.0)))
    total = p * p
    for i in range(n - 1):
        p_prev, p = p, ((x - diag[i]) * p - (off[i - 1] * p_prev if i else 0.0)) / off[i]
        total += p * p
    w = 1.0 / total
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


@record
class Atoms(tuple):
    """Weighted steps: E[g(step)] is approximately weight @ g(atoms).  A
    line's `steps` returns them with the law's density in the line
    parameter as weight."""

    __slots__ = ()
    d_rad: np.ndarray
    t_sq: np.ndarray
    d_tot: np.ndarray
    log_opp: np.ndarray
    weight: np.ndarray


@record
class Line(tuple):
    """A bundle of `size` lines over the parameter interval [lo, hi].

    `steps(s)` takes parameters of shape (size, m), row i on line i, and
    returns Atoms of that shape, weighted by the law's density in s.  When
    beta is not 0 the density carries a factor (s - lo)^beta, which the
    first piece of each line integrates by Gauss-Jacobi nodes; the other
    pieces are smooth and take Gauss-Legendre.
    `span` is the diameter of the set of steps a line runs through: the
    asymptotic increment at curvature k is analytic within about 1/k of the
    real steps, so a line is cut into pieces that each span at most 2/k.
    `grade` more cuts fall at lo + (hi - lo) 2^-j and hi - (hi - lo) 2^-j,
    j = 1..grade, for a line whose integrand varies on ever finer scales
    toward its ends (see `_grading`).
    """

    __slots__ = ()
    lo: float
    hi: float
    steps: Callable
    size: int = 1
    beta: float = 0.0
    span: float = 0.0
    grade: int = 0


def batches(line: Line, n: int, edges: np.ndarray):
    """The Gauss atoms of a bundle cut at `edges` (see _edges), n nodes per
    piece, in batches of a few hundred thousand atoms at most (one piece of
    every line of the bundle, if that is more)."""
    step = max(1, _BATCH // (line.size * n))
    for j in range(0, edges.shape[1] - 1, step):
        yield _line_atoms(line, n, edges[:, j:j + step + 1], first=j == 0)


def _line_atoms(line: Line, n: int, edges: np.ndarray, first: bool) -> Atoms:
    """The atoms of the pieces between consecutive columns of edges; with
    `first`, the first column is the lines' lo."""
    x, w = gauss_jacobi(n)
    a, b = edges[:, :-1, None], edges[:, 1:, None]          # (size, pieces, 1)
    half = 0.5 * (b - a)
    s = a + half * (x + 1.0)
    weight = half * w
    if line.beta != 0.0 and first:
        xj, wj = gauss_jacobi(n, line.beta)
        first = half[:, 0]
        s[:, 0] = a[:, 0] + first * (xj + 1.0)
        weight[:, 0] = first ** (line.beta + 1.0) * wj / (s[:, 0] - line.lo) ** line.beta
    st = line.steps(s.reshape(line.size, -1))
    return Atoms(*(np.ravel(v) for v in st[:4]),
                 np.ravel(weight.reshape(line.size, -1) * st.weight))


def _distinct(x: np.ndarray) -> np.ndarray:
    """np.unique(x) of a 1-D array without NaNs, bit for bit (numpy sorts
    and keeps each element unequal to the one before it), without the
    numpy.ma import that np.unique makes on first use."""
    x = np.sort(x)
    keep = np.empty(x.size, dtype=bool)
    keep[:1] = True
    keep[1:] = x[1:] != x[:-1]
    return x[keep]


def _probes(lo: float, hi: float) -> np.ndarray:
    ends = 2.0 ** -np.arange(1.0, _PROBE_ENDS + 1.0)
    u = _distinct(np.concatenate([(np.arange(_PROBE) + 0.5) / _PROBE, ends, 1.0 - ends]))
    return lo + (hi - lo) * u


def _edges(lines, k: float, cut=None, radii=None) -> list:
    """Each bundle's (size, pieces + 1) ascending cut points, lo first and hi
    last; a line with fewer cuts than the most cut one of its bundle repeats
    hi, which gives pieces of length 0.  Given `cut`, also wherever an array
    of cut(steps, r) changes sign, r the column of each row's radius (one
    per bundle in radii): the lines of all bundles are the rows of one
    sign_changes call, which probes them bundle by bundle."""
    bounds = []
    for line in lines:
        pieces = max(1, math.ceil(0.5 * k * line.span))
        graded = (line.hi - line.lo) * 2.0 ** -np.arange(1.0, line.grade + 1.0)
        cuts = np.concatenate([np.linspace(line.lo, line.hi, pieces + 1),
                               line.lo + graded, line.hi - graded])
        bounds.append(np.repeat(_distinct(cuts)[None], line.size, axis=0))
    if cut is None:
        return bounds
    sizes = [line.size for line in lines]
    start = np.cumsum([0] + sizes)
    radius = np.repeat(np.asarray(radii, dtype=float), sizes)[:, None]

    def g(s, rows):             # rows: one bundle or all of them
        i, j = np.searchsorted(start, (rows.start, rows.stop))
        parts = np.split(s, start[i + 1:j] - rows.start)
        steps = [line.steps(x) for line, x in zip(lines[i:j], parts)]
        return cut(steps[0] if len(steps) == 1 else Atoms(*map(np.concatenate, zip(*steps))),
                   radius[rows])

    probes = np.concatenate([np.repeat(_probes(line.lo, line.hi)[None], line.size, axis=0)
                             for line in lines])
    roots = sign_changes(g, probes, np.repeat([line.hi for line in lines], sizes),
                         [slice(lo, hi) for lo, hi in zip(start, start[1:])])
    out = []
    for line, bound, lo, hi in zip(lines, bounds, start, start[1:]):
        # cut back to the bundle's most cut row: every switch lies below the
        # last probe, so only the padding reads hi
        own = roots[lo:hi]
        own = own[:, :int((own < line.hi).sum(axis=1).max(initial=0))]
        out.append(np.sort(np.concatenate([bound, own], axis=1), axis=1))
    return out


def sign_changes(g: Callable, probes: np.ndarray, pad, blocks) -> np.ndarray:
    """Every point where one of the functions g >= 0 switches along a row of
    `probes`, found in the bracket between the two probes around it by
    Chandrupatla's method (Chandrupatla 1997, Adv. Eng. Software 28,
    145-149).  The first step interpolates linearly between the probes'
    values; every later one inverse-quadratically through the bracket's
    ends and the point last dropped from it, and bisects where that step is
    not finite, leaves the bracket or is not safe by Chandrupatla's test.
    Each bracket closes within its own row's scale, to a midpoint no wider
    than _TOL times the row's largest probe magnitude, so rows of different
    scales solve together as alone; InvariantViolationError if a bracket is
    still wider after MAX_ITERATIONS steps.

    `g(s, rows)` maps parameters s of the rows `rows` (a slice) to a
    sequence of arrays of s's shape, one per function; the probes go to it
    in the row slices `blocks`, and every later step all rows at once.
    Returns an array (rows, most switches in a row), its free places filled
    with `pad`, one value or one per row.
    """
    brackets = []               # (row, function, lo, hi, g at lo, g at hi)
    for block in blocks:
        part = probes[block]
        for i, value in enumerate(g(part, block)):
            value = np.asarray(value)
            up = value >= 0.0
            row, col = np.nonzero(up[:, 1:] != up[:, :-1])
            brackets.append((row + block.start, np.full(row.size, i), part[row, col],
                             part[row, col + 1], value[row, col], value[row, col + 1]))
    row, which, a, b, fa, fb = map(np.concatenate, zip(*brackets))
    rows = probes.shape[0]
    if row.size == 0:
        return np.empty((rows, 0))
    # every bracket as one element of a (rows, width) array, row by row
    order = np.argsort(row, kind="stable")
    row, which, a, b, fa, fb = (x[order] for x in (row, which, a, b, fa, fb))
    count = np.bincount(row, minlength=rows)
    slot = np.arange(row.size) - np.repeat(np.cumsum(count) - count, count)
    grid = np.full((rows, int(count.max())), np.reshape(pad, (-1, 1)), dtype=float)
    tol = _TOL * np.abs(probes).max(axis=1)[row]
    # a is the last point, b the bracket's other end and c the end dropped
    # last; t places the next point at a + t (b - a)
    c, fc = b.copy(), fb.copy()
    with np.errstate(all="ignore"):
        t = fa / (fa - fb)
    live = np.arange(row.size)
    for _ in range(MAX_ITERATIONS):
        live = live[np.abs(b[live] - a[live]) > tol[live]]   # the others are frozen
        if live.size == 0:
            break
        al, bl, fal, fbl = a[live], b[live], fa[live], fb[live]
        step = t[live]
        # half the tolerance at least from either end, so the bracket closes
        # on the step after the interpolation has found the switch (min and
        # max, as np.clip's first call maps about 0.1 MB more of numpy)
        edge = 0.5 * tol[live] / np.abs(bl - al)
        step = np.where((step >= 0.0) & (step <= 1.0), step, 0.5)
        step = np.minimum(np.maximum(step, edge), 1.0 - edge)
        x = al + step * (bl - al)
        at = row[live], slot[live]
        grid[at] = x
        fx = np.stack([np.asarray(v)[at] for v in g(grid, slice(0, rows))])[which[live],
                                                                            np.arange(live.size)]
        kept = (fx >= 0.0) == (fal >= 0.0)          # the switch lies between x and b
        cl, fcl = np.where(kept, al, bl), np.where(kept, fal, fbl)
        bl, fbl = np.where(kept, bl, al), np.where(kept, fbl, fal)
        c[live], fc[live], b[live], fb[live], a[live], fa[live] = cl, fcl, bl, fbl, x, fx
        with np.errstate(all="ignore"):
            xi = (x - bl) / (cl - bl)
            phi = (fx - fbl) / (fcl - fbl)
            iqi = (fx / (fbl - fx) * fcl / (fbl - fcl)
                   + (cl - x) / (bl - x) * fx / (fcl - fx) * fbl / (fcl - fbl))
        t[live] = np.where((phi * phi < xi) & ((1.0 - phi) ** 2 < 1.0 - xi), iqi, 0.5)
    wide = np.flatnonzero(np.abs(b - a) > tol)
    if wide.size:
        i = wide[0]
        lo, hi = sorted((float(a[i]), float(b[i])))
        raise InvariantViolationError(
            f"function {which[i]} of row {row[i]} still changes sign on [{lo!r}, {hi!r}], "
            f"wider than {float(tol[i])!r}, after {MAX_ITERATIONS} steps")
    grid[row, slot] = 0.5 * (a + b)
    return grid


# ---------------------------------------------------------------------------
# The built-in laws' lines at one radius
# ---------------------------------------------------------------------------

def elliptic_lines(a: float, b: float, d: int, k: float):
    """The elliptic shell with semi-axes a (radial) and b: one line over the
    polar angle theta of the unit vector, u[0] = cos(theta), with density
    sin(theta)^(d-2) normalised on [0, pi], graded toward both poles for
    curvature k (see `_grading`)."""
    norm = math.exp(0.5 * math.log(math.pi) + math.lgamma((d - 1) / 2.0) - math.lgamma(d / 2.0))

    def steps(theta):
        sin = np.sin(theta)
        d_rad = a * np.cos(theta)
        t_sq = (b * sin) ** 2
        d_tot = np.sqrt(d_rad * d_rad + t_sq)
        return Atoms(d_rad, t_sq, d_tot, log_one_plus_phi(d_rad, t_sq, d_tot),
                     sin ** (d - 2) / norm)

    grade = _grading(k, a, math.pi * b)
    return (Line(0.0, math.pi, steps, span=2.0 * max(a, b), grade=grade),)


def box_lines(a: float, b: float, n: int, k: float):
    """The box in d = 2 with half-sides a (radial) and b: one line over h[0]
    in [-1, 1] per node of the transverse rule, graded toward h = 0 for
    curvature k (see `_grading`)."""
    h_sq, w = _transverse_nodes(n, _grading(k, a, b))
    t_sq = (b * b * h_sq)[:, None]
    density = 0.5 * w[:, None]

    def steps(h0):
        d_rad = a * h0
        t = np.broadcast_to(t_sq, d_rad.shape)
        d_tot = np.sqrt(d_rad * d_rad + t)
        return Atoms(d_rad, t, d_tot, log_one_plus_phi(d_rad, t, d_tot),
                     np.broadcast_to(density, d_rad.shape))

    return (Line(-1.0, 1.0, steps, size=h_sq.size, span=2.0 * a),)


@lru_cache(maxsize=None)
def _transverse_nodes(n: int, grade: int = 0):
    """(h^2, weight): the n-point Gauss rule for h uniform on [-1, 1], for
    integrands that depend on h only through h^2.

    It is the n/2-point Gauss-Jacobi rule in u = h^2 on [0, 1], weight
    u^(-1/2), which is the n-point Gauss-Legendre rule on functions of h^2.
    With `grade` it is instead the n/2-point Gauss-Legendre rule in |h| on
    each of [0, 2^-grade], ..., [1/4, 1/2], [1/2, 1].
    """
    if grade:
        x, w = gauss_jacobi(n // 2)
        edges = np.concatenate([[0.0], 2.0 ** -np.arange(grade, -1.0, -1.0)])
        half = 0.5 * np.diff(edges)[:, None]
        h_sq = ((edges[:-1, None] + half * (x + 1.0)) ** 2).ravel()
        w = (half * w).ravel()
    else:
        x, w = gauss_jacobi(n // 2, -0.5)
        h_sq, w = 0.5 * (x + 1.0), math.sqrt(2.0) / 4.0 * w
    h_sq.flags.writeable = False
    w.flags.writeable = False
    return h_sq, w


def _grading(k: float, a: float, b: float) -> int:
    """How many times to halve toward t = 0 the transverse range [0, b] of
    steps whose radial part reaches a, at curvature k.

    Near straight inward steps (1 + phi ~ t^2 / (4 d^2)) the increment
    switches from -d to its tangential value where 1 + phi ~ e^(-2kd),
    that is at t ~ 2d e^(-kd), which for k d >> 1 is far below the
    transverse range: an analytic near-singularity that a Gauss rule over
    all of [0, b] resolves only with about b/t nodes.  Geometric pieces
    down to a quarter of the smallest such t (at d = a) resolve it with a
    fixed number of nodes each; past 50 halvings a piece is below double
    precision's resolution of the range.
    """
    if k * a <= 1.0 or b <= 0.0:
        return 0
    halvings = math.log2(b / (2.0 * a)) + k * a / math.log(2.0)     # log2(b / t)
    return min(50, math.ceil(halvings) + 2) if halvings > 2.0 else 0


def heavytail_lines(m: float, lam: float):
    """The Pareto law with activation length lam: the outward and inward
    branches below lam, over u = log y, and above it, over s = 1/y in
    (0, 1/lam] with the Gauss-Jacobi factor s^(m-4).  log(1 + phi) on the
    inward tail is log 2 - y - log1p(e^-y), which holds where e^-y
    underflows."""
    def below(sign):
        def steps(u):
            y = np.exp(u)
            return Atoms(sign * y, np.zeros(y.shape), y,
                         np.full(y.shape, _LOG2 if sign > 0 else -np.inf),
                         0.5 * (m - 1.0) * np.exp((1.0 - m) * u))
        return Line(0.0, math.log(lam), steps)

    def above(outward):
        def steps(s):
            y = 1.0 / s
            q = np.exp(-y)
            mass = (m - 1.0) * s ** (m - 2.0)
            if outward:
                return Atoms(y, np.zeros(y.shape), y, np.full(y.shape, _LOG2),
                             mass * 0.5 * -np.expm1(-y))
            offset = 2.0 * q / (1.0 + q)
            return Atoms((offset - 1.0) * y, y * y * offset * (2.0 - offset), y,
                         _LOG2 - y - np.log1p(q), mass * 0.5 * (1.0 + q))
        return Line(0.0, 1.0 / lam, steps, beta=m - 4.0)

    lines = (above(True), above(False))
    return lines if lam == 1.0 else (below(1.0), below(-1.0)) + lines


def inward_lines(N: float):
    """The inward-biased law: the two atoms d_rad = -2N and 0, each a
    constant line of mass 1/2."""
    d_rad = np.array([[-2.0 * N], [0.0]])

    def steps(s):
        dr = np.broadcast_to(d_rad, s.shape)
        t_sq = 16.0 * N * N - dr * dr
        d_tot = np.full(s.shape, 4.0 * N)
        return Atoms(dr, t_sq, d_tot, log_one_plus_phi(dr, t_sq, d_tot), np.full(s.shape, 0.5))

    return (Line(0.0, 1.0, steps, size=2),)


# ---------------------------------------------------------------------------
# The asymptotic increment at the atoms, and the integrals
# ---------------------------------------------------------------------------

def increment_integrands(k: float, steps, paired: bool):
    """The integrands (x1, x2) of nu1 and nu2 at each step: f and f^2, f
    from geometry.log_form_increment with the step's own log(1 + phi).  A
    paired law (symmetric under v -> -v) takes f's even part

        (f(phi) + f(-phi))/2 = log(1 + (1 - phi^2) sinh(D)^2) / (2k)

    in x1, D = k d_tot.  Its expectation is nu1, and nothing in it cancels,
    however small nu1 is against |f|."""
    log_omp = log_one_plus_phi(-steps.d_rad, steps.t_sq, steps.d_tot)
    D = k * steps.d_tot
    f = log_form_increment(k, D, steps.log_opp, log_omp)
    if not paired:
        return f, f * f
    with np.errstate(divide="ignore"):          # log 0 = -inf at D = 0
        log_sinh = D - _LOG2 + np.log(-np.expm1(-2.0 * D))
    return np.logaddexp(0.0, 2.0 * log_sinh + steps.log_opp + log_omp) / (2.0 * k), f * f


def integrate(law, radii, integrands, k: float, n: int, cut=None) -> list:
    """At each radius r of radii, (value, half-width) of E[x] for each array
    x of integrands(atoms, r), whose curvature is at most k.

    The law's lines take n and then 2n Gauss nodes per piece (see batches);
    given `cut`, those of every radius and both rules are cut in one root
    solve (see _edges).  The value is the finer sum Q_2n; the half-width is
    |Q_n - Q_2n| plus a rounding floor, an error estimate and not a
    confidence interval.
    """
    bundles = [(i, m, line) for m in (n, 2 * n) for i, r in enumerate(radii)
               for line in law.quadrature_lines(r, m, k)]
    edges = _edges([line for *_, line in bundles], k, cut, [radii[i] for i, _, _ in bundles])
    sums = {}
    for (i, m, line), cuts in zip(bundles, edges):
        for a in batches(line, m, cuts):
            sums[i, m] = sums.get((i, m), 0.0) + np.array(
                [(a.weight @ x, np.abs(a.weight) @ np.abs(x)) for x in integrands(a, radii[i])])
    out = []
    for i in range(len(radii)):
        (coarse, _), (fine, scale) = (np.transpose(sums[i, m]) for m in (n, 2 * n))
        out.append([(float(f), float(abs(c - f) + _ROUNDING * s))
                    for c, f, s in zip(coarse, fine, scale)])
    return out
