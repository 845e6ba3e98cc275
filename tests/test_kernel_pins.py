"""Byte pins for the Monte Carlo kernels and the estimators built on them.

`asymptotic_increment_batch` picks a branch per element (d_tot = 0,
phi = +-1, the log of its argument or its expansion past k d_tot = 30);
`radial_increment_exact_batch` takes one log form everywhere and selects
only its edges (d_tot = 0, phi = +-1).  The estimators pair each symmetric
draw with its mirror in one stacked call.  A rewrite of either kernel must
leave every output byte where it was, or state which moved and why: the
golden runs compare floats within GOLDEN_TAU only, so these pins are what
catches a 1-ulp move.

The digests and hex values were taken on the platform named by PINNED_ON.
numpy's transcendentals are not correctly rounded and their results depend
on the numpy build and the CPU code it dispatches to, so elsewhere the pins
are skipped; the checks that need no pinned value (stacked rows against
separate calls, kernels against their scalar forms) run everywhere.
"""

import hashlib
import platform
import warnings

import numpy as np
import pytest

import hyperwalk as hw
from hyperwalk.geometry import radial_increment_exact_batch
from hyperwalk.lamperti import (
    MonteCarloVarianceWarning,
    _pinched_moments,
    asymptotic_increment_batch,
)


def _platform():
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:
        return (np.__version__, platform.machine(), None)
    return (np.__version__, platform.machine(),
            tuple(t for t in __cpu_dispatch__ if __cpu_features__.get(t)))


PINNED_ON = ("2.4.6", "x86_64", ("X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR"))
pinned = pytest.mark.skipif(_platform() != PINNED_ON,
                            reason=f"bytes pinned on numpy/CPU dispatch {PINNED_ON}")

KS = (0.3, 1.0, 1.5)
RS = (0.0, 0.7, 5.0, 19.5, 21.0, 33.0, 60.0, 250.0, 1e3, 1e4)
SEG = 30


def branch_grid():
    """(R, k, d_tot, phi) arrays that reach every branch of both kernels.

    Each array pairs three step-length families (short steps, lengths from
    1e-8 to 1e3, and k d_tot in 30.5..45, just past the asymptotic
    increment's threshold of 30) with three direction families (uniform,
    and within 3e-16..0.1 of -1 and of +1), all nine combinations.  Per
    (k, R) there are four arrays: as drawn; the short and the long family
    alone, which have no special row and lie on one side of the threshold,
    so that one branch covers the batch; and the first with every 7th row
    at d_tot = 0 and rows at phi = +-1.  Short steps near the origin and
    directions near -1 are where the exact increment's S^2 - Q^2 cancels
    unless it is formed as a product.
    """
    rng = np.random.default_rng(20261018)
    for k in KS:
        for R in RS:
            lengths = (rng.uniform(1e-9, 3.0, SEG), 10.0 ** rng.uniform(-8.0, 3.0, SEG),
                       rng.uniform(30.5, 45.0, SEG) / k)
            near = 10.0 ** rng.uniform(-15.5, -1.0, (2, SEG))
            directions = (rng.uniform(-1.0, 1.0, SEG), -1.0 + near[0], 1.0 - near[1])
            d_tot = np.concatenate([t for t in lengths for _ in directions])
            phi = np.concatenate([p for _ in lengths for p in directions])
            yield R, k, d_tot, phi
            yield R, k, d_tot[:3 * SEG], phi[:3 * SEG]
            yield R, k, d_tot[6 * SEG:], phi[6 * SEG:]
            d_tot, phi = d_tot.copy(), phi.copy()
            d_tot[::7] = 0.0
            phi[1::7] = 1.0
            phi[2::7] = -1.0
            yield R, k, d_tot, phi


def _digest(arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


class TestKernelPins:
    @pinned
    def test_radial_increment_bytes(self):
        got = [radial_increment_exact_batch(R, d_tot, phi, k)
               for R, k, d_tot, phi in branch_grid()]
        assert _digest(got) == (
            "89af1dc66ea203482656f10264d0ad822b8ddc16ec38ca25595ae4d73126065a")

    @pinned
    def test_asymptotic_increment_bytes(self):
        got = [asymptotic_increment_batch(k, phi * d_tot, d_tot)
               for _, k, d_tot, phi in branch_grid()]
        assert _digest(got) == (
            "c369d85ed7ab35d493b95779b563fd28d3feef0e4a381f86b3630c58afa101d5")

    def test_mirror_row_equals_a_separate_call(self):
        # sign flips are exact, so the stacked [phi, -phi] call must give the
        # two separate calls bit for bit, on every branch
        for R, k, d_tot, phi in branch_grid():
            both = radial_increment_exact_batch(R, d_tot, np.stack([phi, -phi]), k)
            assert both.shape == (2,) + d_tot.shape
            for row, p in zip(both, (phi, -phi)):
                assert row.tobytes() == radial_increment_exact_batch(R, d_tot, p, k).tobytes()
            d_rad = phi * d_tot
            both = asymptotic_increment_batch(k, np.stack([d_rad, -d_rad]), d_tot)
            for row, d in zip(both, (d_rad, -d_rad)):
                assert row.tobytes() == asymptotic_increment_batch(k, d, d_tot).tobytes()

    def test_zero_d_inputs(self):
        for R, k, d_tot, phi in branch_grid():
            got = radial_increment_exact_batch(R, d_tot, phi, k)
            for i in range(0, d_tot.size, 11):
                one = radial_increment_exact_batch(R, d_tot[i], phi[i], k)
                assert np.shape(one) == () and float(one) == got[i]
            got = asymptotic_increment_batch(k, phi * d_tot, d_tot)
            for i in range(0, d_tot.size, 11):
                assert hw.asymptotic_increment(k, phi[i] * d_tot[i], d_tot[i]) == got[i]


def _hex(estimates):
    return [(e.value.hex(), e.half_width.hex()) for e in estimates]


LAWS = {
    "box": hw.BoxLaw(hw.RadialProfile.constant(1.0), hw.RadialProfile.constant(1.0), 3),
    "elliptic": hw.EllipticLaw(hw.RadialProfile.constant(1.0),
                               hw.RadialProfile.constant(1.0), 2),
    "heavytail": hw.HeavyTailLaw(4.0, 2),
    "inwardbiased": hw.InwardBiasedLaw(5.0, 2),
}

# The heavy-tail and inward-biased pins were taken again when those laws
# came to draw rows of normals (the Pareto length and the branch coin each
# from a pair of normals, the inward coin from the sign of one); their old
# and new values, beside the quadrature values, are in CHANGES.md.
MOMENT_PINS = {
    "box": [
        ("0x1.aecb131527319p-1", "0x1.0414a0226f541p-7"),
        ("0x1.515e34cb6fb84p+0", "0x1.de72c65d135ddp-7"),
        ("0x1.0ec7ba749f027p+0", "0x1.201ce6e693e0bp-7"),
        ("0x1.9907caa29c2ebp+0", "0x1.257a98a8b32dbp-6"),
    ],
    "elliptic": [
        ("0x1.da2be6f9808c1p-2", "0x1.3dad187030a1bp-8"),
        ("0x1.09dda75bc444ap+0", "0x1.16ab7154a0b97p-7"),
        ("0x1.47d05e0d7ab35p-1", "0x1.70d93bf64649dp-8"),
        ("0x1.156ff13d33144p+0", "0x1.862e40596da8fp-8"),
    ],
    "heavytail": [
        ("0x1.3361a76ec8d86p-3", "0x1.b7f174d0cb8f3p-6"),
        ("0x1.19121e360c81cp+1", "0x1.4d42d84e89c7cp-4"),
        ("0x1.d789263affcb6p-5", "0x1.dd0284d264c26p-6"),
        ("0x1.47766c9ba3129p+1", "0x1.4e5fbbfdf5193p-4"),
    ],
    "inwardbiased": [
        ("0x1.2f5e03751637bp+4", "0x1.9db3df83e4e91p-8"),
        ("0x1.679e6e73332a6p+8", "0x1.ea3ead8bed42dp-3"),
        ("0x1.34e4b480c49d6p+4", "0x1.13cc92f848435p-8"),
        ("0x1.74c4c923dbfa3p+8", "0x1.4ccd01edc2b1ap-3"),
    ],
}

PINCHED_PINS = {
    "box": [
        ("0x1.aa715a4ea1f5fp-1", "0x1.0252d8e54a24fp-7"),
        ("0x1.0d8e3ed667376p+0", "0x1.201c5ac73cfa5p-7"),
        ("0x1.47449f8159905p+0", "0x1.d3d9ea77c7db9p-7"),
        ("0x1.9efc30d292733p+0", "0x1.22021877c145ap-6"),
        ("0x1.ac8224cafe677p-1", "0x1.039416178382fp-7"),
        ("0x1.0eba6acea3ad1p+0", "0x1.21e16b9983baap-7"),
        ("0x1.49ccabff245aap+0", "0x1.d805f90a8ca7ep-7"),
        ("0x1.a1ef43aca771ep+0", "0x1.247df117b61f2p-6"),
    ],
    "heavytail": [
        ("0x1.5584721879c28p-3", "0x1.c8388d4b54ce2p-6"),
        ("0x1.ca74ab600c04dp-3", "0x1.cd5ed81ab18f5p-6"),
        ("0x1.2eb6961534a6ap+1", "0x1.363de68cc631ep-3"),
        ("0x1.385c0c7cec616p+1", "0x1.36f25c0c4aa1ep-3"),
        ("0x1.48097c1e8b810p-5", "0x1.e51f8710d632bp-6"),
        ("0x1.ca46cbf4ea4a2p-5", "0x1.e89ec47368cbdp-6"),
        ("0x1.52769ea21d0dfp+1", "0x1.8a6476ae209f6p-3"),
        ("0x1.578d8ecb426fap+1", "0x1.8c562d782f5a8p-3"),
    ],
}


@pinned
class TestEstimatorPins:
    """(value, half_width) bytes of the estimators, as float.hex strings."""

    @pytest.mark.parametrize("kind", sorted(MOMENT_PINS))
    def test_increment_moment_estimate(self, kind):
        rng = np.random.default_rng(91)
        got = []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", MonteCarloVarianceWarning)
            for k, r in ((1.0, 10.0), (1.5, 60.0)):
                got += _hex(hw.increment_moment_estimate(LAWS[kind], k, r, 20_000, rng))
        assert got == MOMENT_PINS[kind]

    @pytest.mark.parametrize("kind", sorted(PINCHED_PINS))
    def test_pinched_moments(self, kind):
        rng = np.random.default_rng(92)
        got = []
        for r in (10.0, 60.0):
            got += _hex(_pinched_moments(LAWS[kind], r, 1.0, 1.5, 20_000, rng))
        assert got == PINCHED_PINS[kind]
