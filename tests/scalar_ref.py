"""Scalar references the tests hold the package's array paths against:
the kernel by line quadrature at two steps, a character's value from a
unit's exponent vector, and the group transform by exact-angle DFTs."""

import math
from functools import lru_cache
from itertools import product

import numpy as np

from dirmoment import kernel
from dirmoment.chargroup import build_group, root_of_unity
from dirmoment.kernel import KernelConfig


def w_quad(a, x, cfg=KernelConfig()):
    """W_a(x) for 0 < x < cfg.x_zero by the trapezoid quadrature on the
    line cfg.c at steps cfg.h and cfg.h / 2, which must agree within
    cfg.eps; the value at cfg.h / 2."""
    lx = np.array([math.log(x)])
    T = kernel._auto_T(a, cfg.c, float(lx[0]), cfg.eps)
    coarse, fine = (float(kernel._quad_points(
        [kernel._nodes(a, cfg.c, h, T)], lx, cfg.c, h)[0, 0])
        for h in (cfg.h, cfg.h / 2))
    assert abs(fine - coarse) <= cfg.eps, (a, x, coarse, fine)
    return fine


@lru_cache(maxsize=None)
def unit_exponents(q):
    """{u: t} over the units mod q, each unit rebuilt from its exponent
    vector t as the product of pow(gen, t_j, q) over the group's axes."""
    G = build_group(q)
    return {math.prod(pow(c.gen, t, q) for c, t in zip(G.components, ts)) % q:
            ts for ts in product(*(range(d) for d in G.orders))}


def angle_ref(G, chi, n):
    """The numerator of chi(n) = e(num / G.exponent), the sum over the
    axes of e t N / d mod N with t the exponents of n; None off units."""
    t = unit_exponents(G.q).get(n % G.q)
    if t is None:
        return None
    N = G.exponent
    return sum(e * ti * (N // d)
               for e, ti, d in zip(chi.exponents, t, G.orders)) % N


def char_ref(G, chi, n):
    """chi(n) as a complex number: 0 off units, else root_of_unity at
    angle_ref."""
    num = angle_ref(G, chi, n)
    return 0j if num is None else root_of_unity(num, G.exponent)


def exact_transform(G, f):
    """spectra.group_transform's oracle for one label-order table: per label
    axis of order d, one DFT matrix roots[(e t) mod d] with
    roots[k] = e(k / d), so every angle comes from an exactly reduced
    integer; applied axis by axis over the label grid with tensordot."""
    out = f.reshape(G.orders or (1,)).astype(np.complex128)
    for axis, d in enumerate(out.shape):
        k = np.arange(d)
        roots = np.exp(2j * math.pi * (k / d))
        out = np.moveaxis(np.tensordot(roots[np.outer(k, k) % d], out,
                                       axes=(1, axis)), 0, axis)
    return out.ravel()
