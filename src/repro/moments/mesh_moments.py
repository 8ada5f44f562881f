"""Exact volume moments of closed triangle meshes (Eq. 3.1 of the paper).

The moment ``m_pqr = \\iiint x^p y^q z^r f(x,y,z) dx dy dz`` of the solid
bounded by a closed mesh is computed exactly by decomposing the solid into
signed tetrahedra (origin, a, b, c), one per face, and integrating the
monomial over each tetrahedron with the barycentric formula

    \\int_T \\lambda_1^a \\lambda_2^b \\lambda_3^c dV = 6V a! b! c! / (a+b+c+3)!

This supports arbitrary order, which also powers the "higher order
invariants" extension the paper's architecture diagram mentions.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial
from typing import Dict, Iterable, List, Tuple

import numpy as np

from ..geometry.mesh import TriangleMesh

MomentKey = Tuple[int, int, int]


@lru_cache(maxsize=None)
def _compositions(total: int, parts: int = 3) -> Tuple[Tuple[int, ...], ...]:
    """All ways of writing ``total`` as an ordered sum of ``parts`` >= 0."""
    if parts == 1:
        return ((total,),)
    out: List[Tuple[int, ...]] = []
    for head in range(total + 1):
        for tail in _compositions(total - head, parts - 1):
            out.append((head,) + tail)
    return tuple(out)


@lru_cache(maxsize=None)
def _multinomial(total: int, parts: Tuple[int, ...]) -> int:
    coef = factorial(total)
    for p in parts:
        coef //= factorial(p)
    return coef


def _signed_tet_volumes(tri: np.ndarray) -> np.ndarray:
    cross = np.cross(tri[:, 1], tri[:, 2])
    return np.einsum("ij,ij->i", tri[:, 0], cross) / 6.0


def mesh_moment(mesh: TriangleMesh, p: int, q: int, r: int) -> float:
    """Exact moment m_pqr of the solid enclosed by ``mesh``."""
    return mesh_moments(mesh, [(p, q, r)])[(p, q, r)]


def mesh_moments(
    mesh: TriangleMesh, keys: Iterable[MomentKey]
) -> Dict[MomentKey, float]:
    """Exact moments for several (p, q, r) keys, sharing face-level work."""
    keys = [tuple(int(v) for v in k) for k in keys]
    for key in keys:
        if len(key) != 3 or any(v < 0 for v in key):
            raise ValueError(f"moment key must be 3 non-negative ints, got {key}")

    tri = mesh.triangles  # (m, 3 corners, 3 coords)
    vols = _signed_tet_volumes(tri)
    max_exp = max((max(k) for k in keys), default=0)
    # corner_pows[e] = every face's corner coordinates raised to exponent e.
    corner_pows = np.ones((max_exp + 1, len(tri), 3, 3))
    for e in range(1, max_exp + 1):
        corner_pows[e] = corner_pows[e - 1] * tri

    out: Dict[MomentKey, float] = {}
    for p, q, r in keys:
        order = p + q + r
        denom = factorial(order + 3)
        total = np.zeros(len(tri))
        for alpha in _compositions(p):
            ca = _multinomial(p, alpha)
            xprod = (
                corner_pows[alpha[0], :, 0, 0]
                * corner_pows[alpha[1], :, 1, 0]
                * corner_pows[alpha[2], :, 2, 0]
            )
            for beta in _compositions(q):
                cb = _multinomial(q, beta)
                yprod = (
                    corner_pows[beta[0], :, 0, 1]
                    * corner_pows[beta[1], :, 1, 1]
                    * corner_pows[beta[2], :, 2, 1]
                )
                for gamma in _compositions(r):
                    cg = _multinomial(r, gamma)
                    zprod = (
                        corner_pows[gamma[0], :, 0, 2]
                        * corner_pows[gamma[1], :, 1, 2]
                        * corner_pows[gamma[2], :, 2, 2]
                    )
                    lam = tuple(a + b + g for a, b, g in zip(alpha, beta, gamma))
                    bary = (
                        6.0
                        * factorial(lam[0])
                        * factorial(lam[1])
                        * factorial(lam[2])
                        / denom
                    )
                    total = total + (ca * cb * cg * bary) * xprod * yprod * zprod
        out[(p, q, r)] = float((total * vols).sum())
    return out


def moment_keys_up_to(order: int) -> List[MomentKey]:
    """All (p, q, r) with p+q+r <= order, in lexicographic order."""
    return [
        (p, q, r)
        for p in range(order + 1)
        for q in range(order + 1 - p)
        for r in range(order + 1 - p - q)
    ]


def mesh_moments_up_to(mesh: TriangleMesh, order: int) -> Dict[MomentKey, float]:
    """All exact moments up to the given total order."""
    if order < 0:
        raise ValueError(f"order must be non-negative, got {order}")
    return mesh_moments(mesh, moment_keys_up_to(order))


def central_moments_up_to(mesh: TriangleMesh, order: int) -> Dict[MomentKey, float]:
    """Central moments (about the volume centroid) up to the given order.

    Computed by translating the mesh so the centroid sits at the origin,
    which is exact and avoids shift-formula bookkeeping.
    """
    raw = mesh_moments_up_to(mesh, max(order, 1))
    m000 = raw[(0, 0, 0)]
    if abs(m000) < 1e-15:
        raise ValueError("mesh encloses zero volume; central moments undefined")
    cx = raw[(1, 0, 0)] / m000
    cy = raw[(0, 1, 0)] / m000
    cz = raw[(0, 0, 1)] / m000
    shifted = TriangleMesh(
        mesh.vertices - np.array([cx, cy, cz]), mesh.faces, name=mesh.name
    )
    return mesh_moments_up_to(shifted, order)


def second_moment_matrix(central: Dict[MomentKey, float]) -> np.ndarray:
    """Assemble the symmetric second-order moment matrix of Eq. 3.10."""
    return np.array(
        [
            [central[(2, 0, 0)], central[(1, 1, 0)], central[(1, 0, 1)]],
            [central[(1, 1, 0)], central[(0, 2, 0)], central[(0, 1, 1)]],
            [central[(1, 0, 1)], central[(0, 1, 1)], central[(0, 0, 2)]],
        ]
    )
