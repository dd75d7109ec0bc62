"""The paper's model problems (Sections 6 and 10).

* :class:`CornerLaplace2D` — Laplace's equation on ``Ω = (-1,1)²`` with
  Dirichlet data ``g(x,y) = cos(2π(x−y))·sinh(2π(x+y+2))/sinh(8π)``; the
  exact solution is ``u = g`` (harmonic), smooth but changing rapidly near
  the corner ``(1,1)``.
* :class:`CornerLaplace3D` — the 3-D analog ("a similar problem has been
  defined in three dimensions"): a harmonic product
  ``cos(a·r)·sinh(b·r + c)`` with ``|a| = |b|``, ``a ⊥ b`` chosen so the
  activity concentrates at the corner ``(1,1,1)``.
* :class:`MovingPeakPoisson2D` — Poisson's equation with the moving-peak
  solution ``u(x,y,t) = 1/(1 + 100(x+t)² + 100(y+t)²)``; as ``t`` goes from
  −0.5 to 0.5 the peak travels along the diagonal from ``(0.5, 0.5)`` to
  ``(−0.5, −0.5)``.

Each problem exposes ``exact(points)``, ``source(points)`` (``None`` for
Laplace), and ``dirichlet(points)`` so the solver and the error indicators
can be driven uniformly.

Every problem here is a value: a frozen dataclass whose fields cannot be
assigned (``MovingPeakPoisson2D.at(t)`` is how time moves), and whose
point functions are elementwise, so a point's value depends on nothing
but the point.  :func:`repro.fem.estimate.interpolation_error_indicator`
relies on both to keep a mesh's samples of these functions between calls.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class CornerLaplace2D:
    """Section 6's 2-D test problem; ``Δu = 0``, activity at corner (1,1)."""

    dim = 2
    source = None  # Laplace

    def exact(self, pts) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        x, y = pts[:, 0], pts[:, 1]
        return np.cos(2 * np.pi * (x - y)) * np.sinh(2 * np.pi * (x + y + 2)) / np.sinh(
            8 * np.pi
        )

    def dirichlet(self, pts) -> np.ndarray:
        return self.exact(pts)


@dataclass(frozen=True)
class CornerLaplace3D:
    """3-D analog of the corner problem on ``(-1,1)³``.

    ``u = cos(a·(x−y)) · sinh(β(x+y+z+3)) / sinh(6β)`` with
    ``a = 2π`` and ``β = 2π·√(2/3)`` so that ``|∇_osc|² = |∇_growth|²``
    (harmonicity: the cosine direction ``(1,−1,0)`` is orthogonal to the
    sinh direction ``(1,1,1)`` and ``a²·2 = β²·3``).  The normalization
    ``sinh(6β)`` is the maximum of the sinh factor on the closed cube
    (``x+y+z+3 ∈ [0,6]``), so ``|u| ≤ 1`` with the peak at the corner
    ``(1,1,1)`` — mirroring the 2-D problem's ``sinh(8π)`` normalization.
    """

    dim = 3
    source = None

    _beta = 2.0 * np.pi * np.sqrt(2.0 / 3.0)

    def exact(self, pts) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
        return (
            np.cos(2 * np.pi * (x - y))
            * np.sinh(self._beta * (x + y + z + 3.0))
            / np.sinh(6.0 * self._beta)
        )

    def dirichlet(self, pts) -> np.ndarray:
        return self.exact(pts)


@dataclass(frozen=True)
class MovingPeakPoisson2D:
    """Section 10's transient problem: ``−Δu = f`` with the moving peak
    ``u(x,y,t) = 1/(1 + 100(x+t)² + 100(y+t)²)``.

    ``t`` is read-only; ``at(t)`` returns the problem at another time, so
    each instance quacks like the static ones (``exact``/``source``/
    ``dirichlet``).
    """

    dim = 2

    t: float = -0.5

    def __post_init__(self):
        object.__setattr__(self, "t", float(self.t))

    def at(self, t: float) -> "MovingPeakPoisson2D":
        return MovingPeakPoisson2D(t)

    def exact(self, pts) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        X = pts[:, 0] + self.t
        Y = pts[:, 1] + self.t
        return 1.0 / (1.0 + 100.0 * (X * X + Y * Y))

    def source(self, pts) -> np.ndarray:
        """``f = −Δu = (400 − 40000·r²)/q³`` with ``r² = X²+Y²``,
        ``q = 1 + 100 r²`` (derived in closed form)."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        X = pts[:, 0] + self.t
        Y = pts[:, 1] + self.t
        r2 = X * X + Y * Y
        q = 1.0 + 100.0 * r2
        return (400.0 - 40000.0 * r2) / q**3

    def dirichlet(self, pts) -> np.ndarray:
        return self.exact(pts)

    def peak(self) -> tuple:
        """Location of the unit peak at the current time."""
        return (-self.t, -self.t)
