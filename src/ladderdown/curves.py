"""Potential-energy and dipole-moment curves for a 1-D diatomic.

Built-in analytic models (Morse well, peaked dipole ramp) plus an importer
for tabulated two-column curve files. All curve objects are immutable and
expose a vectorized ``value(r)`` in atomic units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.interpolate import CubicSpline

from .constants import MU_K39RB87


class CurveError(Exception):
    """Base class for curve construction / evaluation failures."""


class CurveParseError(CurveError):
    """A tabulated-curve file contains a token that is not a finite number."""

    def __init__(self, path, line_no: int, token: str):
        self.line_no = line_no
        super().__init__(f"{path}:{line_no}: cannot parse {token!r} as a finite number")


class CurveFormatError(CurveError):
    """Sample abscissas are not strictly increasing."""


class InsufficientDataError(CurveError):
    """Fewer rows than the interpolation needs."""


class ExtrapolationError(CurveError):
    """Query point outside the tabulated range; extrapolation is refused."""


@dataclass(frozen=True)
class MorsePotential:
    """Morse well V(r) = de*(1 - exp(-a*(r - re)))**2 - de.

    The zero of energy sits at the dissociation limit, so the minimum is
    exactly -de at r = re. All parameters in atomic units (hartree, bohr).
    """

    de: float
    re: float
    a: float

    def __post_init__(self):
        if self.de <= 0 or self.re <= 0 or self.a <= 0:
            raise ValueError(f"Morse parameters must be positive, got {self}")

    def value(self, r):
        x = 1.0 - np.exp(-self.a * (np.asarray(r, dtype=float) - self.re))
        return self.de * x * x - self.de


@dataclass(frozen=True)
class ExpRampDipole:
    """Permanent-dipole model D(r) = d0*(r/rd)*exp(-(r/rd)**p).

    Vanishes at r = 0 and decays to zero at large r (neutral-atom limit),
    with a single interior maximum at r = rd * p**(-1/p).
    """

    d0: float
    rd: float
    p: float = 4.0

    def __post_init__(self):
        if self.rd <= 0 or self.p <= 0:
            raise ValueError(f"dipole scale parameters must be positive, got {self}")

    def value(self, r):
        x = np.asarray(r, dtype=float) / self.rd
        return self.d0 * x * np.exp(-np.abs(x) ** self.p)


@dataclass(frozen=True)
class TabulatedCurve:
    """Cubic-spline interpolant through sorted (r, value) samples.

    Node values are reproduced exactly; queries outside [r[0], r[-1]] raise
    ExtrapolationError rather than extrapolating, since a silently invented
    tail would corrupt the absorbing-region physics downstream.
    """

    r: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.r, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if r.ndim != 1 or v.shape != r.shape:
            raise CurveFormatError("need matching 1-D abscissa/value arrays")
        if len(r) < 4:
            raise InsufficientDataError(
                f"need at least 4 samples for cubic interpolation, got {len(r)}"
            )
        if not np.all(np.diff(r) > 0):
            raise CurveFormatError("sample abscissas must be strictly increasing")
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "values", v)
        # not-a-knot ends: reproduces polynomials through cubic order exactly
        object.__setattr__(self, "_spline", CubicSpline(r, v, bc_type="not-a-knot"))

    def value(self, r):
        r = np.asarray(r, dtype=float)
        lo, hi = self.r[0], self.r[-1]
        if np.any(r < lo) or np.any(r > hi):
            bad = r[(r < lo) | (r > hi)] if r.ndim else r
            raise ExtrapolationError(
                f"query at r={np.min(bad):g} outside tabulated range [{lo:g}, {hi:g}]"
            )
        out = np.asarray(self._spline(r))
        # bit-exact node reproduction, immune to spline round-off at the knots
        idx = np.clip(np.searchsorted(self.r, r), 0, len(self.r) - 1)
        out = np.where(self.r[idx] == r, self.values[idx], out)
        return out[()] if out.ndim == 0 else out


def load_tabulated(path) -> TabulatedCurve:
    """Read a two-column (r, value) text file into a TabulatedCurve.

    Potentials and dipoles share this format. Columns may be separated by
    whitespace or commas; text after '#' is a comment. Values are taken
    verbatim in atomic units.
    """
    path = Path(path)
    rs: list[float] = []
    vs: list[float] = []
    with open(path, encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            tokens = line.replace(",", " ").split()
            if len(tokens) != 2:
                raise CurveParseError(path, line_no, raw.strip())
            row = []
            for tok in tokens:
                try:
                    row.append(float(tok))
                except ValueError:
                    raise CurveParseError(path, line_no, tok) from None
                if not math.isfinite(row[-1]):  # the spline needs finite samples
                    raise CurveParseError(path, line_no, tok)
            rs.append(row[0])
            vs.append(row[1])
    if len(rs) < 4:
        raise InsufficientDataError(f"{path}: need at least 4 data rows, got {len(rs)}")
    r = np.array(rs)
    if not np.all(np.diff(r) > 0):
        raise CurveFormatError(f"{path}: r column must be strictly increasing")
    return TabulatedCurve(r=r, values=np.array(vs))


# --- default model curves -------------------------------------------------
#
# The production target is a KRb-like shallow triplet well. The true curves
# live in external reference data; this stand-in is a Morse well calibrated
# so the default grid supports exactly 30 bound levels, paired with a smooth
# peaked dipole whose maximum sits near the well minimum.

KRB_WELL_DEPTH = 1.1e-3  # hartree, ~241 cm^-1
KRB_EQ_DISTANCE = 11.0  # bohr
# Morse level count is floor(lambda - 1/2) + 1 with lambda = sqrt(2*mu*de)/a;
# lambda = 30.2 puts the count at 30 with margin from both count boundaries.
_KRB_LAMBDA = 30.2


def krb_standin_potential(mu: float = MU_K39RB87) -> MorsePotential:
    """Morse stand-in for the KRb triplet well, holding 30 bound levels."""
    a = math.sqrt(2.0 * mu * KRB_WELL_DEPTH) / _KRB_LAMBDA
    return MorsePotential(de=KRB_WELL_DEPTH, re=KRB_EQ_DISTANCE, a=a)


def krb_standin_dipole() -> ExpRampDipole:
    """Companion dipole stand-in.

    Peaks at r = rd/sqrt(2) ~ 19.8 bohr, past the well minimum, which keeps
    adjacent-level couplings dominant across the ladder while opening a
    coupling hole where the dipole derivative changes sign.
    """
    return ExpRampDipole(d0=0.5, rd=28.0, p=2.0)
