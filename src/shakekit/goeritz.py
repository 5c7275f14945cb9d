"""Goeritz forms from band presentations and the two-twist transform.

A spanning surface presented as a disk with bands yields the symmetric
form G with G[i][i] = W(X_i) + T(X_i) (self-writhe plus half twists)
and G[i][j] the signed crossing count between bands.  The knot
signature is GoeritzData.sigma = sign_G - eta (Gordon-Litherland), where
sign_G = sign(G), cached, and eta sums G over pairs of non-orientable
bands; no other code subtracts eta.  add_two_twists applies the move that
inserts two generic twists along a marked strand: the new form is
congruent to G + [+1] and eta becomes 1, so sigma does not move.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import cached_property

from ._record import Record
from .errors import strict_bool, strict_int, strict_matrix
from .exactlinalg import inertia_symmetric_exact


class Band(Record):
    orientable: bool
    half_twists: int = 0
    self_writhe: int = 0

    def _validate(self):
        strict_bool(self.orientable, '"orientable"')
        strict_int(self.half_twists, '"half_twists"')
        if strict_int(self.self_writhe, '"self_writhe"') % 2:
            raise ValueError("self_writhe counts each self-crossing twice, so it is even")
        if self.orientable and self.half_twists % 2:
            raise ValueError("a band with an odd number of half twists cannot be orientable")


class BandPresentation(Record):
    bands: tuple[Band, ...]
    crossings: tuple[tuple[int, ...], ...]

    def __init__(self, bands: Sequence[Band], crossings: Sequence[Sequence[int]] | None = None):
        bands = tuple(bands)
        n = len(bands)
        if crossings is None:
            crossings = [[0] * n for _ in range(n)]
        rows = strict_matrix(crossings, "crossings", symmetric=True)
        if len(rows) != n:
            raise ValueError(f"crossings must be {n}x{n}")
        if any(rows[i][i] for i in range(n)):
            raise ValueError("crossings diagonal must be zero; self-crossings live in self_writhe")
        self._assign(bands, rows)


class GoeritzData(Record):
    G: tuple[tuple[int, ...], ...]
    nonorientable: frozenset[int]

    def __init__(self, G: Sequence[Sequence[int]], nonorientable: Sequence[int] = ()):
        rows = strict_matrix(G, "G", symmetric=True)
        marked = frozenset(strict_int(i, "non-orientable index") for i in nonorientable)
        bad = sorted(i for i in marked if not 0 <= i < len(rows))
        if bad:
            raise ValueError(f"non-orientable indices out of range: {bad}")
        self._assign(rows, marked)

    @property
    def eta(self) -> int:
        return sum(self.G[i][j] for i in self.nonorientable for j in self.nonorientable)

    @cached_property
    def sign_G(self) -> int:
        return inertia_symmetric_exact(self.G).signature

    @property
    def sigma(self) -> int:
        return self.sign_G - self.eta

    def to_json(self) -> dict:
        return {"G": [list(row) for row in self.G], "nonorientable": sorted(self.nonorientable)}


def goeritz_form(bp: BandPresentation) -> GoeritzData:
    """G[i][i] = W(X_i) + T(X_i), off-diagonal = signed crossing counts."""
    G = [list(row) for row in bp.crossings]
    for i, band in enumerate(bp.bands):
        G[i][i] = band.self_writhe + band.half_twists
    nonorientable = [i for i, band in enumerate(bp.bands) if not band.orientable]
    return GoeritzData(G, nonorientable)


def classical_signature_goeritz(bp: BandPresentation) -> int:
    """sigma(K) = sign(G) - eta."""
    return goeritz_form(bp).sigma


def torus_band_presentation(n: int) -> BandPresentation:
    """The one-band presentation of the (2, 2n+1) torus knot: G = [2n+1]."""
    if strict_int(n, "torus knot index n") < 0:
        raise ValueError("need n >= 0")
    return BandPresentation([Band(orientable=False, half_twists=2 * n + 1)])


def add_two_twists(gd: GoeritzData, l: Sequence[int]) -> GoeritzData:
    """Insert two generic twists along a marked strand of linking number one.

    Each band passes the disk of the twist region l[i] times
    algebraically, which bumps G[i][j] by 4*l[i]*l[j] and borders the
    matrix with the row 2*l[i] and corner +1.  The border band is the
    sole non-orientable one, so eta = 1 afterwards.
    """
    if gd.nonorientable:
        raise ValueError("two-twist insertion is defined for all-orientable surfaces")
    n = len(gd.G)
    l = [strict_int(x, "through-disk count") for x in l]
    if len(l) != n:
        raise ValueError(f"l must assign a through-disk count to each of the {n} bands")
    G2 = [[gd.G[i][j] + 4 * l[i] * l[j] for j in range(n)] + [2 * l[i]] for i in range(n)]
    G2.append([2 * li for li in l] + [1])
    return GoeritzData(G2, [n])

