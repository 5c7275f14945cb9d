"""Goeritz forms from band presentations and the two-twist transform.

A spanning surface presented as a disk with bands yields the symmetric
form G with G[i][i] = W(X_i) + T(X_i) (self-writhe plus half twists)
and G[i][j] the signed crossing count between bands.  The knot
signature is sign(G) - eta, where the correction term eta sums the G
entries over pairs of non-orientable bands.  add_two_twists applies the
bordered-matrix move that inserts two generic twists along a marked
strand: the new form is congruent to G + [+1] and eta becomes 1, so the
signature of the underlying knot does not move.
"""

from __future__ import annotations

from typing import Sequence

from ._record import Record
from .errors import strict_bool, strict_int, strict_keys
from .exactlinalg import signature


class Band(Record):
    orientable: bool
    half_twists: int = 0
    self_writhe: int = 0

    def _validate(self):
        if self.self_writhe % 2:
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
        rows = tuple(tuple(strict_int(x, "crossing count") for x in row) for row in crossings)
        if len(rows) != n or any(len(row) != n for row in rows):
            raise ValueError(f"crossings must be {n}x{n}")
        for i in range(n):
            if rows[i][i] != 0:
                raise ValueError("crossings diagonal must be zero; self-crossings live in self_writhe")
            for j in range(i + 1, n):
                if rows[i][j] != rows[j][i]:
                    raise ValueError(f"crossings must be symmetric, differs at ({i},{j})")
        self._assign(bands, rows)

    @property
    def band_count(self) -> int:
        return len(self.bands)


class GoeritzData(Record):
    G: tuple[tuple[int, ...], ...]
    nonorientable: frozenset[int]

    def __init__(self, G: Sequence[Sequence[int]], nonorientable: Sequence[int] = ()):
        rows = tuple(tuple(strict_int(x, "Goeritz entry") for x in row) for row in G)
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise ValueError("G must be square")
        for i in range(n):
            for j in range(i + 1, n):
                if rows[i][j] != rows[j][i]:
                    raise ValueError(f"G must be symmetric, differs at ({i},{j})")
        marked = frozenset(strict_int(i, "non-orientable index") for i in nonorientable)
        bad = sorted(i for i in marked if not 0 <= i < n)
        if bad:
            raise ValueError(f"non-orientable indices out of range: {bad}")
        self._assign(rows, marked)

    @property
    def dim(self) -> int:
        return len(self.G)

    @property
    def eta(self) -> int:
        return sum(self.G[i][j] for i in self.nonorientable for j in self.nonorientable)

    def to_json(self) -> dict:
        return {"G": [list(row) for row in self.G], "nonorientable": sorted(self.nonorientable)}


def band_presentation_from_json(doc: object) -> BandPresentation:
    if not isinstance(doc, dict) or not isinstance(doc.get("bands"), list):
        raise ValueError('band JSON must be an object with a "bands" list and "crossings"')
    strict_keys(doc, ("bands", "crossings"), "the band presentation")
    bands = []
    for i, raw in enumerate(doc["bands"]):
        if not isinstance(raw, dict) or "orientable" not in raw:
            raise ValueError('each band needs at least an "orientable" flag')
        strict_keys(raw, ("orientable", "half_twists", "self_writhe"), f"band {i}")
        bands.append(
            Band(
                orientable=strict_bool(raw["orientable"], '"orientable"'),
                half_twists=strict_int(raw.get("half_twists", 0), '"half_twists"'),
                self_writhe=strict_int(raw.get("self_writhe", 0), '"self_writhe"'),
            )
        )
    crossings = doc.get("crossings")
    if crossings is not None:
        if not isinstance(crossings, list) or any(not isinstance(r, list) for r in crossings):
            raise ValueError('"crossings" must be a list of rows')
    return BandPresentation(bands, crossings)


def goeritz_form(bp: BandPresentation) -> GoeritzData:
    """G[i][i] = W(X_i) + T(X_i), off-diagonal = signed crossing counts."""
    n = bp.band_count
    G = [list(row) for row in bp.crossings]
    for i, band in enumerate(bp.bands):
        G[i][i] = band.self_writhe + band.half_twists
    nonorientable = [i for i, band in enumerate(bp.bands) if not band.orientable]
    return GoeritzData(G, nonorientable)


def classical_signature_goeritz(bp: BandPresentation) -> int:
    """sigma(K) = sign(G) - eta."""
    gd = goeritz_form(bp)
    return signature(gd.G) - gd.eta


def torus_band_presentation(n: int) -> BandPresentation:
    """The one-band presentation of the (2, 2n+1) torus knot: G = [2n+1]."""
    if n < 0:
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
    n = gd.dim
    l = [strict_int(x, "through-disk count") for x in l]
    if len(l) != n:
        raise ValueError(f"l must assign a through-disk count to each of the {n} bands")
    G2 = [[gd.G[i][j] + 4 * l[i] * l[j] for j in range(n)] + [2 * l[i]] for i in range(n)]
    G2.append([2 * li for li in l] + [1])
    return GoeritzData(G2, [n])


def verify_two_twist_stability(gd: GoeritzData, l: Sequence[int]) -> bool:
    """True iff sign(G2) - eta2 equals sign(G) - eta, i.e. sigma is unchanged."""
    gd2 = add_two_twists(gd, l)
    return signature(gd2.G) - gd2.eta == signature(gd.G) - gd.eta
