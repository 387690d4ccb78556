"""Symbolic models of the disk skein algebras and the t^2 relation check.

The bracket algebra of the 2-holed disk is a polynomial algebra on the
boundary curves x, y, z; the graph algebra adds the theta-shaped generator
t.  The published generator images are stored verbatim; the t^2 relation is
re-derived by triangular elimination against the images of the monomial
basis x^i y^j z^k t^eps, and the result is compared coefficient by
coefficient with the published relation, reporting (never correcting) the
discrepancies.
"""

from __future__ import annotations

from dataclasses import dataclass

from .polyio import poly_document
from .polyxyz import Monomial, PolyXYZ, mono_str
from .rings import D_INV, ONE, LocalizedElement, ZERO


_X = PolyXYZ.gen("x")
_Y = PolyXYZ.gen("y")
_Z = PolyXYZ.gen("z")
_T = PolyXYZ.gen("t")
_ONE_P = PolyXYZ.constant(ONE)

#: published images of the graph-algebra generators under the cabling map
PHI_X = _X * _X - _ONE_P
PHI_Y = _Y * _Y - _ONE_P
PHI_Z = _Z * _Z - _ONE_P
PHI_T_PRINTED = (
    _X * _Y * _Z
    - (_X * _X).scale(D_INV)
    - (_Y * _Y).scale(D_INV)
    + PolyXYZ.constant(D_INV)
)

#: published images of the even-subalgebra generators under the inverse map
PSI_X2 = _X + _ONE_P
PSI_Y2 = _Y + _ONE_P
PSI_Z2 = _Z + _ONE_P
PSI_XYZ = _T + _X.scale(D_INV) + _Y.scale(D_INV) + PolyXYZ.constant(D_INV)


class EliminationError(RuntimeError):
    """A monomial outside the even subalgebra appeared during elimination."""


def _grlex_max(poly: PolyXYZ) -> Monomial:
    return max(poly.monomials(), key=lambda m: (m[0] + m[1] + m[2], m[:3]))


def phi_apply(poly: PolyXYZ) -> PolyXYZ:
    """Substitute the published generator images for x, y, z, t."""
    return poly.substitute({"x": PHI_X, "y": PHI_Y, "z": PHI_Z, "t": PHI_T_PRINTED})


def psi_apply(poly: PolyXYZ) -> PolyXYZ:
    """Apply the inverse map, extended multiplicatively over the even part.

    Every monomial x^a y^b z^c with a = b = c (mod 2) factors uniquely as
    (xyz)^eps (x^2)^i (y^2)^j (z^2)^k with eps in {0,1}; other monomials are
    outside the domain.
    """
    total = PolyXYZ()
    for mono, coeff in poly.items():
        a, b, c, e = mono
        if e:
            raise EliminationError("psi is defined on the bracket side (no t)")
        if not (a % 2 == b % 2 == c % 2):
            raise EliminationError(f"monomial {mono_str(mono)} is not in the even part")
        eps = a % 2
        i, j, k = (a - eps) // 2, (b - eps) // 2, (c - eps) // 2
        term = PolyXYZ.constant(coeff)
        if eps:
            term = term * PSI_XYZ
        term = term * PSI_X2**i * PSI_Y2**j * PSI_Z2**k
        total = total + term
    return total


def printed_t_squared_relation() -> dict[Monomial, LocalizedElement]:
    """The published expression of t^2 over the basis x^i y^j z^k t^eps."""
    dinv = D_INV
    dinv2 = D_INV * D_INV
    two_dinv = dinv.scale(2)
    return {
        (0, 0, 0, 0): ONE + dinv2 - two_dinv,
        (1, 0, 0, 0): ONE - two_dinv,
        (0, 1, 0, 0): ONE - two_dinv,
        (0, 0, 1, 0): ONE,
        (0, 0, 0, 1): -two_dinv,
        (1, 1, 0, 0): ONE - dinv2.scale(2),
        (1, 0, 1, 0): ONE,
        (0, 1, 1, 0): ONE,
        (1, 0, 0, 1): -two_dinv,
        (0, 1, 0, 1): -two_dinv,
        (2, 0, 0, 0): -dinv2,
        (0, 2, 0, 0): -dinv2,
        (1, 1, 1, 0): ONE,
    }


@dataclass(frozen=True)
class RelationReport:
    """Derived t^2 relation, the published one, and their comparison."""

    derived: dict[Monomial, LocalizedElement]
    printed: dict[Monomial, LocalizedElement]
    identity_holds: bool
    unique_leading: bool
    matches: tuple[str, ...]
    mismatches: tuple[tuple[str, LocalizedElement, LocalizedElement], ...]

    def to_dict(self) -> dict:
        def enc(coeffs: dict[Monomial, LocalizedElement]) -> dict:
            return {mono_str(m): poly_document(c) for m, c in sorted(coeffs.items())}

        return {
            "derived": enc(self.derived),
            "printed": enc(self.printed),
            "identity_holds": self.identity_holds,
            "unique_leading_monomials": self.unique_leading,
            "matches": list(self.matches),
            "mismatches": [
                {"monomial": name, "derived": str(dv), "printed": str(pv)}
                for name, dv, pv in self.mismatches
            ],
        }


def _basis_image(basis: Monomial) -> PolyXYZ:
    """PHI_X^i PHI_Y^j PHI_Z^k PHI_T^eps, the image of x^i y^j z^k t^eps."""
    i, j, k, eps = basis
    image = PHI_X**i * PHI_Y**j * PHI_Z**k
    return image * PHI_T_PRINTED if eps else image


def derive_t_squared_relation() -> RelationReport:
    """Express the square of the t-image over the basis images and compare
    with the published relation.

    The basis image of (i, j, k, eps) is PHI_X^i PHI_Y^j PHI_Z^k T^eps whose
    graded-lex leading monomial x^{2i+eps} y^{2j+eps} z^{2k+eps} is monic, so
    repeatedly cancelling the leading monomial of the remainder terminates
    with the unique coefficient vector.
    """
    target = PHI_T_PRINTED * PHI_T_PRINTED
    work = target
    coeffs: dict[Monomial, LocalizedElement] = {}
    leading_seen: set[tuple[int, int, int]] = set()
    while work:
        mono = _grlex_max(work)
        a, b, c, e = mono
        if e:
            raise EliminationError("unexpected t-power on the bracket side")
        eps = a % 2
        if not (b % 2 == eps and c % 2 == eps):
            raise EliminationError(
                f"leading monomial {mono_str(mono)} has mixed parities; "
                "t^2 would not lie in the even part"
            )
        basis = ((a - eps) // 2, (b - eps) // 2, (c - eps) // 2, eps)
        coeff = work.coeff(mono)
        work = work - _basis_image(basis).scale(coeff)
        coeffs[basis] = coeff
        leading_seen.add((a, b, c))

    # exactness re-check of the derived relation
    acc = PolyXYZ()
    for basis, cf in coeffs.items():
        acc = acc + _basis_image(basis).scale(cf)
    identity_holds = acc == target
    unique_leading = len(leading_seen) == len(coeffs)

    printed = printed_t_squared_relation()
    matches: list[str] = []
    mismatches: list[tuple[str, LocalizedElement, LocalizedElement]] = []
    for mono in sorted(set(coeffs) | set(printed)):
        dv = coeffs.get(mono, ZERO)
        pv = printed.get(mono, ZERO)
        if dv == pv:
            matches.append(mono_str(mono))
        else:
            mismatches.append((mono_str(mono), dv, pv))
    if unique_leading:
        matches.append("epsilon-split-uniqueness")
    return RelationReport(
        derived=coeffs,
        printed=printed,
        identity_holds=identity_holds,
        unique_leading=unique_leading,
        matches=tuple(matches),
        mismatches=tuple(mismatches),
    )


def verify_psi_phi() -> bool:
    """Check that the published tables are mutually inverse on the generators."""
    checks = [
        psi_apply(PHI_X) == _X,
        psi_apply(PHI_Y) == _Y,
        psi_apply(PHI_Z) == _Z,
        psi_apply(PHI_T_PRINTED) == _T,
        phi_apply(PSI_XYZ) == _X * _Y * _Z,
    ]
    return all(checks)


def annulus_phi_powers(k: int) -> PolyXYZ:
    """Image of the k-th power of the annulus core curve: (b^2 - 1)^k,
    written in the variable x."""
    if k < 0:
        raise ValueError("negative power")
    return PHI_X**k
