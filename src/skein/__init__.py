"""Exact skein-theoretic invariants of spatial graph diagrams.

Yamada values and Kauffman brackets over Z[A^{+-1}, d^{-1}] with
d = -A^2 - A^-2, the Temperley-Lieb cabling cross-check, skein algebras of
the punctured disks, and congruence obstructions to order-p symmetry.
"""

from .cabling import CabledExpansion, MulticurveMonomial, cable, phi_plane, phi_punctured
from .core import backend_name
from .diagrams import (
    DiagramParseError,
    FlatState,
    GraphDiagram,
    InvalidDiagramError,
    Resolution,
    disjoint_union,
    mirror,
    parse_diagram,
    resolve_crossing,
    serialize_diagram,
    to_flat_state,
)
from .polyio import parse_poly_document, serialize_poly_document
from .polyxyz import PolyXYZ
from .rings import (
    CIRCLE_FACTOR,
    D,
    D_INV,
    LOOP_FACTOR,
    ONE,
    ZERO,
    GfpLaurent,
    LaurentPoly,
    LocalizedElement,
    RationalFunction,
    RingError,
    gfp_divrem,
    gfp_gcd,
    is_prime,
)
from .surfaces import (
    RelationReport,
    annulus_phi_powers,
    derive_t_squared_relation,
    verify_psi_phi,
)
from .symmetry import (
    Mode,
    ModulusKind,
    ObstructionReport,
    Verdict,
    full_report,
    ideal_member,
)
from .tl import (
    PlanarPairing,
    TangleElement,
    all_pairings,
    bracket,
    jones_wenzl,
    markov_trace,
)
from .yamada import flat_eval, flat_eval_oracle, yamada

__version__ = "0.1.0"

__all__ = [
    "CIRCLE_FACTOR", "CabledExpansion", "D", "D_INV", "DiagramParseError",
    "FlatState", "GfpLaurent", "GraphDiagram", "InvalidDiagramError",
    "LOOP_FACTOR", "LaurentPoly", "LocalizedElement", "Mode", "ModulusKind",
    "MulticurveMonomial", "ONE", "ObstructionReport", "PlanarPairing",
    "PolyXYZ", "RationalFunction", "RelationReport", "Resolution", "RingError",
    "TangleElement", "Verdict", "ZERO", "all_pairings", "annulus_phi_powers",
    "backend_name", "bracket", "cable", "derive_t_squared_relation",
    "disjoint_union", "flat_eval", "flat_eval_oracle", "full_report",
    "gfp_divrem", "gfp_gcd", "ideal_member", "is_prime", "jones_wenzl",
    "markov_trace", "mirror", "parse_diagram", "parse_poly_document",
    "phi_plane", "phi_punctured", "resolve_crossing", "serialize_diagram",
    "serialize_poly_document", "to_flat_state", "verify_psi_phi", "yamada",
]
