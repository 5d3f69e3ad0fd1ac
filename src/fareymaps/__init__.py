"""Level-n Farey maps as exact combinatorial objects.

Construction of the quotient maps of the Farey tessellation by principal
congruence subgroups, their counting and distance structure, the 14-sided
polygon carrying the Klein quartic (level 7), and the 198-sided fundamental
polygon with orientable side pairings (level 11).
"""

from .arith import (
    ExtRational,
    FareyFraction,
    IntMatrix,
    ModMatrix,
    canonical,
    in_principal_congruence,
    is_adjacent,
    mobius_exact,
    mobius_mod,
)
from .maps import (
    FareyMap,
    build_map,
    from_json,
    genus,
    map_to_dict,
    mu,
    same_combinatorics,
    to_dot,
    to_json,
)
from .metrics import (
    Circuit,
    Decomposition,
    bfs_distance,
    bfs_distances,
    decompose,
    diameter,
    distance_classes,
    distance_formula,
    first_circuit,
    poles,
    second_circuit,
)
from .quartic import (
    FourteenGon,
    KleinMatrixReport,
    RingRegion,
    Side,
    SidePairing,
    fourteen_gon,
    klein_matrix_report,
    outer_ring,
    quotient_genus_of_gon,
    side_pairing,
)
from .sector import (
    BoundaryWalk,
    Sector,
    boundary_walk,
    count_sectors,
    normalize_walk,
    pair_boundary,
    reference_sector_vertices,
    quotient_genus,
    sector_search,
    tile_by_translates,
)
from .render import render_map

__version__ = "0.1.0"
