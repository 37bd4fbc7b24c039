"""Computing with transfer systems on subgroup lattices and abstract sites."""

from .compat import (
    CompatReport,
    conjecture_formula,
    is_compatible,
    max_compat_disklike,
    max_compat_oracle,
    max_compat_recursive,
)
from .enumeration import (
    TransferSystemCatalog,
    census,
    cross_method_audit,
    disklike_systems,
    enumerate_all,
    verify_conjecture,
)
from .functors import (
    QuotientContext,
    check_preservation,
    fixed_points,
    inflate,
    minimal_transferring_subgroup,
    quotient_context,
    universal_reduction,
)
from .groups import (
    Group,
    Subgroup,
    SubgroupLattice,
    build_group,
    small_group_descriptors,
    subgroup_lattice,
)
from .sites import (
    Site,
    interval_above,
    site_from_descriptor,
    site_from_lattice,
    site_from_poset_file,
)
from .systems import (
    BinaryRelation,
    TransferSystem,
    ViolationReport,
    close_comp,
    close_conj,
    close_refl,
    close_res,
    complete_ts,
    complexity,
    count_cover_relations,
    generate,
    generate_from_edges,
    hull,
    is_disklike,
    is_saturated,
    join_ts,
    meet_ts,
    trivial_ts,
    tulip_ts,
    validate,
)

__version__ = "0.1.0"
