"""Finite lattice models of ideal inclusions.

The package studies monotone Galois connections between finite frames:
their fixed-point sublattices, the closure conditions that make the
induced maps on prime spectra behave like open surjections, and the
quasi-orbit quotients those maps define. Concrete model builders cover
multiplicity-matrix inclusions, group actions on finite spaces, bundle
projections and graph ideal pairs; a fuzz layer sweeps the structure
theorems over generated instances.
"""

from .errors import (
    AdjunctionFailure,
    ClosureTooLarge,
    ConditionViolated,
    DocumentError,
    InvalidTopology,
    JNotAdmissible,
    JRViolated,
    LatticeTooLarge,
    MIViolated,
    NotAFrame,
    NotALattice,
    NotAPoset,
    NotContinuous,
    NotLocaleMorphism,
    NotMonotone,
    ShapeMismatch,
    StonekitError,
    SweepFailed,
)
from .galois import (
    AbsenceWitness,
    GaloisConnection,
    MonotoneMap,
    detects,
    is_join_preserving,
    is_meet_preserving,
    lower_adjoint,
    separates,
    upper_adjoint,
)
from .lattice import (
    FinitePoset,
    FiniteLattice,
    FrameWitness,
    boolean_lattice,
    downset_lattice,
    is_frame,
    order_automorphisms,
)

from .conformance import (
    InstanceGenerator,
    SweepReport,
    all_posets,
    all_spaces,
    gen_inclusion_data,
    small_group_actions,
    sweep_theorem,
)
from .documents import (
    InstanceDocument,
    compile_document,
    document_for,
    dumps_document,
    load_document,
    parse_document,
)
from .graph_pairs import (
    EX_75,
    FiniteGraph,
    JPairLattice,
    j_pairs,
    j_x,
    pair_prime_space,
    x_forward,
    x_inverse,
)
from .multiplicity import (
    EX_74,
    EX_210,
    EX_211,
    EX_213,
    MultiplicityInclusion,
    binary_matrices,
    induce,
    is_symmetric,
    restrict,
    to_inclusion_data,
)
from .quasiorbit import (
    F_map,
    InclusionData,
    PrimeMapObstruction,
    QuasiOrbitSpace,
    check_C1,
    check_C2,
    check_JR,
    check_MI,
    check_MIf,
    induced_prime_map,
    pi_map,
    quasi_orbit_map,
    quasi_orbit_space,
    restricted_prime_map,
)
from .topo_models import (
    BundleMap,
    FiniteGroupAction,
    action_inclusion_data,
    action_quasi_orbit_agreement,
    bundle_inclusion_data,
    orbit_closure_relation,
)
from .spectrum import (
    FiniteT0Space,
    PointMap,
    PrimeSpectrum,
    Theorem33Report,
    adjunct_point_map,
    is_homeomorphism,
    is_locale_morphism,
    is_open_map,
    is_sober,
    is_spatial,
    is_surjective,
    opens_lattice,
    point_space,
    primes,
    quotient_space,
    soberification,
    theorem33_check,
)

__version__ = "0.1.0"
