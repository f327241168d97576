"""delonetop: tight-binding models on Delone point sets, position spectral
triples, and quantized topological indices with independent oracles.

The package is organized bottom-up:

* geometry   -- Delone windows (periodic, perturbed, hard-core random,
                cut-and-project), validation, the neighbor_pairs engine, products.
* clifford   -- exact real Clifford representations Cl_{p,q} on the exterior
                algebra.
* groupoid   -- pattern-equivariant hopping kernels, their localized block
                representations, stacking, Bloch reductions.
* roe        -- support statistics, position commutators, covering
                isometries, controlled random perturbations.
* spectral   -- Hermitian eigensolves of one dense LAPACK buffer, gaps,
                Fermi projections.
* index      -- position Dirac operators, spectral localizer indices, and
                the three-sector / Bloch oracles.
* experiments -- seeded, reproducible theorem-level runs.
* cli        -- batch front-end (config files, reports, SVG plots).
"""

__version__ = "0.1.0"

from .errors import (GapUndefined, GenerationFailed, InvalidInput,
                     KernelNotSelfAdjoint, LocalizerUnreliable,
                     SymmetryViolation, ToolkitError)
from .geometry import (DeloneSet, LocalPattern, ValidationReport,
                       gen_cut_and_project, gen_hardcore_random, gen_periodic,
                       gen_perturbed_lattice, local_pattern, neighbors,
                       product_delone, read_pointset, translate,
                       union_pointsets, validate_delone, write_pointset)
from .clifford import CliffordRep, build_rep, spanning_rank, verify_relations
from .groupoid import (BlockOperator, HoppingFunction, bloch_hamiltonian,
                       builtin_model, covariance_check, represent,
                       stack_operator)
from .roe import (SupportStats, covering_embed, position_commutator,
                  random_perturbation, subset_injection, support_stats)
from .spectral import (FermiProjection, GapInfo, SpectralData, eig_hermitian,
                       fermi_projection, largest_gap, spectral_gap,
                       symmetric_gap)
from .index import (IndexResult, PositionDirac, angular_sectors,
                    bloch_chern_fhs, bloch_winding, chiral_bloch_block,
                    kappa_stability, kitaev_chern, localizer_index_even,
                    localizer_index_odd, position_dirac)
from .experiments import (ExperimentReport, build_lattice,
                          run_omega_independence, run_quantization,
                          run_robustness, run_stacking)
