"""Percolation on high-dimensional tori: cycle structure and scaling checks."""

from .lattice import (BoxGeometry, GeometryError, TorusGeometry, build_box,
                      canonical_rep, get_torus, r_equivalent, torus_distance)
from .percolation import (BondConfig, InstrumentationError, PcEntry,
                          UnknownCriticalPointError, calibrate_pc_scan,
                          derive_seed, pc_reference, replica_rng, sample_config)
from .cluster import (Cluster, IntrinsicBall, all_components, component_map,
                      component_of, connected_within, intrinsic_ball)
from .cycles import (DEFAULT_BUDGET, BudgetedAnswer, CycleWitness,
                     MalformedCycleError, OpenSubgraph, cluster_contains_long_cycle,
                     cycle_radius, is_long_cycle, long_cycle_threshold,
                     long_cycle_vertex_count, min_long_cycle_cut,
                     shortest_long_cycle_through, vertex_in_long_cycle,
                     winding_vector)
from .surgery import (Stage1Result, Stage2Result, depth_first_explore,
                      estimate_no_long_cycle_probability, explore_cluster,
                      order_branch_vertices, second_stage)
from .coupling import CouplingSample, check_inclusion_property, coupled_sample

__version__ = "0.1.0"
