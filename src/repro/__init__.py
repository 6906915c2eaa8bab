"""repro — reproduction of *K-Ways Partitioning of Polyhedral Process
Networks: A Multi-Level Approach* (Cattaneo et al., IPDPSW 2015).

Public API highlights
---------------------
* :class:`repro.graph.WGraph` — weighted process-network graph.
* :func:`repro.partition.gp.gp_partition` — the paper's constrained
  multi-level K-way partitioner ("GP").
* :func:`repro.partition.mlkp.mlkp_partition` — METIS-like unconstrained
  multilevel baseline.
* :func:`repro.evolve.evolve_partition` — memetic population search with
  V-cycle recombination over the graph and hypergraph engines.
* :mod:`repro.polyhedral` — SANLP → Polyhedral Process Network derivation.
* :mod:`repro.kpn` — process-network simulator (bandwidth measurement).
* :mod:`repro.fpga` — multi-FPGA platform model and mapping validator.
* :mod:`repro.core` — one-call high-level API (`partition_graph`,
  `partition_ppn`, `map_to_fpgas`).
"""

__version__ = "1.1.0"

from repro.graph import WGraph  # noqa: F401  (re-export)

__all__ = ["WGraph", "__version__"]
