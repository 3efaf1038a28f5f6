"""Clustering substrate: the FINCH first-neighbour algorithm used for global prompt clustering."""

from repro.clustering.finch import finch, first_neighbor_adjacency

__all__ = ["finch", "first_neighbor_adjacency"]
