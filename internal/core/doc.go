// Package core implements the k-core algorithms of Ramadan, Tarafdar
// and Pothen (IPPS 2004): the classical linear-time k-core of a graph,
// and the paper's k-core of a hypergraph.
//
// The k-core of a graph G is a maximal subgraph in which every vertex
// has degree at least k.  The k-core of a hypergraph H is a maximal
// sub-hypergraph that is *reduced* (no hyperedge contained in another)
// and in which every vertex belongs to at least k hyperedges.  When a
// vertex is peeled, a hyperedge it belonged to is deleted as soon as it
// stops being maximal — including the special case of becoming empty.
//
// The hypergraph algorithm follows the paper exactly: non-maximal
// hyperedges are detected by maintaining pairwise overlap counts
// (|f ∩ g|) rather than comparing membership lists — a hyperedge f is
// contained in g precisely when its current degree equals its current
// overlap with g.  The running time is O(|E|·(Δ₂,F + Δ_V·log Δ₂,F))
// where |E| is the number of pins and Δ₂,F the maximum number of
// hyperedges overlapping any single hyperedge.
//
// Four implementations are provided, layered over a shared reduction
// layer (reduce.go) that holds the only copy of the containment test:
//
//   - KCore / Decomposition: the sequential overlap-count algorithm.
//   - KCoreNaive: a fixpoint reference that re-scans for containment
//     each round; used by tests and the maximality ablation benchmark.
//   - CSRDecompose: the bucket-queue peeler over the flat-array kernel
//     substrate (internal/csr).
//   - ShardedDecompose and ShardedKCore: the bulk-synchronous sharded
//     peel answering the paper's call ("for large hypergraphs, a
//     parallel algorithm will need to be designed").  One replica
//     (DistPeeler) implements the phases over vertex-block shards from
//     internal/partition; the in-process scheduler fans its shard
//     checks out over goroutines and internal/dist drives replicas over
//     the wire.  Vertex coreness and MaxK match Decompose exactly on
//     every input, and ShardedKCore stops at the k-level fixpoint.
package core
