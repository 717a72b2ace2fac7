// Canonical scenario keys for the schedule-compiler service (paper §3.1,
// lifted from groups to whole topologies).
//
// The service's whole point is that isomorphic requests collapse to one
// library entry fleet-wide: two consumers that label the same physical
// cluster differently — or own two identical clusters — must derive the
// same key, and each must receive the stored schedule relabelled into its
// own rank space. This module extends the per-group CanonicalForm machinery
// (topo/groups.h) to a whole-topology canonicalisation:
//
//   1. Extract dimensions/groups. Only the raw star abstraction is consumed
//      — not GroupTopology::canonical_form(), whose member order (and the
//      port-sharing block ids inside its signature) breaks structural ties
//      by local index, i.e. by the very caller labelling this module must be
//      invariant to.
//   2. Colour-refine GPU ranks: a rank's initial colour is, per dimension,
//      a label-invariant member descriptor (group size, quantised up/down
//      port α/β, port-sharing block sizes, physical hop ladder). Each round
//      then separates groups by their member-colour multisets and members by
//      the colour multisets of the co-members they share an up/down port
//      with, iterated to a fixed point.
//   3. Individualise-and-refine: while a colour class stays tied, pin one
//      representative (fresh colour) and re-refine, until every class is a
//      singleton. Final colours are the canonical rank permutation.
//   4. Render the full decomposition under that permutation — per dimension
//      tier/capacity/share, per group the members in canonical order with
//      quantised port α/β, port ids renumbered by first canonical
//      appearance, and hop ladders — and hash it (FNV-1a 64).
//
// Equal renderings guarantee a rank bijection that maps group structure
// onto group structure member-by-member, which is everything the
// synthesizer, validator and simulator consume — so a schedule synthesized
// under one labelling is valid under the other after rank remapping. The
// converse direction is conservative: refinement ties can make two
// isomorphic topologies render differently and merely miss the dedup (same
// stance as GroupTopology::CanonicalForm).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "coll/collective.h"
#include "core/synthesizer.h"
#include "sim/schedule.h"
#include "topo/groups.h"
#include "topo/topology.h"

namespace syccl::serve {

/// Serve-format version; bumped whenever key derivation, the codec or the
/// library layout changes incompatibly. Part of every scenario key, so a
/// library written by an older format simply misses instead of mis-serving.
/// v2: ScheduleBlob carries a `degraded` flag (deadline-fallback entries).
inline constexpr std::uint32_t kServeVersion = 2;

/// The canonical form of one topology.
struct CanonicalTopology {
  /// Full canonical rendering (the hash preimage). Stored alongside library
  /// entries so hash collisions verify instead of mis-serving.
  std::string rendering;
  /// FNV-1a 64 of `rendering`, hex — the topology component of scenario keys.
  std::string hash;
  /// perm[caller rank] = canonical rank.
  std::vector<int> perm;
  int num_ranks = 0;
};

/// Canonicalises an extracted decomposition. Deterministic; O(n² · dims) in
/// the worst refinement case, microseconds at cluster sizes.
CanonicalTopology canonicalize(const topo::TopologyGroups& groups);

/// Power-of-two size bucket (ceiling), floored at 1 KiB: every request size
/// in (bucket/2, bucket] shares one synthesized schedule, rescaled to the
/// caller's bytes on serve. Piece bytes scale linearly with the collective's
/// chunk size, so the rescale is exact.
std::uint64_t size_bucket(std::uint64_t bytes);

/// Digest of every SynthesisConfig field that can change a synthesized
/// schedule; part of the scenario key so differently-tuned servers never
/// share entries.
std::string options_fingerprint(const core::SynthesisConfig& config);

/// The library key: serve version, canonical topology hash, collective kind,
/// rank count, canonical root, size bucket and options fingerprint.
/// `canonical_root` is perm[caller root] for rooted collectives and -1 for
/// root-less ones — two callers whose roots map to the same canonical rank
/// share the entry, others never do.
std::string scenario_key(const CanonicalTopology& canon, coll::CollKind kind,
                         int canonical_root, std::uint64_t bucket_bytes,
                         const std::string& options_fp);

/// Relabels every rank of `schedule` in place: rank r becomes map[r]
/// (piece origins, reduce contributors and op endpoints; dims are
/// structural and invariant under isomorphism). Throws std::invalid_argument
/// on an out-of-range rank.
void apply_rank_map(sim::Schedule& schedule, const std::vector<int>& map);

/// Rank-relabels `schedule` AND remaps its piece chunk ids. Chunk ids index
/// the collective's chunk list, whose sources/demands are rank-defined, so a
/// pure rank remap leaves them meaning the wrong thing (harmless for
/// AllGather, where every chunk is demanded everywhere, fatal for AllToAll).
/// Chunk c of `from` (the collective in the schedule's current labelling)
/// becomes the chunk of `to` (the same collective under `map`) whose source
/// and demand set are the images of c's; chunks with identical images are
/// interchangeable and matched in order. Throws std::invalid_argument when
/// `to` is not a relabelling of `from`.
void apply_rank_map(sim::Schedule& schedule, const std::vector<int>& map,
                    const coll::Collective& from, const coll::Collective& to);

/// Inverse of a permutation (inv[perm[i]] = i).
std::vector<int> invert_permutation(const std::vector<int>& perm);

/// FNV-1a 64 as lowercase hex — the digest used throughout serve (keys,
/// codec checksums, entry file names).
std::string fnv1a_hex(const std::string& text);
std::uint64_t fnv1a(const void* data, std::size_t size, std::uint64_t seed = 0);

}  // namespace syccl::serve
