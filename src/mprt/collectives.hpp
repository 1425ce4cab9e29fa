// mprt/collectives.hpp — collective operations over point-to-point.
//
// Real algorithms (MPICH-style binomial trees, dissemination barrier,
// shifted pairwise exchange), so collective cost scales with log P or P
// exactly as it did on the paper's machines.  All ranks must call each
// collective in the same order (SPMD), which keeps the internal tag
// sequence aligned.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "mprt/comm.hpp"
#include "simkit/task.hpp"

namespace mprt {

/// Dissemination barrier: ceil(log2 P) rounds, works for any P.
simkit::Task<void> barrier(Comm& c);

/// Binomial-tree broadcast of `bytes` from `root`.  If `buf` is non-empty
/// (size == bytes) it carries real content: the root's bytes arrive in
/// every rank's buf.
simkit::Task<void> bcast(Comm& c, Rank root, std::uint64_t bytes,
                         std::span<std::byte> buf = {});

/// Gather per-rank blocks to `root`.  Returns P messages indexed by rank
/// at the root (self included); empty vector elsewhere.
simkit::Task<std::vector<Message>> gatherv(
    Comm& c, Rank root, std::uint64_t my_bytes,
    std::span<const std::byte> payload = {});

/// Receives alltoallv's messages, one call per source rank.  The message
/// is the sink's to keep: it may move the payload out.
using RecvSink = std::function<void(Message&)>;

/// Personalized all-to-all: rank r sends send_bytes[d] to each rank d.
/// `payloads`, when non-empty, supplies per-destination real content.
///
/// Each receipt goes to `sink`, called exactly once per source — self and
/// sources that sent nothing included (bytes == 0, empty payload) — as
/// that source's message or routed block arrives, so no rank holds P
/// messages at once.  The order of the calls depends on the routing kind;
/// sources that sent nothing and self come last under kBruck/kTwoLevel.
///
/// Routing follows the cluster's CollectiveTopology: kFlat is the
/// historical shifted pairwise exchange (P messages per rank), kBruck
/// store-and-forwards in ceil(log2 P) rounds, kTwoLevel routes through
/// group leaders (~2P + A^2 messages total for A groups).  All three
/// deliver identical messages; only message counts and timing differ.
/// Wire traffic is metered as mprt.alltoall.msgs / mprt.alltoall.bytes
/// when a metrics registry is installed.
///
/// Parameters are taken BY VALUE deliberately: a coroutine must not bind
/// references to caller temporaries (and GCC 12 additionally miscompiles
/// non-trivially-destructible default arguments of coroutine calls).
/// The sink's captures must outlive the call (the caller's frame does).
simkit::Task<void> alltoallv(Comm& c, std::vector<std::uint64_t> send_bytes,
                             std::vector<std::span<const std::byte>> payloads,
                             RecvSink sink);

/// Effective kTwoLevel group width for a P-rank cluster: the topology's
/// group_size capped at P, or ceil(sqrt(P)) when it is 0.  Throws
/// TopologyError for a negative group_size.
int two_level_group_width(int p, const CollectiveTopology& t);

/// Group-leader ranks (0, W, 2W, ...) for a P-rank cluster at width W.
/// These are also the aggregator ranks of the hierarchical two-phase
/// I/O path (pario::TwoPhase under a kTwoLevel topology).
std::vector<Rank> two_level_leaders(int p, int width);

enum class ReduceOp : std::uint8_t { kSum, kMin, kMax };

/// Allreduce over doubles (binomial reduce to rank 0, then broadcast).
simkit::Task<void> allreduce(Comm& c, std::span<double> values, ReduceOp op);

}  // namespace mprt
