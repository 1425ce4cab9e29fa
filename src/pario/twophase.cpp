#include "pario/twophase.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <limits>

#include "metrics/metrics.hpp"
#include "mprt/collectives.hpp"

namespace pario {
namespace {

/// Registry instruments for one collective call (pario.twophase.*); all
/// null when metrics are off.  Resolved at call entry because TwoPhase is
/// stateless — there is no constructor to cache handles in.
struct TpMeters {
  TpMeters() {
    if (metrics::Registry* r = metrics::current()) {
      io_s = &r->histogram("pario.twophase.io_s");
      exchange_s = &r->histogram("pario.twophase.exchange_s");
      io_calls = &r->counter("pario.twophase.io_calls");
      io_bytes = &r->counter("pario.twophase.io_bytes");
    }
  }
  /// One file I/O call of `bytes`.
  void note_io(TwoPhaseStats* stats, std::uint64_t bytes) const {
    if (stats) {
      ++stats->io_calls;
      stats->io_bytes += bytes;
    }
    if (io_calls) {
      io_calls->inc();
      io_bytes->inc(bytes);
    }
  }
  void note_io_time(TwoPhaseStats* stats, simkit::Duration d) const {
    if (stats) stats->io_time += d;
    if (io_s) io_s->observe(d);
  }
  void note_exchange_time(TwoPhaseStats* stats, simkit::Duration d) const {
    if (stats) stats->exchange_time += d;
    if (exchange_s) exchange_s->observe(d);
  }

  metrics::Histogram* io_s = nullptr;
  metrics::Histogram* exchange_s = nullptr;
  metrics::Counter* io_calls = nullptr;
  metrics::Counter* io_bytes = nullptr;
};

// ---------------------------------------------------------------------------
// Extent metadata exchange: every rank learns every rank's (sorted) piece
// list.  gatherv to rank 0 + broadcast of the concatenated table — the
// same global-view step MPI-IO implementations perform.
// ---------------------------------------------------------------------------

std::vector<std::byte> serialize_extents(const std::vector<Extent>& v) {
  std::vector<std::byte> out(v.size() * 16);
  for (std::size_t i = 0; i < v.size(); ++i) {
    std::uint64_t pair[2] = {v[i].file_offset, v[i].length};
    std::memcpy(out.data() + i * 16, pair, 16);
  }
  return out;
}

/// Append the intersections of (sorted) `pieces` with [lo, hi) to `out`,
/// preserving order and buffer mapping.  The one intersection routine:
/// TwoPhase::intersect wraps it, and the collective loops call it on
/// reused scratch.
void append_intersection(std::span<const Extent> pieces, std::uint64_t lo,
                         std::uint64_t hi, std::vector<Extent>& out) {
  for (const auto& e : pieces) {
    const std::uint64_t s = std::max(e.file_offset, lo);
    const std::uint64_t t = std::min(e.file_end(), hi);
    if (s < t) {
      out.push_back(Extent{s, t - s, e.buf_offset + (s - e.file_offset)});
    }
  }
}

/// What a domain owner keeps of the extent table once its plan is made:
/// each source's pieces inside the domain, for the sources that have any.
struct DomainSlice {
  std::vector<Extent> ext;
  std::vector<int> src;             // ascending
  std::vector<std::size_t> off{0};  // src.size() + 1 entries

  /// Source s's pieces (empty when it has none here).
  std::span<const Extent> of(int s) const {
    const auto it = std::lower_bound(src.begin(), src.end(), s);
    if (it == src.end() || *it != s) return {};
    const auto i = static_cast<std::size_t>(it - src.begin());
    return std::span<const Extent>(ext).subspan(off[i], off[i + 1] - off[i]);
  }
};

/// Every rank's piece list, flattened: source s's pieces are
/// ext[off[s], off[s+1]).  buf_offset is 0 throughout — only file ranges
/// cross the wire, and only file ranges are read from the table.
struct ExtentTable {
  std::vector<Extent> ext;
  std::vector<std::size_t> off;  // P + 1 entries

  std::span<const Extent> of(int s) const {
    const auto su = static_cast<std::size_t>(s);
    return std::span<const Extent>(ext).subspan(off[su],
                                                 off[su + 1] - off[su]);
  }

  /// The domain [lo, hi)'s slice of the table.
  DomainSlice slice(std::uint64_t lo, std::uint64_t hi) const {
    DomainSlice out;
    for (std::size_t s = 0; s + 1 < off.size(); ++s) {
      append_intersection(of(static_cast<int>(s)), lo, hi, out.ext);
      if (out.ext.size() > out.off.back()) {
        out.src.push_back(static_cast<int>(s));
        out.off.push_back(out.ext.size());
      }
    }
    return out;
  }
};

simkit::Task<ExtentTable> allgather_extents(mprt::Comm& c,
                                            const std::vector<Extent>& mine) {
  const int p = c.size();
  const auto pu = static_cast<std::size_t>(p);
  auto my_bytes = serialize_extents(mine);
  auto gathered = co_await mprt::gatherv(c, 0, my_bytes.size(), my_bytes);

  // Root concatenates [P x u64 counts][all extent pairs] and broadcasts.
  std::vector<std::byte> table;
  if (c.rank() == 0) {
    table.resize(pu * 8);
    for (std::size_t r = 0; r < pu; ++r) {
      const std::uint64_t n = gathered[r].payload.size() / 16;
      std::memcpy(table.data() + r * 8, &n, 8);
    }
    for (std::size_t r = 0; r < pu; ++r) {
      const auto& pay = gathered[r].payload;
      table.insert(table.end(), pay.begin(), pay.end());
    }
  }
  std::uint64_t table_size = table.size();
  std::span<std::byte> size_view(reinterpret_cast<std::byte*>(&table_size),
                                 8);
  co_await mprt::bcast(c, 0, 8, size_view);
  table.resize(table_size);
  co_await mprt::bcast(c, 0, table_size, table);

  ExtentTable all;
  all.off.resize(pu + 1);
  for (std::size_t r = 0; r < pu; ++r) {
    std::uint64_t n = 0;
    std::memcpy(&n, table.data() + r * 8, 8);
    all.off[r + 1] = all.off[r] + static_cast<std::size_t>(n);
  }
  all.ext.resize(all.off[pu]);
  const std::byte* pairs = table.data() + pu * 8;
  for (std::size_t i = 0; i < all.ext.size(); ++i) {
    std::uint64_t pair[2];
    std::memcpy(pair, pairs + i * 16, 16);
    all.ext[i] = Extent{pair[0], pair[1], 0};
  }
  co_return all;
}

/// `out` = pieces ∩ [lo, hi), reusing out's storage.
void intersect_into(std::span<const Extent> pieces, std::uint64_t lo,
                    std::uint64_t hi, std::vector<Extent>& out) {
  out.clear();
  append_intersection(pieces, lo, hi, out);
}

/// Index of the run (sorted, disjoint) containing file offset `off`.
std::size_t run_of(const std::vector<Extent>& runs, std::uint64_t off) {
  auto it = std::upper_bound(runs.begin(), runs.end(), off,
                             [](std::uint64_t o, const Extent& r) {
                               return o < r.file_offset;
                             });
  return static_cast<std::size_t>(std::distance(runs.begin(), std::prev(it)));
}

struct Domains {
  std::uint64_t lo = 0;
  std::uint64_t chunk = 0;  // size of each rank's file domain
  std::uint64_t hi = 0;

  std::pair<std::uint64_t, std::uint64_t> of(int rank) const {
    const std::uint64_t d_lo =
        lo + chunk * static_cast<std::uint64_t>(rank);
    return {std::min(d_lo, hi), std::min(d_lo + chunk, hi)};
  }
};

Domains make_domains(std::uint64_t lo, std::uint64_t hi, int p,
                     std::uint64_t stripe_unit) {
  if (hi <= lo) return {0, 0, 0};
  // Stripe-aligned domains keep each aggregator talking to a stable
  // subset of I/O nodes.
  std::uint64_t chunk = (hi - lo + static_cast<std::uint64_t>(p) - 1) /
                        static_cast<std::uint64_t>(p);
  chunk = (chunk + stripe_unit - 1) / stripe_unit * stripe_unit;
  return {lo, chunk, hi};
}

Domains partition(const ExtentTable& all, int p, std::uint64_t stripe_unit) {
  std::uint64_t lo = ~std::uint64_t{0}, hi = 0;
  for (const auto& e : all.ext) {
    lo = std::min(lo, e.file_offset);
    hi = std::max(hi, e.file_end());
  }
  return make_domains(lo, hi, p, stripe_unit);
}

/// Phase-1 file I/O of a collective write: one pwrite per run, carrying
/// run_bufs[i]'s bytes (none when it is empty).  An IoError from an
/// exhausted retry policy stops the loop and is RETURNED, so the caller
/// finishes the message protocol before rethrowing (see
/// TwoPhaseOptions::retry).
simkit::Task<std::exception_ptr> write_runs(
    mprt::Comm& comm, pfs::StripedFs& fs, pfs::FileId file,
    const std::vector<Extent>& runs,
    const std::vector<std::vector<std::byte>>& run_bufs, TwoPhaseStats* stats,
    const TwoPhaseOptions& options, const TpMeters& m) {
  simkit::Engine& eng = comm.engine();
  const simkit::Time t_io = eng.now();
  std::exception_ptr deferred;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const std::span<const std::byte> run_view = run_bufs[i];
    if (options.retry) {
      try {
        co_await resilient_pwrite(fs, comm.node(), file,
                                  runs[i].file_offset, runs[i].length,
                                  run_view, *options.retry,
                                  options.retry_stats);
      } catch (const pfs::IoError&) {
        deferred = std::current_exception();
        break;  // abandon my domain; the caller completes the protocol
      }
    } else {
      co_await fs.pwrite(comm.node(), file, runs[i].file_offset,
                         runs[i].length, run_view);
    }
    m.note_io(stats, runs[i].length);
  }
  m.note_io_time(stats, eng.now() - t_io);
  co_return deferred;
}

/// Phase-1 file I/O of a collective read: one pread per run, into
/// run_bufs[i] (sized here) when `serve_data`.  Errors as in write_runs;
/// after one, every run still gets (zero-filled) storage, because the
/// caller's pack pass reads from every run and discards the data on
/// rethrow.
simkit::Task<std::exception_ptr> read_runs(
    mprt::Comm& comm, pfs::StripedFs& fs, pfs::FileId file,
    const std::vector<Extent>& runs,
    std::vector<std::vector<std::byte>>& run_bufs, bool serve_data,
    TwoPhaseStats* stats, const TwoPhaseOptions& options,
    const TpMeters& m) {
  simkit::Engine& eng = comm.engine();
  const simkit::Time t_io = eng.now();
  std::exception_ptr deferred;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    if (serve_data) run_bufs[i].resize(runs[i].length);
    const std::span<std::byte> run_view = run_bufs[i];
    if (options.retry) {
      try {
        co_await resilient_pread(fs, comm.node(), file,
                                 runs[i].file_offset, runs[i].length,
                                 run_view, *options.retry,
                                 options.retry_stats);
      } catch (const pfs::IoError&) {
        deferred = std::current_exception();
        break;  // serve what we have; the caller discards on rethrow
      }
    } else {
      co_await fs.pread(comm.node(), file, runs[i].file_offset,
                        runs[i].length, run_view);
    }
    m.note_io(stats, runs[i].length);
  }
  m.note_io_time(stats, eng.now() - t_io);
  if (deferred && serve_data) {
    for (std::size_t i = 0; i < runs.size(); ++i) {
      run_bufs[i].resize(runs[i].length);
    }
  }
  co_return deferred;
}

// ---------------------------------------------------------------------------
// Hierarchical (aggregator-subset) path — active under a kTwoLevel
// collective topology.  The group leaders ARE the aggregators, so the
// rank->aggregator data motion rides the same leader routing the
// collectives use, and the O(P)-per-rank extent table is replaced by an
// allreduce of the global [lo, hi) bounds.  Per-source sub-extent lists —
// which the flat path reads out of the replicated table — are shipped
// inline as 16-byte (file_offset, length) records ahead of the data.
// ---------------------------------------------------------------------------

/// Global [lo, hi) of the collective access without the replicated extent
/// table: an allreduce of {min offset, -max end} under kMin.  Offsets ride
/// as doubles (exact below 2^53 — far beyond any simulated file).
simkit::Task<std::pair<std::uint64_t, std::uint64_t>> reduce_bounds(
    mprt::Comm& c, const std::vector<Extent>& mine) {
  double vals[2] = {std::numeric_limits<double>::infinity(),
                    std::numeric_limits<double>::infinity()};
  for (const auto& e : mine) {
    vals[0] = std::min(vals[0], static_cast<double>(e.file_offset));
    vals[1] = std::min(vals[1], -static_cast<double>(e.file_end()));
  }
  std::span<double> view(vals, 2);
  co_await mprt::allreduce(c, view, mprt::ReduceOp::kMin);
  std::pair<std::uint64_t, std::uint64_t> bounds{0, 0};
  if (std::isfinite(vals[0])) {
    bounds = {static_cast<std::uint64_t>(vals[0]),
              static_cast<std::uint64_t>(-vals[1])};
  }
  co_return bounds;
}

/// Record frame: [n u64][n x (file_offset u64, length u64)].  Data bytes,
/// when carried, follow the records in the same payload.
std::vector<std::byte> encode_records(const std::vector<Extent>& subs) {
  std::vector<std::byte> out(8 + subs.size() * 16);
  const std::uint64_t n = subs.size();
  std::memcpy(out.data(), &n, 8);
  for (std::size_t i = 0; i < subs.size(); ++i) {
    std::uint64_t pair[2] = {subs[i].file_offset, subs[i].length};
    std::memcpy(out.data() + 8 + i * 16, pair, 16);
  }
  return out;
}

/// Decode a record frame into `out` (cleared first, storage reused).  A
/// payload too short to hold its records decodes to none.
void decode_records(std::span<const std::byte> pay, std::vector<Extent>& out) {
  out.clear();
  if (pay.size() < 8) return;
  std::uint64_t n = 0;
  std::memcpy(&n, pay.data(), 8);
  if (pay.size() < 8 + n * 16) return;
  out.resize(static_cast<std::size_t>(n));
  for (std::size_t i = 0; i < out.size(); ++i) {
    std::uint64_t pair[2];
    std::memcpy(pair, pay.data() + 8 + i * 16, 16);
    out[i] = Extent{pair[0], pair[1], 0};
  }
}

/// Byte offset where data begins inside a records+data payload.
std::size_t records_size(const std::vector<Extent>& recs) {
  return 8 + recs.size() * 16;
}

/// Collective write over the aggregator subset.  Parameters by value
/// (coroutine); comm/fs stay alive in the caller's frame across the await.
simkit::Task<void> hier_write(mprt::Comm& comm, pfs::StripedFs& fs,
                              pfs::FileId file, std::vector<Extent> mine,
                              std::span<const std::byte> local_data,
                              TwoPhaseStats* stats, TwoPhaseOptions options) {
  simkit::Engine& eng = comm.engine();
  const TpMeters m;
  const int p = comm.size();
  const int width = mprt::two_level_group_width(p, comm.topology());
  const auto leaders = mprt::two_level_leaders(p, width);
  const int naggs = static_cast<int>(leaders.size());

  const simkit::Time t_meta = eng.now();
  const auto bounds = co_await reduce_bounds(comm, mine);
  const Domains dom = make_domains(bounds.first, bounds.second, naggs,
                                   fs.stripe_map(file).stripe_unit());
  m.note_exchange_time(stats, eng.now() - t_meta);
  if (dom.chunk == 0) co_return;  // reduced bounds: all ranks agree

  // ---- exchange phase: records (+ data) to the owning aggregators ------
  // Records always travel (the aggregators plan their runs from them);
  // data bytes ride along only when the file keeps them.  The simulated
  // size counts the data either way.
  const simkit::Time t_x = eng.now();
  const bool assemble = fs.is_backed(file);
  const bool with_data = assemble && !local_data.empty();
  std::vector<std::uint64_t> send_bytes(static_cast<std::size_t>(p), 0);
  std::vector<std::vector<std::byte>> payload_store(
      static_cast<std::size_t>(naggs));
  std::vector<std::span<const std::byte>> payload_views(
      static_cast<std::size_t>(p));
  std::vector<Extent> subs;  // scratch, reused per aggregator
  std::uint64_t packed = 0;
  for (int a = 0; a < naggs; ++a) {
    const auto [dlo, dhi] = dom.of(a);
    intersect_into(mine, dlo, dhi, subs);
    if (subs.empty()) continue;  // nothing for this aggregator: no message
    const std::uint64_t data_bytes = total_length(subs);
    const auto dst = static_cast<std::size_t>(leaders[a]);
    auto& buf = payload_store[static_cast<std::size_t>(a)];
    buf = encode_records(subs);
    if (with_data) {
      buf.reserve(buf.size() + data_bytes);
      for (const auto& sub : subs) {
        buf.insert(buf.end(), local_data.begin() + sub.buf_offset,
                   local_data.begin() + sub.buf_offset + sub.length);
      }
    }
    send_bytes[dst] = records_size(subs) + data_bytes;
    payload_views[dst] = buf;
    packed += records_size(subs) + data_bytes;
  }
  co_await comm.machine().mem_copy(packed);  // pack pass
  // Only aggregators receive anything: they keep the payload of each
  // source that sent records.
  std::vector<std::vector<std::byte>> received;
  mprt::RecvSink keep = [&](mprt::Message& msg) {
    if (!msg.payload.empty()) received.push_back(std::move(msg.payload));
  };
  co_await mprt::alltoallv(comm, std::move(send_bytes),
                           std::move(payload_views), std::move(keep));

  // ---- aggregator side: decode records, assemble runs ------------------
  // Each source's records are decoded straight out of its payload: once
  // to plan the runs, and once more to land the data when the file is
  // backed.  No per-source record lists are kept.
  std::vector<Extent> domain_pieces;
  for (const auto& pay : received) {
    decode_records(pay, subs);
    domain_pieces.insert(domain_pieces.end(), subs.begin(), subs.end());
  }
  const std::uint64_t unpacked = total_length(domain_pieces);
  const auto runs = TwoPhase::merge_runs(std::move(domain_pieces));
  std::vector<std::vector<std::byte>> run_bufs(runs.size());
  if (assemble) {
    for (std::size_t i = 0; i < runs.size(); ++i) {
      run_bufs[i].resize(runs[i].length);
    }
    for (const auto& pay : received) {
      decode_records(pay, subs);
      std::size_t cursor = records_size(subs);  // data follows records
      for (const auto& sub : subs) {
        const std::size_t ri = run_of(runs, sub.file_offset);
        if (pay.size() >= cursor + sub.length) {
          std::memcpy(run_bufs[ri].data() +
                          (sub.file_offset - runs[ri].file_offset),
                      pay.data() + cursor, sub.length);
        }
        cursor += sub.length;
      }
    }
  }
  received = {};  // landed in the runs
  co_await comm.machine().mem_copy(unpacked);  // unpack pass
  m.note_exchange_time(stats, eng.now() - t_x);

  // ---- I/O phase: only aggregators have runs ---------------------------
  const std::exception_ptr deferred =
      co_await write_runs(comm, fs, file, runs, run_bufs, stats, options, m);

  co_await mprt::barrier(comm);  // collective completion
  if (deferred) std::rethrow_exception(deferred);
}

/// Collective read over the aggregator subset: a request round (records
/// only), aggregator preads, then a reply round (data in request order).
simkit::Task<void> hier_read(mprt::Comm& comm, pfs::StripedFs& fs,
                             pfs::FileId file, std::vector<Extent> mine,
                             std::span<std::byte> local_out,
                             TwoPhaseStats* stats, TwoPhaseOptions options) {
  simkit::Engine& eng = comm.engine();
  const TpMeters m;
  const int p = comm.size();
  const int width = mprt::two_level_group_width(p, comm.topology());
  const auto leaders = mprt::two_level_leaders(p, width);
  const int naggs = static_cast<int>(leaders.size());

  const simkit::Time t_meta = eng.now();
  const auto bounds = co_await reduce_bounds(comm, mine);
  const Domains dom = make_domains(bounds.first, bounds.second, naggs,
                                   fs.stripe_map(file).stripe_unit());
  m.note_exchange_time(stats, eng.now() - t_meta);
  if (dom.chunk == 0) co_return;

  const bool serve_data = fs.is_backed(file);

  // ---- request round: my sub-extent records to each aggregator ---------
  const simkit::Time t_req = eng.now();
  std::vector<std::vector<Extent>> my_subs(static_cast<std::size_t>(naggs));
  std::vector<std::uint64_t> req_bytes(static_cast<std::size_t>(p), 0);
  std::vector<std::vector<std::byte>> req_store(
      static_cast<std::size_t>(naggs));
  std::vector<std::span<const std::byte>> req_views(
      static_cast<std::size_t>(p));
  std::uint64_t packed_req = 0;
  for (int a = 0; a < naggs; ++a) {
    const auto au = static_cast<std::size_t>(a);
    const auto [dlo, dhi] = dom.of(a);
    intersect_into(mine, dlo, dhi, my_subs[au]);
    const auto& subs = my_subs[au];
    if (subs.empty()) continue;
    const auto dst = static_cast<std::size_t>(leaders[a]);
    req_store[au] = encode_records(subs);
    req_bytes[dst] = records_size(subs);
    req_views[dst] = req_store[au];
    packed_req += records_size(subs);
  }
  co_await comm.machine().mem_copy(packed_req);
  // Only aggregators receive requests: they keep each requesting source's
  // records, which later give way to its reply data.
  struct Request {
    mprt::Rank src;
    std::vector<std::byte> bytes;
  };
  std::vector<Request> requests;
  mprt::RecvSink keep = [&](mprt::Message& msg) {
    if (!msg.payload.empty()) {
      requests.push_back(Request{msg.src, std::move(msg.payload)});
    }
  };
  co_await mprt::alltoallv(comm, std::move(req_bytes), std::move(req_views),
                           std::move(keep));
  m.note_exchange_time(stats, eng.now() - t_req);

  // ---- I/O phase (aggregators): pread the merged request runs ----------
  // Requests are decoded straight out of their payloads — here to plan
  // the runs and size the replies, and again to pack the replies when
  // the file serves real bytes.  No per-source record lists are kept.
  std::vector<std::uint64_t> rep_bytes(static_cast<std::size_t>(p), 0);
  std::vector<Extent> recs;  // scratch, reused per source
  std::vector<Extent> domain_pieces;
  for (const auto& req : requests) {
    decode_records(req.bytes, recs);
    rep_bytes[static_cast<std::size_t>(req.src)] = total_length(recs);
    domain_pieces.insert(domain_pieces.end(), recs.begin(), recs.end());
  }
  const auto runs = TwoPhase::merge_runs(std::move(domain_pieces));
  std::vector<std::vector<std::byte>> run_bufs(runs.size());
  const std::exception_ptr deferred = co_await read_runs(
      comm, fs, file, runs, run_bufs, serve_data, stats, options, m);

  // ---- reply round: data back to requesters, in request order ----------
  // Only an aggregator serving real bytes holds reply buffers: each
  // request's records give way to its reply data.
  const simkit::Time t_x = eng.now();
  std::vector<std::span<const std::byte>> rep_views;
  std::uint64_t packed = 0;
  for (const std::uint64_t bytes : rep_bytes) packed += bytes;
  if (serve_data && !requests.empty()) {
    rep_views.resize(static_cast<std::size_t>(p));
    for (auto& req : requests) {
      const auto su = static_cast<std::size_t>(req.src);
      decode_records(req.bytes, recs);
      std::vector<std::byte> reply;
      reply.reserve(rep_bytes[su]);
      for (const auto& sub : recs) {
        const std::size_t ri = run_of(runs, sub.file_offset);
        const auto* src = run_bufs[ri].data() +
                          (sub.file_offset - runs[ri].file_offset);
        reply.insert(reply.end(), src, src + sub.length);
      }
      req.bytes = std::move(reply);
      rep_views[su] = req.bytes;
    }
  } else {
    requests = {};  // timing-only: the records are spent
  }
  co_await comm.machine().mem_copy(packed);  // pack pass

  // Scatter each leader's reply as it arrives, by my own request order to
  // that leader's domain.
  std::uint64_t unpacked = 0;
  mprt::RecvSink scatter = [&](mprt::Message& msg) {
    if (msg.src % width != 0) return;  // not a leader: sent nothing
    const auto& subs = my_subs[static_cast<std::size_t>(msg.src / width)];
    std::size_t cursor = 0;
    for (const auto& sub : subs) {
      if (!local_out.empty() && msg.payload.size() >= cursor + sub.length) {
        std::memcpy(local_out.data() + sub.buf_offset,
                    msg.payload.data() + cursor, sub.length);
      }
      cursor += sub.length;
      unpacked += sub.length;
    }
  };
  co_await mprt::alltoallv(comm, std::move(rep_bytes), std::move(rep_views),
                           std::move(scatter));
  co_await comm.machine().mem_copy(unpacked);  // unpack pass
  m.note_exchange_time(stats, eng.now() - t_x);
  if (deferred) std::rethrow_exception(deferred);
}

}  // namespace

std::vector<Extent> TwoPhase::intersect(std::span<const Extent> pieces,
                                        std::uint64_t lo, std::uint64_t hi) {
  std::vector<Extent> out;
  append_intersection(pieces, lo, hi, out);
  return out;
}

std::vector<Extent> TwoPhase::merge_runs(std::vector<Extent> pieces) {
  if (pieces.empty()) return pieces;
  std::sort(pieces.begin(), pieces.end(),
            [](const Extent& a, const Extent& b) {
              return a.file_offset < b.file_offset;
            });
  std::vector<Extent> out;
  out.push_back(Extent{pieces[0].file_offset, pieces[0].length, 0});
  for (std::size_t i = 1; i < pieces.size(); ++i) {
    Extent& last = out.back();
    if (pieces[i].file_offset <= last.file_end()) {
      last.length = std::max(last.file_end(), pieces[i].file_end()) -
                    last.file_offset;
    } else {
      out.push_back(Extent{pieces[i].file_offset, pieces[i].length, 0});
    }
  }
  return out;
}

simkit::Task<void> TwoPhase::write(mprt::Comm& comm, pfs::StripedFs& fs,
                                   pfs::FileId file, std::vector<Extent> mine,
                                   std::span<const std::byte> local_data,
                                   TwoPhaseStats* stats,
                                   TwoPhaseOptions options) {
  simkit::Engine& eng = comm.engine();
  const TpMeters m;
  const int p = comm.size();
  std::sort(mine.begin(), mine.end(), [](const Extent& a, const Extent& b) {
    return a.file_offset != b.file_offset ? a.file_offset < b.file_offset
                                          : a.buf_offset < b.buf_offset;
  });
  if (comm.topology().kind == mprt::CollectiveTopology::Kind::kTwoLevel) {
    // Aggregator-subset path: the topology's group leaders do the file
    // I/O; options.aggregators is superseded by the leader set.
    co_await hier_write(comm, fs, file, std::move(mine), local_data, stats,
                        options);
    co_return;
  }

  const simkit::Time t_meta = eng.now();
  ExtentTable all = co_await allgather_extents(comm, mine);
  // Ranks beyond the aggregator count own empty file domains and only
  // participate in the exchange (ROMIO's collective-buffering nodes).
  const int aggs = options.aggregators > 0 && options.aggregators <= p
                       ? options.aggregators
                       : p;
  const Domains dom =
      partition(all, aggs, fs.stripe_map(file).stripe_unit());
  m.note_exchange_time(stats, eng.now() - t_meta);
  if (dom.chunk == 0) co_return;

  // ---- plan my domain's runs; keep only my domain's slice of the table --
  // Aggregator-side data handling keys off the FILE being backed, not off
  // this rank's own buffer: a rank with no pieces of its own still owns a
  // domain and must land other ranks' real bytes.
  const bool assemble = fs.is_backed(file);
  const auto [my_lo, my_hi] = dom.of(comm.rank());
  DomainSlice slice = all.slice(my_lo, my_hi);
  all = {};
  const std::uint64_t unpacked = total_length(slice.ext);
  const auto runs = merge_runs(slice.ext);
  if (!assemble) slice = {};  // timing-only: the runs are all I need
  std::vector<std::vector<std::byte>> run_bufs(runs.size());
  if (assemble) {
    for (std::size_t i = 0; i < runs.size(); ++i) {
      run_bufs[i].resize(runs[i].length);
    }
  }

  // ---- exchange phase: ship my pieces to their domain owners ----------
  // Data bytes travel only when the file keeps them; the simulated sizes
  // are the same either way.
  const simkit::Time t_x = eng.now();
  const bool with_data = assemble && !local_data.empty();
  std::vector<std::uint64_t> send_bytes(static_cast<std::size_t>(p), 0);
  std::vector<std::vector<std::byte>> payload_store;
  std::vector<std::span<const std::byte>> payload_views;
  if (with_data) {
    payload_store.resize(static_cast<std::size_t>(p));
    payload_views.resize(static_cast<std::size_t>(p));
  }
  std::vector<Extent> subs;  // scratch, reused per domain
  std::uint64_t packed = 0;
  for (int d = 0; d < aggs; ++d) {
    const auto [dlo, dhi] = dom.of(d);
    intersect_into(mine, dlo, dhi, subs);
    const std::uint64_t bytes = total_length(subs);
    send_bytes[static_cast<std::size_t>(d)] = bytes;
    packed += bytes;
    if (with_data && bytes > 0) {
      auto& buf = payload_store[static_cast<std::size_t>(d)];
      buf.reserve(bytes);
      for (const auto& sub : subs) {
        buf.insert(buf.end(), local_data.begin() + sub.buf_offset,
                   local_data.begin() + sub.buf_offset + sub.length);
      }
      payload_views[static_cast<std::size_t>(d)] = buf;
    }
  }
  co_await comm.machine().mem_copy(packed);  // pack pass
  // Each source's bytes land in my runs as they arrive, by a sequential
  // cursor over its pieces in my domain.  Named vectors and sink, moved
  // in: a temporary built inside a co_await argument list trips a GCC 12
  // coroutine temporary-lifetime bug.  Empty views are "no data".
  mprt::RecvSink land = [&](mprt::Message& msg) {
    std::size_t cursor = 0;
    for (const auto& sub : slice.of(msg.src)) {
      const std::size_t ri = run_of(runs, sub.file_offset);
      if (msg.payload.size() >= cursor + sub.length) {
        std::memcpy(run_bufs[ri].data() +
                        (sub.file_offset - runs[ri].file_offset),
                    msg.payload.data() + cursor, sub.length);
      }
      cursor += sub.length;
    }
  };
  co_await mprt::alltoallv(comm, std::move(send_bytes),
                           std::move(payload_views), std::move(land));
  co_await comm.machine().mem_copy(unpacked);  // unpack pass
  m.note_exchange_time(stats, eng.now() - t_x);

  // ---- I/O phase: write my domain in large runs ------------------------
  const std::exception_ptr deferred =
      co_await write_runs(comm, fs, file, runs, run_bufs, stats, options, m);

  co_await mprt::barrier(comm);  // collective completion
  if (deferred) std::rethrow_exception(deferred);
}

simkit::Task<void> TwoPhase::read(mprt::Comm& comm, pfs::StripedFs& fs,
                                  pfs::FileId file, std::vector<Extent> mine,
                                  std::span<std::byte> local_out,
                                  TwoPhaseStats* stats,
                                  TwoPhaseOptions options) {
  simkit::Engine& eng = comm.engine();
  const TpMeters m;
  const int p = comm.size();
  std::sort(mine.begin(), mine.end(), [](const Extent& a, const Extent& b) {
    return a.file_offset != b.file_offset ? a.file_offset < b.file_offset
                                          : a.buf_offset < b.buf_offset;
  });
  if (comm.topology().kind == mprt::CollectiveTopology::Kind::kTwoLevel) {
    co_await hier_read(comm, fs, file, std::move(mine), local_out, stats,
                       options);
    co_return;
  }

  const simkit::Time t_meta = eng.now();
  ExtentTable all = co_await allgather_extents(comm, mine);
  const int aggs = options.aggregators > 0 && options.aggregators <= p
                       ? options.aggregators
                       : p;
  const Domains dom =
      partition(all, aggs, fs.stripe_map(file).stripe_unit());
  m.note_exchange_time(stats, eng.now() - t_meta);
  if (dom.chunk == 0) co_return;

  // Aggregator-side data handling keys off the FILE being backed (see the
  // note in write()); only the final scatter depends on local_out.
  const bool serve_data = fs.is_backed(file);

  // ---- I/O phase: read my domain's needed runs -------------------------
  // My domain's slice of the table yields both the runs and what each
  // source gets back in the exchange; the table goes before the I/O.
  const auto [my_lo, my_hi] = dom.of(comm.rank());
  DomainSlice slice = all.slice(my_lo, my_hi);
  all = {};
  std::vector<std::uint64_t> send_bytes(static_cast<std::size_t>(p), 0);
  for (const int s : slice.src) {
    for (const auto& e : slice.of(s)) {
      send_bytes[static_cast<std::size_t>(s)] += e.length;
    }
  }
  const std::uint64_t packed = total_length(slice.ext);
  const auto runs = merge_runs(slice.ext);
  if (!serve_data) slice = {};  // timing-only: nothing to pack later
  std::vector<std::vector<std::byte>> run_bufs(runs.size());
  const std::exception_ptr deferred = co_await read_runs(
      comm, fs, file, runs, run_bufs, serve_data, stats, options, m);

  // ---- exchange phase: ship pieces to their requesters -----------------
  // One reply buffer per source with pieces in my domain, in slice order.
  const simkit::Time t_x = eng.now();
  std::vector<std::vector<std::byte>> payload_store;
  std::vector<std::span<const std::byte>> payload_views;
  if (serve_data) {
    payload_store.resize(slice.src.size());
    payload_views.resize(static_cast<std::size_t>(p));
    for (std::size_t i = 0; i < slice.src.size(); ++i) {
      const int s = slice.src[i];
      auto& buf = payload_store[i];
      buf.reserve(send_bytes[static_cast<std::size_t>(s)]);
      for (const auto& sub : slice.of(s)) {
        const std::size_t ri = run_of(runs, sub.file_offset);
        const auto* src = run_bufs[ri].data() +
                          (sub.file_offset - runs[ri].file_offset);
        buf.insert(buf.end(), src, src + sub.length);
      }
      payload_views[static_cast<std::size_t>(s)] = buf;
    }
  }
  co_await comm.machine().mem_copy(packed);  // pack pass

  // Scatter each reply into my local buffer as it arrives, by a
  // sequential cursor over my pieces in the sender's domain.
  std::vector<Extent> subs;  // scratch, reused per domain
  std::uint64_t unpacked = 0;
  mprt::RecvSink scatter = [&](mprt::Message& msg) {
    if (msg.src >= aggs) return;  // owns no domain, sent nothing
    const auto [dlo, dhi] = dom.of(msg.src);
    intersect_into(mine, dlo, dhi, subs);
    std::size_t cursor = 0;
    for (const auto& sub : subs) {
      if (!local_out.empty() && msg.payload.size() >= cursor + sub.length) {
        std::memcpy(local_out.data() + sub.buf_offset,
                    msg.payload.data() + cursor, sub.length);
      }
      cursor += sub.length;
      unpacked += sub.length;
    }
  };
  co_await mprt::alltoallv(comm, std::move(send_bytes),
                           std::move(payload_views), std::move(scatter));
  co_await comm.machine().mem_copy(unpacked);  // unpack pass
  m.note_exchange_time(stats, eng.now() - t_x);
  if (deferred) std::rethrow_exception(deferred);
}

}  // namespace pario
