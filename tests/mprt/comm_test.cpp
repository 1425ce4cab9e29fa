// Tests for ranked send/recv semantics.
#include "mprt/comm.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <span>
#include <vector>

#include "hw/machine.hpp"
#include "simkit/engine.hpp"

namespace mprt {
namespace {

struct Rig {
  simkit::Engine eng;
  hw::Machine machine;
  explicit Rig(std::size_t nodes = 8)
      : machine(eng, hw::MachineConfig::paragon_small(nodes, 2)) {}
};

TEST(Comm, PingPong) {
  Rig rig;
  std::vector<int> log;
  Cluster::execute(rig.machine, 2, [&](Comm& c) -> simkit::Task<void> {
    if (c.rank() == 0) {
      co_await c.send(1, 7, 100);
      Message m = co_await c.recv(1, 8);
      log.push_back(m.tag);
    } else {
      Message m = co_await c.recv(0, 7);
      log.push_back(m.tag);
      co_await c.send(0, 8, 100);
    }
  });
  EXPECT_EQ(log, (std::vector<int>{7, 8}));
}

TEST(Comm, PayloadDeliveredIntact) {
  Rig rig;
  std::vector<std::byte> got;
  Cluster::execute(rig.machine, 2, [&](Comm& c) -> simkit::Task<void> {
    if (c.rank() == 0) {
      std::vector<std::byte> data(64);
      for (std::size_t i = 0; i < data.size(); ++i) {
        data[i] = static_cast<std::byte>(i * 3);
      }
      co_await c.send(1, 0, data.size(), data);
    } else {
      Message m = co_await c.recv(0, 0);
      got = std::move(m.payload);
    }
  });
  ASSERT_EQ(got.size(), 64u);
  EXPECT_EQ(got[10], static_cast<std::byte>(30));
}

TEST(Comm, TagMatchingSkipsNonMatching) {
  Rig rig;
  std::vector<int> order;
  Cluster::execute(rig.machine, 2, [&](Comm& c) -> simkit::Task<void> {
    if (c.rank() == 0) {
      co_await c.send(1, 5, 10);
      co_await c.send(1, 6, 10);
    } else {
      Message m6 = co_await c.recv(0, 6);  // must match tag 6 first
      order.push_back(m6.tag);
      Message m5 = co_await c.recv(0, 5);
      order.push_back(m5.tag);
    }
  });
  EXPECT_EQ(order, (std::vector<int>{6, 5}));
}

TEST(Comm, AnySourceReceivesFromWhoeverArrives) {
  Rig rig;
  std::vector<Rank> sources;
  Cluster::execute(rig.machine, 4, [&](Comm& c) -> simkit::Task<void> {
    if (c.rank() == 0) {
      for (int i = 0; i < 3; ++i) {
        Message m = co_await c.recv(kAnySource, 1);
        sources.push_back(m.src);
      }
    } else {
      // Stagger arrival by rank so order is deterministic.
      co_await c.engine().delay(0.001 * c.rank());
      co_await c.send(0, 1, 10);
    }
  });
  EXPECT_EQ(sources, (std::vector<Rank>{1, 2, 3}));
}

TEST(Comm, FifoBetweenSamePair) {
  Rig rig;
  std::vector<std::uint64_t> sizes;
  Cluster::execute(rig.machine, 2, [&](Comm& c) -> simkit::Task<void> {
    if (c.rank() == 0) {
      for (std::uint64_t i = 1; i <= 5; ++i) co_await c.send(1, 0, i);
    } else {
      for (int i = 0; i < 5; ++i) {
        Message m = co_await c.recv(0, 0);
        sizes.push_back(m.bytes);
      }
    }
  });
  EXPECT_EQ(sizes, (std::vector<std::uint64_t>{1, 2, 3, 4, 5}));
}

TEST(Comm, TransferTimeScalesWithBytes) {
  auto run_msg = [](std::uint64_t bytes) {
    simkit::Engine eng;
    hw::Machine machine(eng, hw::MachineConfig::paragon_small(4, 2));
    return Cluster::execute(machine, 2, [&](Comm& c) -> simkit::Task<void> {
      if (c.rank() == 0) {
        co_await c.send(1, 0, bytes);
      } else {
        (void)co_await c.recv(0, 0);
      }
    });
  };
  const double small = run_msg(10'000);
  const double big = run_msg(10'000'000);
  EXPECT_GT(big, 50.0 * small);
}

TEST(Comm, CountsTraffic) {
  Rig rig;
  Cluster cluster(rig.machine, 2);
  rig.eng.spawn(cluster.run([](Comm& c) -> simkit::Task<void> {
    if (c.rank() == 0) {
      co_await c.send(1, 0, 500);
      co_await c.send(1, 0, 700);
    } else {
      (void)co_await c.recv(0, 0);
      (void)co_await c.recv(0, 0);
    }
  }));
  rig.eng.run();
  EXPECT_EQ(cluster.comm(0).messages_sent(), 2u);
  EXPECT_EQ(cluster.comm(0).bytes_sent(), 1200u);
}

TEST(Comm, RecvPostedBeforeSendResumesAtDelivery) {
  Rig rig;
  double delivered = -1.0;
  double resumed = -1.0;
  Cluster::execute(rig.machine, 2, [&](Comm& c) -> simkit::Task<void> {
    if (c.rank() == 0) {
      co_await c.engine().delay(0.001);
      co_await c.send(1, 4, 1000);
      delivered = c.engine().now();  // send completes at delivery
    } else {
      Message m = co_await c.recv(0, 4);  // posted at t = 0
      resumed = c.engine().now();
      EXPECT_EQ(m.bytes, 1000u);
    }
  });
  EXPECT_EQ(resumed, delivered);
  EXPECT_EQ(delivered,
            0.001 + rig.machine.network().base_transfer_time(
                        rig.machine.compute_node(0),
                        rig.machine.compute_node(1), 1000 + 32));
}

TEST(Comm, RecvServedFromMailboxDoesNotSuspend) {
  Rig rig;
  double posted = -1.0;
  double resumed = -1.0;
  std::uint64_t events_before = 0;
  std::uint64_t events_after = 0;
  Cluster::execute(rig.machine, 2, [&](Comm& c) -> simkit::Task<void> {
    if (c.rank() == 0) {
      co_await c.send(1, 4, 1000);
    } else {
      co_await c.engine().delay(0.05);  // long after the delivery
      posted = c.engine().now();
      events_before = c.engine().events_processed();
      Message m = co_await c.recv(0, 4);
      events_after = c.engine().events_processed();
      resumed = c.engine().now();
      EXPECT_EQ(m.bytes, 1000u);
    }
  });
  EXPECT_EQ(resumed, posted);
  EXPECT_EQ(events_after, events_before);  // no event, no suspension
}

TEST(Comm, MixedWildcardReceiversKeepStreamFifo) {
  // Rank 0 sends tags 1 and 2, rank 1 sends tag 3, all to rank 2.  Rank 2
  // runs three receivers at once: (any source, tag 1), (source 1, any
  // tag) and (source 0, tag 2).  Their match sets are disjoint, so each
  // receiver sees exactly one stream, in send order.  Receivers posted
  // early resume at the delivery instant; ones posted late take the
  // message from the mailbox at their own post time.
  Rig rig;
  struct Sent {
    Rank src;
    int tag;
    int seq;
    double delivered;
  };
  struct Got {
    Rank src;
    int tag;
    int seq;
    double posted;
    double resumed;
  };
  std::vector<Sent> sent;
  std::vector<std::vector<Got>> got(3);
  Cluster::execute(rig.machine, 3, [&](Comm& c) -> simkit::Task<void> {
    if (c.rank() == 0) {
      for (int seq = 0; seq < 6; ++seq) {
        const int tag = 1 + seq % 2;
        const std::byte b{static_cast<unsigned char>(seq)};
        co_await c.send(2, tag, 2000 + 500 * static_cast<std::uint64_t>(seq),
                        std::span<const std::byte>(&b, 1));
        sent.push_back({0, tag, seq, c.engine().now()});
      }
    } else if (c.rank() == 1) {
      co_await c.engine().delay(0.0004);
      for (int seq = 0; seq < 3; ++seq) {
        const std::byte b{static_cast<unsigned char>(seq)};
        co_await c.send(2, 3, 100, std::span<const std::byte>(&b, 1));
        sent.push_back({1, 3, seq, c.engine().now()});
      }
    } else {
      auto receiver = [](Comm& cm, Rank src, int tag, int count,
                         double start,
                         std::vector<Got>& log) -> simkit::Task<void> {
        co_await cm.engine().delay(start);
        for (int i = 0; i < count; ++i) {
          const double posted = cm.engine().now();
          Message m = co_await cm.recv(src, tag);
          log.push_back({m.src, m.tag, static_cast<int>(m.payload.at(0)),
                         posted, cm.engine().now()});
          co_await cm.engine().delay(0.0002);
        }
      };
      std::vector<simkit::ProcHandle> hs;
      hs.push_back(c.engine().spawn(
          receiver(c, kAnySource, 1, 3, 0.0, got[0])));
      hs.push_back(c.engine().spawn(
          receiver(c, 1, kAnyTag, 3, 0.002, got[1])));
      hs.push_back(c.engine().spawn(receiver(c, 0, 2, 3, 0.0007, got[2])));
      for (auto& h : hs) co_await h.join();
    }
  });
  ASSERT_EQ(sent.size(), 9u);
  const std::vector<std::pair<Rank, int>> streams = {{0, 1}, {1, 3}, {0, 2}};
  int from_mailbox = 0;
  int posted_early = 0;
  for (std::size_t r = 0; r < 3; ++r) {
    ASSERT_EQ(got[r].size(), 3u) << "receiver " << r;
    int last_seq = -1;
    for (const Got& g : got[r]) {
      EXPECT_EQ(g.src, streams[r].first);
      EXPECT_EQ(g.tag, streams[r].second);
      EXPECT_GT(g.seq, last_seq) << "stream order, receiver " << r;
      last_seq = g.seq;
      const auto it =
          std::find_if(sent.begin(), sent.end(), [&](const Sent& s) {
            return s.src == g.src && s.tag == g.tag && s.seq == g.seq;
          });
      ASSERT_NE(it, sent.end());
      EXPECT_EQ(g.resumed, std::max(g.posted, it->delivered));
      if (g.posted > it->delivered) ++from_mailbox;
      if (g.posted < it->delivered) ++posted_early;
    }
  }
  // The staggered starts exercise both receive paths.
  EXPECT_GT(from_mailbox, 0);
  EXPECT_GT(posted_early, 0);
}

TEST(Cluster, RanksMapToDistinctComputeNodes) {
  Rig rig;
  Cluster cluster(rig.machine, 4);
  for (int r = 0; r < 4; ++r) {
    EXPECT_EQ(cluster.comm(r).node(),
              rig.machine.compute_node(static_cast<std::size_t>(r)));
  }
}

}  // namespace
}  // namespace mprt
